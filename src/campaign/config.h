// Campaign execution knobs (environment-resolved defaults).
//
// Like GDELAY_THREADS / GDELAY_BACKEND / GDELAY_SERVICE_SHARDS, the two
// campaign knobs are reproducibility-neutral performance settings: the
// merged campaign result is bit-identical at any shard count and in any
// execution mode, so reading them from the environment cannot fork result
// content per host. The env reads live in config.cpp only (gdelay-audit
// R2 scopes the getenv allowance to campaign/config), and are performed
// per call — no namespace-scope cache, so no R4/R10 surface. Unlike
// GDELAY_THREADS, a set but malformed campaign knob throws rather than
// falling back to the default.
#pragma once

#include <cstddef>
#include <string>

namespace gdelay::campaign {

/// How shards execute. The merged result is identical in every mode.
enum class Mode {
  kSerial,  ///< One shard after another on the calling thread.
  kThread,  ///< Shards fanned out on the deterministic thread pool.
};

const char* mode_name(Mode m);

/// Parses "serial" / "thread"; throws std::invalid_argument on anything
/// else.
Mode parse_mode(const std::string& s);

/// GDELAY_CAMPAIGN_MODE if set (serial|thread), else kThread. A value
/// parse_mode() rejects throws std::invalid_argument.
Mode default_mode();

/// GDELAY_CAMPAIGN_SHARDS if set, else 4. A set value must be a whole
/// positive decimal that fits in `long` (digits only: no sign, space,
/// exponent or suffix); anything else throws std::invalid_argument.
std::size_t default_shards();

}  // namespace gdelay::campaign
