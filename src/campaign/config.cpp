#include "campaign/config.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace gdelay::campaign {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSerial:
      return "serial";
    case Mode::kThread:
      return "thread";
  }
  return "?";
}

Mode parse_mode(const std::string& s) {
  if (s == "serial") return Mode::kSerial;
  if (s == "thread") return Mode::kThread;
  throw std::invalid_argument("campaign: unknown mode '" + s +
                              "' (serial|thread)");
}

// The env reads below are covered by the scoped R2 allowlist entry for
// campaign/config: both knobs are performance-only, and test_campaign
// pins that merged results are bit-identical at any setting.

Mode default_mode() {
  if (const char* env = std::getenv("GDELAY_CAMPAIGN_MODE"))
    return parse_mode(env);
  return Mode::kThread;
}

std::size_t default_shards() {
  const char* env = std::getenv("GDELAY_CAMPAIGN_SHARDS");
  if (!env) return 4;
  const char* end = env + std::strlen(env);
  long n = 0;
  // from_chars takes no leading space or '+'; a '-' parses but fails n >= 1.
  const auto [ptr, ec] = std::from_chars(env, end, n);
  if (ec != std::errc() || ptr != end || n < 1)
    throw std::invalid_argument(
        std::string("campaign: GDELAY_CAMPAIGN_SHARDS must be a whole "
                    "positive number, got '") +
        env + "'");
  return static_cast<std::size_t>(n);
}

}  // namespace gdelay::campaign
