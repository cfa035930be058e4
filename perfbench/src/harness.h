// Shared plumbing of the gdelay benchmark: the workload interface the
// main loop runs, the clock, the layer accumulators the traced run
// fills, and the digest helpers behind every correctness check.
//
// A workload is a closed loop with one client: the main loop calls run()
// and waits for it to return before issuing the next op. Everything a
// workload does outside run() (building inputs, checking outputs) is
// untimed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Busy time and call count of one layer boundary.
struct Span {
  double ns = 0.0;
  std::uint64_t calls = 0;
  void add(double dns) {
    ns += dns;
    ++calls;
  }
};

/// Times the enclosing scope into a Span.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span& s) : span_(s), t0_(Clock::now()) {}
  ~ScopedSpan() { span_.add(ns_between(t0_, Clock::now())); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span& span_;
  Clock::time_point t0_;
};

/// A per-layer metric: value and unit, by name.
struct LayerValue {
  double value = 0.0;
  const char* unit = "";
};
using LayerMetrics = std::map<std::string, LayerValue>;

/// Backend passes: every workload runs its ops under both selections,
/// and references, goldens and stream metrics are kept per pass.
inline constexpr int kPasses = 2;
inline constexpr const char* kPassSelect[kPasses] = {"scalar", "auto"};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the system under test from scratch (construction, cache
  /// warm-up, model fit). Called several times; each call replaces the
  /// previous instance, and the main loop reports the median duration.
  virtual void setup() = 0;

  /// Digest of the golden op (fixed inputs, independent of --seed) under
  /// the active backend; compared with golden.txt.
  virtual std::uint64_t golden_digest() = 0;

  /// Untimed: builds the inputs of the k-th op of backend pass `pass`.
  /// The inputs are a pure function of (seed, k), so an op prepared twice
  /// must produce the same bytes.
  virtual void prepare(std::uint64_t k, int pass) = 0;
  /// Timed: runs the prepared op and returns the work it completed
  /// (samples, requests or trials). With `traced`, calls go through the
  /// timed adapters and accumulate into the workload's layer spans.
  virtual double run(bool traced) = 0;
  /// Untimed: checks the op's outputs; false counts the op as failed.
  virtual bool verify() = 0;

  /// Per-layer metrics accumulated over the traced ops. Only the layers
  /// this workload exercises; the others are idle and read 0.
  virtual void report_layers(LayerMetrics& m) const = 0;

  /// Knobs as the last op actually ran them (name -> JSON value), for the
  /// result stamp.
  virtual void report_knobs(std::map<std::string, std::string>&) const {}
};

std::unique_ptr<Workload> make_stream_eye(std::uint64_t seed);
std::unique_ptr<Workload> make_service_warm(std::uint64_t seed);
std::unique_ptr<Workload> make_service_recal(std::uint64_t seed);
/// `scratch` is a directory the workload may write (campaign checkpoints).
std::unique_ptr<Workload> make_campaign_mc(std::uint64_t seed,
                                           const std::string& scratch);

/// FNV-1a 64 accumulator over raw bytes (the repo's util::fnv1a64, fed
/// incrementally).
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Seed of the golden ops; their digests are checked in (golden.txt).
inline constexpr std::uint64_t kGoldenSeed = 20081017;

}  // namespace perfbench
