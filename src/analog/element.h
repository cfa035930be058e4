// Base interface for behavioral analog elements.
//
// Every element is a causal, stateful, sample-in/sample-out process.
// `process_block(in, out, n, dt)` advances `n` sample periods of `dt` and
// writes the output voltages. Overrides hoist dt-dependent coefficients
// out of the sample loop and batch the noise draws. Elements compose by
// nesting block calls (or `Cascade`), and `process()` runs a whole
// waveform through in kBlockSamples chunks.
//
// For the elements of the delay channel's signal chain (the leaf filters,
// NoiseSource, both buffers, TransmissionLine, the coarse and fine blocks
// and the channel), that one implementation is a static lane pass,
// `process_lanes(lanes, w, in, out, n, dt)`: it advances `w` elements of
// one type in lockstep over interleaved buffers buf[i*w + s], each lane
// with its own element's coefficients and state. Their process_block()
// is that pass at w == 1 on the element itself (run_as_lane), and
// core::BatchRunner runs the channel's pass at the batch width. A lane
// pass names only its own element's parts and calls their lane passes,
// so the chain's order is written once, in each element's .cpp.
//
// `step(vin, dt)` is derived, not overridden: it is process_block() with
// n == 1. A control port that varies *during* a run, such as the delay
// line's Vctrl in the paper's jitter-injection mode, is driven by
// setting it between n == 1 block calls. Every element's output must not
// depend on how a run is chunked (tests/test_block_kernels.cpp); the
// chunk-size-1 leg of that check, plus the frozen per-sample digests in
// tests/test_golden_digests.cpp, is the per-sample reference.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "signal/waveform.h"
#include "util/scratch.h"

namespace gdelay::analog {

/// Samples per chunk in the blocked waveform paths: big enough to
/// amortize coefficient derivation and virtual dispatch, small enough
/// that a handful of stage-major scratch buffers stay cache-resident.
inline constexpr std::size_t kBlockSamples = 1024;

/// Calls `f(s, x, y)` for each of the `w` lanes of a lane pass, with lane
/// s's `n` samples as contiguous columns: at w == 1 `x` and `y` are `in`
/// and `out` themselves; wider, `x` is gathered from `in` and `y`
/// scattered to `out` through one scratch column. `in` may be nullptr
/// (then so is `x`). For the parts of a lane pass that are per lane by
/// nature: the noise draws and the transmission-line ring walk.
template <typename F>
void for_each_lane_column(const double* in, double* out, std::size_t n,
                          std::size_t w, F&& f) {
  if (w == 1) {
    f(std::size_t{0}, in, out);
    return;
  }
  util::ScratchBuffer col(n);
  for (std::size_t s = 0; s < w; ++s) {
    if (in != nullptr)
      for (std::size_t i = 0; i < n; ++i) col[i] = in[i * w + s];
    f(s, in != nullptr ? col.data() : nullptr, col.data());
    for (std::size_t i = 0; i < n; ++i) out[i * w + s] = col[i];
  }
}

/// The process_block() of a chain element: its lane pass at w == 1.
template <typename E>
void run_as_lane(E* self, const double* in, double* out, std::size_t n,
                 double dt_ps) {
  E::process_lanes(&self, 1, in, out, n, dt_ps);
}

class AnalogElement {
 public:
  virtual ~AnalogElement() = default;

  /// Clears all internal state (filter memories, delay lines, ...).
  virtual void reset() = 0;

  /// Deep copy carrying the complete internal state (filter memories,
  /// ring buffers, RNG streams). Clones drive the parallel calibration
  /// sweeps: each sweep point runs on its own clone, then fork_noise()
  /// decorrelates the copies deterministically. Every override must copy
  /// *all* state — a clone that diverges from its source under identical
  /// inputs breaks sweep determinism (rule R3 of gdelay-audit enforces
  /// that every element declares this).
  virtual std::unique_ptr<AnalogElement> clone() const = 0;

  /// Advances `n` sample periods with input in[0..n) and writes out[0..n).
  /// The result must not depend on how a run is split into calls.
  /// `in == out` (in-place) is allowed; other overlap is not. `dt_ps` may
  /// differ between calls (coefficient caches re-derive on change);
  /// within one call it is constant by signature.
  virtual void process_block(const double* in, double* out, std::size_t n,
                             double dt_ps) = 0;

  /// Advances one sample period of `dt_ps` with input `vin`; returns the
  /// output sample. Exactly process_block() with n == 1.
  double step(double vin, double dt_ps) {
    double out;
    process_block(&vin, &out, 1, dt_ps);
    return out;
  }

  /// Runs a whole waveform through a freshly reset element, in
  /// kBlockSamples chunks, and returns the output as a new waveform.
  sig::Waveform process(const sig::Waveform& in);

  /// Rvalue overload: transforms the argument's samples in place and
  /// returns the same storage — chained stages (`b.process(a.process(
  /// std::move(wf)))`) allocate nothing after the first waveform.
  sig::Waveform process(sig::Waveform&& in);
};

/// Serial composition of elements (owned).
class Cascade final : public AnalogElement {
 public:
  Cascade() = default;

  /// Appends an element; returns a reference for further configuration.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto el = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *el;
    stages_.push_back(std::move(el));
    return ref;
  }

  void add(std::unique_ptr<AnalogElement> el);

  std::size_t size() const { return stages_.size(); }
  AnalogElement& stage(std::size_t i) { return *stages_.at(i); }

  void reset() override;
  /// Stage-major: the whole block runs through stage k before stage k+1
  /// touches it. Mathematically identical for this feedforward chain, and
  /// it turns N virtual calls per sample into N per block.
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) override;
  /// Deep copy: each stage is cloned in order (unique_ptr stages make the
  /// compiler-generated copy unavailable).
  std::unique_ptr<AnalogElement> clone() const override;

 private:
  std::vector<std::unique_ptr<AnalogElement>> stages_;
};

}  // namespace gdelay::analog
