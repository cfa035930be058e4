// Lane-batched multi-stream executor.
//
// The serial-by-contract recursions (slew limiting, the VGA droop tail)
// cap a single stream's SIMD speedup: a loop-carried nonlinear dependence
// does not vectorize. But the repo's dominant workloads — Monte-Carlo
// matching trials, calibration Vctrl sweeps, board channels — are
// embarrassingly parallel across STREAMS. BatchRunner exploits that: it
// takes N independent cloned element chains (decorrelated via
// fork_noise(), programmed with per-stream taps and Vctrl), transposes
// each chunk into an interleaved time-major layout buf[i*w + s], and
// makes one call per chunk (per group of util::kMaxLanes streams, when
// there are more) to the chain's own lane pass
// (VariableDelayChannel::process_lanes or FineDelayLine::process_lanes,
// see analog/element.h), whose batched backend kernels advance 4 streams
// per AVX2 iteration — serial in time, parallel across streams. The
// runner names no part of a chain: the pass it runs is the one every
// solo process_block() runs at w == 1.
//
// Determinism contract (enforced by tests/test_batch_equivalence.cpp):
// every stream's output is bit-identical to its solo run
// (stream.process(stimulus)) on the same backend, for ANY batch width
// and ANY stream-to-lane assignment. Each stream draws from its own RNG
// in the solo order, so fork_noise() decorrelation is preserved exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "core/channel.h"
#include "measure/sinks.h"
#include "signal/waveform.h"

namespace gdelay::core {

/// Streams per BatchRunner at the sites that fan lane groups out over the
/// pool (calibration's clone sweeps, the service's kMeasure verification,
/// bench_mc_matching): one AVX2 vector of lanes. Groups are a pure
/// function of the stream index, and every stream is bit-identical to its
/// solo run at any width, so this sets task layout, never output bytes.
inline constexpr std::size_t kLaneGroup = 4;

class BatchRunner {
 public:
  BatchRunner() = default;

  /// Adds a stream (borrowed; must outlive the runner). All streams in
  /// one runner must be the same kind — whole channels or bare fine
  /// lines — with the same stage count; per-stream tap selection, Vctrl
  /// and RNG streams may differ freely.
  void add(VariableDelayChannel& ch);
  void add(FineDelayLine& line);

  std::size_t width() const {
    return channels_.empty() ? fines_.size() : channels_.size();
  }

  /// Resets every stream, then runs the shared stimulus through all of
  /// them in lockstep chunks. outs[s] is bit-identical to
  /// streams[s].process(stimulus) on the active backend.
  std::vector<sig::Waveform> run(const sig::Waveform& stimulus);

  /// Reuse variant: `outs` is resized/regridded as needed, so repeated
  /// runs allocate nothing after the first.
  void run(const sig::Waveform& stimulus, std::vector<sig::Waveform>& outs);

  /// Streaming variant: feeds each stream's output column into its sink
  /// (begin/consume/finish), chunked exactly like the solo Pipeline
  /// path, so incremental measurements match their solo-run results.
  void run(const sig::Waveform& stimulus,
           const std::vector<meas::ISampleSink*>& sinks);

 private:
  /// Resets the streams, then for each kBlockSamples chunk of `stimulus`
  /// and each group of at most util::kMaxLanes streams: interleaves the
  /// chunk into the group's lanes, runs the lane pass in place, and hands
  /// stream s's output column to `emit(s, offset, n, col)`.
  template <typename Emit>
  void run_chunks(const sig::Waveform& stimulus, Emit&& emit);

  std::vector<VariableDelayChannel*> channels_;
  std::vector<FineDelayLine*> fines_;

  // Interleaved chunk (kBlockSamples * group width) and one output
  // column, sized once per run and reused across chunks.
  std::vector<double> ilv_, col_;
};

}  // namespace gdelay::core
