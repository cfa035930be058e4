// stream_eye: one solo stream, synth -> VariableDelayChannel -> eye + TIE,
// through core::Pipeline on one thread.
//
// Inputs from the seed: the RJ draws of a PRBS7 record at 6.4 Gb/s
// (RJ 1.1 ps, 2048 bits, ~1.28 M samples at 0.25 ps), the channel's noise
// streams, and its programming (coarse tap, Vctrl). Every op streams the
// same record through a fresh copy of the programmed channel, so each
// op of a backend pass must reproduce the pass's first digest bit for
// bit; the traced op splits the channel into its seven stages. Set-up
// builds the inputs and streams a short warm-up record.
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analog/buffer.h"
#include "core/channel.h"
#include "core/coarse_delay.h"
#include "core/pipeline.h"
#include "harness.h"
#include "measure/eye.h"
#include "measure/jitter.h"
#include "measure/sinks.h"
#include "signal/pattern.h"
#include "signal/stream.h"
#include "signal/synth.h"
#include "timed.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace gdelay;

constexpr std::size_t kBits = 2048;
constexpr std::size_t kWarmupBits = 128;
constexpr double kSettlePs = 12000.0;
constexpr int kVgaStages = 4;

// One stream record plus the programmed channel it runs through.
struct StreamInput {
  std::unique_ptr<sig::SynthSource> source;
  std::optional<core::VariableDelayChannel> channel;
  double ui_ps = 0.0;
};

sig::SynthConfig stim_config() {
  sig::SynthConfig sc;
  sc.rate_gbps = 6.4;
  sc.rj_sigma_ps = 1.1;
  return sc;
}

StreamInput make_input(std::uint64_t seed) {
  util::Rng rng(seed);
  StreamInput in;
  in.source = std::make_unique<sig::SynthSource>(
      sig::plan_nrz(sig::prbs(7, kBits), stim_config(), &rng));
  in.ui_ps = in.source->unit_interval_ps();
  in.channel.emplace(core::ChannelConfig::prototype(), rng.fork(1));
  in.channel->select_tap(static_cast<int>(rng.below(4)));
  in.channel->set_vctrl(rng.uniform(0.0, in.channel->vctrl_max()));
  return in;
}

meas::JitterMeasureOptions jitter_options() {
  meas::JitterMeasureOptions jo;
  jo.settle_ps = kSettlePs;
  return jo;
}

struct Sinks {
  meas::EyeSink eye;
  meas::JitterSink jitter;
  explicit Sinks(double ui_ps)
      : eye(meas::EyeDiagram(ui_ps, -0.55, 0.55, 72, 18), 0.0, kSettlePs),
        jitter(ui_ps, jitter_options()) {}
};

// Eye raster + JitterReport bytes.
std::uint64_t digest_of(const Sinks& s) {
  Digest d;
  const meas::EyeDiagram& eye = s.eye.eye();
  d.pod(eye.cols());
  d.pod(eye.rows());
  d.pod(eye.total());
  for (std::size_t r = 0; r < eye.rows(); ++r)
    for (std::size_t c = 0; c < eye.cols(); ++c) d.pod(eye.count(c, r));
  const meas::JitterReport& j = s.jitter.report();
  d.pod(j.n_edges);
  d.pod(j.ui_ps);
  d.pod(j.grid_phase_ps);
  d.pod(j.tj_pp_ps);
  d.pod(j.rj_rms_ps);
  d.pod(j.dj_pp_ps);
  if (!j.residuals_ps.empty())
    d.bytes(j.residuals_ps.data(), j.residuals_ps.size() * sizeof(double));
  return d.value();
}

// Spans of one backend pass of traced ops.
struct StreamSpans {
  Span synth, coarse, vga[kVgaStages], limiter, eye, jitter, pipeline;
  double samples = 0.0;
};

class StreamEye final : public Workload {
 public:
  explicit StreamEye(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    input_ = make_input(seed_);
    if (input_.channel->fine().n_stages() != kVgaStages)
      throw std::runtime_error("stream_eye: expected a 4-stage fine line");
    // Warm-up: a short record through a copy of the programmed channel
    // (the measured channel's noise streams stay untouched).
    util::Rng warm_rng = util::Rng(seed_).fork(2);
    const sig::SynthResult warm = sig::synthesize_nrz(
        sig::prbs(7, kWarmupBits), stim_config(), &warm_rng);
    sig::WaveformSource src(warm.wf);
    core::VariableDelayChannel ch = *input_.channel;
    Sinks sinks(input_.ui_ps);
    core::Pipeline pipe;
    pipe.add_stage(ch);
    pipe.run(src, {&sinks.eye, &sinks.jitter});
  }

  std::uint64_t golden_digest() override {
    StreamInput g = make_input(kGoldenSeed);
    core::VariableDelayChannel ch = *g.channel;
    Sinks sinks(g.ui_ps);
    core::Pipeline pipe;
    pipe.add_stage(ch);
    pipe.run(*g.source, {&sinks.eye, &sinks.jitter});
    return digest_of(sinks);
  }

  void prepare(std::uint64_t, int pass) override {
    pass_ = pass;
    channel_.emplace(*input_.channel);
    sinks_.emplace(input_.ui_ps);
  }

  double run(bool traced) override {
    sig::SampleSource& src = *input_.source;
    if (!traced) {
      core::Pipeline pipe;
      pipe.add_stage(*channel_);
      pipe.run(src, {&sinks_->eye, &sinks_->jitter});
      return static_cast<double>(src.size());
    }
    // The channel's process_block() is coarse block, then each VGA
    // stage, then the limiting output buffer, all in place; the traced
    // pipeline runs the same stages as separate, timed Pipeline stages.
    StreamSpans& sp = spans_[pass_];
    core::FineDelayLine& fine = channel_->fine();
    TimedSource tsrc(src, sp.synth);
    TimedStage<core::CoarseDelayBlock> coarse(channel_->coarse(), sp.coarse);
    std::vector<TimedStage<analog::VariableGainBuffer>> vgas;
    vgas.reserve(kVgaStages);
    for (int i = 0; i < kVgaStages; ++i)
      vgas.emplace_back(fine.stage(i), sp.vga[i]);
    TimedStage<analog::LimitingBuffer> limiter(fine.output_stage(),
                                               sp.limiter);
    TimedSink teye(sinks_->eye, sp.eye), tjit(sinks_->jitter, sp.jitter);
    core::Pipeline pipe;
    pipe.add_stage(coarse);
    for (auto& v : vgas) pipe.add_stage(v);
    pipe.add_stage(limiter);
    {
      ScopedSpan whole(sp.pipeline);
      pipe.run(tsrc, {&teye, &tjit});
    }
    sp.samples += static_cast<double>(src.size());
    return static_cast<double>(src.size());
  }

  bool verify() override {
    const std::uint64_t d = digest_of(*sinks_);
    const meas::JitterReport& j = sinks_->jitter.report();
    if (!ref_[pass_]) {
      // First op of the pass: plausibility, then it is the reference.
      if (sinks_->eye.eye().total() == 0 || j.n_edges < 500 ||
          !(j.rj_rms_ps > 0.0 && j.rj_rms_ps < 10.0))
        return false;
      ref_[pass_] = d;
      ref_tj_[pass_] = j.tj_pp_ps;
    }
    if (d != *ref_[pass_]) return false;
    // Backends may differ in the last bits of the one-pole recursion, but
    // never in the measured jitter by more than a fraction of a ps.
    const int other = 1 - pass_;
    return !ref_[other] ||
           std::abs(ref_tj_[other] - ref_tj_[pass_]) < 0.5;
  }

  void report_layers(LayerMetrics& m) const override {
    for (int p = 0; p < kPasses; ++p) {
      const StreamSpans& sp = spans_[p];
      if (sp.samples <= 0.0) continue;
      const std::string sfx = std::string(".") + kPassSelect[p];
      const auto per = [&](const Span& s) {
        return LayerValue{s.ns / sp.samples, "ns/sample"};
      };
      m["signal.synth_ns" + sfx] = per(sp.synth);
      m["core.coarse_ns" + sfx] = per(sp.coarse);
      double children = sp.synth.ns + sp.coarse.ns + sp.limiter.ns +
                        sp.eye.ns + sp.jitter.ns;
      for (int i = 0; i < kVgaStages; ++i) {
        m["analog.vga" + std::to_string(i) + "_ns" + sfx] = per(sp.vga[i]);
        children += sp.vga[i].ns;
      }
      m["analog.limiter_ns" + sfx] = per(sp.limiter);
      m["measure.eye_ns" + sfx] = per(sp.eye);
      m["measure.jitter_ns" + sfx] = per(sp.jitter);
      m["core.pipeline_self_ns" + sfx] = {
          (sp.pipeline.ns - children) / sp.samples, "ns/sample"};
    }
  }

 private:
  std::uint64_t seed_;
  StreamInput input_;
  int pass_ = 0;
  std::optional<core::VariableDelayChannel> channel_;
  std::optional<Sinks> sinks_;
  std::optional<std::uint64_t> ref_[kPasses];
  double ref_tj_[kPasses] = {0.0, 0.0};
  StreamSpans spans_[kPasses];
};

}  // namespace

std::unique_ptr<Workload> make_stream_eye(std::uint64_t seed) {
  return std::make_unique<StreamEye>(seed);
}

}  // namespace perfbench
