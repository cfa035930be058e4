// The fine-adjustment delay line of Fig. 6: N cascaded variable-gain
// buffers sharing one control voltage, followed by a limiting output
// stage that recovers full logic swing.
//
// Each stage contributes ~10 ps of amplitude-dependent delay; the paper's
// prototype uses N = 4 for a measured range of ~50-56 ps (Fig. 7) and
// compares against an earlier N = 2 build (Fig. 15). `common_vctrl`
// reflects the paper's simplification of driving all stages from one DAC;
// per-stage control is available for the ablation study.
#pragma once

#include <vector>

#include "analog/buffer.h"
#include "analog/element.h"
#include "util/rng.h"

namespace gdelay::core {

struct FineDelayConfig {
  int n_stages = 4;
  analog::VgaBufferConfig stage{};
  analog::LimitingBufferConfig output_stage{};

  /// Convenience: the paper's early 2-stage build.
  static FineDelayConfig two_stage() {
    FineDelayConfig c;
    c.n_stages = 2;
    return c;
  }
};

class FineDelayLine final : public analog::AnalogElement {
 public:
  FineDelayLine(const FineDelayConfig& cfg, util::Rng rng);

  int n_stages() const { return static_cast<int>(stages_.size()); }
  const FineDelayConfig& config() const { return cfg_; }
  double vctrl_max() const { return cfg_.stage.vctrl_max_v; }

  /// Programs all stages (the paper's common-Vctrl arrangement).
  void set_vctrl(double v);
  double vctrl() const { return vctrl_; }

  /// Per-stage override for the separate-control ablation.
  void set_stage_vctrl(int stage, double v);
  double stage_vctrl(int stage) const;

  /// Switches every stage (and the output buffer) to an independent
  /// deterministic noise stream — used to decorrelate clones in the
  /// parallel calibration sweeps (one stream per sweep point).
  void fork_noise(std::uint64_t stream);

  std::unique_ptr<analog::AnalogElement> clone() const override {
    return std::make_unique<FineDelayLine>(*this);
  }
  void reset() override;

  /// Advances `n` samples at the current Vctrl: the lane pass at w == 1.
  /// Jitter injection varies Vctrl during the run by calling set_vctrl()
  /// between n == 1 calls.
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) override {
    analog::run_as_lane(this, in, out, n, dt_ps);
  }
  /// Lane pass (see element.h), stage-major: the whole block through
  /// each stage in turn, then the output stage. Every lane must have the
  /// same stage count.
  static void process_lanes(FineDelayLine* const* f, std::size_t w,
                            const double* in, double* out, std::size_t n,
                            double dt_ps);

  /// The stages, for per-stage instrumentation and diagnostics.
  analog::VariableGainBuffer& stage(int i) { return stages_[i]; }
  analog::LimitingBuffer& output_stage() { return out_; }

 private:
  FineDelayConfig cfg_;
  double vctrl_;
  std::vector<analog::VariableGainBuffer> stages_;
  analog::LimitingBuffer out_;
};

}  // namespace gdelay::core
