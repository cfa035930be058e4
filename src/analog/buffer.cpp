#include "analog/buffer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "backend/backend.h"
#include "util/fastmath.h"
#include "util/scratch.h"

namespace gdelay::analog {

VariableGainBuffer::VariableGainBuffer(const VgaBufferConfig& cfg,
                                       util::Rng rng)
    : cfg_(cfg),
      vctrl_(cfg.vctrl_max_v),
      input_(cfg.input_gain, cfg.input_sat_v),
      lpf_(cfg.f3db_ghz),
      noise_(cfg.noise_sigma_v, cfg.noise_bandwidth_ghz, rng),
      slew_(cfg.slew_v_per_ps, cfg.slew_tau_lin_ps, cfg.slew_leak_tau_ps),
      out_pole_(cfg.output_pole_f3db_ghz) {
  if (cfg.amp_min_v <= 0.0 || cfg.amp_max_v <= cfg.amp_min_v)
    throw std::invalid_argument("VgaBufferConfig: need 0 < amp_min < amp_max");
  if (cfg.vctrl_max_v <= 0.0)
    throw std::invalid_argument("VgaBufferConfig: vctrl_max must be > 0");
}

double VariableGainBuffer::amplitude_for(double vctrl) const {
  // Normalized control in [0, 1] with gentle tanh-shaped saturation at the
  // ends: the commercial part's gain-control pin responds ~linearly over
  // the middle of its range and compresses near the rails.
  const double u = std::clamp(vctrl / cfg_.vctrl_max_v, 0.0, 1.0);
  const double k = cfg_.ctrl_shape;
  const double f =
      (util::det_tanh(k * (u - 0.5)) / util::det_tanh(k * 0.5) + 1.0) / 2.0;
  return cfg_.amp_min_v + (cfg_.amp_max_v - cfg_.amp_min_v) * f;
}

double VariableGainBuffer::amplitude() const { return amplitude_for(vctrl_); }

void VariableGainBuffer::reset() {
  input_.reset();
  lpf_.reset();
  noise_.reset();
  slew_.reset();
  out_pole_.reset();
  tail_ = {};
}

void VariableGainBuffer::derive_tail(double dt_ps) {
  // amp_frac is hoisted as amp - (amp*frac)*droop rather than
  // amp*(1 - frac*droop): one fewer multiply on the serially-dependent
  // droop chain.
  backend::VgaTailCoeffs& c = tail_c_;
  c.amp = amplitude();
  c.amp_frac = c.amp * cfg_.droop_frac;
  c.max_step = cfg_.slew_v_per_ps * dt_ps;
  // Multiplying by the reciprocal (instead of dividing) keeps the
  // expensive divide off the per-sample droop recursion.
  c.inv_max_step = c.max_step > 0.0 ? 1.0 / c.max_step : 0.0;
  c.alpha = 1.0 - util::det_exp(-dt_ps / cfg_.droop_tau_ps);
  slew_.prime(dt_ps);
  c.slew = slew_.blk_;
}

void VariableGainBuffer::process_lanes(VariableGainBuffer* const* b,
                                       std::size_t w, const double* in,
                                       double* out, std::size_t n,
                                       double dt_ps) {
  const backend::Kernels& k = backend::active();
  util::ScratchBuffer noise(n * w);
  util::ScratchBuffer lim(n * w);
  util::LaneArray<TanhLimiter*> input(b, w, &VariableGainBuffer::input_);
  util::LaneArray<SinglePoleFilter*> lpf(b, w, &VariableGainBuffer::lpf_);
  util::LaneArray<NoiseSource*> src(b, w, &VariableGainBuffer::noise_);
  TanhLimiter::process_lanes(input.data(), w, in, out, n, dt_ps);
  SinglePoleFilter::process_lanes(lpf.data(), w, out, out, n, dt_ps);
  NoiseSource::process_lanes(src.data(), w, noise.data(), n, dt_ps);
  // Unit-amplitude limiting output stage. Its argument is feedforward —
  // it depends only on the filtered input plus noise, not on the
  // droop/slew recursion — so the tanh pass is hoisted out of the
  // recursion into the elementwise tanh_stage_batch kernel (the AVX2 backend's
  // biggest win in this element).
  util::LaneArray<double> gain(
      w, [&](std::size_t s) { return b[s]->cfg_.output_gain; });
  util::LaneArray<double> ref(
      w, [&](std::size_t s) { return b[s]->cfg_.output_ref_v; });
  util::LaneArray<double> unit(w, [](std::size_t) { return 1.0; });
  k.tanh_stage_batch(out, noise.data(), lim.data(), n, w, gain.data(),
                     ref.data(), unit.data());
  // The (droop-sagged) half-swing is applied inside the tail: bias droop
  // models the output stage's tail current sagging with recent switching
  // activity (fraction of time spent slew-limited), the paper's Fig. 15
  // roll-off mechanism. The recursion feeds back sample-to-sample through
  // a clamp, so it stays serial in time on every backend (the AVX2 table
  // runs it four streams wide, and a single stream through the
  // per-stream loop of backend.h).
  util::LaneArray<const backend::VgaTailCoeffs*> tail_c(
      w, [&](std::size_t s) {
        b[s]->derive_tail(dt_ps);
        return &b[s]->tail_c_;
      });
  util::LaneArray<backend::SlewState*> slew(
      w, [&](std::size_t s) { return &b[s]->slew_.st_; });
  util::LaneArray<backend::VgaTailState*> tail(b, w,
                                                &VariableGainBuffer::tail_);
  k.vga_tail_batch(lim.data(), out, n, w, tail_c.data(), slew.data(),
                   tail.data());
  util::LaneArray<SinglePoleFilter*> out_pole(b, w,
                                              &VariableGainBuffer::out_pole_);
  SinglePoleFilter::process_lanes(out_pole.data(), w, out, out, n, dt_ps);
}

LimitingBuffer::LimitingBuffer(const LimitingBufferConfig& cfg, util::Rng rng)
    : cfg_(cfg),
      input_(cfg.input_gain, cfg.input_sat_v),
      lpf_(cfg.f3db_ghz),
      noise_(cfg.noise_sigma_v, cfg.noise_bandwidth_ghz, rng),
      slew_(cfg.slew_v_per_ps) {
  if (cfg.out_swing_v <= 0.0)
    throw std::invalid_argument("LimitingBufferConfig: out_swing must be > 0");
}

void LimitingBuffer::reset() {
  input_.reset();
  lpf_.reset();
  noise_.reset();
  slew_.reset();
}

void LimitingBuffer::process_lanes(LimitingBuffer* const* b, std::size_t w,
                                   const double* in, double* out,
                                   std::size_t n, double dt_ps) {
  util::ScratchBuffer noise(n * w);
  util::LaneArray<TanhLimiter*> input(b, w, &LimitingBuffer::input_);
  util::LaneArray<SinglePoleFilter*> lpf(b, w, &LimitingBuffer::lpf_);
  util::LaneArray<NoiseSource*> src(b, w, &LimitingBuffer::noise_);
  TanhLimiter::process_lanes(input.data(), w, in, out, n, dt_ps);
  SinglePoleFilter::process_lanes(lpf.data(), w, out, out, n, dt_ps);
  NoiseSource::process_lanes(src.data(), w, noise.data(), n, dt_ps);
  // Elementwise limiting stage through the backend tanh_stage_batch kernels —
  // bit-exact against swing * det_tanh(gain * x / ref) on every backend.
  util::LaneArray<double> gain(
      w, [&](std::size_t s) { return b[s]->cfg_.output_gain; });
  util::LaneArray<double> ref(
      w, [&](std::size_t s) { return b[s]->cfg_.output_ref_v; });
  util::LaneArray<double> swing(
      w, [&](std::size_t s) { return b[s]->cfg_.out_swing_v; });
  backend::active().tanh_stage_batch(out, noise.data(), out, n, w,
                                     gain.data(), ref.data(), swing.data());
  util::LaneArray<SlewRateLimiter*> slew(b, w, &LimitingBuffer::slew_);
  SlewRateLimiter::process_lanes(slew.data(), w, out, out, n, dt_ps);
}

}  // namespace gdelay::analog
