// campaign_mc: the 1e6-trial edge-model Monte Carlo of bench_mc_matching
// through campaign::run_campaign, pinned to Mode::kThread with 4 shards.
//
// Set-up fits the edge model on the prototype channel (fixed seed). The
// seed is the campaign seed, so it picks every trial's draws. One op
// stops every shard at half its range (stop_after_units, which writes
// the shard checkpoints), then resumes to completion; the merged state
// must hash to the uninterrupted run's, computed once per backend pass.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/variation.h"
#include "fast/edge_model.h"
#include "harness.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "timed.h"
#include "util/rng.h"
#include "util/serde.h"

namespace perfbench {
namespace {

using namespace gdelay;

constexpr std::uint64_t kTrials = 1000000;
constexpr std::size_t kShards = 4;
constexpr std::size_t kRecordWidth = 4;
constexpr std::uint64_t kUnitStride = 8;

// Per-shard busy time of the traced unit callbacks. A shard runs on one
// pool thread at a time, so each slot has a single writer per op.
struct alignas(64) ShardBusy {
  double ns = 0.0;
};

struct CampaignSpans {
  AccumulatorSpans acc;
  ShardBusy busy[kShards];
  double ops = 0.0, wall_ns = 0.0, trials = 0.0;
};

class CampaignMc final : public Workload {
 public:
  CampaignMc(std::uint64_t seed, std::string scratch)
      : seed_(seed), ckpt_dir_(std::move(scratch) + "/campaign_ckpt") {}

  void setup() override {
    sig::SynthConfig sc;
    sc.rate_gbps = 3.2;
    const sig::SynthResult stim = sig::synthesize_nrz(sig::prbs(7, 96), sc);
    core::VariableDelayChannel proto_ch(core::ChannelConfig::prototype(),
                                        util::Rng(2008).fork(7));
    core::DelayCalibrator::Options o;
    o.n_vctrl_points = 9;
    proto_ = fast::fit_edge_model(proto_ch, stim.wf, stim.unit_interval_ps, o);
    fine_span_ = proto_.fine_curve.y_span();
  }

  std::uint64_t golden_digest() override {
    return digest_of(run_uninterrupted(kGoldenSeed));
  }

  void prepare(std::uint64_t, int pass) override {
    pass_ = pass;
    result_.reset();
    campaign::remove_checkpoints(spec(seed_));
  }

  double run(bool traced) override {
    campaign::CampaignSpec stop = spec(seed_);
    stop.stop_after_units = kTrials / kShards / 2;
    const auto t0 = Clock::now();
    const campaign::CampaignResult part = execute(stop, traced);
    result_.emplace(execute(spec(seed_), traced));
    if (traced) {
      spans_.ops += 1.0;
      spans_.wall_ns += ns_between(t0, Clock::now());
      spans_.trials += static_cast<double>(kTrials);
    }
    if (part.complete || !result_->complete || !result_->resumed)
      throw std::runtime_error("campaign_mc: stop/resume did not happen");
    return static_cast<double>(kTrials);
  }

  bool verify() override {
    if (!ref_[pass_]) ref_[pass_] = digest_of(run_uninterrupted(seed_));
    const bool ok = result_->units_done == kTrials &&
                    result_->mode == campaign::Mode::kThread &&
                    result_->n_shards == kShards &&
                    digest_of(*result_) == *ref_[pass_];
    campaign::remove_checkpoints(spec(seed_));
    return ok;
  }

  void report_layers(LayerMetrics& m) const override {
    const double n = spans_.ops;
    if (n <= 0.0) return;
    double busy = 0.0, busy_max = 0.0;
    for (const ShardBusy& b : spans_.busy) {
      busy += b.ns;
      busy_max = std::max(busy_max, b.ns);
    }
    m["campaign.unit_ns"] = {busy / spans_.trials, "ns/trial"};
    m["campaign.save_ms"] = {spans_.acc.save.ns * 1e-6 / n, "ms/op"};
    m["campaign.load_ms"] = {spans_.acc.load.ns * 1e-6 / n, "ms/op"};
    m["campaign.merge_ms"] = {spans_.acc.merge.ns * 1e-6 / n, "ms/op"};
    m["campaign.state_mib"] = {
        spans_.acc.saved_bytes / (1024.0 * 1024.0) / n, "MiB/op"};
    m["campaign.shard_imbalance"] = {
        busy > 0.0 ? busy_max / (busy / static_cast<double>(kShards)) : 0.0,
        "ratio"};
    m["campaign.overhead_share"] = {
        1.0 - busy / (spans_.wall_ns * static_cast<double>(kShards)),
        "share"};
  }

  void report_knobs(std::map<std::string, std::string>& k) const override {
    if (!result_) return;
    k["campaign_mode"] =
        std::string("\"") + campaign::mode_name(result_->mode) + "\"";
    k["campaign_shards"] = std::to_string(result_->n_shards);
  }

 private:
  campaign::CampaignSpec spec(std::uint64_t seed) const {
    campaign::CampaignSpec s;
    s.name = "perfbench_mc";
    s.seed = seed;
    s.n_units = kTrials;
    s.n_shards = kShards;
    s.mode = campaign::Mode::kThread;
    s.checkpoint_dir = ckpt_dir_;
    return s;
  }

  campaign::CampaignResult run_uninterrupted(std::uint64_t seed) const {
    campaign::CampaignSpec s = spec(seed);
    s.checkpoint_dir.clear();
    return campaign::run_campaign(s, plain_factory, unit_fn(nullptr));
  }

  campaign::CampaignResult execute(const campaign::CampaignSpec& s,
                                   bool traced) {
    if (!traced) return campaign::run_campaign(s, plain_factory, unit_fn(nullptr));
    AccumulatorSpans& acc = spans_.acc;
    const auto factory = [&acc] {
      campaign::AccumulatorSet set;
      set.push_back(std::make_unique<TimedAccumulator>(kRecordWidth, acc));
      return set;
    };
    return campaign::run_campaign(s, factory, unit_fn(&spans_));
  }

  static campaign::AccumulatorSet plain_factory() {
    campaign::AccumulatorSet set;
    set.push_back(std::make_unique<campaign::RecordAccumulator>(kRecordWidth));
    return set;
  }

  static std::uint64_t digest_of(const campaign::CampaignResult& r) {
    util::ByteWriter w;
    const campaign::IAccumulator& acc = *r.accumulators.at(0);
    if (const auto* t = dynamic_cast<const TimedAccumulator*>(&acc))
      t->records().save(w);
    else
      acc.save(w);
    return util::fnv1a64(w.bytes().data(), w.bytes().size());
  }

  // One trial = one synthetic part, as in bench_mc_matching: scale the
  // fine characteristic, jitter the coarse taps, scatter the added RJ, and
  // model the programming residual. With `spans`, every kUnitStride-th
  // trial is timed (the trials do identical work, and two clock reads per
  // trial would double the tracing overhead) and its time, scaled by the
  // stride, is charged to the shard that owns the unit.
  campaign::UnitFn unit_fn(CampaignSpans* spans) const {
    const fast::EdgeModelParams* proto = &proto_;
    const double fine_span = fine_span_;
    const std::vector<campaign::ShardRange> ranges =
        campaign::plan_shards(kTrials, kShards);
    const core::ProcessVariation pv;
    return [proto, fine_span, spans, ranges, pv](
               std::uint64_t unit, util::Rng& rng,
               campaign::AccumulatorSet& accs) {
      const bool timed = spans && unit % kUnitStride == 0;
      const auto t0 = timed ? Clock::now() : Clock::time_point{};
      const double fine_scale = 1.0 + pv.buffer_sigma_frac * rng.gaussian();
      double worst_tap = 0.0;
      for (std::size_t t = 1; t < proto->tap_offset_ps.size(); ++t)
        worst_tap = std::max(worst_tap, proto->tap_offset_ps[t] +
                                            pv.tap_length_sigma_ps *
                                                rng.gaussian());
      const double rj = std::max(
          0.0, proto->added_rj_sigma_ps *
                   (1.0 + pv.noise_sigma_frac * rng.gaussian()));
      const double fine_range = fine_span * fine_scale;
      const double resolution = fine_range / 255.0;
      const double err = std::abs(resolution * (rng.uniform() - 0.5)) +
                         std::abs(rj / std::sqrt(96.0) * rng.gaussian());
      const double rec[kRecordWidth] = {fine_range, fine_range + worst_tap,
                                        resolution, err};
      if (!spans) {
        static_cast<campaign::RecordAccumulator&>(*accs[0]).add(unit, rec);
        return;
      }
      static_cast<TimedAccumulator&>(*accs[0]).records().add(unit, rec);
      if (!timed) return;
      std::size_t s = 0;
      while (unit >= ranges[s].end) ++s;
      spans->busy[s].ns += kUnitStride * ns_between(t0, Clock::now());
    };
  }

  std::uint64_t seed_;
  std::string ckpt_dir_;
  fast::EdgeModelParams proto_;
  double fine_span_ = 0.0;
  int pass_ = 0;
  std::optional<campaign::CampaignResult> result_;
  std::optional<std::uint64_t> ref_[kPasses];
  CampaignSpans spans_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_mc(std::uint64_t seed,
                                           const std::string& scratch) {
  return std::make_unique<CampaignMc>(seed, scratch);
}

}  // namespace perfbench
