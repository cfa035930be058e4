// service_warm and service_recal: the calibration service of an 8-channel
// board (the paper's DIB target) with 4 shards on the 4-thread pool.
//
// The board itself is fixed (seed 2008); the seed only generates the
// client's requests. Both workloads check every response against the
// curve it was planned on (ChannelCalibration::plan called directly),
// and the transcript digest (id-sorted, without the cache_hit flag)
// against the one the same requests gave before.
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batch.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "harness.h"
#include "service/config.h"
#include "service/service.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace gdelay;
using service::CalRequest;
using service::CalResponse;
using service::CalService;
using service::RequestKind;

constexpr int kChannels = 8;
constexpr int kShards = 4;
// Temperature points the clients report (recal grid pitch 10 C).
constexpr double kTempPoints[] = {0.0, 10.0, 20.0, 30.0, 40.0};
constexpr std::size_t kNumPoints = std::size(kTempPoints);
// The board's sweep RNG, as service.cpp derives it for a channel.
constexpr std::uint64_t kSweepSeedMix = 0xca11b8a7edULL;

service::ServiceConfig board_config() {
  service::ServiceConfig cfg;
  cfg.n_shards = kShards;
  cfg.board.n_channels = kChannels;
  cfg.seed = 2008;
  cfg.calibration.n_vctrl_points = 9;
  cfg.stim_bits = 48;
  cfg.batch_trigger = std::size_t{1} << 40;  // the client flushes
  return cfg;
}

CalRequest make_req(std::uint64_t id, int channel, RequestKind kind,
                    double target_ps, double temp_c) {
  CalRequest r;
  r.id = id;
  r.channel = channel;
  r.kind = kind;
  r.target_delay_ps = target_ps;
  r.temp_c = temp_c;
  return r;
}

// Transcript bytes of drained responses, without cache_hit.
std::uint64_t transcript_digest(const std::vector<CalResponse>& rs) {
  Digest d;
  for (const CalResponse& r : rs) {
    d.pod(r.id);
    d.pod(r.channel);
    d.pod(r.kind);
    d.pod(r.temp_point_c);
    d.pod(r.setting.tap);
    d.pod(r.setting.dac_code);
    d.pod(r.setting.vctrl_v);
    d.pod(r.setting.predicted_delay_ps);
    d.pod(r.measured_delay_ps);
  }
  return d.value();
}

bool same_setting(const core::DelaySetting& a, const core::DelaySetting& b) {
  return a.tap == b.tap && a.dac_code == b.dac_code &&
         std::bit_cast<std::uint64_t>(a.vctrl_v) ==
             std::bit_cast<std::uint64_t>(b.vctrl_v) &&
         std::bit_cast<std::uint64_t>(a.predicted_delay_ps) ==
             std::bit_cast<std::uint64_t>(b.predicted_delay_ps);
}

// Responses match the requests one to one (drain() sorts by id) and each
// setting is what plan() gives on the cached curve of its key. The key
// and plan calls are timed into the given spans when they are non-null.
bool check_against_curves(CalService& svc,
                          const std::vector<CalRequest>& reqs,
                          const std::vector<CalResponse>& resps,
                          Span* key_span, Span* plan_span) {
  if (resps.size() != reqs.size()) return false;
  std::vector<service::CacheKey> keys(reqs.size());
  {
    std::optional<ScopedSpan> s;
    if (key_span) s.emplace(*key_span);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      keys[i] = svc.key_for(reqs[i].channel, reqs[i].temp_c);
  }
  std::vector<std::shared_ptr<const core::ChannelCalibration>> curves(
      reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    curves[i] = svc.cache().lookup(keys[i]);
    if (!curves[i]) return false;
  }
  std::vector<core::DelaySetting> plans(reqs.size());
  {
    std::optional<ScopedSpan> s;
    if (plan_span) s.emplace(*plan_span);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      plans[i] = curves[i]->plan(reqs[i].target_delay_ps);
  }
  const auto& policy = svc.config().drift_policy;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const CalRequest& q = reqs[i];
    const CalResponse& r = resps[i];
    if (r.id != q.id || r.channel != q.channel || r.kind != q.kind ||
        r.temp_point_c != policy.temp_point_for(q.temp_c) ||
        !same_setting(r.setting, plans[i]))
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// service_warm: every (channel, temperature point) curve is warmed during
// set-up, so every request is a cache read. One op = 1024 plan/program
// requests (3:1) submitted, flushed and drained.

constexpr std::size_t kWarmBatch = 1024;

std::vector<CalRequest> warm_batch(std::uint64_t seed, std::uint64_t k) {
  util::Rng rng = util::Rng(seed).fork(k);
  std::vector<CalRequest> reqs;
  reqs.reserve(kWarmBatch);
  for (std::size_t i = 0; i < kWarmBatch; ++i) {
    const int ch = static_cast<int>(rng.below(kChannels));
    // Reported temperatures round to the points 0..40 C.
    const double temp = rng.uniform(0.0, 44.9);
    const double target = rng.uniform(0.0, 120.0);
    const RequestKind kind =
        rng.below(4) == 3 ? RequestKind::kProgram : RequestKind::kPlan;
    reqs.push_back(make_req(i, ch, kind, target, temp));
  }
  return reqs;
}

struct WarmSpans {
  Span submit, flush, drain, key, plan;
  double requests = 0.0, hits = 0.0;
};

class ServiceWarm final : public Workload {
 public:
  explicit ServiceWarm(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    svc_.reset();
    svc_ = std::make_unique<CalService>(board_config());
    std::uint64_t id = 0;
    for (int ch = 0; ch < kChannels; ++ch)
      for (double t : kTempPoints)
        svc_->submit(make_req(id++, ch, RequestKind::kPlan, 10.0, t));
    svc_->drain();
    if (svc_->cache().size() != kChannels * kNumPoints)
      throw std::runtime_error("service_warm: cache warm-up incomplete");
  }

  std::uint64_t golden_digest() override {
    const std::vector<CalRequest> reqs = warm_batch(kGoldenSeed, 0);
    for (const CalRequest& r : reqs) svc_->submit(r);
    return transcript_digest(svc_->drain());
  }

  void prepare(std::uint64_t k, int) override {
    k_ = k;
    reqs_ = warm_batch(seed_, k);
  }

  double run(bool traced) override {
    traced_ = traced;
    if (!traced) {
      for (const CalRequest& r : reqs_) svc_->submit(r);
      svc_->flush();
      resps_ = svc_->drain();
      return static_cast<double>(reqs_.size());
    }
    {
      ScopedSpan s(spans_.submit);
      for (const CalRequest& r : reqs_) svc_->submit(r);
    }
    {
      ScopedSpan s(spans_.flush);
      svc_->flush();
    }
    {
      ScopedSpan s(spans_.drain);
      resps_ = svc_->drain();
    }
    spans_.requests += static_cast<double>(reqs_.size());
    for (const CalResponse& r : resps_) spans_.hits += r.cache_hit ? 1 : 0;
    return static_cast<double>(reqs_.size());
  }

  bool verify() override {
    if (!check_against_curves(*svc_, reqs_, resps_,
                              traced_ ? &spans_.key : nullptr,
                              traced_ ? &spans_.plan : nullptr))
      return false;
    // The same batch (same k) gives the same transcript on either
    // backend and traced or not; the first one seen is the reference.
    const std::uint64_t d = transcript_digest(resps_);
    auto [it, fresh] = refs_.emplace(k_, d);
    return fresh || it->second == d;
  }

  void report_layers(LayerMetrics& m) const override {
    const double n = spans_.requests;
    if (n <= 0.0) return;
    m["service.submit_ns"] = {spans_.submit.ns / n, "ns/req"};
    m["service.flush_ns"] = {spans_.flush.ns / n, "ns/req"};
    m["service.drain_ns"] = {spans_.drain.ns / n, "ns/req"};
    m["service.key_ns"] = {spans_.key.ns / n, "ns/req"};
    m["core.plan_ns"] = {spans_.plan.ns / n, "ns/req"};
    m["service.hit_share"] = {spans_.hits / n, "share"};
  }

  void report_knobs(std::map<std::string, std::string>& k) const override {
    k["service_shards"] = std::to_string(svc_->n_shards());
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<CalService> svc_;
  std::uint64_t k_ = 0;
  bool traced_ = false;
  std::vector<CalRequest> reqs_;
  std::vector<CalResponse> resps_;
  std::map<std::uint64_t, std::uint64_t> refs_;
  WarmSpans spans_;
};

// ---------------------------------------------------------------------------
// service_recal: set-up builds the service and calibrates every channel
// at the starting temperature. Each op forces a recalibration
// (cache().invalidate_all(), the documented path), moves to the next
// temperature point of the grid, and submits one kPlan + one kMeasure per
// channel. Every key misses.

// Requests of one recal step at temperature point `point`: the targets
// depend on (seed, point) only, so revisiting a point repeats the step.
std::vector<CalRequest> recal_step(std::uint64_t seed, std::size_t point) {
  util::Rng rng = util::Rng(seed).fork(point);
  std::vector<CalRequest> reqs;
  for (int ch = 0; ch < kChannels; ++ch) {
    const double temp = kTempPoints[point] + rng.uniform(0.0, 4.9);
    reqs.push_back(make_req(reqs.size(), ch, RequestKind::kPlan,
                            rng.uniform(0.0, 120.0), temp));
    reqs.push_back(make_req(reqs.size(), ch, RequestKind::kMeasure,
                            rng.uniform(0.0, 120.0), temp));
  }
  return reqs;
}

struct RecalSpans {
  Span sweep, verify, calibrate, batch4, solo;
  double ops = 0.0, misses = 0.0, coalesced = 0.0;
  double batch_samples = 0.0;  ///< samples per stream x streams
};

class ServiceRecal final : public Workload {
 public:
  explicit ServiceRecal(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    svc_.reset();
    svc_ = std::make_unique<CalService>(board_config());
    // First calibration of every channel at the starting temperature.
    for (int ch = 0; ch < kChannels; ++ch)
      svc_->submit(make_req(static_cast<std::uint64_t>(ch), ch,
                            RequestKind::kPlan, 10.0, kTempPoints[0]));
    svc_->drain();
    // The service's calibration stimulus, for the direct-call probes.
    const service::ServiceConfig& cfg = svc_->config();
    sig::SynthConfig sc;
    sc.rate_gbps = cfg.stim_rate_gbps;
    stimulus_ = sig::synthesize_nrz(sig::prbs(7, cfg.stim_bits), sc).wf;
  }

  std::uint64_t golden_digest() override {
    svc_->cache().invalidate_all();
    for (const CalRequest& r : recal_step(kGoldenSeed, 2)) svc_->submit(r);
    return transcript_digest(svc_->drain());
  }

  void prepare(std::uint64_t k, int pass) override {
    pass_ = pass;
    point_ = static_cast<std::size_t>(k % kNumPoints);
    reqs_ = recal_step(seed_, point_);
  }

  double run(bool traced) override {
    traced_ = traced;
    svc_->cache().invalidate_all();
    if (!traced) {
      for (const CalRequest& r : reqs_) svc_->submit(r);
      resps_ = svc_->drain();
      return static_cast<double>(reqs_.size());
    }
    // Plans first (all misses: phase 1 only), then the measures at the
    // same point (all hits: phase 3 only). Responses are a pure function
    // of the request, so the split changes no byte of the transcript.
    const service::CacheStats before = svc_->stats().cache;
    {
      ScopedSpan s(spans_.sweep);
      for (const CalRequest& r : reqs_)
        if (r.kind == RequestKind::kPlan) svc_->submit(r);
      svc_->flush();
    }
    {
      ScopedSpan s(spans_.verify);
      for (const CalRequest& r : reqs_)
        if (r.kind == RequestKind::kMeasure) svc_->submit(r);
      svc_->flush();
    }
    resps_ = svc_->drain();
    const service::CacheStats after = svc_->stats().cache;
    spans_.ops += 1.0;
    spans_.misses += static_cast<double>(after.misses - before.misses);
    spans_.coalesced +=
        static_cast<double>(after.coalesced - before.coalesced);
    return static_cast<double>(reqs_.size());
  }

  bool verify() override {
    if (!check_against_curves(*svc_, reqs_, resps_, nullptr, nullptr))
      return false;
    // A verification lands within the channel's +/-5 ps programming
    // budget of what the plan predicted.
    for (const CalResponse& r : resps_)
      if (r.kind == RequestKind::kMeasure &&
          !(std::abs(r.measured_delay_ps - r.setting.predicted_delay_ps) <
            5.0))
        return false;
    if (traced_ && !probe_layers()) return false;
    const std::uint64_t d = transcript_digest(resps_);
    auto [it, fresh] = refs_.emplace(std::make_pair(pass_, point_), d);
    return fresh || it->second == d;
  }

  void report_layers(LayerMetrics& m) const override {
    const double n = spans_.ops;
    if (n <= 0.0) return;
    m["service.sweep_s"] = {spans_.sweep.ns * 1e-9 / n, "s/op"};
    m["service.verify_s"] = {spans_.verify.ns * 1e-9 / n, "s/op"};
    m["core.calibrate_s"] = {spans_.calibrate.ns * 1e-9 / n, "s"};
    m["core.batch4_ns"] = {spans_.batch4.ns / spans_.batch_samples,
                          "ns/sample"};
    m["core.solo_ns"] = {spans_.solo.ns / spans_.batch_samples, "ns/sample"};
    m["service.miss_count"] = {spans_.misses / n, "count/op"};
    m["service.coalesced_count"] = {spans_.coalesced / n, "count/op"};
  }

  void report_knobs(std::map<std::string, std::string>& k) const override {
    k["service_shards"] = std::to_string(svc_->n_shards());
  }

 private:
  // A clone of `channel` as the service builds it for a sweep or a
  // verification at the current temperature point.
  core::VariableDelayChannel device(int channel) const {
    const service::ServiceConfig& cfg = svc_->config();
    const double tp = kTempPoints[point_];
    const core::ChannelConfig hot = cfg.drift_policy.drift.apply(
        svc_->shard_board(0).channel(channel).config(), tp);
    return core::VariableDelayChannel(
        hot, util::Rng(cfg.seed ^ kSweepSeedMix)
                 .fork(static_cast<std::uint64_t>(channel)));
  }

  // Traced ops only: the core layer called directly. One channel's
  // calibration on the pool must plan what the service planned, and
  // four programmed clones through BatchRunner must give the bytes of
  // their solo process() runs.
  bool probe_layers() {
    const int ch = static_cast<int>(spans_.ops) % kChannels;
    core::ChannelCalibration cal;
    {
      ScopedSpan s(spans_.calibrate);
      cal = core::DelayCalibrator(svc_->config().calibration)
                .calibrate(device(ch), stimulus_);
    }
    const CalRequest& q = reqs_[static_cast<std::size_t>(2 * ch)];
    if (!same_setting(cal.plan(q.target_delay_ps),
                      resps_[static_cast<std::size_t>(2 * ch)].setting))
      return false;

    std::vector<core::VariableDelayChannel> batch, solo;
    for (int c = 0; c < 4; ++c) {
      batch.push_back(device(c));
      batch.back().fork_noise(static_cast<std::uint64_t>(c) + 1);
      const core::DelaySetting& st =
          resps_[static_cast<std::size_t>(2 * c + 1)].setting;
      batch.back().select_tap(st.tap);
      batch.back().set_vctrl(st.vctrl_v);
    }
    solo = batch;
    std::vector<sig::Waveform> outs;
    {
      ScopedSpan s(spans_.batch4);
      core::BatchRunner runner;
      for (auto& c : batch) runner.add(c);
      outs = runner.run(stimulus_);
    }
    std::vector<sig::Waveform> solo_outs;
    {
      ScopedSpan s(spans_.solo);
      for (auto& c : solo) solo_outs.push_back(c.process(stimulus_));
    }
    spans_.batch_samples += static_cast<double>(stimulus_.size() * 4);
    for (std::size_t c = 0; c < 4; ++c) {
      if (outs[c].size() != solo_outs[c].size()) return false;
      for (std::size_t i = 0; i < outs[c].size(); ++i)
        if (std::bit_cast<std::uint64_t>(outs[c][i]) !=
            std::bit_cast<std::uint64_t>(solo_outs[c][i]))
          return false;
    }
    return true;
  }

  std::uint64_t seed_;
  std::unique_ptr<CalService> svc_;
  sig::Waveform stimulus_;
  int pass_ = 0;
  std::size_t point_ = 0;
  bool traced_ = false;
  std::vector<CalRequest> reqs_;
  std::vector<CalResponse> resps_;
  std::map<std::pair<int, std::size_t>, std::uint64_t> refs_;
  RecalSpans spans_;
};

}  // namespace

std::unique_ptr<Workload> make_service_warm(std::uint64_t seed) {
  return std::make_unique<ServiceWarm>(seed);
}

std::unique_ptr<Workload> make_service_recal(std::uint64_t seed) {
  return std::make_unique<ServiceRecal>(seed);
}

}  // namespace perfbench
