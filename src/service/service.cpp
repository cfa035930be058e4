#include "service/service.h"

#include <algorithm>
#include <bit>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/batch.h"
#include "measure/delay_meter.h"
#include "signal/pattern.h"
#include "util/thread_pool.h"

namespace gdelay::service {

namespace {

// Independent noise-stream id for a request's verification clone: a pure
// function of the request CONTENT (never the id, the submission order or
// the serving shard), so identical requests verify on identical noise and
// the response bytes cannot depend on arrival interleaving.
std::uint64_t request_stream(const CalRequest& req, double temp_point) {
  auto mix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  std::uint64_t h = mix(static_cast<std::uint64_t>(req.channel) + 1);
  h = mix(h ^ static_cast<std::uint64_t>(req.kind));
  h = mix(h ^ std::bit_cast<std::uint64_t>(req.target_delay_ps));
  h = mix(h ^ std::bit_cast<std::uint64_t>(temp_point));
  return h;
}

sig::SynthResult make_stimulus(const ServiceConfig& cfg) {
  sig::SynthConfig sc;
  sc.rate_gbps = cfg.stim_rate_gbps;
  return sig::synthesize_nrz(sig::prbs(7, cfg.stim_bits), sc);
}

struct KeyLess {
  bool operator()(const CacheKey& a, const CacheKey& b) const {
    if (a.config_hash != b.config_hash) return a.config_hash < b.config_hash;
    if (a.vctrl_range != b.vctrl_range) return a.vctrl_range < b.vctrl_range;
    if (a.n_vctrl_points != b.n_vctrl_points)
      return a.n_vctrl_points < b.n_vctrl_points;
    return a.temp_point_mc < b.temp_point_mc;
  }
};

}  // namespace

CalService::CalService(const ServiceConfig& cfg)
    : cfg_(cfg), stimulus_(make_stimulus(cfg)) {
  const int n = resolve_shard_count(cfg.n_shards);
  cfg_.n_shards = n;
  shards_.reserve(static_cast<std::size_t>(n));
  // Every shard is a bit-identical replica: same config, same seed, same
  // per-channel variation draws. Sharding changes which replica serves a
  // request, never what the replica contains.
  for (int s = 0; s < n; ++s)
    shards_.push_back(std::make_unique<Shard>(
        core::DelayBoard(cfg_.board, util::Rng(cfg_.seed))));
}

int CalService::shard_of(const CalRequest& req) const {
  const int n = n_shards();
  const int ch = req.channel % n;
  return ch < 0 ? ch + n : ch;
}

CacheKey CalService::key_for(int channel, double temp_c) const {
  if (channel < 0 || channel >= cfg_.board.n_channels)
    throw std::out_of_range("CalService: channel out of range");
  const double temp_point = cfg_.drift_policy.temp_point_for(temp_c);
  const std::int64_t temp_mc =
      static_cast<std::int64_t>(temp_point * 1000.0);
  {
    std::lock_guard<std::mutex> lk(key_mu_);
    auto it = key_memo_.find({channel, temp_mc});
    if (it != key_memo_.end()) return it->second;
  }
  // The key identifies the DRIFT-APPLIED device: heating the board
  // changes the config fields, the hash, and therefore the cache
  // identity — that is the invalidation mechanism.
  const core::ChannelConfig base =
      shards_.front()->board.channel(channel).config();
  const core::ChannelConfig hot =
      cfg_.drift_policy.drift.apply(base, temp_point);
  CacheKey key;
  key.config_hash = hash_channel_config(hot);
  key.vctrl_range = std::bit_cast<std::uint64_t>(
      shards_.front()->board.channel(channel).vctrl_max());
  key.n_vctrl_points = cfg_.calibration.n_vctrl_points;
  key.temp_point_mc = temp_mc;
  std::lock_guard<std::mutex> lk(key_mu_);
  key_memo_.emplace(std::make_pair(channel, temp_mc), key);
  return key;
}

core::ChannelCalibration CalService::run_sweep(int channel,
                                               double temp_point) const {
  const core::ChannelConfig base =
      shards_.front()->board.channel(channel).config();
  const core::ChannelConfig hot =
      cfg_.drift_policy.drift.apply(base, temp_point);
  // Construction RNG is a pure function of (seed, channel): the sweep
  // result cannot depend on which shard, thread or flush triggered it.
  core::VariableDelayChannel dev(
      hot, util::Rng(cfg_.seed ^ 0xca11b8a7edULL)
               .fork(static_cast<std::uint64_t>(channel)));
  return core::DelayCalibrator(cfg_.calibration).calibrate(dev, stimulus_.wf);
}

std::shared_ptr<const core::ChannelCalibration> CalService::curve_for(
    const CacheKey& key, int channel, double temp_point, bool* hit) {
  if (!cfg_.cache_enabled) {
    // Cold baseline: calibrate from scratch, store nothing. Responses
    // stay byte-identical to the cached path because the sweep is a pure
    // function of the key.
    if (hit) *hit = false;
    return std::make_shared<const core::ChannelCalibration>(
        run_sweep(channel, temp_point));
  }
  if (hit) *hit = cache_.lookup(key) != nullptr;
  return cache_.get_or_calibrate(
      key, [&] { return run_sweep(channel, temp_point); });
}

CalResponse CalService::respond(const CalRequest& req,
                                const core::ChannelCalibration& cal,
                                double temp_point, bool hit) const {
  CalResponse r;
  r.id = req.id;
  r.channel = req.channel;
  r.kind = req.kind;
  r.temp_point_c = temp_point;
  r.setting = cal.plan(req.target_delay_ps);
  r.cache_hit = hit;
  return r;
}

void CalService::enqueue(Pending p) {
  const int s = shard_of(p.req);
  bool trigger = false;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.submitted;
    p.seq = next_seq_++;
    ++pending_total_;
    trigger = pending_total_ >= cfg_.batch_trigger;
  }
  {
    Shard& sh = *shards_[static_cast<std::size_t>(s)];
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.pending.push_back(std::move(p));
  }
  if (trigger) flush();
}

void CalService::submit(const CalRequest& req) {
  Pending p;
  p.req = req;
  enqueue(std::move(p));
}

std::future<CalResponse> CalService::submit_with_future(
    const CalRequest& req) {
  Pending p;
  p.req = req;
  p.promise = std::make_unique<std::promise<CalResponse>>();
  std::future<CalResponse> f = p.promise->get_future();
  enqueue(std::move(p));
  return f;
}

void CalService::flush() {
  std::lock_guard<std::mutex> flock(flush_mu_);

  // Snapshot every shard's pending queue. New submissions keep landing
  // behind us; they belong to the next flush.
  std::vector<std::vector<Pending>> work(shards_.size());
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lk(shards_[s]->mu);
    work[s].swap(shards_[s]->pending);
    total += work[s].size();
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    pending_total_ -= std::min(pending_total_, total);
  }
  if (total == 0) return;

  // Deterministic processing order within each shard: by request id,
  // ties by submission sequence. (Response CONTENT never depends on this
  // order — it fixes batch-group composition, which the BatchRunner
  // contract makes invisible — but determinism-by-construction beats
  // determinism-by-argument.)
  for (auto& w : work)
    std::stable_sort(w.begin(), w.end(),
                     [](const Pending& a, const Pending& b) {
                       if (a.req.id != b.req.id) return a.req.id < b.req.id;
                       return a.seq < b.seq;
                     });

  // Flat view + per-request cache key, deduplicated into a deterministic
  // key order. Dedup-before-dispatch IS the coalescing: one sweep per
  // distinct key per flush, no matter how many requests need it.
  struct Item {
    std::size_t shard;
    std::size_t idx;
    std::size_t key;
    double temp_point;
  };
  std::vector<Item> items;
  items.reserve(total);
  std::vector<CacheKey> keys;
  std::vector<int> key_channel;
  std::vector<double> key_temp;
  {
    std::map<CacheKey, std::size_t, KeyLess> key_index;
    for (std::size_t s = 0; s < work.size(); ++s) {
      for (std::size_t i = 0; i < work[s].size(); ++i) {
        const CalRequest& req = work[s][i].req;
        const double tp = cfg_.drift_policy.temp_point_for(req.temp_c);
        const CacheKey key = key_for(req.channel, req.temp_c);
        auto [it, fresh] = key_index.emplace(key, keys.size());
        if (fresh) {
          keys.push_back(key);
          key_channel.push_back(req.channel);
          key_temp.push_back(tp);
        }
        items.push_back(Item{s, i, it->second, tp});
      }
    }
  }

  // Phase 1 — resolve every distinct curve (the expensive part), fanned
  // out over the pool. Single-flight in the cache covers races with
  // concurrent flushes from other service users.
  std::vector<std::shared_ptr<const core::ChannelCalibration>> curves(
      keys.size());
  std::vector<char> key_hit(keys.size(), 0);
  util::parallel_for(keys.size(), [&](std::size_t k) {
    bool hit = false;
    curves[k] = curve_for(keys[k], key_channel[k], key_temp[k], &hit);
    key_hit[k] = hit ? 1 : 0;
  });

  // Phase 2 — plan every request against its curve (cheap, flat fan-out).
  std::vector<CalResponse> responses(items.size());
  util::parallel_for(items.size(), [&](std::size_t i) {
    const Item& it = items[i];
    responses[i] = respond(work[it.shard][it.idx].req, *curves[it.key],
                           it.temp_point, key_hit[it.key] != 0);
  });

  // Phase 3 — kMeasure verification: per shard, groups of
  // core::kLaneGroup clones through the lane-batched executor. Each clone
  // is bit-identical to its solo run by the batch contract, so group
  // composition — and with it the shard count — never shows in the
  // measured bytes.
  std::vector<std::size_t> measure_idx;
  for (std::size_t i = 0; i < items.size(); ++i)
    if (work[items[i].shard][items[i].idx].req.kind == RequestKind::kMeasure)
      measure_idx.push_back(i);
  std::size_t n_groups = 0;
  if (!measure_idx.empty()) {
    std::vector<std::vector<std::size_t>> groups;
    // measure_idx is ordered shard-major and id-sorted within a shard
    // (items was built that way); group within each shard only.
    std::size_t begin = 0;
    while (begin < measure_idx.size()) {
      const std::size_t shard = items[measure_idx[begin]].shard;
      std::size_t end = begin;
      while (end < measure_idx.size() &&
             items[measure_idx[end]].shard == shard)
        ++end;
      for (std::size_t g = begin; g < end; g += core::kLaneGroup) {
        groups.emplace_back(measure_idx.begin() + static_cast<std::ptrdiff_t>(g),
                            measure_idx.begin() +
                                static_cast<std::ptrdiff_t>(
                                    std::min(g + core::kLaneGroup, end)));
      }
      begin = end;
    }
    n_groups = groups.size();
    meas::DelayMeterOptions mo;
    mo.settle_ps = cfg_.calibration.settle_ps;
    util::parallel_for(groups.size(), [&](std::size_t g) {
      const std::vector<std::size_t>& grp = groups[g];
      std::vector<core::VariableDelayChannel> clones;
      clones.reserve(grp.size());
      for (std::size_t i : grp) {
        const Item& it = items[i];
        const CalRequest& req = work[it.shard][it.idx].req;
        const core::ChannelConfig base =
            shards_.front()->board.channel(req.channel).config();
        const core::ChannelConfig hot =
            cfg_.drift_policy.drift.apply(base, it.temp_point);
        clones.emplace_back(
            hot, util::Rng(cfg_.seed ^ 0xca11b8a7edULL)
                     .fork(static_cast<std::uint64_t>(req.channel)));
        core::VariableDelayChannel& c = clones.back();
        c.fork_noise(request_stream(req, it.temp_point));
        c.select_tap(responses[i].setting.tap);
        c.set_vctrl(responses[i].setting.vctrl_v);
      }
      core::BatchRunner runner;
      for (auto& c : clones) runner.add(c);
      const std::vector<sig::Waveform> outs = runner.run(stimulus_.wf);
      for (std::size_t j = 0; j < grp.size(); ++j) {
        const std::size_t i = grp[j];
        responses[i].measured_delay_ps =
            meas::measure_delay(stimulus_.wf, outs[j], mo).mean_ps -
            curves[items[i].key]->base_latency_ps;
      }
    });
  }

  // Phase 4 — kProgram: apply settings to each shard's replica, in id
  // order per shard (shards mutate independently; the response was
  // computed before any mutation, so programming order is invisible).
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& it = items[i];
    if (work[it.shard][it.idx].req.kind != RequestKind::kProgram) continue;
    core::VariableDelayChannel& ch =
        shards_[it.shard]->board.channel(responses[i].channel);
    ch.select_tap(responses[i].setting.tap);
    ch.set_vctrl(responses[i].setting.vctrl_v);
  }

  // Completion: fulfill futures, append to the queue.
  for (std::size_t i = 0; i < items.size(); ++i) {
    Pending& p = work[items[i].shard][items[i].idx];
    if (p.promise) p.promise->set_value(responses[i]);
  }
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    for (std::size_t i = 0; i < items.size(); ++i) {
      done_.push_back(responses[i]);
      done_seq_.push_back(work[items[i].shard][items[i].idx].seq);
    }
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.completed += total;
    ++stats_.flushes;
    stats_.measure_batches += n_groups;
  }
}

std::vector<CalResponse> CalService::drain() {
  flush();
  std::vector<CalResponse> out;
  std::vector<std::uint64_t> seq;
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    out.swap(done_);
    seq.swap(done_seq_);
  }
  std::vector<std::size_t> order(out.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (out[a].id != out[b].id) return out[a].id < out[b].id;
                     return seq[a] < seq[b];
                   });
  std::vector<CalResponse> sorted;
  sorted.reserve(out.size());
  for (std::size_t i : order) sorted.push_back(out[i]);
  return sorted;
}

std::size_t CalService::completed_pending() const {
  std::lock_guard<std::mutex> lk(done_mu_);
  return done_.size();
}

ServiceStats CalService::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  ServiceStats s = stats_;
  s.cache = cache_.stats();
  return s;
}

const core::DelayBoard& CalService::shard_board(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))->board;
}

}  // namespace gdelay::service
