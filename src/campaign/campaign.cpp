#include "campaign/campaign.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "campaign/checkpoint.h"
#include "measure/sinks.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace gdelay::campaign {

// ---------------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------------

SinkAccumulator::SinkAccumulator(std::unique_ptr<meas::ISampleSink> sink)
    : sink_(std::move(sink)) {
  if (!sink_) throw std::invalid_argument("SinkAccumulator: null sink");
  if (!sink_->checkpointable())
    throw std::invalid_argument("SinkAccumulator: sink is not checkpointable");
}

SinkAccumulator::~SinkAccumulator() = default;

void SinkAccumulator::save(util::ByteWriter& w) const { sink_->save_state(w); }

void SinkAccumulator::load(util::ByteReader& r) { sink_->load_state(r); }

void SinkAccumulator::merge_from(const IAccumulator& other) {
  const auto* o = dynamic_cast<const SinkAccumulator*>(&other);
  if (!o) throw std::logic_error("SinkAccumulator: merge type mismatch");
  sink_->merge_from(*o->sink_);
}

namespace {
// RecordAccumulator payload tag (sink payloads carry their own kinds).
constexpr std::uint32_t kKindRecords = 0x52454331u;  // "REC1"

// Room for `extra` more elements, growing geometrically like insert().
template <class T>
void reserve_more(std::vector<T>& v, std::size_t extra) {
  if (v.capacity() - v.size() < extra)
    v.reserve(v.size() + std::max(v.size(), extra));
}
}  // namespace

RecordAccumulator::RecordAccumulator(std::size_t width) : width_(width) {
  if (width == 0)
    throw std::invalid_argument("RecordAccumulator: width must be >= 1");
}

void RecordAccumulator::add(std::uint64_t unit, const double* values) {
  if (!units_.empty() && unit <= units_.back())
    throw std::logic_error("RecordAccumulator: units must arrive in order");
  units_.push_back(unit);
  values_.insert(values_.end(), values, values + width_);
}

void RecordAccumulator::save(util::ByteWriter& w) const {
  w.u32(kKindRecords);
  w.u64(width_);
  w.vec_u64(units_);
  w.vec_f64(values_);
}

void RecordAccumulator::load(util::ByteReader& r) {
  if (r.u32() != kKindRecords)
    throw std::runtime_error("RecordAccumulator: checkpoint kind mismatch");
  const auto width = static_cast<std::size_t>(r.u64());
  std::vector<std::uint64_t> units = r.vec_u64();
  std::vector<double> values = r.vec_f64();
  if (width != width_ || values.size() != units.size() * width)
    throw std::runtime_error("RecordAccumulator: corrupt checkpoint payload");
  for (std::size_t i = 1; i < units.size(); ++i)
    if (units[i] <= units[i - 1])
      throw std::runtime_error("RecordAccumulator: corrupt checkpoint payload");
  units_ = std::move(units);
  values_ = std::move(values);
}

void RecordAccumulator::merge_from(const IAccumulator& other) {
  const auto* o = dynamic_cast<const RecordAccumulator*>(&other);
  if (!o) throw std::logic_error("RecordAccumulator: merge type mismatch");
  if (o->width_ != width_)
    throw std::logic_error("RecordAccumulator: merge width mismatch");
  // Merge-sort by unit id so the combined record list is in unit order no
  // matter how the campaign was sharded or resumed. Both lists are
  // strictly increasing, so the merge copies maximal runs. run_campaign
  // merges shards in range order, where all of `other` follows this one
  // and the merge is an in-place append.
  if (o->units_.empty()) return;
  if (units_.empty() || o->units_.front() > units_.back()) {
    // Reserve both first so neither insert can throw half-way.
    reserve_more(units_, o->units_.size());
    reserve_more(values_, o->values_.size());
    units_.insert(units_.end(), o->units_.begin(), o->units_.end());
    values_.insert(values_.end(), o->values_.begin(), o->values_.end());
    return;
  }
  std::vector<std::uint64_t> units;
  std::vector<double> values;
  units.reserve(units_.size() + o->units_.size());
  values.reserve(values_.size() + o->values_.size());
  const auto copy_run = [&](const RecordAccumulator& src, std::size_t from,
                            std::size_t to) {
    units.insert(units.end(), src.units_.data() + from,
                 src.units_.data() + to);
    values.insert(values.end(), src.values_.data() + from * width_,
                  src.values_.data() + to * width_);
  };
  std::size_t a = 0, b = 0;
  while (a < units_.size() && b < o->units_.size()) {
    if (units_[a] == o->units_[b])
      throw std::logic_error("RecordAccumulator: merge with duplicate unit");
    const bool take_a = units_[a] < o->units_[b];
    const RecordAccumulator& src = take_a ? *this : *o;
    std::size_t& i = take_a ? a : b;
    const std::uint64_t stop = take_a ? o->units_[b] : units_[a];
    std::size_t end = i + 1;
    while (end < src.units_.size() && src.units_[end] < stop) ++end;
    copy_run(src, i, end);
    i = end;
  }
  copy_run(*this, a, units_.size());
  copy_run(*o, b, o->units_.size());
  units_ = std::move(units);
  values_ = std::move(values);
}

// ---------------------------------------------------------------------------
// Shard planning and state serialization
// ---------------------------------------------------------------------------

std::vector<ShardRange> plan_shards(std::uint64_t n_units,
                                    std::size_t n_shards) {
  if (n_shards == 0)
    throw std::invalid_argument("plan_shards: need >= 1 shard");
  // The boundary product n_units * s needs up to 128 bits; the quotient
  // is at most n_units, so it fits back into 64.
  const auto boundary = [&](std::size_t s) {
    return static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(n_units) * s / n_shards);
  };
  std::vector<ShardRange> ranges(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    ranges[s].begin = boundary(s);
    ranges[s].end = boundary(s + 1);
  }
  return ranges;
}

std::uint64_t spec_fingerprint(const CampaignSpec& spec,
                               std::size_t n_shards) {
  util::ByteWriter w;
  w.raw(spec.name.data(), spec.name.size());
  w.u64(spec.seed);
  w.u64(spec.n_units);
  w.u64(n_shards);
  return util::fnv1a64(w.bytes().data(), w.bytes().size());
}

std::string shard_checkpoint_path(const CampaignSpec& spec,
                                  std::size_t shard) {
  return spec.checkpoint_dir + "/" + spec.name + ".shard" +
         std::to_string(shard) + ".ckpt";
}

namespace {

struct ResolvedSpec {
  CampaignSpec spec;
  std::size_t n_shards = 0;
  Mode mode = Mode::kSerial;
};

ResolvedSpec resolve(const CampaignSpec& spec) {
  ResolvedSpec r;
  r.spec = spec;
  r.n_shards = spec.n_shards ? spec.n_shards : default_shards();
  r.mode = spec.mode ? *spec.mode : default_mode();
  return r;
}

struct ShardOutcome {
  AccumulatorSet accs;
  std::uint64_t next_unit = 0;
  bool resumed = false;
  bool complete = false;
};

// One payload format for checkpoints and worker result files:
//   u64 fingerprint  u32 shard  u64 next_unit  u8 resumed  u8 complete
//   u32 n_accs  accumulator payloads in factory order
std::string serialize_outcome(const ResolvedSpec& rs, std::size_t shard,
                              const ShardOutcome& out) {
  util::ByteWriter w;
  w.u64(spec_fingerprint(rs.spec, rs.n_shards));
  w.u32(static_cast<std::uint32_t>(shard));
  w.u64(out.next_unit);
  w.u8(out.resumed ? 1 : 0);
  w.u8(out.complete ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(out.accs.size()));
  for (const auto& acc : out.accs) acc->save(w);
  return w.take();
}

ShardOutcome deserialize_outcome(const ResolvedSpec& rs, std::size_t shard,
                                 const AccumulatorFactory& factory,
                                 const std::string& payload) {
  util::ByteReader r(payload);
  if (r.u64() != spec_fingerprint(rs.spec, rs.n_shards))
    throw std::runtime_error(
        "campaign: checkpoint belongs to a different spec/topology");
  if (r.u32() != static_cast<std::uint32_t>(shard))
    throw std::runtime_error("campaign: checkpoint shard index mismatch");
  ShardOutcome out;
  out.next_unit = r.u64();
  out.resumed = r.u8() != 0;
  out.complete = r.u8() != 0;
  const std::uint32_t n_accs = r.u32();
  out.accs = factory();
  if (n_accs != out.accs.size())
    throw std::runtime_error("campaign: checkpoint accumulator count mismatch");
  for (auto& acc : out.accs) acc->load(r);
  if (!r.at_end())
    throw std::runtime_error("campaign: trailing bytes in checkpoint payload");
  return out;
}

// ---------------------------------------------------------------------------
// Shard execution
// ---------------------------------------------------------------------------

ShardOutcome run_shard(const ResolvedSpec& rs, std::size_t shard,
                       const ShardRange& range,
                       const AccumulatorFactory& factory,
                       const UnitFn& unit_fn) {
  const bool checkpointing = !rs.spec.checkpoint_dir.empty();
  ShardOutcome out;
  out.accs = factory();
  out.next_unit = range.begin;
  if (checkpointing) {
    if (auto bytes = read_file(shard_checkpoint_path(rs.spec, shard))) {
      out = deserialize_outcome(rs, shard, factory,
                                unframe(*bytes, kFrameShardState));
      out.resumed = true;
      if (out.next_unit < range.begin || out.next_unit > range.end)
        throw std::runtime_error("campaign: checkpoint outside shard range");
    }
  }

  const auto save_checkpoint = [&] {
    out.complete = out.next_unit >= range.end;
    write_file_atomic(shard_checkpoint_path(rs.spec, shard),
                      frame(kFrameShardState, serialize_outcome(rs, shard, out)));
  };

  std::uint64_t done_this_run = 0;
  std::uint64_t since_ckpt = 0;
  while (out.next_unit < range.end) {
    if (rs.spec.stop_after_units && done_this_run >= rs.spec.stop_after_units)
      break;
    // The unit's private substream: a pure function of (seed, unit), so
    // results cannot depend on the shard/process/resume topology.
    util::Rng rng = util::Rng(rs.spec.seed).fork(out.next_unit);
    unit_fn(out.next_unit, rng, out.accs);
    ++out.next_unit;
    ++done_this_run;
    if (checkpointing && rs.spec.checkpoint_every &&
        ++since_ckpt >= rs.spec.checkpoint_every) {
      save_checkpoint();
      since_ckpt = 0;
    }
  }
  out.complete = out.next_unit >= range.end;
  if (checkpointing) save_checkpoint();
  return out;
}

CampaignResult merge_outcomes(const ResolvedSpec& rs,
                              const std::vector<ShardRange>& ranges,
                              std::vector<ShardOutcome> outcomes) {
  CampaignResult res;
  res.n_shards = rs.n_shards;
  res.mode = rs.mode;
  res.complete = true;
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    res.units_done += outcomes[s].next_unit - ranges[s].begin;
    res.resumed = res.resumed || outcomes[s].resumed;
    res.complete = res.complete && outcomes[s].complete;
    if (s == 0) {
      res.accumulators = std::move(outcomes[s].accs);
    } else {
      for (std::size_t a = 0; a < res.accumulators.size(); ++a)
        res.accumulators[a]->merge_from(*outcomes[s].accs[a]);
    }
  }
  return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Campaign entry points
// ---------------------------------------------------------------------------

CampaignResult run_campaign(const CampaignSpec& spec,
                            const AccumulatorFactory& factory,
                            const UnitFn& unit_fn) {
  const ResolvedSpec rs = resolve(spec);
  const std::vector<ShardRange> ranges = plan_shards(spec.n_units, rs.n_shards);

  std::vector<ShardOutcome> outcomes;
  switch (rs.mode) {
    case Mode::kSerial:
      outcomes.reserve(rs.n_shards);
      for (std::size_t s = 0; s < rs.n_shards; ++s)
        outcomes.push_back(run_shard(rs, s, ranges[s], factory, unit_fn));
      break;
    case Mode::kThread:
      outcomes = util::parallel_map(rs.n_shards, [&](std::size_t s) {
        return run_shard(rs, s, ranges[s], factory, unit_fn);
      });
      break;
  }
  return merge_outcomes(rs, ranges, std::move(outcomes));
}

void run_shard_to_file(const CampaignSpec& spec, std::size_t shard,
                       const AccumulatorFactory& factory,
                       const UnitFn& unit_fn,
                       const std::string& result_path) {
  const ResolvedSpec rs = resolve(spec);
  if (shard >= rs.n_shards)
    throw std::invalid_argument("campaign: shard index out of range");
  const std::vector<ShardRange> ranges = plan_shards(spec.n_units, rs.n_shards);
  const ShardOutcome out = run_shard(rs, shard, ranges[shard], factory, unit_fn);
  write_file_atomic(result_path,
                    frame(kFrameShardState, serialize_outcome(rs, shard, out)));
}

CampaignResult merge_shard_reports(const CampaignSpec& spec,
                                   const AccumulatorFactory& factory,
                                   const std::vector<std::string>& frames) {
  const ResolvedSpec rs = resolve(spec);
  if (frames.size() != rs.n_shards)
    throw std::invalid_argument("campaign: expected one report per shard");
  const std::vector<ShardRange> ranges = plan_shards(spec.n_units, rs.n_shards);
  std::vector<ShardOutcome> outcomes;
  outcomes.reserve(frames.size());
  for (std::size_t s = 0; s < frames.size(); ++s)
    outcomes.push_back(deserialize_outcome(
        rs, s, factory, unframe(frames[s], kFrameShardState)));
  return merge_outcomes(rs, ranges, std::move(outcomes));
}

void remove_checkpoints(const CampaignSpec& spec) {
  if (spec.checkpoint_dir.empty()) return;
  const ResolvedSpec rs = resolve(spec);
  for (std::size_t s = 0; s < rs.n_shards; ++s)
    remove_file(shard_checkpoint_path(rs.spec, s));
}

}  // namespace gdelay::campaign
