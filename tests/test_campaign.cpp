// Campaign orchestration: sharding, per-unit substreams, checkpoints,
// merges. The headline contract under test is determinism — the merged
// result is bit-identical for ANY shard count, ANY execution mode
// (serial / thread / exec worker report files) and ANY resume point —
// plus the guard rails around it: checkpoints from a different spec or
// topology are rejected, corrupt shard reports throw, malformed campaign
// env knobs throw, and the RecordAccumulator restores unit order across
// merges so floating-point reductions stay associative by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/config.h"
#include "measure/sinks.h"
#include "util/rng.h"
#include "util/serde.h"

namespace gcp = gdelay::campaign;
namespace gm = gdelay::meas;
using gdelay::util::ByteReader;
using gdelay::util::ByteWriter;
using gdelay::util::fnv1a64;
using gdelay::util::Rng;

namespace {

constexpr std::uint64_t kUnits = 40;

// Small mixed workload: one order-restoring record accumulator plus one
// counting sink, the two accumulator families the orchestrator merges.
gcp::AccumulatorSet make_accs() {
  gcp::AccumulatorSet accs;
  accs.push_back(std::make_unique<gcp::RecordAccumulator>(2));
  accs.push_back(std::make_unique<gcp::SinkAccumulator>(
      std::make_unique<gm::LevelHistogramSink>(-4.0, 4.0, 32, 0.0)));
  return accs;
}

void unit_work(std::uint64_t unit, Rng& rng, gcp::AccumulatorSet& accs) {
  auto& rec = dynamic_cast<gcp::RecordAccumulator&>(*accs[0]);
  auto& sink = dynamic_cast<gcp::SinkAccumulator&>(*accs[1]).sink();
  double samples[16];
  double sum = 0.0, peak = 0.0;
  for (double& s : samples) {
    s = rng.gaussian();
    sum += s;
    if (s > peak) peak = s;
  }
  sink.begin(0.0, 1.0, 16);
  sink.consume(samples, 16);
  sink.finish();
  const double row[2] = {sum / 16.0, peak};
  rec.add(unit, row);
}

std::uint64_t hash_accs(const gcp::AccumulatorSet& accs) {
  ByteWriter w;
  for (const auto& a : accs) a->save(w);
  return fnv1a64(w.bytes().data(), w.size());
}

gcp::CampaignSpec base_spec(std::size_t shards, gcp::Mode mode) {
  gcp::CampaignSpec spec;
  spec.name = "unit_test";
  spec.seed = 77;
  spec.n_units = kUnits;
  spec.n_shards = shards;  // always explicit: tests must ignore the env
  spec.mode = mode;
  return spec;
}

// A checkpoint directory under the gtest temp dir, emptied first: a
// checkpoint left there by an earlier aborted run must not be resumed.
std::string fresh_checkpoint_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::uint64_t run_hash(std::size_t shards, gcp::Mode mode) {
  const gcp::CampaignResult r =
      gcp::run_campaign(base_spec(shards, mode), make_accs, unit_work);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_done, kUnits);
  return hash_accs(r.accumulators);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shard planning and fingerprints
// ---------------------------------------------------------------------------

TEST(CampaignPlan, ShardsAreContiguousBalancedAndCovering) {
  // The last two counts make n_units * s overflow 64 bits.
  for (std::uint64_t n : {0ull, 1ull, 3ull, 10ull, 1000ull, 1ull << 62,
                          (1ull << 63) - 1}) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{3},
                               std::size_t{4}, std::size_t{8}}) {
      const auto ranges = gcp::plan_shards(n, shards);
      ASSERT_EQ(ranges.size(), shards);
      EXPECT_EQ(ranges.front().begin, 0u);
      EXPECT_EQ(ranges.back().end, n);
      std::uint64_t lo = n, hi = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        ASSERT_LE(ranges[s].begin, ranges[s].end);
        if (s) {
          EXPECT_EQ(ranges[s].begin, ranges[s - 1].end);
        }
        const std::uint64_t len = ranges[s].end - ranges[s].begin;
        lo = std::min(lo, len);
        hi = std::max(hi, len);
      }
      EXPECT_LE(hi - lo, 1u) << n << " units over " << shards;
    }
  }
}

TEST(CampaignPlan, FingerprintSeparatesSpecAndTopology) {
  const gcp::CampaignSpec a = base_spec(4, gcp::Mode::kSerial);
  const std::uint64_t fp = gcp::spec_fingerprint(a, 4);
  EXPECT_EQ(fp, gcp::spec_fingerprint(a, 4));  // stable

  gcp::CampaignSpec b = a;
  b.name = "other_campaign";
  EXPECT_NE(gcp::spec_fingerprint(b, 4), fp);
  b = a;
  b.seed = 78;
  EXPECT_NE(gcp::spec_fingerprint(b, 4), fp);
  b = a;
  b.n_units = kUnits + 1;
  EXPECT_NE(gcp::spec_fingerprint(b, 4), fp);
  EXPECT_NE(gcp::spec_fingerprint(a, 8), fp);  // topology
}

namespace {

// Sets (or, with nullptr, unsets) one environment variable for a scope
// and restores its previous state on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace

TEST(CampaignConfig, ModeNamesRoundTrip) {
  for (gcp::Mode m : {gcp::Mode::kSerial, gcp::Mode::kThread})
    EXPECT_EQ(gcp::parse_mode(gcp::mode_name(m)), m);
  for (const char* bad : {"sideways", "fork"})
    EXPECT_THROW(gcp::parse_mode(bad), std::invalid_argument) << bad;
}

TEST(CampaignConfig, ModeEnvDefaultsToThreadAndRejectsFork) {
  {
    const ScopedEnv env("GDELAY_CAMPAIGN_MODE", nullptr);
    EXPECT_EQ(gcp::default_mode(), gcp::Mode::kThread);
  }
  {
    const ScopedEnv env("GDELAY_CAMPAIGN_MODE", "fork");
    EXPECT_THROW(gcp::default_mode(), std::invalid_argument);
  }
  {
    const ScopedEnv env("GDELAY_CAMPAIGN_MODE", "serial");
    EXPECT_EQ(gcp::default_mode(), gcp::Mode::kSerial);
  }
}

TEST(CampaignConfig, ShardEnvIsParsedStrictly) {
  {
    const ScopedEnv env("GDELAY_CAMPAIGN_SHARDS", nullptr);
    EXPECT_EQ(gcp::default_shards(), 4u);
  }
  for (const char* good : {"1", "3", "16", "0008"}) {
    const ScopedEnv env("GDELAY_CAMPAIGN_SHARDS", good);
    EXPECT_EQ(gcp::default_shards(), std::stoul(good)) << good;
  }
  for (const char* bad : {"", "abc", "0", "-3", "+4", " 4", "4 ", "4x",
                          "1e12", "2.5", "99999999999999999999999"}) {
    const ScopedEnv env("GDELAY_CAMPAIGN_SHARDS", bad);
    EXPECT_THROW(gcp::default_shards(), std::invalid_argument)
        << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// RecordAccumulator: the association-invariance workhorse
// ---------------------------------------------------------------------------

TEST(RecordAccumulator, MergeRestoresGlobalUnitOrder) {
  gcp::RecordAccumulator a(1), b(1);
  for (std::uint64_t u : {0ull, 2ull, 4ull}) {
    const double v = 10.0 + static_cast<double>(u);
    a.add(u, &v);
  }
  for (std::uint64_t u : {1ull, 3ull}) {
    const double v = 10.0 + static_cast<double>(u);
    b.add(u, &v);
  }
  a.merge_from(b);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.unit_at(i), i);  // merge-sorted back to 0,1,2,3,4
    EXPECT_EQ(a.values_at(i)[0], 10.0 + static_cast<double>(i));
  }
}

TEST(RecordAccumulator, SaveLoadSaveIsIdentity) {
  gcp::RecordAccumulator a(3);
  Rng rng(9);
  for (std::uint64_t u = 0; u < 17; ++u) {
    const double row[3] = {rng.gaussian(), rng.uniform(), -1.0};
    a.add(u, row);
  }
  ByteWriter w1;
  a.save(w1);

  gcp::RecordAccumulator b(3);
  ByteReader r(w1.bytes());
  b.load(r);
  EXPECT_EQ(b.size(), a.size());
  ByteWriter w2;
  b.save(w2);
  EXPECT_EQ(w2.bytes(), w1.bytes());
}

namespace {

constexpr std::size_t kRecWidth = 3;

// Records for `units`, each row a pure function of its unit id (-0.0 in
// the last column, so a sign slip would change the saved bytes).
gcp::RecordAccumulator records_for(const std::vector<std::uint64_t>& units) {
  gcp::RecordAccumulator acc(kRecWidth);
  for (const std::uint64_t u : units) {
    Rng rng = Rng(13).fork(u);
    const double row[kRecWidth] = {rng.gaussian(), rng.uniform(), -0.0};
    acc.add(u, row);
  }
  return acc;
}

std::string saved(const gcp::RecordAccumulator& acc) {
  ByteWriter w;
  acc.save(w);
  return w.take();
}

std::vector<std::uint64_t> iota_units(std::uint64_t begin, std::uint64_t end) {
  std::vector<std::uint64_t> u;
  for (std::uint64_t i = begin; i < end; ++i) u.push_back(i);
  return u;
}

}  // namespace

TEST(RecordAccumulator, MergeMatchesRecordAtATimeReference) {
  struct Case {
    const char* name;
    std::vector<std::uint64_t> a, b;
  };
  const std::vector<Case> cases = {
      {"other after", iota_units(0, 10), iota_units(10, 25)},
      {"other after, gap", iota_units(0, 10), iota_units(40, 45)},
      {"other before", iota_units(10, 25), iota_units(0, 10)},
      {"interleaved runs", {0, 1, 2, 7, 8, 15, 30}, {3, 4, 5, 6, 9, 16, 17}},
      {"other inside a gap", {0, 1, 2, 10, 11}, {5, 6, 7}},
      {"this empty", {}, iota_units(3, 8)},
      {"other empty", iota_units(3, 8), {}},
  };
  for (const Case& c : cases) {
    // Reference: every record of both sides added one at a time in unit
    // order, which is what the merge must reproduce byte for byte.
    std::vector<std::uint64_t> all = c.a;
    all.insert(all.end(), c.b.begin(), c.b.end());
    std::sort(all.begin(), all.end());
    const std::string expect = saved(records_for(all));

    gcp::RecordAccumulator merged = records_for(c.a);
    merged.merge_from(records_for(c.b));
    EXPECT_EQ(saved(merged), expect) << c.name;
  }

  // The campaign's pattern: shards folded into shard 0 in range order.
  gcp::RecordAccumulator chained = records_for(iota_units(0, 7));
  for (std::uint64_t s = 1; s < 4; ++s)
    chained.merge_from(records_for(iota_units(7 * s, 7 * (s + 1))));
  EXPECT_EQ(saved(chained), saved(records_for(iota_units(0, 28))));
}

TEST(RecordAccumulator, DuplicateUnitThrowsAndLeavesStateUnchanged) {
  const std::vector<std::pair<std::vector<std::uint64_t>,
                              std::vector<std::uint64_t>>>
      cases = {
          {{0, 1, 2}, {2, 3, 4}},  // other starts on this one's last unit
          {{2, 3}, {0, 1, 2}},     // other ends on this one's first unit
          {{0, 2, 4}, {1, 4, 5}},  // duplicate inside an interleaving
      };
  for (const auto& [a, b] : cases) {
    gcp::RecordAccumulator acc = records_for(a);
    const std::string before = saved(acc);
    EXPECT_THROW(acc.merge_from(records_for(b)), std::logic_error);
    EXPECT_EQ(saved(acc), before);
  }
  gcp::RecordAccumulator self = records_for({4, 5});
  EXPECT_THROW(self.merge_from(self), std::logic_error);
}

// ---------------------------------------------------------------------------
// The determinism contract
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, HashInvariantAcrossShardCountsAndModes) {
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}})
    EXPECT_EQ(run_hash(shards, gcp::Mode::kSerial), ref) << shards;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}})
    EXPECT_EQ(run_hash(shards, gcp::Mode::kThread), ref) << shards;
}

TEST(CampaignDeterminism, ResumeFromCheckpointMatchesUninterrupted) {
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);

  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = fresh_checkpoint_dir("gdelay_campaign_resume");
  spec.checkpoint_every = 5;
  spec.stop_after_units = kUnits / 2 / 2;  // half of each shard's range

  const gcp::CampaignResult part =
      gcp::run_campaign(spec, make_accs, unit_work);
  EXPECT_FALSE(part.complete);
  EXPECT_EQ(part.units_done, kUnits / 2);

  spec.stop_after_units = 0;
  const gcp::CampaignResult full =
      gcp::run_campaign(spec, make_accs, unit_work);
  EXPECT_TRUE(full.complete);
  EXPECT_TRUE(full.resumed);
  EXPECT_EQ(full.units_done, kUnits);
  EXPECT_EQ(hash_accs(full.accumulators), ref);

  // After cleanup a rerun starts fresh — no stale state is picked up.
  gcp::remove_checkpoints(spec);
  const gcp::CampaignResult fresh =
      gcp::run_campaign(spec, make_accs, unit_work);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(hash_accs(fresh.accumulators), ref);
  gcp::remove_checkpoints(spec);
}

TEST(CampaignDeterminism, ForeignCheckpointIsRejected) {
  gcp::CampaignSpec spec = base_spec(1, gcp::Mode::kSerial);
  spec.checkpoint_dir = fresh_checkpoint_dir("gdelay_campaign_foreign");
  spec.stop_after_units = 3;
  gcp::run_campaign(spec, make_accs, unit_work);  // leaves a checkpoint

  gcp::CampaignSpec other = spec;
  other.stop_after_units = 0;
  other.seed = spec.seed + 1;  // same name+dir, different campaign
  EXPECT_THROW(gcp::run_campaign(other, make_accs, unit_work),
               std::runtime_error);

  gcp::remove_checkpoints(spec);
}

TEST(CampaignDeterminism, TopologyChangeCannotAbsorbOldCheckpoints) {
  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = fresh_checkpoint_dir("gdelay_campaign_topo");
  spec.stop_after_units = 3;
  gcp::run_campaign(spec, make_accs, unit_work);

  gcp::CampaignSpec wider = spec;
  wider.stop_after_units = 0;
  wider.n_shards = 4;  // shard 0/1 checkpoints carry the 2-shard fingerprint
  EXPECT_THROW(gcp::run_campaign(wider, make_accs, unit_work),
               std::runtime_error);

  gcp::remove_checkpoints(spec);
}

TEST(CampaignDeterminism, DirectoryAtCheckpointPathIsRejected) {
  // A directory where a shard checkpoint belongs reads as an empty file,
  // which the frame decoder rejects; it must never be sized and allocated.
  for (const gcp::Mode mode : {gcp::Mode::kSerial, gcp::Mode::kThread}) {
    gcp::CampaignSpec spec = base_spec(2, mode);
    spec.checkpoint_dir = fresh_checkpoint_dir("gdelay_campaign_dirpath");
    std::filesystem::create_directories(gcp::shard_checkpoint_path(spec, 1));
    EXPECT_THROW(gcp::run_campaign(spec, make_accs, unit_work),
                 std::runtime_error)
        << gcp::mode_name(mode);
    std::filesystem::remove_all(spec.checkpoint_dir);
  }
}

// ---------------------------------------------------------------------------
// Worker report files (the exec-mode transport)
// ---------------------------------------------------------------------------

TEST(CampaignWorker, ShardReportFilesMergeToTheCampaignResult) {
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);
  const gcp::CampaignSpec spec = base_spec(3, gcp::Mode::kSerial);
  const std::string dir = ::testing::TempDir() + "gdelay_campaign_worker";

  std::vector<std::string> frames;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string path = dir + "/shard" + std::to_string(s) + ".result";
    gcp::run_shard_to_file(spec, s, make_accs, unit_work, path);
    auto bytes = gcp::read_file(path);
    ASSERT_TRUE(bytes.has_value()) << path;
    frames.push_back(*bytes);
    gcp::remove_file(path);
  }

  const gcp::CampaignResult r =
      gcp::merge_shard_reports(spec, make_accs, frames);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_done, kUnits);
  EXPECT_EQ(hash_accs(r.accumulators), ref);
}

TEST(CampaignWorker, CorruptOrForeignReportsAreRejected) {
  const gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  const std::string dir = ::testing::TempDir() + "gdelay_campaign_reject";

  std::vector<std::string> frames;
  for (std::size_t s = 0; s < 2; ++s) {
    const std::string path = dir + "/shard" + std::to_string(s) + ".result";
    gcp::run_shard_to_file(spec, s, make_accs, unit_work, path);
    frames.push_back(*gcp::read_file(path));
    gcp::remove_file(path);
  }

  // Wrong report count.
  EXPECT_THROW(
      gcp::merge_shard_reports(spec, make_accs, {frames[0]}),
      std::invalid_argument);

  // Bit flip inside one frame: the checksum rejects it.
  auto flipped = frames;
  flipped[1][flipped[1].size() / 2] ^= 0x20;
  EXPECT_THROW(gcp::merge_shard_reports(spec, make_accs, flipped),
               std::runtime_error);

  // Reports from a different campaign cannot merge into this spec.
  gcp::CampaignSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_THROW(gcp::merge_shard_reports(other, make_accs, frames),
               std::runtime_error);

  // Shard order matters: swapping reports trips the shard-index check.
  auto swapped = frames;
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(gcp::merge_shard_reports(spec, make_accs, swapped),
               std::runtime_error);
}

TEST(CampaignWorker, ShardIndexOutOfRangeIsRejected) {
  const gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  EXPECT_THROW(gcp::run_shard_to_file(spec, 2, make_accs, unit_work,
                                      ::testing::TempDir() + "nope.result"),
               std::invalid_argument);
}
