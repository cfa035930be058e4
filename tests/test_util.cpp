// Tests for util: units, RNG, curves, CSV and binary serde.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/curve.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/units.h"

namespace gu = gdelay::util;

TEST(Units, PeriodAndRate) {
  EXPECT_DOUBLE_EQ(gu::period_ps(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(gu::period_ps(6.4), 156.25);
  EXPECT_DOUBLE_EQ(gu::unit_interval_ps(6.4), 156.25);
  EXPECT_DOUBLE_EQ(gu::freq_ghz(156.25), 6.4);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(gu::ns_to_ps(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(gu::ps_to_ns(250.0), 0.25);
  EXPECT_DOUBLE_EQ(gu::mv(750.0), 0.75);
  EXPECT_DOUBLE_EQ(gu::to_mv(0.1), 100.0);
}

TEST(Units, DbLoss) {
  EXPECT_NEAR(gu::db_loss_to_factor(0.0), 1.0, 1e-12);
  EXPECT_NEAR(gu::db_loss_to_factor(6.0205999), 0.5, 1e-6);
  EXPECT_NEAR(gu::db_loss_to_factor(20.0), 0.1, 1e-12);
}

TEST(Units, GaussianPpConvention) {
  EXPECT_DOUBLE_EQ(gu::gaussian_pp_to_sigma(0.9), 0.15);
  EXPECT_DOUBLE_EQ(gu::gaussian_sigma_to_pp(0.15), 0.9);
}

TEST(Rng, Deterministic) {
  gu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  gu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  gu::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  gu::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  gu::Rng r(123);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  gu::Rng r(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += r.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ForkIndependence) {
  gu::Rng parent(99);
  gu::Rng c1 = parent.fork(0);
  gu::Rng c2 = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange) {
  gu::Rng r(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Curve, RejectsBadInput) {
  EXPECT_THROW(gu::Curve({0.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(gu::Curve({0.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(gu::Curve({0.0, 1.0}, {1.0}), std::invalid_argument);
}

TEST(Curve, LinearInterpolation) {
  gu::Curve c({0.0, 1.0, 2.0}, {0.0, 10.0, 40.0});
  EXPECT_DOUBLE_EQ(c(0.5), 5.0);
  EXPECT_DOUBLE_EQ(c(1.5), 25.0);
  EXPECT_DOUBLE_EQ(c(1.0), 10.0);
}

TEST(Curve, ExtrapolatesLinearly) {
  gu::Curve c({0.0, 1.0}, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(c(2.0), 20.0);
  EXPECT_DOUBLE_EQ(c(-1.0), -10.0);
}

TEST(Curve, Monotonicity) {
  gu::Curve inc({0.0, 1.0, 2.0}, {0.0, 1.0, 3.0});
  EXPECT_TRUE(inc.is_monotonic_increasing());
  EXPECT_FALSE(inc.is_monotonic_decreasing());
  gu::Curve bump({0.0, 1.0, 2.0}, {0.0, 2.0, 1.0});
  EXPECT_FALSE(bump.is_monotonic_increasing());
  EXPECT_FALSE(bump.is_monotonic_decreasing());
}

TEST(Curve, InvertRoundTrip) {
  gu::Curve c({0.0, 0.5, 1.0, 1.5}, {0.0, 20.0, 45.0, 56.0});
  for (double y : {0.0, 5.0, 20.0, 33.0, 56.0}) {
    const double x = c.invert(y);
    EXPECT_NEAR(c(x), y, 1e-9);
  }
}

TEST(Curve, InvertClampsOutOfRange) {
  gu::Curve c({0.0, 1.0}, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(c.invert(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(c.invert(99.0), 1.0);
}

TEST(Curve, InvertDecreasing) {
  gu::Curve c({0.0, 1.0, 2.0}, {10.0, 5.0, 0.0});
  EXPECT_NEAR(c.invert(7.5), 0.5, 1e-9);
  EXPECT_NEAR(c.invert(2.5), 1.5, 1e-9);
}

TEST(Curve, InvertNonMonotonicThrows) {
  gu::Curve c({0.0, 1.0, 2.0}, {0.0, 2.0, 1.0});
  EXPECT_THROW(c.invert(0.5), std::domain_error);
}

TEST(Curve, FromSamplesSorts) {
  auto c = gu::Curve::from_samples({{2.0, 20.0}, {0.0, 0.0}, {1.0, 10.0}});
  EXPECT_DOUBLE_EQ(c(1.5), 15.0);
}

TEST(Curve, MidSlope) {
  gu::Curve c({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 1.0, 3.0, 5.0, 6.0});
  // Central half covers the steep 2/unit segments.
  EXPECT_NEAR(c.mid_slope(0.5), 2.0, 1e-9);
}

TEST(Curve, YSpan) {
  gu::Curve c({0.0, 1.0, 2.0}, {5.0, -1.0, 7.0});
  EXPECT_DOUBLE_EQ(c.y_span(), 8.0);
}

TEST(Isotonic, AlreadyMonotone) {
  const std::vector<double> ys{0.0, 1.0, 2.0, 5.0};
  EXPECT_EQ(gu::isotonic_increasing(ys), ys);
}

TEST(Isotonic, PoolsViolators) {
  const auto out = gu::isotonic_increasing({1.0, 3.0, 2.0, 4.0});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.5);
  EXPECT_DOUBLE_EQ(out[2], 2.5);
  EXPECT_DOUBLE_EQ(out[3], 4.0);
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_GE(out[i], out[i - 1]);
}

TEST(Isotonic, PreservesMean) {
  const std::vector<double> ys{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const auto out = gu::isotonic_increasing(ys);
  double a = 0.0, b = 0.0;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    a += ys[i];
    b += out[i];
  }
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(Isotonic, ConstantInput) {
  const auto out = gu::isotonic_increasing({2.0, 2.0, 2.0});
  for (double y : out) EXPECT_DOUBLE_EQ(y, 2.0);
}

TEST(CurveMonotonicized, CleansNoisyIncreasing) {
  // A monotone ramp with a small dip: monotonicized must be non-decreasing
  // and close to the original.
  gu::Curve c({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 1.1, 0.9, 3.0, 4.0});
  const auto m = c.monotonicized();
  EXPECT_TRUE(m.is_monotonic_increasing());
  EXPECT_NO_THROW(m.invert(2.0));
  for (std::size_t i = 0; i < m.size(); ++i)
    EXPECT_NEAR(m.ys()[i], c.ys()[i], 0.2);
}

TEST(CurveMonotonicized, PicksDecreasingDirection) {
  gu::Curve c({0.0, 1.0, 2.0, 3.0}, {9.0, 6.1, 6.2, 1.0});
  const auto m = c.monotonicized();
  EXPECT_TRUE(m.is_monotonic_decreasing());
}

TEST(Csv, WritesColumns) {
  const auto path =
      (std::filesystem::temp_directory_path() / "gdelay_csv_test.csv")
          .string();
  gu::write_csv(path, {"x", "y"}, {{1.0, 2.0}, {10.0, 20.0}});
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), "x,y\n1,10\n2,20\n");
  std::filesystem::remove(path);
}

TEST(Csv, ValidatesInput) {
  EXPECT_THROW(gu::write_csv("/tmp/x.csv", {"a"}, {{1.0}, {2.0}}),
               std::invalid_argument);
  EXPECT_THROW(gu::write_csv("/tmp/x.csv", {"a", "b"}, {{1.0}, {2.0, 3.0}}),
               std::invalid_argument);
  EXPECT_THROW(gu::write_csv("/tmp/x.csv", {}, {}), std::invalid_argument);
  EXPECT_THROW(
      gu::write_csv_xy("/nonexistent/dir/x.csv", "a", {1.0}, "b", {2.0}),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Binary serde: XXH64 and the bulk vector encoders
// ---------------------------------------------------------------------------

TEST(Serde, Xxh64KnownAnswers) {
  EXPECT_EQ(gu::xxh64("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(gu::xxh64("abc", 3), 0x44BC2CF5AD770999ULL);
  // Lengths that exercise the 32-byte stripes and the 8/4/1-byte tails.
  // Expected low 32 bits come from zstd, whose frame checksum is the
  // content's XXH64 (seed 0) truncated to its low 4 bytes, stored last and
  // little-endian; byte i of the input is (131 * i + 7) mod 256:
  //   python3 -c 'import sys; sys.stdout.buffer.write(bytes(
  //     (131 * i + 7) % 256 for i in range(N)))' |
  //     zstd -c --check | tail -c 4 | od -An -tx4
  struct Case {
    std::size_t n;
    std::uint32_t low32;
  };
  const Case cases[] = {{0, 0x51d8e999},    {1, 0xe858bbb7},
                        {4, 0x4b3bb23d},    {7, 0xd675d2c0},
                        {8, 0x71ce94dd},    {31, 0x306b5d8f},
                        {32, 0xbc5d6e25},   {33, 0x4e1cbe9f},
                        {63, 0x066cb6a5},   {64, 0x0411632e},
                        {1000, 0xc82eb373}};
  std::vector<unsigned char> bytes(1000);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<unsigned char>((131 * i + 7) % 256);
  for (const Case& c : cases)
    EXPECT_EQ(static_cast<std::uint32_t>(gu::xxh64(bytes.data(), c.n)),
              c.low32)
        << "length " << c.n;
}

namespace {

// Hand-built reference encoding: u64 count, then each 64-bit element,
// least significant byte first.
std::string le_block(const std::vector<std::uint64_t>& words) {
  std::string out;
  const auto put = [&out](std::uint64_t w) {
    for (int b = 0; b < 8; ++b)
      out.push_back(static_cast<char>((w >> (8 * b)) & 0xff));
  };
  put(words.size());
  for (const std::uint64_t w : words) put(w);
  return out;
}

}  // namespace

TEST(Serde, VectorsAreLittleEndianBlocks) {
  const std::uint64_t kNegZero = 0x8000000000000000ULL;
  const std::uint64_t kNanPayload = 0x7ff80000deadbeefULL;
  const std::uint64_t kDenormal = 0x0000000000000001ULL;
  const std::vector<std::vector<std::uint64_t>> patterns = {
      {}, {kNanPayload}, {kNegZero, kDenormal, 0x0123456789abcdefULL}};
  for (const auto& bits : patterns) {
    std::vector<double> f;
    for (const std::uint64_t b : bits) f.push_back(std::bit_cast<double>(b));
    const std::string expect = le_block(bits);

    gu::ByteWriter wf, wu;
    wf.vec_f64(f);
    wu.vec_u64(bits);
    EXPECT_EQ(wf.bytes(), expect) << "vec_f64, length " << bits.size();
    EXPECT_EQ(wu.bytes(), expect) << "vec_u64, length " << bits.size();

    gu::ByteReader rf(expect), ru(expect);
    const std::vector<double> back_f = rf.vec_f64();
    EXPECT_EQ(ru.vec_u64(), bits);
    ASSERT_EQ(back_f.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back_f[i]), bits[i]) << i;
    EXPECT_TRUE(rf.at_end());
    EXPECT_TRUE(ru.at_end());

    // One byte short of the last element is truncation, not a short read.
    if (!bits.empty()) {
      const std::string cut = expect.substr(0, expect.size() - 1);
      gu::ByteReader r1(cut), r2(cut);
      EXPECT_THROW(r1.vec_f64(), std::runtime_error);
      EXPECT_THROW(r2.vec_u64(), std::runtime_error);
    }
  }
}
