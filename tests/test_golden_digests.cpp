// Frozen per-sample oracle.
//
// Each case drives one element (or composite, or instrument) per sample
// with step() over the same edgy stimulus and mid-run dt schedule as
// test_block_kernels, and folds the raw output bits into one FNV-1a
// digest. The constants below were recorded from the hand-written
// per-sample step() bodies, before step() became a wrapper around
// process_block(n = 1). They are the reference those bodies used to be:
// a change to any element's arithmetic, RNG draw order or state handling
// shows up here as a digest mismatch, on either backend.
//
// The constants never change. If one fails, the per-sample path changed
// its bytes; fix the code, not the table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analog/buffer.h"
#include "analog/coupling.h"
#include "analog/differential.h"
#include "analog/element.h"
#include "analog/primitives.h"
#include "analog/tline.h"
#include "backend/backend.h"
#include "core/channel.h"
#include "core/coarse_delay.h"
#include "core/fine_delay.h"
#include "core/jitter_injector.h"
#include "measure/freq_response.h"
#include "util/rng.h"
#include "util/serde.h"

namespace ga = gdelay::analog;
namespace gb = gdelay::backend;
namespace gc = gdelay::core;
namespace gm = gdelay::meas;
using gdelay::util::Rng;

namespace {

bool avx2_usable() {
  return gb::avx2_kernels() != nullptr && gb::cpu_supports_avx2();
}

// Selects a backend for the scope and restores the previous one.
struct BackendSelect {
  std::string prev;
  explicit BackendSelect(const char* name) : prev(gb::active().name) {
    gb::select(name);
  }
  ~BackendSelect() { gb::select(prev.c_str()); }
};

// Same stimulus and dt schedule as test_block_kernels.
std::vector<double> stimulus(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    v[i] = 0.35 * std::sin(0.07 * t) + 0.15 * std::sin(0.011 * t + 0.5) +
           ((i / 37) % 2 ? 0.2 : -0.2);
  }
  return v;
}

struct Segment {
  std::size_t n;
  double dt;
};

const std::vector<Segment> kSegments{{701, 0.25}, {613, 0.4}, {509, 0.25}};

std::uint64_t digest(const std::vector<double>& v) {
  return gdelay::util::fnv1a64(v.data(), v.size() * sizeof(double));
}

// Per-sample run of `next(vin, dt)` over the stimulus and dt schedule.
std::uint64_t step_digest(
    const std::function<double(double, double)>& next) {
  std::size_t total = 0;
  for (const auto& s : kSegments) total += s.n;
  const auto in = stimulus(total);
  std::vector<double> out(total);
  std::size_t off = 0;
  for (const auto& s : kSegments) {
    for (std::size_t i = 0; i < s.n; ++i)
      out[off + i] = next(in[off + i], s.dt);
    off += s.n;
  }
  return digest(out);
}

template <typename E>
std::uint64_t element_digest(E e) {
  return step_digest([&e](double v, double dt) { return e.step(v, dt); });
}

struct Case {
  const char* name;
  std::function<std::uint64_t()> run;
  std::uint64_t scalar;
  std::uint64_t avx2;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"SinglePoleFilter",
       [] { return element_digest(ga::SinglePoleFilter(6.5)); },
       0xc0aee203b4f40040ULL, 0xfe99d23ce13846d4ULL},
      {"SlewRateLimiter",
       [] { return element_digest(ga::SlewRateLimiter(0.004)); },
       0xa5ab391433742a34ULL, 0xa5ab391433742a34ULL},
      {"SlewRateLimiterLinear",
       [] { return element_digest(ga::SlewRateLimiter(0.004, 20.0)); },
       0xd075f53fe39a2456ULL, 0xd075f53fe39a2456ULL},
      {"SlewRateLimiterLeak",
       [] { return element_digest(ga::SlewRateLimiter(0.004, 20.0, 300.0)); },
       0xa1e955c8b65e7fbcULL, 0xa1e955c8b65e7fbcULL},
      {"TanhLimiter",
       [] { return element_digest(ga::TanhLimiter(3.0, 0.4)); },
       0x8f9b95d04d7bd24cULL, 0x8f9b95d04d7bd24cULL},
      {"GainStage",
       [] { return element_digest(ga::GainStage(1.7)); },
       0x9f3f5afa6ee3fdbcULL, 0x9f3f5afa6ee3fdbcULL},
      {"NoiseAdder",
       [] { return element_digest(ga::NoiseAdder(0.02, Rng(42))); },
       0x78afce31fa73f545ULL, 0x78afce31fa73f545ULL},
      {"FractionalDelay",
       [] { return element_digest(ga::FractionalDelay(13.3)); },
       0x80842f47a0a5e84cULL, 0x80842f47a0a5e84cULL},
      {"AcCoupler",
       [] { return element_digest(ga::AcCoupler(0.01)); },
       0x4850a41f7c1a4fb3ULL, 0x4850a41f7c1a4fb3ULL},
      {"Attenuator",
       [] { return element_digest(ga::Attenuator(2.5)); },
       0x4393961b1c03803bULL, 0x4393961b1c03803bULL},
      {"VariableGainBuffer",
       [] {
         ga::VariableGainBuffer vga(ga::VgaBufferConfig{}, Rng(7));
         vga.set_vctrl(0.9);
         return element_digest(vga);
       },
       0x1efb43d8de717ffdULL, 0xc3fed10109e3e6adULL},
      {"LimitingBuffer",
       [] {
         return element_digest(
             ga::LimitingBuffer(ga::LimitingBufferConfig{}, Rng(11)));
       },
       0xc1a7e4d2096c1334ULL, 0x30840536df71140bULL},
      {"TransmissionLine",
       [] {
         ga::TransmissionLineConfig tl;
         tl.delay_ps = 33.0;
         tl.loss_db = 0.5;
         tl.dispersion_f3db_ghz = 28.0;
         return element_digest(ga::TransmissionLine(tl));
       },
       0x8950b1063192fc5eULL, 0x5da5e281913953aaULL},
      {"DifferentialImbalance",
       [] {
         ga::DifferentialImbalanceConfig cfg;
         cfg.leg_skew_ps = 2.5;
         cfg.gain_mismatch_frac = 0.08;
         cfg.offset_v = 0.003;
         return element_digest(ga::DifferentialImbalance(cfg));
       },
       0x43c6d32b02b1656aULL, 0x43c6d32b02b1656aULL},
      {"Cascade",
       [] {
         ga::Cascade c;
         c.emplace<ga::SinglePoleFilter>(8.0);
         c.emplace<ga::NoiseAdder>(0.015, Rng(101));
         c.emplace<ga::TanhLimiter>(2.0, 0.35);
         c.emplace<ga::NoiseAdder>(0.008, Rng(202));
         c.emplace<ga::SlewRateLimiter>(0.006, 15.0, 250.0);
         return step_digest(
             [&c](double v, double dt) { return c.step(v, dt); });
       },
       0xc8a0d7aea5d61538ULL, 0xd757bb9952b85c7bULL},
      {"NoiseSource",
       [] {
         ga::NoiseSource n(0.012, 7.5, Rng(33));
         return step_digest([&n](double, double dt) { return n.step(dt); });
       },
       0x739c281312fae783ULL, 0xed8c752517efff41ULL},
      {"CoarseDelayBlock",
       [] {
         gc::CoarseDelayBlock b(gc::CoarseDelayConfig::prototype(), Rng(55));
         b.select(2);
         return element_digest(b);
       },
       0xf811f5fcfced086dULL, 0x3cfa8f5c7647b1e8ULL},
      {"FineDelayLine",
       [] {
         gc::FineDelayLine f(gc::FineDelayConfig{}, Rng(77));
         f.set_vctrl(0.9);
         return element_digest(f);
       },
       0xe364ef04359ac041ULL, 0xaaaa4017ed0ee87eULL},
      {"VariableDelayChannel",
       [] {
         gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(99));
         ch.select_tap(1);
         ch.set_vctrl(1.1);
         return element_digest(ch);
       },
       0xc2e44cad7ba2c6c4ULL, 0x2d94ebc19dda3834ULL},
      {"JitterInjectorSj",
       [] {
         gc::JitterInjectorConfig cfg;
         cfg.sj_pp_v = 0.3;
         cfg.sj_freq_ghz = 0.05;
         gc::JitterInjector inj(cfg, Rng(5));
         return element_digest(inj);
       },
       0x285b8057fa9d47a3ULL, 0x0a2609f61fa57c10ULL},
      {"FrequencyResponseVga",
       [] {
         // The instrument resets the element per frequency, so the dt
         // schedule becomes three sweeps; the noise stream runs on.
         ga::VariableGainBuffer vga(ga::VgaBufferConfig{}, Rng(13));
         vga.set_vctrl(0.9);
         std::vector<double> bits;
         for (const auto& s : kSegments) {
           gm::FreqResponseOptions opt;
           opt.dt_ps = s.dt;
           opt.settle_cycles = 10;
           opt.measure_cycles = 20;
           for (const auto& p :
                gm::measure_frequency_response(vga, {1.0, 3.0, 8.0}, opt)) {
             bits.insert(bits.end(), {p.f_ghz, p.gain, p.gain_db, p.phase_rad,
                                      p.group_delay_ps});
           }
         }
         return digest(bits);
       },
       0xff10cce6c650483aULL, 0x064027c024a17b11ULL},
  };
  return all;
}

void check_backend(const char* backend, bool avx2) {
  BackendSelect sel(backend);
  for (const auto& c : cases()) {
    const std::uint64_t want = avx2 ? c.avx2 : c.scalar;
    const std::uint64_t got = c.run();
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(want, got) << c.name << " on " << backend << ": digest " << hex;
  }
}

}  // namespace

TEST(GoldenDigest, Scalar) { check_backend("scalar", false); }

TEST(GoldenDigest, Avx2) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2+FMA backend not usable here";
  check_backend("avx2", true);
}
