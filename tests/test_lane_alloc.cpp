// After warm-up, a lane pass makes no heap allocation: neither the
// per-sample solo calls behind step() (w == 1, n == 1, the jitter
// injector's path) nor a BatchRunner run wider than one lane group.
// This binary replaces the global operator new to count allocations;
// the count must not move across the measured calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "core/batch.h"
#include "core/channel.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace gc = gdelay::core;

namespace {

std::size_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

gc::VariableDelayChannel make_channel(std::size_t s) {
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(),
                              gdelay::util::Rng(5));
  ch.fork_noise(s);
  ch.select_tap(static_cast<int>(s % 4));
  return ch;
}

}  // namespace

TEST(LanePassAllocation, SoloStepAllocatesNothingAfterWarmUp) {
  auto ch = make_channel(0);
  double x = 0.2;
  for (int i = 0; i < 64; ++i) x = -ch.step(x, 0.25);
  const std::size_t before = allocs();
  for (int i = 0; i < 256; ++i) x = -ch.step(x, 0.25);
  EXPECT_EQ(allocs(), before);
}

TEST(LanePassAllocation, WideBatchRunAllocatesNothingAfterWarmUp) {
  // Nine streams: one full group of util::kMaxLanes lanes plus one.
  std::vector<gc::VariableDelayChannel> chans;
  for (std::size_t s = 0; s < 9; ++s) chans.push_back(make_channel(s));
  gc::BatchRunner runner;
  for (auto& c : chans) runner.add(c);
  gdelay::sig::Waveform stim(0.0, 0.25, 3000);
  for (std::size_t i = 0; i < stim.size(); ++i)
    stim.samples()[i] = (i / 37) % 2 ? 0.3 : -0.3;
  std::vector<gdelay::sig::Waveform> outs;
  runner.run(stim, outs);
  const std::size_t before = allocs();
  runner.run(stim, outs);
  EXPECT_EQ(allocs(), before);
}

TEST(LanePassAllocation, LanePassOutsideOneToMaxLanesThrows) {
  std::vector<gc::VariableDelayChannel> chans;
  for (std::size_t s = 0; s <= gdelay::util::kMaxLanes; ++s)
    chans.push_back(make_channel(s));
  std::vector<gc::VariableDelayChannel*> lanes;
  for (auto& c : chans) lanes.push_back(&c);
  std::vector<double> buf(4 * lanes.size(), 0.0);
  EXPECT_THROW(gc::VariableDelayChannel::process_lanes(
                   lanes.data(), lanes.size(), buf.data(), buf.data(), 4,
                   0.25),
               std::length_error);
  EXPECT_THROW(gc::VariableDelayChannel::process_lanes(
                   lanes.data(), 0, buf.data(), buf.data(), 4, 0.25),
               std::length_error);
}
