// Thread-local scratch buffers for the block-processing engine.
//
// The stage-major analog paths need short-lived intermediate sample
// buffers (one block each for noise, fan-out taps, differential legs...).
// Allocating them per process() call would put a malloc on the hottest
// loop in the library, so leases come from a per-thread free list that
// retains capacity: after warm-up, block processing performs no heap
// allocation. Thread-local storage keeps the pool safe under the
// calibration sweeps' work pool without any locking.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace gdelay::util {

/// RAII lease of a `double` buffer from the calling thread's pool.
/// Contents are unspecified on acquisition.
class ScratchBuffer {
 public:
  explicit ScratchBuffer(std::size_t n) : v_(acquire()) { v_.resize(n); }
  ~ScratchBuffer() { release(std::move(v_)); }

  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  double* data() { return v_.data(); }
  const double* data() const { return v_.data(); }
  std::size_t size() const { return v_.size(); }
  double operator[](std::size_t i) const { return v_[i]; }
  double& operator[](std::size_t i) { return v_[i]; }

 private:
  static std::vector<std::vector<double>>& pool() {
    thread_local std::vector<std::vector<double>> p;
    return p;
  }
  static std::vector<double> acquire() {
    auto& p = pool();
    if (p.empty()) return {};
    std::vector<double> v = std::move(p.back());
    p.pop_back();
    return v;
  }
  static void release(std::vector<double> v) {
    pool().push_back(std::move(v));
  }

  std::vector<double> v_;
};

/// Most lanes one lane pass advances at once: the width of a lane pass's
/// per-lane arrays. core::BatchRunner runs wider batches in groups of
/// at most this many lanes.
inline constexpr std::size_t kMaxLanes = 8;

/// One value per lane of a lane pass (coefficients, state or part
/// pointers), held on the stack so that no lane pass — in particular
/// none of the n == 1 calls behind step() — touches the heap.
template <typename T>
class LaneArray {
  static_assert(std::is_trivial_v<T>, "lane arrays hold plain values");

 public:
  /// Lane s holds fill(s). Throws std::length_error unless
  /// 1 <= w <= kMaxLanes.
  template <typename F>
  LaneArray(std::size_t w, F&& fill) {
    if (w == 0 || w > kMaxLanes)
      throw std::length_error("lane pass width outside [1, kMaxLanes]");
    for (std::size_t s = 0; s < w; ++s) v_[s] = fill(s);
  }
  /// Lane s holds &(lanes[s]->*part).
  template <typename E, typename M>
  LaneArray(E* const* lanes, std::size_t w, M E::*part)
      : LaneArray(w, [&](std::size_t s) { return &(lanes[s]->*part); }) {}

  T* data() { return v_; }

 private:
  T v_[kMaxLanes];
};

}  // namespace gdelay::util
