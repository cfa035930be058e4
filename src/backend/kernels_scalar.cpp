// Scalar reference backend: the byte-identity oracle.
//
// Every kernel is a plain loop over the inline reference steps from
// backend.h (or the det_* functions directly), one sample at a time in
// the same order with the same associativity, so a block and its split
// into smaller blocks (down to the one-sample calls behind step()) give
// the same bytes. The lane kernels walk their `w` interleaved streams
// stream-major through the per-stream loops of backend.h, so each
// stream's output equals the w = 1 call by construction, for any width
// and any lane assignment. This file is compiled with the project's
// default flags only (no -mavx2), and the global -ffp-contract=off keeps
// the compiler from fusing any multiply-add, so the oracle's bit
// patterns are the portable IEEE-754 ones regardless of the toolchain's
// vectorizer mood.
#include "backend/backend.h"

namespace gdelay::backend {
namespace {

void scale(const double* x, double* out, std::size_t n, double g) {
  for (std::size_t i = 0; i < n; ++i) out[i] = g * x[i];
}

void box_muller(const double* u1, const double* u2, double* out_cos,
                double* out_sin, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    box_muller_step(u1[i], u2[i], out_cos[i], out_sin[i]);
}

void tanh_stage_batch(const double* x, const double* add, double* out,
                      std::size_t n, std::size_t w, const double* gain,
                      const double* ref, const double* post) {
  // The literal stride at w == 1 (every solo process_block()) lets the
  // contiguous elementwise loop vectorize.
  if (w == 1) return tanh_stage_lane(x, add, out, n, 1, *gain, *ref, *post);
  for (std::size_t s = 0; s < w; ++s)
    tanh_stage_lane(x + s, add != nullptr ? add + s : nullptr, out + s, n, w,
                    gain[s], ref[s], post[s]);
}

void one_pole_batch(const double* x, double* out, std::size_t n,
                    std::size_t w, const double* alpha,
                    OnePoleState* const* st) {
  for (std::size_t s = 0; s < w; ++s)
    one_pole_lane(x + s, out + s, n, w, alpha[s], *st[s]);
}

void slew_batch(const double* x, double* out, std::size_t n, std::size_t w,
                const SlewCoeffs* const* c, SlewState* const* st) {
  for (std::size_t s = 0; s < w; ++s)
    slew_lane(x + s, out + s, n, w, *c[s], *st[s]);
}

void vga_tail_batch(const double* lim, double* out, std::size_t n,
                    std::size_t w, const VgaTailCoeffs* const* c,
                    SlewState* const* slew_st, VgaTailState* const* d) {
  for (std::size_t s = 0; s < w; ++s)
    vga_tail_lane(lim + s, out + s, n, w, *c[s], *slew_st[s], *d[s]);
}

const Kernels kScalar = {
    /*name=*/"scalar",
    /*isa=*/"generic",
    /*lanes=*/1,
    scale,
    box_muller,
    tanh_stage_batch,
    one_pole_batch,
    slew_batch,
    vga_tail_batch,
};

}  // namespace

const Kernels& scalar_kernels() { return kScalar; }

}  // namespace gdelay::backend
