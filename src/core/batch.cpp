#include "core/batch.h"

#include <algorithm>
#include <stdexcept>

#include "analog/element.h"
#include "util/scratch.h"

namespace gdelay::core {

namespace {
constexpr std::size_t kChunk = analog::kBlockSamples;
}  // namespace

void BatchRunner::add(VariableDelayChannel& ch) {
  if (!fines_.empty())
    throw std::logic_error(
        "BatchRunner: cannot mix whole channels and bare fine lines");
  if (!channels_.empty() &&
      ch.fine().n_stages() != channels_.front()->fine().n_stages())
    throw std::logic_error("BatchRunner: fine stage-count mismatch");
  channels_.push_back(&ch);
}

void BatchRunner::add(FineDelayLine& line) {
  if (!channels_.empty())
    throw std::logic_error(
        "BatchRunner: cannot mix whole channels and bare fine lines");
  if (!fines_.empty() && line.n_stages() != fines_.front()->n_stages())
    throw std::logic_error("BatchRunner: fine stage-count mismatch");
  fines_.push_back(&line);
}

template <typename Emit>
void BatchRunner::run_chunks(const sig::Waveform& stimulus, Emit&& emit) {
  const std::size_t w = width();
  for (auto* ch : channels_) ch->reset();
  for (auto* f : fines_) f->reset();
  ilv_.resize(kChunk * std::min(w, util::kMaxLanes));
  col_.resize(kChunk);
  const double dt = stimulus.dt_ps();
  const std::size_t total = stimulus.size();
  const double* src = stimulus.samples().data();
  for (std::size_t o = 0; o < total; o += kChunk) {
    const std::size_t n = std::min(kChunk, total - o);
    for (std::size_t g = 0; g < w; g += util::kMaxLanes) {
      const std::size_t gw = std::min(util::kMaxLanes, w - g);
      for (std::size_t i = 0; i < n; ++i) {
        const double x = src[o + i];
        for (std::size_t s = 0; s < gw; ++s) ilv_[i * gw + s] = x;
      }
      if (!channels_.empty())
        VariableDelayChannel::process_lanes(channels_.data() + g, gw,
                                            ilv_.data(), ilv_.data(), n, dt);
      else
        FineDelayLine::process_lanes(fines_.data() + g, gw, ilv_.data(),
                                     ilv_.data(), n, dt);
      for (std::size_t s = 0; s < gw; ++s) {
        for (std::size_t i = 0; i < n; ++i) col_[i] = ilv_[i * gw + s];
        emit(g + s, o, n, col_.data());
      }
    }
  }
}

std::vector<sig::Waveform> BatchRunner::run(const sig::Waveform& stimulus) {
  std::vector<sig::Waveform> outs;
  run(stimulus, outs);
  return outs;
}

void BatchRunner::run(const sig::Waveform& stimulus,
                      std::vector<sig::Waveform>& outs) {
  const std::size_t w = width();
  if (w == 0) throw std::logic_error("BatchRunner: no streams added");
  if (outs.size() != w) outs.resize(w);
  for (auto& o : outs)
    if (!o.same_grid(stimulus))
      o = sig::Waveform(stimulus.t0_ps(), stimulus.dt_ps(), stimulus.size());
  run_chunks(stimulus, [&](std::size_t s, std::size_t o, std::size_t n,
                           const double* col) {
    std::copy(col, col + n, outs[s].samples().data() + o);
  });
}

void BatchRunner::run(const sig::Waveform& stimulus,
                      const std::vector<meas::ISampleSink*>& sinks) {
  const std::size_t w = width();
  if (w == 0) throw std::logic_error("BatchRunner: no streams added");
  if (sinks.size() != w)
    throw std::invalid_argument("BatchRunner: one sink per stream required");
  for (auto* sink : sinks)
    sink->begin(stimulus.t0_ps(), stimulus.dt_ps(), stimulus.size());
  run_chunks(stimulus, [&](std::size_t s, std::size_t, std::size_t n,
                           const double* col) { sinks[s]->consume(col, n); });
  for (auto* sink : sinks) sink->finish();
}

}  // namespace gdelay::core
