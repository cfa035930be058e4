#include "core/channel.h"

namespace gdelay::core {

VariableDelayChannel::VariableDelayChannel(const ChannelConfig& cfg,
                                           util::Rng rng)
    : cfg_(cfg), coarse_(cfg.coarse, rng.fork(10)), fine_(cfg.fine, rng.fork(20)) {}

void VariableDelayChannel::reset() {
  coarse_.reset();
  fine_.reset();
}

void VariableDelayChannel::process_lanes(VariableDelayChannel* const* ch,
                                         std::size_t w, const double* in,
                                         double* out, std::size_t n,
                                         double dt_ps) {
  util::LaneArray<CoarseDelayBlock*> coarse(ch, w,
                                            &VariableDelayChannel::coarse_);
  CoarseDelayBlock::process_lanes(coarse.data(), w, in, out, n, dt_ps);
  util::LaneArray<FineDelayLine*> fine(ch, w, &VariableDelayChannel::fine_);
  FineDelayLine::process_lanes(fine.data(), w, out, out, n, dt_ps);
}

}  // namespace gdelay::core
