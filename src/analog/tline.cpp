#include "analog/tline.h"

#include "util/units.h"

namespace gdelay::analog {

TransmissionLine::TransmissionLine(const TransmissionLineConfig& cfg)
    : cfg_(cfg),
      delay_(cfg.delay_ps),
      loss_factor_(util::db_loss_to_factor(cfg.loss_db)),
      has_pole_(cfg.dispersion_f3db_ghz > 0.0),
      pole_(has_pole_ ? cfg.dispersion_f3db_ghz : 1.0) {}

void TransmissionLine::reset() {
  delay_.reset();
  pole_.reset();
}

void TransmissionLine::process_lanes(TransmissionLine* const* t,
                                     std::size_t w, const double* in,
                                     double* out, std::size_t n,
                                     double dt_ps) {
  for_each_lane_column(in, out, n, w,
                       [&](std::size_t s, const double* x, double* y) {
                         TransmissionLine& line = *t[s];
                         line.delay_.process_block(x, y, n, dt_ps);
                         for (std::size_t i = 0; i < n; ++i)
                           y[i] *= line.loss_factor_;
                         if (line.has_pole_)
                           line.pole_.process_block(y, y, n, dt_ps);
                       });
}

double trace_loss_db(double delay_ps, double db_per_100ps) {
  return delay_ps / 100.0 * db_per_100ps;
}

}  // namespace gdelay::analog
