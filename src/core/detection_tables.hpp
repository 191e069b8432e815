// Day-indexed constant tables shared by the detection models' kernels.
// Model2 consumes log(d), model3 consumes log(d+2)/(d+1), and the Weibull
// kernel reuses log(d) to form d^omega; one thread_local cache serves
// every model instead of each growing its own.
#pragma once

#include <cstddef>
#include <vector>

namespace srm::core {

/// Parallel day-indexed tables, entry [i] describing day i+1, computed as
/// `std::log(double(d))` and `std::log(d + 2.0) / (d + 1.0)`.
struct DayTables {
  std::vector<double> log_day;          ///< log(d) for d = 1..days
  std::vector<double> pareto_exponent;  ///< log(d+2)/(d+1) for d = 1..days
};

/// Tables covering at least `days` entries. The backing storage is
/// thread_local (concurrent Gibbs chains must not contend) and grows on
/// demand, so any day count seen during warm-up is served allocation-free
/// in steady state. The reference is invalidated by a later call with a
/// larger `days` on the same thread; probes use it immediately.
const DayTables& day_tables(std::size_t days);

}  // namespace srm::core
