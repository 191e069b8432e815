// The formulas of the pow/log-heavy detection models (model2/3/4): each
// DetectionModel::fill of those kinds calls its kernel here directly, so
// every channel of the three models runs the same lane arithmetic. The
// kernels evaluate one day per lane on the support/simd lane layer; every
// lane is computed independently of its neighbours, so a day's value does
// not depend on where in a day range (or in a lane block) it falls. They
// differ from a libm closed form only by the documented ULP budgets of
// support/simd/math.hpp.
//
// This header is ISA-neutral; the implementation TU (detection_simd.cpp)
// is the single core/ translation unit CMake may compile with wider-ISA
// flags (`SRM_SIMD=ON` adds -mavx2 there and nowhere else). Every lane
// backend gives the same bits, so the wider build reproduces the default
// one.
#pragma once

#include <cstddef>
#include <span>

namespace srm::core::simd_kernels {

/// Lane backend the kernels were compiled against: "avx2", "sse2",
/// "neon", or "scalar". Surfaced by the bench and docs.
const char* isa_name();

// Each kernel fills, for each 1-based day i in [first_day, last_day],
// probabilities[i - first_day] = p_i and log_survivals[i - first_day] =
// log q_i. Either output span may be empty to skip that channel; a
// non-empty one must hold at least last_day - first_day + 1 entries, and
// the day table (entry [i-1] describes day i) at least last_day.

/// Model2 (discrete log-logistic hazard): with e_i = log_day[i-1] - gamma
/// + 1 and t_i = mu^{e_i},
///   p_i     = (1 - mu) / (t_i + 1)
///   log q_i = log((t_i + mu) / (t_i + 1)), or exactly 0 when t_i
///             overflows (the q -> 1 limit)
void loglogistic_detection(std::size_t first_day, std::size_t last_day,
                           double mu, double gamma,
                           std::span<const double> log_day,
                           std::span<double> probabilities,
                           std::span<double> log_survivals);

/// Model3 (discrete Pareto hazard): with e_i = exponents[i-1] =
/// log(i+2)/(i+1),
///   p_i     = 1 - mu^{e_i}
///   log q_i = e_i * log(mu)
void pareto_detection(std::size_t first_day, std::size_t last_day, double mu,
                      std::span<const double> exponents,
                      std::span<double> probabilities,
                      std::span<double> log_survivals);

/// Model4 (discrete Weibull hazard): with e_i = i^omega - (i-1)^omega, day
/// powers formed as exp(omega * log_day[i-1]) and 0^omega = pow(0, omega),
///   p_i     = 1 - mu^{e_i}
///   log q_i = e_i * log(mu)
void weibull_detection(std::size_t first_day, std::size_t last_day,
                       double mu, double omega,
                       std::span<const double> log_day,
                       std::span<double> probabilities,
                       std::span<double> log_survivals);

}  // namespace srm::core::simd_kernels
