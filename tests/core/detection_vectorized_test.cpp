// Tests for the lane kernels that are the formulas of model2/3/4
// (core/detection_simd.hpp): every channel must agree with a libm closed
// form of Eqs 5-7, written out below as the reference, to within the
// documented ULP budgets of the vectorized transcendentals, and must keep
// the closed form's overflow semantics (model2's q -> 1 guard).
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/detection_models.hpp"
#include "core/detection_simd.hpp"
#include "core/detection_tables.hpp"

namespace {

using srm::core::DetectionModelKind;
using srm::core::DetectionModelLimits;
using srm::core::make_detection_model;

constexpr std::size_t kDays = 150;

struct ClosedForm {
  double probability;
  double log_survival;
};

/// Eqs 5-7 with libm pow/log, one day at a time.
ClosedForm closed_form(DetectionModelKind kind, std::size_t day,
                       const std::vector<double>& zeta) {
  const double mu = zeta[0];
  const double d = static_cast<double>(day);
  if (kind == DetectionModelKind::kLogLogistic) {
    const double t = std::pow(mu, std::log(d) - zeta[1] + 1.0);
    return {(1.0 - mu) / (t + 1.0),
            !std::isfinite(t) ? 0.0 : std::log(t + mu) - std::log1p(t)};
  }
  const double exponent =
      kind == DetectionModelKind::kPareto
          ? std::log(d + 2.0) / (d + 1.0)
          : std::pow(d, zeta[1]) - std::pow(d - 1.0, zeta[1]);
  return {1.0 - std::pow(mu, exponent), exponent * std::log(mu)};
}

/// Mixed absolute/relative closeness: the vectorized transcendentals are
/// within tens of ULPs of libm, so channel values agree to ~1e-12
/// relative with a small absolute floor for near-cancelled results.
void expect_close(double reference, double lanes, const char* what,
                  std::size_t day) {
  if (std::isinf(reference) || std::isinf(lanes)) {
    ASSERT_EQ(reference, lanes) << what << " day " << day;
    return;
  }
  ASSERT_NEAR(reference, lanes, 1e-12 + 1e-10 * std::abs(reference))
      << what << " day " << day;
}

class VectorizedDetection
    : public ::testing::TestWithParam<DetectionModelKind> {};

TEST_P(VectorizedDetection, ChannelsTrackScalarWithinBudget) {
  const auto model = make_detection_model(GetParam());
  const auto supports = model->parameter_supports(DetectionModelLimits{});
  const double fractions[] = {1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9};

  std::vector<double> zeta(supports.size());
  std::vector<double> p(kDays), q(kDays);
  const auto probe = [&](const std::vector<double>& z) {
    model->probabilities_into(kDays, z, p);
    model->log_survivals_into(kDays, z, q);
    for (std::size_t day = 1; day <= kDays; ++day) {
      const auto reference = closed_form(GetParam(), day, z);
      expect_close(reference.probability, p[day - 1], "probability", day);
      expect_close(reference.log_survival, q[day - 1], "log_survival", day);
    }
  };

  if (supports.size() == 1) {
    for (const double f : fractions) {
      zeta[0] = supports[0].lower + f * (supports[0].upper - supports[0].lower);
      probe(zeta);
    }
  } else {
    for (const double f0 : fractions) {
      for (const double f1 : fractions) {
        zeta[0] =
            supports[0].lower + f0 * (supports[0].upper - supports[0].lower);
        zeta[1] =
            supports[1].lower + f1 * (supports[1].upper - supports[1].lower);
        probe(zeta);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HeterogeneousModels, VectorizedDetection,
                         ::testing::Values(DetectionModelKind::kLogLogistic,
                                           DetectionModelKind::kPareto,
                                           DetectionModelKind::kWeibull));

TEST(VectorizedDetection, Model2OverflowYieldsZeroLogSurvival) {
  // mu -> 0 with gamma far above 1 + log(day) makes the exponent deeply
  // negative, so t = mu^e overflows; log q is pinned to its q -> 1 limit.
  const auto& log_day = srm::core::day_tables(kDays).log_day;
  std::vector<double> lq(kDays);
  srm::core::simd_kernels::loglogistic_detection(1, kDays, 1e-300, 400.0,
                                                 log_day, {}, lq);
  for (std::size_t day = 1; day <= kDays; ++day) {
    ASSERT_EQ(lq[day - 1], 0.0) << "day " << day;
  }
}

TEST(VectorizedDetection, Model2LogSurvivalNeverRoundsAboveZero) {
  // q = (t + mu) / (t + 1) < 1 for mu < 1. The closed form
  // log(t + mu) - log1p(t) cancels when t is large and can round above 0,
  // which made prod q exceed 1 and aborted the residual update (a
  // simulation-based calibration replication hit it with mu ~ 0.017,
  // gamma ~ 6.6). The kernel's log1p(s) branch keeps every value <= 0.
  const auto model = make_detection_model(DetectionModelKind::kLogLogistic);
  std::vector<double> lq(kDays);
  for (double mu = 1e-6; mu < 1.0; mu *= 1.7) {
    for (double gamma = -10.0; gamma <= 10.0; gamma += 0.37) {
      model->log_survivals_into(kDays, std::vector<double>{mu, gamma}, lq);
      for (std::size_t day = 1; day <= kDays; ++day) {
        ASSERT_LE(lq[day - 1], 0.0)
            << "mu " << mu << " gamma " << gamma << " day " << day;
      }
    }
  }
}

TEST(VectorizedDetection, EmptySpanSkipsChannel) {
  const auto& tables = srm::core::day_tables(kDays);
  std::vector<double> p(kDays, -1.0);
  // Empty log-survival span: only probabilities are written.
  srm::core::simd_kernels::pareto_detection(1, kDays, 0.5,
                                            tables.pareto_exponent, p, {});
  for (std::size_t day = 1; day <= kDays; ++day) {
    ASSERT_GE(p[day - 1], 0.0) << "day " << day;
    ASSERT_LE(p[day - 1], 1.0) << "day " << day;
  }
  // Empty probability span: only log-survivals are written.
  std::vector<double> lq(kDays, 1.0);
  srm::core::simd_kernels::weibull_detection(1, kDays, 0.5, 1.5,
                                             tables.log_day, {}, lq);
  for (std::size_t day = 1; day <= kDays; ++day) {
    ASSERT_LE(lq[day - 1], 0.0) << "day " << day;
  }
}

}  // namespace
