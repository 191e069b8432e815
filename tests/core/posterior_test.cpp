// Tests for the residual-posterior summary type, fed through the
// streaming ResidualAccumulator as the Gibbs driver feeds it.
#include "core/posterior.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "core/streaming.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;

/// The residual posterior of one chain whose retained states are
/// [residual, lambda0 = 10].
core::ResidualPosterior posterior_of(const std::vector<double>& residuals) {
  core::ResidualAccumulator accumulator(0, 1, residuals.size());
  for (const double r : residuals) {
    accumulator.accumulate(0, std::vector<double>{r, 10.0}, nullptr);
  }
  return accumulator.finalize();
}

TEST(ResidualPosterior, SummaryFromKnownSamples) {
  const auto posterior = posterior_of({1, 2, 2, 3, 3, 3, 4, 10});
  EXPECT_EQ(posterior.summary.mode, 3);
  EXPECT_EQ(posterior.summary.min, 1);
  EXPECT_EQ(posterior.summary.max, 10);
  EXPECT_NEAR(posterior.summary.mean, 3.5, 1e-12);
  EXPECT_EQ(posterior.samples.size(), 8u);
}

TEST(ResidualPosterior, CredibleIntervalCoversCentralMass) {
  std::vector<double> residuals;
  for (int i = 0; i < 1000; ++i) {
    residuals.push_back(static_cast<double>(i % 100));  // uniform on 0..99
  }
  const auto posterior = posterior_of(residuals);
  const auto [lo, hi] = posterior.credible_interval(0.9);
  EXPECT_NEAR(static_cast<double>(lo), 5.0, 2.0);
  EXPECT_NEAR(static_cast<double>(hi), 95.0, 2.0);
  EXPECT_LT(lo, hi);
}

TEST(ResidualPosterior, ProbabilityAtMostMatchesEmpiricalCdf) {
  const auto posterior = posterior_of({0, 0, 1, 2, 5, 9});
  EXPECT_NEAR(posterior.probability_at_most(0), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(posterior.probability_at_most(2), 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(posterior.probability_at_most(9), 1.0, 1e-12);
  EXPECT_NEAR(posterior.probability_at_most(-1), 0.0, 1e-12);
}

TEST(ResidualPosterior, CredibleLevelValidation) {
  const auto posterior = posterior_of({1, 2, 3});
  EXPECT_THROW((void)posterior.credible_interval(0.0), srm::InvalidArgument);
  EXPECT_THROW((void)posterior.credible_interval(1.0), srm::InvalidArgument);
}

}  // namespace
