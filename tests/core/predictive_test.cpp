// Tests for posterior-predictive holdout scoring.
#include "core/predictive.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "data/generator.hpp"
#include "mcmc/gibbs.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;

srm::mcmc::GibbsOptions quick_gibbs() {
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 300;
  gibbs.iterations = 1500;
  gibbs.seed = 13;
  return gibbs;
}

BugCountData synthetic() {
  srm::random::Rng rng(555);
  return srm::data::simulate_detection_process(
      150, 40, [](std::size_t) { return 0.05; }, rng, "synth");
}

TEST(Predictive, SummaryFieldsAreCoherent) {
  const auto full = synthetic();
  const auto summary = core::fit_and_score_holdout(
      full, 25, core::PriorKind::kPoisson,
      core::DetectionModelKind::kConstant, {}, quick_gibbs());
  EXPECT_EQ(summary.fit_days, 25u);
  EXPECT_EQ(summary.holdout_days, 15u);
  EXPECT_EQ(summary.predicted_cumulative.size(), 15u);
  EXPECT_TRUE(std::isfinite(summary.log_score));
  EXPECT_LT(summary.log_score, 0.0);  // a log-probability of a block
  EXPECT_GE(summary.mean_next_count, 0.0);
  EXPECT_GE(summary.inconsistent_fraction, 0.0);
  EXPECT_LE(summary.inconsistent_fraction, 1.0);
  // Predicted cumulative counts are nondecreasing and start at or above
  // the fit-window total.
  double previous = static_cast<double>(full.cumulative_through(25));
  for (const double c : summary.predicted_cumulative) {
    EXPECT_GE(c, previous - 1e-9);
    previous = c;
  }
}

TEST(Predictive, WellSpecifiedModelPredictsCumulativeCurve) {
  const auto full = synthetic();
  const auto summary = core::fit_and_score_holdout(
      full, 25, core::PriorKind::kPoisson,
      core::DetectionModelKind::kConstant, {}, quick_gibbs());
  // The forecast of the final cumulative count must be in the right
  // neighbourhood of the realized value.
  const double predicted_final = summary.predicted_cumulative.back();
  const double actual_final = static_cast<double>(full.total());
  EXPECT_NEAR(predicted_final, actual_final, 0.35 * actual_final);
}

TEST(Predictive, CorrectModelScoresBetterThanBadModel) {
  // Data with *rising* detection probability (Padgett-Spurrier truth): the
  // matching model must out-predict the Pareto-hazard model, whose
  // detection probability can only decay and therefore under-predicts the
  // sustained held-out counts. (A homogeneous truth would not discriminate:
  // depleting bugs and decaying hazard both produce declining counts.)
  const auto truth =
      core::make_detection_model(core::DetectionModelKind::kPadgettSpurrier);
  const std::vector<double> zeta{0.97, 0.01};
  srm::random::Rng rng(808);
  const auto full = srm::data::simulate_detection_process(
      250, 40,
      [&](std::size_t day) { return truth->probability(day, zeta); }, rng,
      "rising");
  const auto good = core::fit_and_score_holdout(
      full, 25, core::PriorKind::kPoisson,
      core::DetectionModelKind::kPadgettSpurrier, {}, quick_gibbs());
  const auto bad = core::fit_and_score_holdout(
      full, 25, core::PriorKind::kPoisson, core::DetectionModelKind::kPareto,
      {}, quick_gibbs());
  EXPECT_GT(good.log_score, bad.log_score);
}

TEST(Predictive, RejectsNonPrefixFits) {
  const auto full = synthetic();
  core::BayesianSrm model(core::PriorKind::kPoisson,
                          core::DetectionModelKind::kConstant,
                          BugCountData("other", {1, 2, 3}));
  const auto run = srm::mcmc::run_gibbs(model, quick_gibbs());
  EXPECT_THROW(core::score_holdout(model, run, full), srm::InvalidArgument);
}

TEST(Predictive, RejectsDegenerateWindows) {
  const auto full = synthetic();
  EXPECT_THROW(core::fit_and_score_holdout(
                   full, full.days(), core::PriorKind::kPoisson,
                   core::DetectionModelKind::kConstant, {}, quick_gibbs()),
               srm::InvalidArgument);
  EXPECT_THROW(core::fit_and_score_holdout(
                   full, 0, core::PriorKind::kPoisson,
                   core::DetectionModelKind::kConstant, {}, quick_gibbs()),
               srm::InvalidArgument);
  EXPECT_THROW(core::fit_and_score_holdout(
                   full, 100000000000, core::PriorKind::kPoisson,
                   core::DetectionModelKind::kConstant, {}, quick_gibbs()),
               srm::InvalidArgument);
}

}  // namespace
