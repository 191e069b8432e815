// Tests for the WAIC computation (Eqs 23-25): the streaming scorer is fed
// hand-built states and checked against a direct reimplementation, and its
// scale conventions are pinned down.
#include "core/waic.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "core/streaming.hpp"
#include "data/bug_count_data.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace {

namespace core = srm::core;
using core::BayesianSrm;
using srm::data::BugCountData;

BugCountData tiny_data() { return BugCountData("t", {1, 2, 0}); }

// Scores the given states as one chain's retained draws, the way the Gibbs
// driver feeds the scorer (with the model's own scan workspace).
core::WaicResult waic_of(const BayesianSrm& model,
                         const std::vector<std::vector<double>>& states) {
  core::StreamingScorer scorer(model, 1, states.size());
  const auto workspace = model.make_workspace();
  for (const auto& s : states) scorer.accumulate(0, s, workspace.get());
  return scorer.waic();
}

std::vector<double> pointwise(const BayesianSrm& model,
                              const std::vector<double>& state) {
  std::vector<double> terms(model.data().days());
  model.pointwise_row(state, *model.make_workspace(), terms);
  return terms;
}

TEST(Waic, MatchesDirectComputation) {
  const BayesianSrm model(core::PriorKind::kPoisson,
                          core::DetectionModelKind::kConstant, tiny_data());
  // Hand-picked states: [residual, lambda0, mu].
  const std::vector<std::vector<double>> states{
      {2.0, 5.0, 0.3}, {4.0, 6.0, 0.25}, {1.0, 4.0, 0.35}, {3.0, 5.5, 0.28}};
  const auto result = waic_of(model, states);

  // Direct recomputation.
  const std::size_t k = 3;
  std::vector<std::vector<double>> log_p(k);
  for (const auto& s : states) {
    const auto terms = pointwise(model, s);
    for (std::size_t i = 0; i < k; ++i) log_p[i].push_back(terms[i]);
  }
  double t_k = 0.0;
  double v_k = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    t_k -= srm::math::log_sum_exp(log_p[i]) - std::log(4.0);
    double mean = 0.0;
    for (const double v : log_p[i]) mean += v;
    mean /= 4.0;
    double var = 0.0;
    for (const double v : log_p[i]) var += (v - mean) * (v - mean);
    v_k += var / 3.0;  // sample variance (n-1)
  }
  t_k /= static_cast<double>(k);

  EXPECT_NEAR(result.learning_loss, t_k, 1e-12);
  EXPECT_NEAR(result.functional_variance, v_k, 1e-12);
  EXPECT_NEAR(result.waic_per_point, t_k + v_k / 3.0, 1e-12);
  EXPECT_NEAR(result.waic, 6.0 * (t_k + v_k / 3.0), 1e-12);
  EXPECT_EQ(result.data_points, 3u);
  EXPECT_EQ(result.samples, 4u);
}

TEST(Waic, IdenticalSamplesHaveZeroFunctionalVariance) {
  const BayesianSrm model(core::PriorKind::kPoisson,
                          core::DetectionModelKind::kConstant, tiny_data());
  const std::vector<double> s{2.0, 5.0, 0.3};
  const auto result = waic_of(model, {s, s, s});
  EXPECT_NEAR(result.functional_variance, 0.0, 1e-12);
  // Learning loss reduces to the plain negative average log-likelihood.
  const auto terms = pointwise(model, s);
  double expected = 0.0;
  for (const double t : terms) expected -= t;
  expected /= 3.0;
  EXPECT_NEAR(result.learning_loss, expected, 1e-12);
}

TEST(Waic, BetterFitGivesSmallerWaic) {
  // mu = 0.3 explains {1,2,0} out of ~5 bugs far better than mu = 0.95.
  const BayesianSrm model(core::PriorKind::kPoisson,
                          core::DetectionModelKind::kConstant, tiny_data());
  const auto good = waic_of(model, {{2.0, 5.0, 0.3}, {3.0, 5.0, 0.31}});
  const auto bad = waic_of(model, {{2.0, 5.0, 0.95}, {3.0, 5.0, 0.94}});
  EXPECT_LT(good.waic, bad.waic);
}

TEST(Waic, RequiresAtLeastTwoSamples) {
  const BayesianSrm model(core::PriorKind::kPoisson,
                          core::DetectionModelKind::kConstant, tiny_data());
  EXPECT_THROW(waic_of(model, {{2.0, 5.0, 0.3}}), srm::InvalidArgument);
}

}  // namespace
