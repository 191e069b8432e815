// Tests for the Bayesian SRM Gibbs models: state layout, support
// invariants along the chain, pointwise likelihood consistency, and the
// joint-density accessor.
#include "core/bayes_srm.hpp"

#include <cmath>
#include <limits>
#include <span>

#include <gtest/gtest.h>

#include "core/likelihood.hpp"
#include "data/datasets.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;
using core::BayesianSrm;
using core::DetectionModelKind;
using core::PriorKind;
using srm::data::BugCountData;

BugCountData small_data() { return BugCountData("t", {2, 1, 0, 3, 1}); }

TEST(BayesianSrm, PoissonStateLayoutAndNames) {
  const BayesianSrm model(PriorKind::kPoisson,
                          DetectionModelKind::kPadgettSpurrier, small_data());
  const auto names = model.parameter_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "residual");
  EXPECT_EQ(names[1], "lambda0");
  EXPECT_EQ(names[2], "mu");
  EXPECT_EQ(names[3], "theta");
  EXPECT_EQ(model.zeta_offset(), 2u);
  EXPECT_EQ(model.state_size(), 4u);
}

TEST(BayesianSrm, NegBinStateLayoutAndNames) {
  const BayesianSrm model(PriorKind::kNegativeBinomial,
                          DetectionModelKind::kWeibull, small_data());
  const auto names = model.parameter_names();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[1], "alpha0");
  EXPECT_EQ(names[2], "beta0");
  EXPECT_EQ(names[3], "mu");
  EXPECT_EQ(names[4], "omega");
  EXPECT_EQ(model.zeta_offset(), 3u);
}

class SchemeAndPrior
    : public ::testing::TestWithParam<
          std::tuple<PriorKind, core::SamplerScheme, DetectionModelKind>> {};

TEST_P(SchemeAndPrior, ChainStaysInsideSupport) {
  const auto [prior, scheme, kind] = GetParam();
  core::HyperPriorConfig config;
  config.scheme = scheme;
  config.lambda_max = 100.0;
  config.alpha_max = 30.0;
  const BayesianSrm model(prior, kind, small_data(), config);
  srm::random::Rng rng(7);
  auto state = model.initial_state(rng);
  ASSERT_EQ(state.size(), model.state_size());

  for (int scan = 0; scan < 200; ++scan) {
    model.update(state, rng);
    // Residual count is a non-negative integer.
    EXPECT_GE(state[0], 0.0);
    EXPECT_EQ(state[0], std::floor(state[0]));
    if (prior == PriorKind::kPoisson) {
      EXPECT_GT(state[1], 0.0);
      EXPECT_LE(state[1], config.lambda_max);
    } else {
      EXPECT_GT(state[1], 0.0);
      EXPECT_LE(state[1], config.alpha_max);
      EXPECT_GT(state[2], 0.0);
      EXPECT_LT(state[2], 1.0);
    }
    // The joint density at every visited state is finite.
    EXPECT_TRUE(std::isfinite(model.log_joint(state)))
        << "scan " << scan;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, SchemeAndPrior,
    ::testing::Combine(
        ::testing::Values(PriorKind::kPoisson, PriorKind::kNegativeBinomial),
        ::testing::Values(core::SamplerScheme::kCollapsed,
                          core::SamplerScheme::kVanilla),
        ::testing::Values(DetectionModelKind::kConstant,
                          DetectionModelKind::kPadgettSpurrier,
                          DetectionModelKind::kLogLogistic,
                          DetectionModelKind::kPareto,
                          DetectionModelKind::kWeibull)),
    [](const auto& param_info) {
      return core::to_string(std::get<0>(param_info.param)) + "_" +
             (std::get<1>(param_info.param) == core::SamplerScheme::kCollapsed
                  ? "collapsed"
                  : "vanilla") +
             "_" + core::to_string(std::get<2>(param_info.param));
    });

TEST(BayesianSrm, PointwiseLogLikelihoodSumsToJointLikelihood) {
  const BayesianSrm model(PriorKind::kPoisson,
                          DetectionModelKind::kPadgettSpurrier, small_data());
  srm::random::Rng rng(3);
  auto state = model.initial_state(rng);
  for (int i = 0; i < 10; ++i) model.update(state, rng);

  std::vector<double> pointwise(small_data().days());
  model.pointwise_row(state, *model.make_workspace(), pointwise);
  double sum = 0.0;
  for (const double term : pointwise) sum += term;

  const std::int64_t n =
      small_data().total() + static_cast<std::int64_t>(std::llround(state[0]));
  const auto probabilities = model.detection_probabilities(
      std::span<const double>(state).subspan(model.zeta_offset()));
  EXPECT_NEAR(sum, core::log_likelihood(small_data(), n, probabilities),
              1e-10);
}

TEST(BayesianSrm, LogJointRejectsOutOfSupportStates) {
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kConstant,
                          small_data());
  // state = [residual, lambda0, mu]
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(model.log_joint(std::vector<double>{0.0, -1.0, 0.5}), -inf);
  EXPECT_EQ(model.log_joint(std::vector<double>{0.0, 1e9, 0.5}), -inf);
  EXPECT_EQ(model.log_joint(std::vector<double>{0.0, 10.0, 1.5}), -inf);
}

TEST(BayesianSrm, WrongStateSizeThrows) {
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kConstant,
                          small_data());
  std::vector<double> bad{1.0, 2.0};
  srm::random::Rng rng(1);
  EXPECT_THROW(model.update(bad, rng), srm::InvalidArgument);
  EXPECT_THROW((void)model.log_joint(bad), srm::InvalidArgument);
  std::vector<double> row(small_data().days());
  EXPECT_THROW(model.pointwise_row(bad, *model.make_workspace(), row),
               srm::InvalidArgument);
}

TEST(BayesianSrm, ConfigValidation) {
  core::HyperPriorConfig config;
  config.lambda_max = 0.0;
  EXPECT_THROW(BayesianSrm(PriorKind::kPoisson,
                           DetectionModelKind::kConstant, small_data(),
                           config),
               srm::InvalidArgument);
  config = {};
  config.alpha_max = -1.0;
  EXPECT_THROW(BayesianSrm(PriorKind::kNegativeBinomial,
                           DetectionModelKind::kConstant, small_data(),
                           config),
               srm::InvalidArgument);
}

TEST(BayesianSrm, PriorToString) {
  EXPECT_EQ(core::to_string(PriorKind::kPoisson), "poisson");
  EXPECT_EQ(core::to_string(PriorKind::kNegativeBinomial), "negbin");
}

TEST(BayesianSrm, JeffreysVariantRuns) {
  core::HyperPriorConfig config;
  config.jeffreys_lambda0 = true;
  const BayesianSrm model(PriorKind::kPoisson,
                          DetectionModelKind::kPadgettSpurrier, small_data(),
                          config);
  srm::random::Rng rng(11);
  auto state = model.initial_state(rng);
  for (int i = 0; i < 50; ++i) {
    model.update(state, rng);
    EXPECT_TRUE(std::isfinite(model.log_joint(state)));
  }
}

}  // namespace
