// Tests for WAIC-based hyperparameter tuning.
#include "core/tuning.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;

BugCountData data() { return BugCountData("t", {3, 2, 1, 2, 0, 1}); }

srm::mcmc::GibbsOptions quick_gibbs() {
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 1;
  gibbs.burn_in = 50;
  gibbs.iterations = 300;
  gibbs.parallel_chains = false;
  return gibbs;
}

TEST(Tuning, EvaluatesFullGridForThetaModels) {
  core::TuningGrid grid;
  grid.lambda_max_candidates = {50.0, 100.0};
  grid.theta_max_candidates = {1.0, 5.0, 10.0};
  const auto result = core::tune_hyperparameters(
      data(), core::PriorKind::kPoisson,
      core::DetectionModelKind::kPadgettSpurrier, grid, quick_gibbs());
  EXPECT_EQ(result.evaluated.size(), 6u);  // 2 lambda x 3 theta
}

TEST(Tuning, ThetaFreeModelsSkipThetaDimension) {
  core::TuningGrid grid;
  grid.lambda_max_candidates = {50.0, 100.0, 200.0};
  grid.theta_max_candidates = {1.0, 5.0};
  const auto result = core::tune_hyperparameters(
      data(), core::PriorKind::kPoisson, core::DetectionModelKind::kConstant,
      grid, quick_gibbs());
  EXPECT_EQ(result.evaluated.size(), 3u);  // lambda only
}

TEST(Tuning, NegBinUsesAlphaCandidates) {
  core::TuningGrid grid;
  grid.alpha_max_candidates = {5.0, 20.0};
  const auto result = core::tune_hyperparameters(
      data(), core::PriorKind::kNegativeBinomial,
      core::DetectionModelKind::kConstant, grid, quick_gibbs());
  ASSERT_EQ(result.evaluated.size(), 2u);
  EXPECT_DOUBLE_EQ(result.evaluated[0].config.alpha_max, 5.0);
  EXPECT_DOUBLE_EQ(result.evaluated[1].config.alpha_max, 20.0);
}

TEST(Tuning, BestIsGridMinimum) {
  core::TuningGrid grid;
  grid.lambda_max_candidates = {20.0, 100.0, 500.0};
  const auto result = core::tune_hyperparameters(
      data(), core::PriorKind::kPoisson, core::DetectionModelKind::kConstant,
      grid, quick_gibbs());
  double min_waic = result.evaluated.front().waic.waic;
  for (const auto& entry : result.evaluated) {
    min_waic = std::min(min_waic, entry.waic.waic);
  }
  EXPECT_DOUBLE_EQ(result.best_waic.waic, min_waic);
}

TEST(Tuning, EvaluatedWaicBitsPinned) {
  // FNV-1a of every WaicResult field of every evaluated candidate, in
  // evaluation order, on a 2 x 2 model1 grid with two chains.
  core::TuningGrid grid;
  grid.lambda_max_candidates = {50.0, 200.0};
  grid.theta_max_candidates = {1.0, 10.0};
  auto gibbs = quick_gibbs();
  gibbs.chain_count = 2;
  gibbs.iterations = 100;
  const auto result = core::tune_hyperparameters(
      data(), core::PriorKind::kPoisson,
      core::DetectionModelKind::kPadgettSpurrier, grid, gibbs);
  ASSERT_EQ(result.evaluated.size(), 4u);

  std::uint64_t digest = 14695981039346656037ULL;
  const auto mix = [&digest](double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      digest = (digest ^ ((bits >> (8 * byte)) & 0xffULL)) * 1099511628211ULL;
    }
  };
  for (const auto& entry : result.evaluated) {
    mix(entry.waic.waic);
    mix(entry.waic.waic_per_point);
    mix(entry.waic.learning_loss);
    mix(entry.waic.functional_variance);
    mix(static_cast<double>(entry.waic.data_points));
    mix(static_cast<double>(entry.waic.samples));
  }
  char text[19];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(std::string(text), "0xf764fbcb5afcfb42");
}

TEST(Tuning, EmptyGridThrows) {
  core::TuningGrid grid;
  grid.lambda_max_candidates = {};
  EXPECT_THROW(core::tune_hyperparameters(
                   data(), core::PriorKind::kPoisson,
                   core::DetectionModelKind::kConstant, grid, quick_gibbs()),
               srm::InvalidArgument);
}

}  // namespace
