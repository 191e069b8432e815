// Tests for the optimal release-planning module.
#include "core/release_policy.hpp"

#include <string>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/gibbs.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;

struct Fitted {
  core::BayesianSrm model;
  srm::mcmc::McmcRun run;
};

Fitted fitted() {
  core::BayesianSrm model(core::PriorKind::kPoisson,
                          core::DetectionModelKind::kConstant,
                          BugCountData("t", {5, 4, 3, 3, 2, 2, 1, 1}));
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 200;
  gibbs.iterations = 1500;
  gibbs.seed = 3;
  auto run = srm::mcmc::run_gibbs(model, gibbs);
  return {std::move(model), std::move(run)};
}

TEST(ReleasePolicy, ExpectedResidualDecreasesWithMoreTesting) {
  const auto f = fitted();
  const auto plan = core::plan_release(f.model, f.run, 20, {});
  ASSERT_EQ(plan.schedule.size(), 21u);
  for (std::size_t h = 1; h < plan.schedule.size(); ++h) {
    EXPECT_LE(plan.schedule[h].expected_residual,
              plan.schedule[h - 1].expected_residual + 1e-9);
  }
  EXPECT_EQ(plan.schedule.front().day, 8u);
  EXPECT_EQ(plan.schedule.back().day, 28u);
}

TEST(ReleasePolicy, ZeroBugCostReleasesImmediately) {
  const auto f = fitted();
  core::ReleaseCosts costs;
  costs.cost_per_residual_bug = 0.0;
  const auto plan = core::plan_release(f.model, f.run, 20, costs);
  EXPECT_EQ(plan.best.day, 8u);  // today
  EXPECT_DOUBLE_EQ(plan.best.expected_cost, 0.0);
}

TEST(ReleasePolicy, HugeBugCostKeepsTesting) {
  const auto f = fitted();
  core::ReleaseCosts costs;
  costs.cost_per_testing_day = 1.0;
  costs.cost_per_residual_bug = 1e6;
  const auto plan = core::plan_release(f.model, f.run, 30, costs);
  EXPECT_GT(plan.best.day, 8u + 10u);
}

TEST(ReleasePolicy, CostIdentityHolds) {
  const auto f = fitted();
  core::ReleaseCosts costs;
  costs.cost_per_testing_day = 2.5;
  costs.cost_per_residual_bug = 40.0;
  const auto plan = core::plan_release(f.model, f.run, 10, costs);
  for (std::size_t h = 0; h < plan.schedule.size(); ++h) {
    const auto& decision = plan.schedule[h];
    EXPECT_NEAR(decision.expected_cost,
                2.5 * static_cast<double>(h) +
                    40.0 * decision.expected_residual,
                1e-9);
  }
}

TEST(ReleasePolicy, BestIsScheduleMinimum) {
  const auto f = fitted();
  const auto plan = core::plan_release(f.model, f.run, 15, {});
  for (const auto& decision : plan.schedule) {
    EXPECT_GE(decision.expected_cost, plan.best.expected_cost - 1e-12);
  }
}

TEST(ReleasePolicy, ValidatesArguments) {
  const auto f = fitted();
  EXPECT_THROW(core::plan_release(f.model, f.run, 0, {}),
               srm::InvalidArgument);
  core::ReleaseCosts bad;
  bad.cost_per_testing_day = 0.0;
  EXPECT_THROW(core::plan_release(f.model, f.run, 5, bad),
               srm::InvalidArgument);
  bad = {};
  bad.cost_per_residual_bug = -1.0;
  EXPECT_THROW(core::plan_release(f.model, f.run, 5, bad),
               srm::InvalidArgument);
}

TEST(ReleasePolicy, HorizonLimitIsAnExactBoundary) {
  const auto message = [](std::size_t horizon) {
    try {
      core::validate_release_plan(horizon, {});
    } catch (const srm::InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(message(srm::data::kMaxDays), "");
  EXPECT_EQ(message(srm::data::kMaxDays + 1), "horizon must be <= 10000");
  EXPECT_EQ(message(0), "horizon must be >= 1");
  // fit_and_plan_release refuses the horizon first, before the Gibbs
  // settings (over budget here) and before any sampling.
  srm::mcmc::GibbsOptions gibbs;
  gibbs.iterations = 4'000'000'000;
  try {
    (void)core::fit_and_plan_release(
        BugCountData("t", {5, 4, 3}), core::PriorKind::kPoisson,
        core::DetectionModelKind::kConstant, {}, gibbs,
        srm::data::kMaxDays + 1, {});
    ADD_FAILURE() << "an oversized horizon was accepted";
  } catch (const srm::InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()), "horizon must be <= 10000");
  }
}

}  // namespace
