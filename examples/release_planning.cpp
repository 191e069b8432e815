// Release planning: turn the residual-bug posterior into a shipping
// decision. Balances the cost of another testing day against the expected
// field cost of the bugs that day would have caught (the sequential
// inspection problem of Chun 2008, the paper's reference [10]).
#include <cstdio>

#include "core/release_policy.hpp"
#include "data/datasets.hpp"
#include "mcmc/gibbs.hpp"

int main() {
  using namespace srm;

  // Fit the paper's best model at the end of real testing (day 96) and
  // plan the release. Cost trade-off: a testing day costs 30 units; a
  // field bug costs 25.
  const auto data = data::sys1_grouped();
  mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 400;
  gibbs.iterations = 2000;
  core::ReleaseCosts costs;
  costs.cost_per_testing_day = 30.0;
  costs.cost_per_residual_bug = 25.0;
  const auto [posterior, plan] = core::fit_and_plan_release(
      data, core::PriorKind::kPoisson,
      core::DetectionModelKind::kPadgettSpurrier, {}, gibbs, 150, costs);

  // Posterior release confidence before any extra testing.
  const auto [lo, hi] = posterior.credible_interval(0.95);
  std::printf("today (day %zu): residual mean %.1f, 95%% CI [%lld, %lld]\n",
              data.days(), posterior.summary.mean,
              static_cast<long long>(lo), static_cast<long long>(hi));
  std::printf("P(residual <= 10) = %.3f\n\n",
              posterior.probability_at_most(10));

  std::printf("release schedule (day: E[residual] -> E[cost]):\n");
  for (std::size_t h = 0; h < plan.schedule.size(); h += 15) {
    const auto& d = plan.schedule[h];
    std::printf("  day %3zu: %8.2f bugs -> cost %8.2f%s\n", d.day,
                d.expected_residual, d.expected_cost,
                d.day == plan.best.day ? "   <= optimal" : "");
  }
  std::printf("\noptimal release: day %zu (expected cost %.2f, "
              "expected residual %.2f)\n",
              plan.best.day, plan.best.expected_cost,
              plan.best.expected_residual);
  return 0;
}
