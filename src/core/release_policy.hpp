// Optimal release planning — the decision-theoretic use of the residual-bug
// posterior, in the sequential-inspection spirit of Chun (2008), the paper's
// reference [10]: keep testing one more day iff the expected cost of the
// bugs it would remove exceeds the cost of the day.
//
// For a candidate release day d >= today, each bug remaining today survives
// the extra testing days independently with probability
// prod_{i=today+1..d} q_i(zeta), so under the posterior
//   E[cost(d)] = c_day * (d - today)
//              + c_bug * E[ R_today * prod_{i=today+1..d} q_i(zeta) ],
// with the expectation taken over the Gibbs draws of (R_today, zeta).
#pragma once

#include <cstddef>
#include <vector>

#include "core/bayes_srm.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/trace.hpp"

namespace srm::core {

struct ReleaseCosts {
  double cost_per_testing_day = 1.0;   ///< > 0
  double cost_per_residual_bug = 50.0; ///< >= 0 (field-failure cost)
};

struct ReleaseDecision {
  std::size_t day = 0;              ///< candidate release day (absolute)
  double expected_cost = 0.0;
  double expected_residual = 0.0;   ///< E[bugs still present at `day`]
};

struct ReleasePlan {
  std::vector<ReleaseDecision> schedule;  ///< one entry per candidate day
  ReleaseDecision best;                   ///< cost-minimizing entry
};

/// Evaluates releasing at each day in [today, today + horizon], where
/// `today` = model.data().days() and `run` is the posterior fitted on that
/// data. Horizon must be >= 1.
ReleasePlan plan_release(const BayesianSrm& model, const mcmc::McmcRun& run,
                         std::size_t horizon, const ReleaseCosts& costs);

/// A Gibbs fit together with the release plan drawn from it.
struct ReleaseFit {
  mcmc::McmcRun run;
  ReleasePlan plan;
};

/// Builds the family's model on `data`, fits it by Gibbs and plans the
/// release from the stored run. plan_release walks the raw chains, so the
/// fit always keeps its traces whatever `gibbs.keep_traces` says (the flag
/// never changes the draws).
ReleaseFit fit_and_plan_release(const data::BugCountData& data,
                                PriorKind prior, DetectionModelKind model_kind,
                                const HyperPriorConfig& config,
                                const mcmc::GibbsOptions& gibbs,
                                std::size_t horizon,
                                const ReleaseCosts& costs);

}  // namespace srm::core
