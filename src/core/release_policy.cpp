#include "core/release_policy.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "support/error.hpp"

namespace srm::core {

ReleasePlan plan_release(const BayesianSrm& model, const mcmc::McmcRun& run,
                         std::size_t horizon, const ReleaseCosts& costs) {
  SRM_EXPECTS(horizon >= 1, "plan_release requires horizon >= 1");
  SRM_EXPECTS(costs.cost_per_testing_day > 0.0,
              "testing-day cost must be positive");
  SRM_EXPECTS(costs.cost_per_residual_bug >= 0.0,
              "residual-bug cost must be non-negative");
  SRM_EXPECTS(run.parameter_names().size() == model.state_size(),
              "McmcRun does not match the model's state layout");
  const std::size_t total_samples = run.total_samples();
  SRM_EXPECTS(total_samples >= 1, "run contains no samples");

  const std::size_t today = model.data().days();
  // expected_surviving[h] accumulates E[R * prod_{i=1..h} q_{today+i}].
  std::vector<double> expected_surviving(horizon + 1, 0.0);

  std::vector<double> state(model.state_size());
  for (std::size_t c = 0; c < run.chain_count(); ++c) {
    const auto& chain = run.chain(c);
    for (std::size_t s = 0; s < chain.sample_count(); ++s) {
      for (std::size_t p = 0; p < state.size(); ++p) {
        state[p] = chain.parameter(p)[s];
      }
      const double residual = state[model.residual_index()];
      const auto zeta =
          std::span<const double>(state).subspan(model.zeta_offset());
      double survive = 1.0;
      expected_surviving[0] += residual;
      for (std::size_t h = 1; h <= horizon; ++h) {
        survive *=
            1.0 - model.detection_model().probability(today + h, zeta);
        expected_surviving[h] += residual * survive;
      }
    }
  }
  for (double& v : expected_surviving) {
    v /= static_cast<double>(total_samples);
  }

  ReleasePlan plan;
  plan.schedule.reserve(horizon + 1);
  for (std::size_t h = 0; h <= horizon; ++h) {
    ReleaseDecision decision;
    decision.day = today + h;
    decision.expected_residual = expected_surviving[h];
    decision.expected_cost =
        costs.cost_per_testing_day * static_cast<double>(h) +
        costs.cost_per_residual_bug * expected_surviving[h];
    plan.schedule.push_back(decision);
  }
  plan.best = plan.schedule.front();
  for (const auto& decision : plan.schedule) {
    if (decision.expected_cost < plan.best.expected_cost) {
      plan.best = decision;
    }
  }
  return plan;
}

ReleaseFit fit_and_plan_release(const data::BugCountData& data,
                                PriorKind prior, DetectionModelKind model_kind,
                                const HyperPriorConfig& config,
                                const mcmc::GibbsOptions& gibbs,
                                std::size_t horizon,
                                const ReleaseCosts& costs) {
  // Checked before the fit so a bad horizon never costs a Gibbs run.
  SRM_EXPECTS(horizon >= 1, "plan_release requires horizon >= 1");
  mcmc::GibbsOptions traced = gibbs;
  traced.keep_traces = true;
  const auto model = make_model(prior, model_kind, data, config, traced);
  auto run = mcmc::run_gibbs(*model, traced);
  auto plan = plan_release(*model, run, horizon, costs);
  return {std::move(run), std::move(plan)};
}

}  // namespace srm::core
