#include "core/fit.hpp"

#include <array>
#include <string>
#include <vector>

#include "core/streaming.hpp"
#include "diagnostics/online.hpp"
#include "mcmc/accumulator.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::core {

ExperimentSpec to_experiment_spec(const FitRequest& request) {
  ExperimentSpec spec;
  spec.prior = request.prior;
  spec.model = request.model;
  spec.config = request.config;
  spec.gibbs = request.gibbs;
  spec.observation_days = {request.observation_day};
  spec.eventual_total = request.eventual_total;
  return spec;
}

// srm-lint: allow(expects) — fit_cell validates the day
FitRequest single_cell_request(const ExperimentSpec& spec,
                               std::size_t observation_day) {
  FitRequest request;
  request.prior = spec.prior;
  request.model = spec.model;
  request.config = spec.config;
  request.gibbs = spec.gibbs;
  request.observation_day = observation_day;
  request.eventual_total = spec.eventual_total;
  return request;
}

void validate_fit_settings(PriorKind family, const HyperPriorConfig& config,
                           const mcmc::GibbsOptions& gibbs) {
  validate_family_gibbs(family, config, gibbs);
  require_input(gibbs.iterations >= kMinFitIterations,
                "gibbs.iterations must be >= " +
                    support::dec(kMinFitIterations) +
                    " to fit a cell (the Geweke diagnostic's first window "
                    "needs 4 draws per chain)");
}

// srm-lint: allow(expects) — user input, checked by require_input
void validate_observation_day(std::size_t day) {
  require_input(day >= 1, "day must be >= 1");
  require_input(day <= data::kMaxDays,
                "day must be <= " + support::dec(data::kMaxDays));
}

// srm-lint: allow(expects) — user input, checked by require_input
void validate_eventual_total(std::int64_t total,
                             const data::BugCountData& series) {
  require_input(total >= series.total(),
                "total must be >= the " + support::dec(series.total()) +
                    " bugs the series records");
  require_input(total <= data::kMaxBugs,
                "total must be <= " + support::dec(data::kMaxBugs));
}

ObservationResult fit_cell(const data::BugCountData& base,
                           const FitRequest& request) {
  validate_fit_settings(request.prior, request.config, request.gibbs);
  const auto observed = dataset_at_observation(base, request.observation_day);

  const auto model = make_model(request.prior, request.model, observed,
                                request.config, request.gibbs);

  // The scorer consumes each draw's fresh workspace buffers in-scan; no
  // pointwise matrix and no second likelihood pass. keep_traces only
  // decides whether run_gibbs also stores the draws.
  StreamingScorer scorer(*model, request.gibbs.chain_count,
                         request.gibbs.iterations);
  diagnostics::ParameterStatsAccumulator stats(model->state_size(),
                                               request.gibbs.chain_count,
                                               request.gibbs.iterations);
  ResidualAccumulator residual(model->residual_index(),
                               request.gibbs.chain_count,
                               request.gibbs.iterations);
  const std::array<mcmc::PosteriorAccumulator*, 3> sinks{&scorer, &stats,
                                                         &residual};
  const auto run = mcmc::run_gibbs(*model, request.gibbs, sinks);
  const auto names = run.parameter_names();

  ObservationResult result;
  result.observation_day = request.observation_day;
  result.detected_so_far = observed.total();
  result.actual_residual = request.eventual_total - observed.total();
  result.waic = scorer.waic();
  result.posterior = residual.finalize();

  for (std::size_t p = 0; p < names.size(); ++p) {
    const auto online = stats.parameter(p);
    ParameterDiagnostics diag;
    diag.name = names[p];
    diag.posterior_mean = online.posterior_mean;
    diag.ess = online.ess;
    diag.psrf = online.psrf;
    diag.geweke_z = online.geweke_z;
    result.diagnostics.push_back(std::move(diag));
  }
  return result;
}

}  // namespace srm::core
