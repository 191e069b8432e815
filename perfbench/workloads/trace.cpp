#include "trace.hpp"

#include <algorithm>
#include <array>

#include "core/loo.hpp"
#include "core/model_averaging.hpp"
#include "core/streaming.hpp"
#include "diagnostics/online.hpp"

namespace perfbench {

namespace {

double us_since(Clock::time_point start) {
  return static_cast<double>(ns_between(start, Clock::now())) / 1e3;
}

/// Fills the mcmc and sink fields of `profile` after a traced run.
void record_run(const ChainMarks& marks, Clock::time_point run_start,
                const Tally& scans, CellProfile& profile) {
  double burnin_ms = 0.0;
  for (std::size_t c = 0; c < marks.first.size(); ++c) {
    burnin_ms += static_cast<double>(ns_between(run_start, marks.first[c])) / 1e6;
    profile.chain_busy_ms +=
        static_cast<double>(ns_between(run_start, marks.last[c])) / 1e6;
  }
  profile.burnin_ms = burnin_ms / static_cast<double>(marks.first.size());
  profile.scans = scans.calls.load();
  profile.scan_ns = static_cast<double>(scans.ns.load());
}

}  // namespace

double CellProfile::unaccounted_ms() const {
  const double covered_ms =
      (observe_us + make_model_us + waic_finalize_us + diag_finalize_us +
       residual_finalize_us) / 1e3 +
      run_ms + loo_ms;
  return std::max(0.0, total_ms - covered_ms);
}

srm::core::ObservationResult traced_fit(const srm::data::BugCountData& base,
                                        const srm::core::FitRequest& request,
                                        CellProfile& profile) {
  namespace core = srm::core;
  const auto begin = Clock::now();
  profile.prior = core::to_string(request.prior);
  profile.model = core::to_string(request.model);

  auto start = Clock::now();
  const auto observed =
      core::dataset_at_observation(base, request.observation_day);
  profile.observe_us = us_since(start);

  start = Clock::now();
  const auto model = core::make_model(request.prior, request.model, observed,
                                      request.config, request.gibbs);
  profile.make_model_us = us_since(start);

  const std::size_t chains = request.gibbs.chain_count;
  srm::diagnostics::ParameterStatsAccumulator stats(
      model->state_size(), chains, request.gibbs.iterations);
  core::ResidualAccumulator residual(model->residual_index(), chains,
                                     request.gibbs.iterations);
  core::StreamingScorer scorer(*model, chains, request.gibbs.iterations);

  Tally scans;
  Tally scorer_tally;
  Tally stats_tally;
  Tally residual_tally;
  ChainMarks marks(chains);
  TimedModel timed(*model, scans);
  TimedSink timed_scorer(scorer, scorer_tally, &marks);
  TimedSink timed_stats(stats, stats_tally);
  TimedSink timed_residual(residual, residual_tally);
  const std::array<srm::mcmc::PosteriorAccumulator*, 3> sinks{
      &timed_scorer, &timed_stats, &timed_residual};

  const auto run_start = Clock::now();
  const auto run = srm::mcmc::run_gibbs(timed, request.gibbs, sinks);
  profile.run_ms = static_cast<double>(ns_between(run_start, Clock::now())) / 1e6;
  record_run(marks, run_start, scans, profile);
  profile.retained = scorer_tally.calls.load();
  profile.scorer_ns = static_cast<double>(scorer_tally.ns.load());
  profile.stats_ns = static_cast<double>(stats_tally.ns.load());
  profile.residual_ns = static_cast<double>(residual_tally.ns.load());

  core::ObservationResult result;
  result.observation_day = request.observation_day;
  result.detected_so_far = observed.total();
  result.actual_residual = request.eventual_total - observed.total();

  start = Clock::now();
  result.waic = scorer.waic();
  profile.waic_finalize_us = us_since(start);

  start = Clock::now();
  result.posterior = residual.finalize();
  profile.residual_finalize_us = us_since(start);

  start = Clock::now();
  const auto names = run.parameter_names();
  for (std::size_t p = 0; p < names.size(); ++p) {
    const auto online = stats.parameter(p);
    core::ParameterDiagnostics diag;
    diag.name = names[p];
    diag.posterior_mean = online.posterior_mean;
    diag.ess = online.ess;
    diag.psrf = online.psrf;
    diag.geweke_z = online.geweke_z;
    result.diagnostics.push_back(std::move(diag));
  }
  profile.diag_finalize_us = us_since(start);
  profile.total_ms = us_since(begin) / 1e3;
  return result;
}

srm::support::Json traced_select(const srm::data::BugCountData& data,
                                 const srm::mcmc::GibbsOptions& gibbs,
                                 SelectProfile& profile) {
  namespace core = srm::core;
  using srm::support::Json;
  const core::HyperPriorConfig config{};

  struct Row {
    std::string prior;
    std::string model;
    core::WaicResult waic;
    double looic = 0.0;
    core::ResidualPosterior posterior;
    double weight = 0.0;
  };
  std::vector<Row> rows;
  for (const auto& entry : core::model_families().families()) {
    for (const auto kind : entry.selection_models) {
      CellProfile cell;
      cell.prior = entry.id;
      cell.model = core::to_string(kind);
      const auto cell_begin = Clock::now();
      auto start = Clock::now();
      const auto model = core::make_model(entry.kind, kind, data, config, gibbs);
      cell.make_model_us = us_since(start);

      core::StreamingScorer scorer(*model, gibbs.chain_count, gibbs.iterations,
                                   /*keep_matrix=*/true);
      core::ResidualAccumulator residual(model->residual_index(),
                                         gibbs.chain_count, gibbs.iterations);
      Tally scans;
      Tally scorer_tally;
      Tally residual_tally;
      ChainMarks marks(gibbs.chain_count);
      TimedModel timed(*model, scans);
      TimedSink timed_scorer(scorer, scorer_tally, &marks);
      TimedSink timed_residual(residual, residual_tally);
      const std::array<srm::mcmc::PosteriorAccumulator*, 2> sinks{
          &timed_scorer, &timed_residual};

      const auto run_start = Clock::now();
      srm::mcmc::run_gibbs(timed, gibbs, sinks);
      cell.run_ms =
          static_cast<double>(ns_between(run_start, Clock::now())) / 1e6;
      record_run(marks, run_start, scans, cell);
      cell.retained = scorer_tally.calls.load();
      cell.scorer_ns = static_cast<double>(scorer_tally.ns.load());
      cell.residual_ns = static_cast<double>(residual_tally.ns.load());

      Row row;
      row.prior = entry.id;
      row.model = cell.model;
      start = Clock::now();
      row.waic = scorer.waic();
      cell.waic_finalize_us = us_since(start);

      start = Clock::now();
      const auto& matrix = scorer.log_likelihood_matrix();
      cell.matrix_mib = static_cast<double>(matrix.rows() * matrix.cols() *
                                            sizeof(double)) /
                        (1024.0 * 1024.0);
      row.looic = core::compute_psis_loo_from_matrix(matrix).looic;
      cell.loo_ms = us_since(start) / 1e3;

      start = Clock::now();
      row.posterior = residual.finalize();
      cell.residual_finalize_us = us_since(start);
      cell.total_ms = us_since(cell_begin) / 1e3;
      rows.push_back(std::move(row));
      profile.cells.push_back(cell);
    }
  }

  std::vector<core::AveragingCandidate> candidates;
  candidates.reserve(rows.size());
  for (const auto& row : rows) {
    candidates.push_back({row.prior + "/" + row.model, row.waic, row.posterior});
  }
  const auto start = Clock::now();
  const auto averaged = core::average_models(candidates);
  profile.average_models_us = us_since(start);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].weight = averaged.weights[r].weight;
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.waic.waic < b.waic.waic;
  });

  Json ranking = Json::Array{};
  for (const auto& row : rows) {
    Json entry = Json::Object{};
    entry.set("prior", row.prior);
    entry.set("model", row.model);
    entry.set("waic", row.waic.waic);
    entry.set("looic", row.looic);
    entry.set("residual_mean", row.posterior.summary.mean);
    entry.set("pseudo_bma_weight", row.weight);
    ranking.push_back(std::move(entry));
  }
  Json json = Json::Object{};
  json.set("ranking", std::move(ranking));
  Json mixture = Json::Object{};
  mixture.set("residual_mean", averaged.summary.mean);
  mixture.set("residual_sd", averaged.summary.sd);
  json.set("pseudo_bma", std::move(mixture));
  return json;
}

}  // namespace perfbench
