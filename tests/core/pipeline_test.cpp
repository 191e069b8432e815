// The streaming posterior pipeline's bit-identity contract.
//
// fit_cell() scores and summarises every retained draw in-scan and never
// needs a stored draw. The reference is the stored-trace path built here
// from public calls: run_gibbs with traces on, mcmc::replay through the
// same accumulators, and the pointwise-matrix compute_waic(model, run).
// Every reported number — WAIC, PSRF, Geweke, ESS, posterior mean, the
// full residual summary — must be BIT-identical between the two for every
// sampler scheme, prior and detection model (2 x 2 x 7 = 28
// configurations); PSIS-LOO is pinned the same way below.
//
// Where the streamed statistics also reproduce the legacy trace-based
// helpers exactly (PSRF via the gelman_rubin arithmetic, Geweke via the
// shared window finalizer, the residual summary via
// summarize_residual_samples), this suite pins that too.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "core/bayes_srm.hpp"
#include "core/experiment.hpp"
#include "core/fit.hpp"
#include "core/loo.hpp"
#include "core/posterior.hpp"
#include "core/streaming.hpp"
#include "data/datasets.hpp"
#include "diagnostics/ess.hpp"
#include "diagnostics/gelman_rubin.hpp"
#include "diagnostics/geweke.hpp"
#include "diagnostics/online.hpp"
#include "mcmc/accumulator.hpp"
#include "mcmc/gibbs.hpp"
#include "stats/summary.hpp"

namespace {

using srm::core::BayesianSrm;
using srm::core::DetectionModelKind;
using srm::core::ExperimentSpec;
using srm::core::ObservationResult;
using srm::core::PriorKind;
using srm::core::SamplerScheme;

srm::mcmc::GibbsOptions small_gibbs() {
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 40;
  gibbs.iterations = 120;  // >= 25 for LOO, >= 20 per chain for Geweke
  gibbs.seed = 20240624;
  return gibbs;
}

ExperimentSpec spec_for(SamplerScheme scheme, PriorKind prior,
                        DetectionModelKind model) {
  ExperimentSpec spec;
  spec.prior = prior;
  spec.model = model;
  spec.config.scheme = scheme;
  spec.gibbs = small_gibbs();
  spec.eventual_total = srm::data::kSys1TotalBugs;
  return spec;
}

void expect_bitwise_equal(const ObservationResult& stored,
                          const ObservationResult& streamed,
                          const std::string& label) {
  // WAIC, all fields.
  EXPECT_EQ(stored.waic.waic, streamed.waic.waic) << label;
  EXPECT_EQ(stored.waic.waic_per_point, streamed.waic.waic_per_point)
      << label;
  EXPECT_EQ(stored.waic.learning_loss, streamed.waic.learning_loss) << label;
  EXPECT_EQ(stored.waic.functional_variance,
            streamed.waic.functional_variance)
      << label;
  EXPECT_EQ(stored.waic.samples, streamed.waic.samples) << label;

  // Residual posterior: summary, box plot, and the raw pooled draws.
  const auto& a = stored.posterior;
  const auto& b = streamed.posterior;
  EXPECT_EQ(a.summary.mean, b.summary.mean) << label;
  EXPECT_EQ(a.summary.sd, b.summary.sd) << label;
  EXPECT_EQ(a.summary.median, b.summary.median) << label;
  EXPECT_EQ(a.summary.mode, b.summary.mode) << label;
  EXPECT_EQ(a.summary.min, b.summary.min) << label;
  EXPECT_EQ(a.summary.max, b.summary.max) << label;
  EXPECT_EQ(a.box.median, b.box.median) << label;
  EXPECT_EQ(a.box.q1, b.box.q1) << label;
  EXPECT_EQ(a.box.q3, b.box.q3) << label;
  EXPECT_EQ(a.samples, b.samples) << label;

  // Per-parameter diagnostics.
  ASSERT_EQ(stored.diagnostics.size(), streamed.diagnostics.size()) << label;
  for (std::size_t p = 0; p < stored.diagnostics.size(); ++p) {
    const auto& d_a = stored.diagnostics[p];
    const auto& d_b = streamed.diagnostics[p];
    EXPECT_EQ(d_a.name, d_b.name) << label;
    EXPECT_EQ(d_a.posterior_mean, d_b.posterior_mean)
        << label << " " << d_a.name;
    EXPECT_EQ(d_a.psrf, d_b.psrf) << label << " " << d_a.name;
    EXPECT_EQ(d_a.geweke_z, d_b.geweke_z) << label << " " << d_a.name;
    EXPECT_EQ(d_a.ess, d_b.ess) << label << " " << d_a.name;
  }
}

/// The stored-trace reference for one fit_cell request: sample with traces
/// on, replay the traces through the accumulators fit_cell streams into,
/// and score WAIC from the pointwise matrix.
ObservationResult stored_trace_fit(const srm::data::BugCountData& base,
                                   const srm::core::FitRequest& request) {
  const auto observed =
      srm::core::dataset_at_observation(base, request.observation_day);
  const auto model = srm::core::make_model(request.prior, request.model,
                                           observed, request.config,
                                           request.gibbs);
  auto gibbs = request.gibbs;
  gibbs.keep_traces = true;
  const auto run = srm::mcmc::run_gibbs(*model, gibbs);

  srm::diagnostics::ParameterStatsAccumulator stats(
      model->state_size(), gibbs.chain_count, gibbs.iterations);
  srm::core::ResidualAccumulator residual(model->residual_index(),
                                          gibbs.chain_count, gibbs.iterations);
  const std::array<srm::mcmc::PosteriorAccumulator*, 2> sinks{&stats,
                                                              &residual};
  srm::mcmc::replay(run, sinks);

  ObservationResult result;
  result.observation_day = request.observation_day;
  result.detected_so_far = observed.total();
  result.actual_residual = request.eventual_total - observed.total();
  result.waic = srm::core::compute_waic(*model, run);
  result.posterior = residual.finalize();
  const auto names = run.parameter_names();
  for (std::size_t p = 0; p < names.size(); ++p) {
    const auto online = stats.parameter(p);
    srm::core::ParameterDiagnostics diag;
    diag.name = names[p];
    diag.posterior_mean = online.posterior_mean;
    diag.ess = online.ess;
    diag.psrf = online.psrf;
    diag.geweke_z = online.geweke_z;
    result.diagnostics.push_back(std::move(diag));
  }
  return result;
}

TEST(StreamingPipeline, BitIdenticalToStoredTracesAcrossAll28Configs) {
  const auto data = srm::data::sys1_grouped();
  for (const auto scheme :
       {SamplerScheme::kCollapsed, SamplerScheme::kVanilla}) {
    for (const auto prior :
         {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
      for (const auto model : srm::core::all_detection_model_kinds()) {
        auto spec = spec_for(scheme, prior, model);
        spec.gibbs.keep_traces = false;
        const std::string label =
            std::string(scheme == SamplerScheme::kCollapsed ? "collapsed"
                                                            : "vanilla") +
            "/" + srm::core::to_string(prior) + "/" +
            srm::core::to_string(model);

        const auto request =
            srm::core::single_cell_request(spec, data.days());
        const auto stored = stored_trace_fit(data, request);
        const auto streamed = srm::core::fit_cell(data, request);
        expect_bitwise_equal(stored, streamed, label);
      }
    }
  }
}

TEST(StreamingPipeline, ScorerMatrixReproducesPsisLooBitwise) {
  const auto data = srm::data::sys1_grouped();
  for (const auto scheme :
       {SamplerScheme::kCollapsed, SamplerScheme::kVanilla}) {
    for (const auto prior :
         {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
      srm::core::HyperPriorConfig config;
      config.scheme = scheme;
      const BayesianSrm model(prior, DetectionModelKind::kWeibull, data,
                              config);
      const auto gibbs = small_gibbs();

      const auto run = srm::mcmc::run_gibbs(model, gibbs);
      const auto stored = srm::core::compute_psis_loo(model, run);

      srm::core::StreamingScorer scorer(model, gibbs.chain_count,
                                        gibbs.iterations,
                                        /*keep_matrix=*/true);
      std::array<srm::mcmc::PosteriorAccumulator*, 1> sinks{&scorer};
      auto streaming_gibbs = gibbs;
      streaming_gibbs.keep_traces = false;
      srm::mcmc::run_gibbs(model, streaming_gibbs, sinks);
      const auto streamed =
          srm::core::compute_psis_loo_from_matrix(scorer.log_likelihood_matrix());

      EXPECT_EQ(stored.elpd_loo, streamed.elpd_loo);
      EXPECT_EQ(stored.looic, streamed.looic);
      EXPECT_EQ(stored.high_k_count, streamed.high_k_count);
      ASSERT_EQ(stored.pointwise.size(), streamed.pointwise.size());
      for (std::size_t i = 0; i < stored.pointwise.size(); ++i) {
        EXPECT_EQ(stored.pointwise[i].elpd, streamed.pointwise[i].elpd);
        EXPECT_EQ(stored.pointwise[i].pareto_k,
                  streamed.pointwise[i].pareto_k);
      }
    }
  }
}

TEST(StreamingPipeline, AccumulatorReproducesLegacyTraceDiagnostics) {
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kWeibull,
                          data, {});
  const auto gibbs = small_gibbs();
  const auto run = srm::mcmc::run_gibbs(model, gibbs);

  srm::diagnostics::ParameterStatsAccumulator stats(
      model.state_size(), gibbs.chain_count, gibbs.iterations);
  srm::core::ResidualAccumulator residual(model.residual_index(),
                                          gibbs.chain_count,
                                          gibbs.iterations);
  std::array<srm::mcmc::PosteriorAccumulator*, 2> sinks{&stats, &residual};
  srm::mcmc::replay(run, sinks);

  for (std::size_t p = 0; p < model.state_size(); ++p) {
    const auto online = stats.parameter(p);
    // PSRF replicates the gelman_rubin() arithmetic statement for
    // statement — bitwise.
    EXPECT_EQ(online.psrf, srm::diagnostics::gelman_rubin(run, p).psrf);
    // Geweke finalizes through the same window statistic the trace path
    // calls — bitwise.
    EXPECT_EQ(online.geweke_z,
              srm::diagnostics::geweke(run.chain(0).parameter(p)).z);
    // Pooled mean: per-chain plain sums merged in chain order vs one pass
    // over the concatenation — equal up to association.
    const auto pooled = run.pooled(p);
    EXPECT_NEAR(online.posterior_mean, srm::stats::mean(pooled),
                1e-12 * std::abs(srm::stats::mean(pooled)) + 1e-15);
    // ESS: a truncated Geyer window can only shrink the autocorrelation
    // time, so the streamed estimate is bounded by [legacy, N].
    EXPECT_GE(online.ess, 1.0);
    EXPECT_LE(online.ess, static_cast<double>(run.total_samples()));
  }

  // The residual accumulator funnels through summarize_residual_samples on
  // the same chain-ordered pooled draws — bitwise.
  const auto stored = srm::core::summarize_residual_posterior(run);
  const auto streamed = residual.finalize();
  EXPECT_EQ(stored.summary.mean, streamed.summary.mean);
  EXPECT_EQ(stored.summary.sd, streamed.summary.sd);
  EXPECT_EQ(stored.samples, streamed.samples);
}

TEST(StreamingPipeline, KeepTracesOffReturnsShapedButEmptyRun) {
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kConstant,
                          data, {});
  auto gibbs = small_gibbs();
  gibbs.iterations = 30;
  gibbs.burn_in = 10;
  gibbs.keep_traces = false;
  const auto run = srm::mcmc::run_gibbs(model, gibbs);
  EXPECT_EQ(run.chain_count(), gibbs.chain_count);
  EXPECT_EQ(run.parameter_names().size(), model.state_size());
  EXPECT_EQ(run.total_samples(), 0u);
}

TEST(StreamingPipeline, SingleChainEssMatchesLegacyInsideLagWindow) {
  // With one chain and draws_per_chain - 1 <= kMaxEssLag the streamed
  // estimator sees every lag the legacy scan sees; the remaining delta is
  // the shifted-vs-centered accumulation order, so compare tightly.
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kWeibull,
                          data, {});
  auto gibbs = small_gibbs();
  gibbs.chain_count = 1;
  gibbs.iterations = 120;
  const auto run = srm::mcmc::run_gibbs(model, gibbs);

  srm::diagnostics::ParameterStatsAccumulator stats(model.state_size(), 1,
                                                    gibbs.iterations);
  std::array<srm::mcmc::PosteriorAccumulator*, 1> sinks{&stats};
  srm::mcmc::replay(run, sinks);
  for (std::size_t p = 0; p < model.state_size(); ++p) {
    const double legacy =
        srm::diagnostics::effective_sample_size(run.chain(0).parameter(p));
    const double streamed = stats.parameter(p).ess;
    EXPECT_NEAR(streamed, legacy, 1e-6 * legacy) << run.parameter_names()[p];
  }
}

}  // namespace
