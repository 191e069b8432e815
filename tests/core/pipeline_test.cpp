// The streaming posterior pipeline's output contract.
//
// fit_cell() scores and summarises every retained draw in-scan through the
// streaming sinks, the only code that turns draws into WAIC, PSIS-LOO and
// the residual summary. The digests below pin those results for every
// sampler scheme, prior and detection model (2 x 2 x 7 = 28
// configurations) and PSIS-LOO for the four Weibull configurations. They
// were captured when the sinks still had a store-then-rescore twin that
// agreed with them bit for bit, so a change that perturbs a single bit of
// any reported number fails here.
//
// Where the streamed statistics also reproduce the batch trace-based
// diagnostics exactly (PSRF via the gelman_rubin arithmetic, Geweke via the
// shared window finalizer), this suite pins that too: the sinks ride the
// same run_gibbs call that stores the traces the batch references read.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "artifact/serialize.hpp"
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

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t fnv1a_byte(std::uint64_t hash, unsigned char byte) {
  return (hash ^ byte) * 1099511628211ULL;
}

std::uint64_t fnv1a_text(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash = fnv1a_byte(hash, static_cast<unsigned char>(c));
  }
  return hash;
}

std::uint64_t fnv1a_bits(std::uint64_t hash, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash = fnv1a_byte(hash, static_cast<unsigned char>(bits >> (8 * byte)));
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

struct CellDigest {
  SamplerScheme scheme;
  PriorKind prior;
  int model_id;
  std::uint64_t digest;
};

constexpr auto kCollapsed = SamplerScheme::kCollapsed;
constexpr auto kVanilla = SamplerScheme::kVanilla;
constexpr auto kPoisson = PriorKind::kPoisson;
constexpr auto kNegBin = PriorKind::kNegativeBinomial;

// FNV-1a of artifact::to_json(fit_cell(...)).dump() for small_gibbs() at the
// full SYS1 window, in (scheme, prior, model) loop order: the paper's
// model0..model4 and the extensions model5 and model6.
constexpr CellDigest kFitCellDigests[] = {
    {kCollapsed, kPoisson, 0, 0x28185a60144184d1ULL},
    {kCollapsed, kPoisson, 1, 0xf3c06262a2161f70ULL},
    {kCollapsed, kPoisson, 2, 0x974e80e5a9a7026dULL},
    {kCollapsed, kPoisson, 3, 0x3f2596f21dd37dafULL},
    {kCollapsed, kPoisson, 4, 0x7ce8a973d52e3bcdULL},
    {kCollapsed, kPoisson, 5, 0x0d6f05eddffb370fULL},
    {kCollapsed, kPoisson, 6, 0xcaa9a409c4479ac6ULL},
    {kCollapsed, kNegBin, 0, 0x8598cf9e06b30c3cULL},
    {kCollapsed, kNegBin, 1, 0x5d8c8a0b2a4d1c20ULL},
    {kCollapsed, kNegBin, 2, 0xb272290ea2c9106aULL},
    {kCollapsed, kNegBin, 3, 0xd2771c349a046dc4ULL},
    {kCollapsed, kNegBin, 4, 0x42c57edc16bd63cdULL},
    {kCollapsed, kNegBin, 5, 0xc230163bfdcb0b91ULL},
    {kCollapsed, kNegBin, 6, 0x2045d00283f2e23aULL},
    {kVanilla, kPoisson, 0, 0xce6f710757690673ULL},
    {kVanilla, kPoisson, 1, 0x7f82d6bdfead0f6bULL},
    {kVanilla, kPoisson, 2, 0x9fad3221b257b623ULL},
    {kVanilla, kPoisson, 3, 0xa44b76d630695b05ULL},
    {kVanilla, kPoisson, 4, 0x5a130416bc1f1bb2ULL},
    {kVanilla, kPoisson, 5, 0xac8aab33d69cccc9ULL},
    {kVanilla, kPoisson, 6, 0x84c38c80e1afa247ULL},
    {kVanilla, kNegBin, 0, 0xfc834938002390d6ULL},
    {kVanilla, kNegBin, 1, 0x826a99791f84e963ULL},
    {kVanilla, kNegBin, 2, 0xec9725db4e97de63ULL},
    {kVanilla, kNegBin, 3, 0xd459ebbbb06aaebaULL},
    {kVanilla, kNegBin, 4, 0x650c90f4ba4c31f1ULL},
    {kVanilla, kNegBin, 5, 0x53bcac5c96002713ULL},
    {kVanilla, kNegBin, 6, 0x9dbaa2aa0d85d50bULL},
};

TEST(StreamingPipeline, FitCellDigestsPinnedAcrossAll28Configs) {
  const auto data = srm::data::sys1_grouped();
  std::size_t index = 0;
  for (const auto scheme :
       {SamplerScheme::kCollapsed, SamplerScheme::kVanilla}) {
    for (const auto prior :
         {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
      for (int model_id = 0; model_id < 7; ++model_id) {
        const auto model = static_cast<DetectionModelKind>(model_id);
        const std::string label =
            std::string(scheme == SamplerScheme::kCollapsed ? "collapsed"
                                                            : "vanilla") +
            "/" + srm::core::to_string(prior) + "/" +
            srm::core::to_string(model);
        const auto request = srm::core::single_cell_request(
            spec_for(scheme, prior, model), data.days());
        const std::string json =
            srm::artifact::to_json(srm::core::fit_cell(data, request)).dump();
        const std::uint64_t digest = fnv1a_text(kFnvOffset, json);
        ASSERT_LT(index, std::size(kFitCellDigests))
            << label << " " << hex(digest);
        const auto& pinned = kFitCellDigests[index++];
        EXPECT_EQ(pinned.scheme, scheme) << label;
        EXPECT_EQ(pinned.prior, prior) << label;
        EXPECT_EQ(pinned.model_id, model_id) << label;
        EXPECT_EQ(hex(pinned.digest), hex(digest)) << label;
      }
    }
  }
  EXPECT_EQ(index, std::size(kFitCellDigests));
}

TEST(StreamingPipeline, ScorerMatrixPsisLooDigestsPinned) {
  // FNV-1a of every PSIS-LOO field (elpd_loo, looic, high_k_count, then
  // each point's elpd and k-hat) from the scorer's retained matrix.
  constexpr std::uint64_t kPinned[] = {
      0xd819724e71b9b9aaULL, 0xae24a6a8ed8bbfd8ULL,   // collapsed
      0x1f9e858b2a6244c9ULL, 0xec87927ad0fe78d5ULL};  // vanilla
  const auto data = srm::data::sys1_grouped();
  std::size_t index = 0;
  for (const auto scheme :
       {SamplerScheme::kCollapsed, SamplerScheme::kVanilla}) {
    for (const auto prior :
         {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
      srm::core::HyperPriorConfig config;
      config.scheme = scheme;
      const BayesianSrm model(prior, DetectionModelKind::kWeibull, data,
                              config);
      auto gibbs = small_gibbs();
      gibbs.keep_traces = false;
      srm::core::StreamingScorer scorer(model, gibbs.chain_count,
                                        gibbs.iterations,
                                        /*keep_matrix=*/true);
      std::array<srm::mcmc::PosteriorAccumulator*, 1> sinks{&scorer};
      srm::mcmc::run_gibbs(model, gibbs, sinks);
      const auto loo = srm::core::compute_psis_loo_from_matrix(
          scorer.log_likelihood_matrix());

      std::uint64_t digest = fnv1a_bits(kFnvOffset, loo.elpd_loo);
      digest = fnv1a_bits(digest, loo.looic);
      digest = fnv1a_bits(digest, static_cast<double>(loo.high_k_count));
      for (const auto& point : loo.pointwise) {
        digest = fnv1a_bits(digest, point.elpd);
        digest = fnv1a_bits(digest, point.pareto_k);
      }
      EXPECT_EQ(hex(kPinned[index++]), hex(digest))
          << srm::core::to_string(prior);
    }
  }
}

TEST(StreamingPipeline, AccumulatorReproducesLegacyTraceDiagnostics) {
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kWeibull,
                          data, {});
  const auto gibbs = small_gibbs();

  // The sinks see exactly the draws the stored traces hold: both come from
  // this one run_gibbs call.
  srm::diagnostics::ParameterStatsAccumulator stats(
      model.state_size(), gibbs.chain_count, gibbs.iterations);
  srm::core::ResidualAccumulator residual(model.residual_index(),
                                          gibbs.chain_count,
                                          gibbs.iterations);
  std::array<srm::mcmc::PosteriorAccumulator*, 2> sinks{&stats, &residual};
  const auto run = srm::mcmc::run_gibbs(model, gibbs, sinks);

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
  // the chain-ordered pooled draws — bitwise.
  const auto stored =
      srm::core::summarize_residual_samples(run.pooled("residual"));
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

  srm::diagnostics::ParameterStatsAccumulator stats(model.state_size(), 1,
                                                    gibbs.iterations);
  std::array<srm::mcmc::PosteriorAccumulator*, 1> sinks{&stats};
  const auto run = srm::mcmc::run_gibbs(model, gibbs, sinks);
  for (std::size_t p = 0; p < model.state_size(); ++p) {
    const double legacy =
        srm::diagnostics::effective_sample_size(run.chain(0).parameter(p));
    const double streamed = stats.parameter(p).ess;
    EXPECT_NEAR(streamed, legacy, 1e-6 * legacy) << run.parameter_names()[p];
  }
}

}  // namespace
