// Integration test: end-to-end calibration on synthetic data generated from
// the exact detection process the SRMs assume. The full Bayesian fit (all
// hyperparameters sampled) must place the known true residual count inside
// its central credible interval, the analytic conjugate posterior with
// oracle detection probabilities must concentrate around the truth, and
// the simulation-based calibration grid below must find every ranked
// parameter uniform.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "core/conjugate.hpp"
#include "core/experiment.hpp"
#include "data/generator.hpp"
#include "mcmc/gibbs.hpp"
#include "random/samplers.hpp"
#include "stats/summary.hpp"
#include "support/math.hpp"

namespace {

namespace core = srm::core;

TEST(Calibration, OraclePosteriorCoversTruthAcrossReplicates) {
  // With the detection probabilities known, Proposition 1's posterior is
  // exact, so its 95% interval must cover the true residual in ~95% of
  // replicated simulations.
  const auto model =
      core::make_detection_model(core::DetectionModelKind::kPadgettSpurrier);
  const std::vector<double> zeta{0.99, 0.002};
  const std::int64_t n0 = 120;
  const std::size_t days = 50;
  int covered = 0;
  const int replicates = 120;
  for (int r = 0; r < replicates; ++r) {
    srm::random::Rng rng(9000 + static_cast<std::uint64_t>(r));
    const auto data = srm::data::simulate_detection_process(
        n0, days,
        [&](std::size_t day) { return model->probability(day, zeta); }, rng);
    const std::int64_t truth = n0 - data.total();
    const auto posterior = core::poisson_residual_posterior(
        static_cast<double>(n0), data, model->probabilities(days, zeta));
    if (truth >= posterior.quantile(0.025) &&
        truth <= posterior.quantile(0.975)) {
      ++covered;
    }
  }
  // Binomial(120, 0.95) is above 105 with overwhelming probability.
  EXPECT_GE(covered, 105) << "coverage " << covered << "/" << replicates;
}

TEST(Calibration, FullBayesianFitBracketsTruth) {
  const auto model =
      core::make_detection_model(core::DetectionModelKind::kPadgettSpurrier);
  const std::vector<double> zeta{0.99, 0.002};
  srm::random::Rng rng(4242);
  const std::int64_t n0 = 120;
  const auto data = srm::data::simulate_detection_process(
      n0, 50,
      [&](std::size_t day) { return model->probability(day, zeta); }, rng,
      "synth");
  const std::int64_t truth = n0 - data.total();

  core::ExperimentSpec spec;
  spec.prior = core::PriorKind::kPoisson;
  spec.model = core::DetectionModelKind::kPadgettSpurrier;
  spec.eventual_total = n0;
  spec.gibbs.chain_count = 2;
  spec.gibbs.burn_in = 500;
  spec.gibbs.iterations = 3000;
  const auto result = core::run_observation(data, spec, 50);

  // The hyperparameters are unknown here, so the posterior is wider than
  // the oracle's; the truth must sit inside the central 98% interval.
  const auto& samples = result.posterior.samples;
  const auto low = srm::stats::integer_quantile(samples, 0.01);
  const auto high = srm::stats::integer_quantile(samples, 0.99);
  EXPECT_GE(truth, low);
  EXPECT_LE(truth, high);
  // And the convergence diagnostics must pass for every parameter.
  for (const auto& diag : result.diagnostics) {
    EXPECT_LT(diag.psrf, 1.1) << diag.name;
  }
}

TEST(Calibration, MorePaddingNeverIncreasesResidual) {
  // Virtual testing with zero counts can only shrink the estimated
  // residual count (more evidence that nothing is left).
  const auto model =
      core::make_detection_model(core::DetectionModelKind::kConstant);
  const std::vector<double> zeta{0.06};
  srm::random::Rng rng(31);
  const auto data = srm::data::simulate_detection_process(
      100, 40,
      [&](std::size_t day) { return model->probability(day, zeta); }, rng);

  core::ExperimentSpec spec;
  spec.prior = core::PriorKind::kPoisson;
  spec.model = core::DetectionModelKind::kConstant;
  spec.eventual_total = 100;
  spec.gibbs.chain_count = 2;
  spec.gibbs.burn_in = 300;
  spec.gibbs.iterations = 1500;
  spec.observation_days = {40, 80, 160};
  const auto results = core::run_experiment(data, spec);
  EXPECT_GT(results[0].posterior.summary.mean,
            results[1].posterior.summary.mean);
  EXPECT_GT(results[1].posterior.summary.mean,
            results[2].posterior.summary.mean);
}

// --- simulation-based calibration (Talts et al. 2018, arXiv:1804.06788) ---
//
// Each replication draws the hyperparameters, N and zeta from the prior
// exactly as BayesianSrm::log_joint writes it, simulates kSbcDays of data
// from Eq (1), fits, and ranks every true parameter (the residual
// N - s_k included) among kSbcDraws thinned posterior draws. A correct
// sampler makes every rank uniform on 0..kSbcDraws.
//
// The settings follow one rule, fixed before the gate ran: thin each
// scheme at the smallest power of two at or above the largest median
// integrated autocorrelation time any ranked parameter showed in a pilot
// (30 replications per cell, 2000 unthinned scans after 500 burn-in,
// seeds 777000+r, disjoint from the gate's): 7.7 scans collapsed -> 8,
// 47.9 vanilla -> 64. Burn-in is 16 thinning intervals. The seeds are the
// first ones tried; they are never changed to make a cell pass.
constexpr std::size_t kSbcDays = 20;
constexpr std::size_t kSbcReplications = 100;
constexpr std::size_t kSbcDraws = 19;  // ranks take 20 values
constexpr std::size_t kSbcBins = 10;   // two rank values per bin
constexpr std::uint64_t kSbcSeed = 20180403;
// Family-wise level over the whole grid, Bonferroni-split across its 50
// ranked parameters (12 cells x 3-5 parameters each).
constexpr double kSbcFamilyWiseLevel = 0.01;
constexpr double kSbcGridTests = 50.0;

std::size_t sbc_thin(core::SamplerScheme scheme) {
  return scheme == core::SamplerScheme::kCollapsed ? 8 : 64;
}

struct SbcCell {
  core::PriorKind prior;
  core::DetectionModelKind model;
  core::SamplerScheme scheme;
};

std::string sbc_cell_name(const SbcCell& cell) {
  return core::to_string(cell.prior) + "_" + core::to_string(cell.model) +
         "_" + core::to_string(cell.scheme);
}

/// One replication: draws the truth from the prior, simulates, fits, and
/// adds each parameter's rank to `histograms` (one per state slot).
void sbc_replicate(const SbcCell& cell, std::size_t replication,
                   std::vector<std::vector<int>>& histograms) {
  core::HyperPriorConfig config;
  config.scheme = cell.scheme;
  // Both schemes of a (prior, model) pair see the same truths and data.
  srm::random::Rng rng(kSbcSeed +
                       100000 * static_cast<std::uint64_t>(cell.prior) +
                       1000 * static_cast<std::uint64_t>(cell.model) +
                       replication);
  std::vector<double> truth{0.0};  // residual, filled in after simulating
  std::int64_t initial_bugs = 0;
  if (cell.prior == core::PriorKind::kPoisson) {
    const double lambda0 = config.lambda_max * rng.uniform_open();
    truth.push_back(lambda0);
    initial_bugs = srm::random::sample_poisson(rng, lambda0);
  } else {
    const double alpha0 = config.alpha_max * rng.uniform_open();
    const double beta0 = rng.uniform_open();
    truth.push_back(alpha0);
    truth.push_back(beta0);
    initial_bugs = srm::random::sample_negative_binomial(rng, alpha0, beta0);
  }
  const auto detection = core::make_detection_model(cell.model);
  std::vector<double> zeta;
  for (const auto& support : detection->parameter_supports(config.limits)) {
    zeta.push_back(support.lower +
                   (support.upper - support.lower) * rng.uniform_open());
  }
  truth.insert(truth.end(), zeta.begin(), zeta.end());
  const auto data = srm::data::simulate_detection_process(
      initial_bugs, kSbcDays,
      [&](std::size_t day) { return detection->probability(day, zeta); },
      rng);
  truth[0] = static_cast<double>(initial_bugs - data.total());

  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 1;
  gibbs.thin = sbc_thin(cell.scheme);
  gibbs.burn_in = 16 * gibbs.thin;
  gibbs.iterations = kSbcDraws;  // retained after thinning
  gibbs.seed = rng.next_u64();
  gibbs.parallel_chains = false;
  const auto model =
      core::make_model(cell.prior, cell.model, data, config, gibbs);
  const auto run = srm::mcmc::run_gibbs(*model, gibbs);
  ASSERT_EQ(run.chain(0).sample_count(), kSbcDraws);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    std::size_t below = 0;
    std::size_t ties = 0;
    for (const double draw : run.chain(0).parameter(i)) {
      if (draw < truth[i]) ++below;
      if (draw == truth[i]) ++ties;
    }
    // Ties (the integer residual) break uniformly at random.
    const std::size_t rank = below + rng.uniform_index(ties + 1);
    ++histograms[i][rank * kSbcBins / (kSbcDraws + 1)];
  }
}

class SimulationBasedCalibration : public ::testing::TestWithParam<SbcCell> {};

TEST_P(SimulationBasedCalibration, RanksAreUniform) {
  const SbcCell cell = GetParam();
  const auto names =
      core::make_model(cell.prior, cell.model,
                       srm::data::BugCountData("names", {1}), {})
          ->parameter_names();
  std::vector<std::vector<int>> histograms(names.size(),
                                           std::vector<int>(kSbcBins, 0));
  for (std::size_t r = 0; r < kSbcReplications; ++r) {
    sbc_replicate(cell, r, histograms);
  }
  const double expected =
      static_cast<double>(kSbcReplications) / static_cast<double>(kSbcBins);
  const double level = kSbcFamilyWiseLevel / kSbcGridTests;
  for (std::size_t i = 0; i < names.size(); ++i) {
    double chi2 = 0.0;
    std::string counts;
    for (const int count : histograms[i]) {
      chi2 += (count - expected) * (count - expected) / expected;
      counts += ' ';
      counts += std::to_string(count);
    }
    const double p_value = srm::math::regularized_gamma_q(
        0.5 * static_cast<double>(kSbcBins - 1), 0.5 * chi2);
    std::printf("SBC %s %s:%s chi2=%.2f p=%.4f\n",
                sbc_cell_name(cell).c_str(), names[i].c_str(),
                counts.c_str(), chi2, p_value);
    EXPECT_GE(p_value, level)
        << names[i] << " ranks are not uniform:" << counts;
  }
}

std::vector<SbcCell> sbc_grid() {
  std::vector<SbcCell> grid;
  for (const auto prior :
       {core::PriorKind::kPoisson, core::PriorKind::kNegativeBinomial}) {
    for (const auto model : {core::DetectionModelKind::kLogLogistic,
                             core::DetectionModelKind::kPareto,
                             core::DetectionModelKind::kWeibull}) {
      for (const auto scheme :
           {core::SamplerScheme::kCollapsed, core::SamplerScheme::kVanilla}) {
        grid.push_back({prior, model, scheme});
      }
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(
    SmokeGrid, SimulationBasedCalibration, ::testing::ValuesIn(sbc_grid()),
    [](const auto& param_info) { return sbc_cell_name(param_info.param); });

}  // namespace
