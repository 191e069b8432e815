#include "core/predictive.hpp"

#include <cmath>
#include <limits>

#include "mcmc/gibbs.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace srm::core {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

PredictiveSummary score_holdout(const BayesianSrm& model,
                                const mcmc::McmcRun& run,
                                const data::BugCountData& full) {
  const std::size_t m = model.data().days();
  const std::size_t k = full.days();
  SRM_EXPECTS(k > m, "holdout scoring needs days beyond the fit window");
  SRM_EXPECTS(model.data().total() == full.cumulative_through(m),
              "model must have been fitted on a prefix of `full`");
  const std::size_t total_samples = run.total_samples();
  SRM_EXPECTS(total_samples >= 1, "run contains no samples");

  PredictiveSummary summary;
  summary.fit_days = m;
  summary.holdout_days = k - m;
  summary.predicted_cumulative.assign(k - m, 0.0);

  std::vector<double> log_mass;
  log_mass.reserve(total_samples);
  double next_count_accumulator = 0.0;
  std::size_t inconsistent = 0;

  std::vector<double> state(model.state_size());
  const std::int64_t s_m = full.cumulative_through(m);
  for (std::size_t c = 0; c < run.chain_count(); ++c) {
    const auto& chain = run.chain(c);
    for (std::size_t s = 0; s < chain.sample_count(); ++s) {
      for (std::size_t p = 0; p < state.size(); ++p) {
        state[p] = chain.parameter(p)[s];
      }
      const auto residual = static_cast<std::int64_t>(
          std::llround(state[model.residual_index()]));
      const std::int64_t n = s_m + residual;
      const auto zeta =
          std::span<const double>(state).subspan(model.zeta_offset());
      const auto& detector = model.detection_model();

      // Sequential held-out likelihood; -inf when the sampled bug content
      // cannot accommodate the observed future counts.
      double log_p = 0.0;
      for (std::size_t day = m + 1; day <= k; ++day) {
        const std::int64_t before = n - full.cumulative_through(day - 1);
        const std::int64_t x = full.count_on_day(day);
        if (before < x) {
          log_p = kNegInf;
          break;
        }
        const double p_day = detector.probability(day, zeta);
        if (p_day <= 0.0) {
          if (x != 0) {
            log_p = kNegInf;
            break;
          }
          continue;
        }
        if (p_day >= 1.0) {
          if (x != before) {
            log_p = kNegInf;
            break;
          }
          continue;
        }
        log_p += math::log_binomial(before, x) +
                 static_cast<double>(x) * std::log(p_day) +
                 static_cast<double>(before - x) * std::log1p(-p_day);
      }
      log_mass.push_back(log_p);
      if (log_p == kNegInf) ++inconsistent;

      // Predictive moments ignore the held-out counts (pure forecast).
      const double p_next = detector.probability(m + 1, zeta);
      next_count_accumulator += static_cast<double>(residual) * p_next;
      double survive = 1.0;
      for (std::size_t day = m + 1; day <= k; ++day) {
        survive *= 1.0 - detector.probability(day, zeta);
        summary.predicted_cumulative[day - m - 1] +=
            static_cast<double>(s_m) +
            static_cast<double>(residual) * (1.0 - survive);
      }
    }
  }

  const double log_s = std::log(static_cast<double>(total_samples));
  summary.log_score = math::log_sum_exp(log_mass) - log_s;
  summary.inconsistent_fraction =
      static_cast<double>(inconsistent) / static_cast<double>(total_samples);
  summary.mean_next_count =
      next_count_accumulator / static_cast<double>(total_samples);
  for (double& v : summary.predicted_cumulative) {
    v /= static_cast<double>(total_samples);
  }
  return summary;
}

PredictiveSummary fit_and_score_holdout(const data::BugCountData& full,
                                        std::size_t fit_days, PriorKind prior,
                                        DetectionModelKind model_kind,
                                        const HyperPriorConfig& config,
                                        const mcmc::GibbsOptions& gibbs) {
  SRM_EXPECTS(fit_days >= 1 && fit_days < full.days(),
              "fit window must be a strict prefix");
  mcmc::GibbsOptions traced = gibbs;
  traced.keep_traces = true;
  const auto model =
      make_model(prior, model_kind, full.truncated(fit_days), config, traced);
  const auto run = mcmc::run_gibbs(*model, traced);
  return score_holdout(*model, run, full);
}

}  // namespace srm::core
