// Posterior-predictive evaluation: fit an SRM on the first m testing days,
// then score how well it predicts the held-out days m+1..k of the same
// series. This operationalizes the paper's notion of "predictive
// performance of the residual number of software bugs" as a proper scoring
// rule instead of a point comparison.
//
// For a posterior sample omega = (N, zeta) the held-out likelihood is the
// sequential product of Eq (1) binomial terms over the held-out days (the
// remaining-bug count is updated with the *observed* held-out counts), and
// the predictive log score is
//   log E_post[ prod_{i>m} P(x_i | omega) ]
// estimated by log-mean-exp over the retained Gibbs draws.
#pragma once

#include <vector>

#include "core/bayes_srm.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/trace.hpp"

namespace srm::core {

struct PredictiveSummary {
  /// log posterior-predictive mass of the held-out block (higher = better).
  double log_score = 0.0;
  /// Share of posterior draws that are inconsistent with the held-out data
  /// (sampled N smaller than the eventually-observed total). Large values
  /// flag a model that badly underestimates the bug content.
  double inconsistent_fraction = 0.0;
  /// Posterior-predictive mean of the count on day m+1.
  double mean_next_count = 0.0;
  /// E[s_i | data] for each held-out day i = m+1..k.
  std::vector<double> predicted_cumulative;
  std::size_t fit_days = 0;
  std::size_t holdout_days = 0;
};

/// Scores the posterior in `run` (produced by fitting `model`, which was
/// built on the first `fit_days` days of `full`) on the remaining days of
/// `full`. Preconditions: model.data() is exactly full.truncated(fit_days),
/// and full has more days than fit_days.
PredictiveSummary score_holdout(const BayesianSrm& model,
                                const mcmc::McmcRun& run,
                                const data::BugCountData& full);

/// Throws support::InvalidArgument, with a plain message naming the serve
/// field, unless 1 <= fit_days < series_days: the fit window must leave at
/// least one day to score.
void validate_holdout_split(std::size_t fit_days, std::size_t series_days);

/// Convenience: truncate, fit by Gibbs, and score in one call. The scorer
/// walks the raw chains, so the fit always keeps its traces whatever
/// `gibbs.keep_traces` says (the flag never changes the draws). Runs
/// validate_holdout_split before any sampling.
PredictiveSummary fit_and_score_holdout(const data::BugCountData& full,
                                        std::size_t fit_days, PriorKind prior,
                                        DetectionModelKind model_kind,
                                        const HyperPriorConfig& config,
                                        const mcmc::GibbsOptions& gibbs);

}  // namespace srm::core
