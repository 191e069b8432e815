// The single-cell fit API — one (dataset, prior, model, config, Gibbs
// settings, observation day) posterior, scored and summarised in-scan by
// the streaming sinks.
//
// This is the one code path every frontend shares: the CLI `fit` command,
// every cell of the 2x5x9 evaluation sweep (report/sweep.cpp via
// core::run_observation), and the estimation service (src/serve/) all
// resolve to fit_cell(). A FitRequest carries exactly the inputs that
// determine the sampled bits, so artifact::cell_hash over its spec form is
// a complete cache key: two requests with equal hashes produce
// byte-identical serialized results.
#pragma once

#include <cstdint>

#include "core/experiment.hpp"
#include "data/bug_count_data.hpp"

namespace srm::core {

/// One posterior cell. Unlike the sweep-oriented ExperimentSpec there is no
/// observation-day grid and no store protocol — just the inputs of a single
/// fit.
struct FitRequest {
  PriorKind prior = PriorKind::kPoisson;
  DetectionModelKind model = DetectionModelKind::kConstant;
  HyperPriorConfig config{};
  mcmc::GibbsOptions gibbs{};
  /// 1-based observation day; days beyond the series are virtual testing.
  std::size_t observation_day = 0;
  /// Ground-truth eventual bug total (for the "actual residual" field).
  std::int64_t eventual_total = 0;
};

/// The request as a single-day ExperimentSpec — the form the artifact
/// layer's cell_hash/cell_identity consume. The conversion is lossless for
/// hashing purposes: cell identity deliberately excludes the day grid.
[[nodiscard]] ExperimentSpec to_experiment_spec(const FitRequest& request);

/// The inverse projection: one day of a sweep spec as a FitRequest.
[[nodiscard]] FitRequest single_cell_request(const ExperimentSpec& spec,
                                             std::size_t observation_day);

/// Fewest retained draws per chain fit_cell accepts: the Geweke
/// diagnostic's first window (10% of a chain) must hold 4 draws.
inline constexpr std::size_t kMinFitIterations = 40;

/// Throws support::InvalidArgument unless fit_cell accepts these settings
/// for `family`: validate_family_gibbs, then gibbs.iterations >=
/// kMinFitIterations. Needs no data, so a sweep can check every cell before
/// it writes anything.
void validate_fit_settings(PriorKind family, const HyperPriorConfig& config,
                           const mcmc::GibbsOptions& gibbs);

/// Throws support::InvalidArgument, with a plain message naming the serve
/// field, unless 1 <= day <= data::kMaxDays. The one home of the
/// observation-day rule: dataset_at_observation (so fit_cell and every
/// sweep cell) runs it, and the CLI and serve run it before any work.
void validate_observation_day(std::size_t day);

/// Throws support::InvalidArgument, with a plain message naming the serve
/// field, unless series.total() <= total <= data::kMaxBugs: the eventual
/// bug total cannot be below the bugs the series already records. The CLI
/// (`sweep --total`) and serve (`"total"`) run it where the value enters;
/// library callers that leave the total at its default are not checked.
void validate_eventual_total(std::int64_t total,
                             const data::BugCountData& series);

/// Fits the requested SRM on `base` seen at the request's observation day
/// (truncate + zero-pad, Section 5.1) and returns the residual-bug
/// posterior, WAIC and per-parameter convergence diagnostics. Deterministic
/// given the request: bit-identical for any worker count, with or without
/// keep_traces. Throws support::InvalidArgument before sampling when
/// validate_fit_settings or validate_observation_day rejects the request.
ObservationResult fit_cell(const data::BugCountData& base,
                           const FitRequest& request);

}  // namespace srm::core
