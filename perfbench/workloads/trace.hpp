// Outside-in tracing for the traced run (--trace 1). Nothing here reaches
// into src/: every span is a timed call into a module's public interface.
//
//   TimedModel   a mcmc::GibbsModel decorator that forwards to the real
//                model and times each Gibbs scan (update) — the mcmc layer
//   TimedSink    a mcmc::PosteriorAccumulator decorator around each
//                streaming sink (scorer, diagnostics, residual) — the core
//                and diagnostics layers; it also stamps each chain's first
//                and last retained draw
//   traced_fit   core::fit_cell's streaming path rebuilt from the same
//                public calls, with every call timed; its result must be
//                byte-identical to core::fit_cell's (checked by callers)
//   traced_select  the select command's streaming path rebuilt the same
//                way (keep_matrix scorer, PSIS-LOO, pseudo-BMA)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"
#include "core/fit.hpp"
#include "core/model_family.hpp"
#include "mcmc/accumulator.hpp"
#include "mcmc/gibbs.hpp"
#include "support/json.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a,
                                             Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Calls and nanoseconds spent in one kind of call; safe to add to from
/// several threads.
struct Tally {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  void add(std::int64_t elapsed_ns) {
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
};

class TimedModel final : public srm::mcmc::GibbsModel {
 public:
  TimedModel(const srm::mcmc::GibbsModel& inner, Tally& scans)
      : inner_(inner), scans_(scans) {}

  [[nodiscard]] std::vector<std::string> parameter_names() const override {
    return inner_.parameter_names();
  }
  [[nodiscard]] std::vector<double> initial_state(
      srm::random::Rng& rng) const override {
    return inner_.initial_state(rng);
  }
  [[nodiscard]] std::unique_ptr<srm::mcmc::GibbsWorkspace> make_workspace()
      const override {
    return inner_.make_workspace();
  }
  using srm::mcmc::GibbsModel::update;
  void update(std::vector<double>& state, srm::random::Rng& rng,
              srm::mcmc::GibbsWorkspace* workspace) const override {
    const auto start = Clock::now();
    inner_.update(state, rng, workspace);
    scans_.add(ns_between(start, Clock::now()));
  }

 private:
  const srm::mcmc::GibbsModel& inner_;
  Tally& scans_;
};

/// First and last retained-draw instants per chain. Each slot is written
/// only by its chain's thread (the PosteriorAccumulator contract).
struct ChainMarks {
  explicit ChainMarks(std::size_t chains)
      : first(chains), last(chains), seen(chains, 0) {}
  std::vector<Clock::time_point> first;
  std::vector<Clock::time_point> last;
  std::vector<unsigned char> seen;  ///< not vector<bool>: written per chain
};

class TimedSink final : public srm::mcmc::PosteriorAccumulator {
 public:
  TimedSink(srm::mcmc::PosteriorAccumulator& inner, Tally& tally,
            ChainMarks* marks = nullptr)
      : inner_(inner), tally_(tally), marks_(marks) {}

  void accumulate(std::size_t chain, std::span<const double> state,
                  srm::mcmc::GibbsWorkspace* workspace) override {
    const auto start = Clock::now();
    inner_.accumulate(chain, state, workspace);
    const auto end = Clock::now();
    tally_.add(ns_between(start, end));
    if (marks_ != nullptr) {
      if (!marks_->seen[chain]) {
        marks_->first[chain] = start;
        marks_->seen[chain] = 1;
      }
      marks_->last[chain] = end;
    }
  }

 private:
  srm::mcmc::PosteriorAccumulator& inner_;
  Tally& tally_;
  ChainMarks* marks_;
};

/// Per-layer times of one traced fit or select cell.
struct CellProfile {
  std::string prior;
  std::string model;
  double observe_us = 0.0;       ///< core::dataset_at_observation
  double make_model_us = 0.0;    ///< core::make_model
  double run_ms = 0.0;           ///< mcmc::run_gibbs wall
  double burnin_ms = 0.0;        ///< run start -> first retained draw, mean
  double chain_busy_ms = 0.0;    ///< run start -> last draw, summed over chains
  std::uint64_t scans = 0;       ///< model update() calls
  double scan_ns = 0.0;          ///< total time inside update()
  std::uint64_t retained = 0;    ///< retained draws fed to the sinks
  double scorer_ns = 0.0;
  double stats_ns = 0.0;
  double residual_ns = 0.0;
  double waic_finalize_us = 0.0;
  double diag_finalize_us = 0.0;
  double residual_finalize_us = 0.0;
  double loo_ms = 0.0;           ///< select only
  double matrix_mib = 0.0;       ///< select only: the retained k x S matrix
  double total_ms = 0.0;         ///< whole traced call
  /// Time no timed call covers inside total_ms.
  [[nodiscard]] double unaccounted_ms() const;
};

/// core::fit_cell (streaming mode) rebuilt from timed public calls.
srm::core::ObservationResult traced_fit(const srm::data::BugCountData& base,
                                        const srm::core::FitRequest& request,
                                        CellProfile& profile);

/// The select command's streaming grid (every registry family's selection
/// models, WAIC + PSIS-LOO + pseudo-BMA) rebuilt from timed public calls.
/// Returns the same JSON document `srm_cli select --format json` prints.
struct SelectProfile {
  std::vector<CellProfile> cells;
  double average_models_us = 0.0;
};
srm::support::Json traced_select(const srm::data::BugCountData& data,
                                 const srm::mcmc::GibbsOptions& gibbs,
                                 SelectProfile& profile);

}  // namespace perfbench
