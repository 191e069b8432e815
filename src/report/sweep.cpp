#include "report/sweep.hpp"

#include "core/fit.hpp"
#include "data/datasets.hpp"
#include "runtime/task_group.hpp"
#include "support/error.hpp"

namespace srm::report {

void SweepOptions::set_override(core::PriorKind prior,
                                core::DetectionModelKind model,
                                core::HyperPriorConfig config) {
  for (auto& o : overrides_) {
    if (o.prior == prior && o.model == model) {
      o.config = config;
      return;
    }
  }
  overrides_.push_back({prior, model, config});
}

core::HyperPriorConfig SweepOptions::config_for(
    core::PriorKind prior, core::DetectionModelKind model) const {
  for (const auto& o : overrides_) {
    if (o.prior == prior && o.model == model) return o.config;
  }
  return base_config;
}

const SweepCell& SweepResult::cell(core::PriorKind prior,
                                   core::DetectionModelKind model) const {
  for (const auto& c : cells) {
    if (c.prior == prior && c.model == model) return c;
  }
  throw InvalidArgument("sweep cell not found for " + core::to_string(prior) +
                        "/" + core::to_string(model));
}

SweepResult run_sweep(const data::BugCountData& base,
                      const SweepOptions& options,
                      core::ObservationStore* store,
                      SweepExecution* execution) {
  SRM_EXPECTS(!options.observation_days.empty(),
              "sweep requires observation days");
  SweepResult sweep;
  sweep.observation_days = options.observation_days;

  // Lay out every cell (and its per-day result slots) up front, then
  // schedule each independent (prior, model, observation day) posterior as
  // one task on the shared runtime pool. Each task writes only its own
  // pre-sized slot and the cell order is fixed before anything runs, so the
  // result is bit-identical to the serial sweep for any worker count.
  std::vector<core::ExperimentSpec> specs;
  for (const auto& [prior, model] : sweep_grid(options.families)) {
    SweepCell cell;
    cell.prior = prior;
    cell.model = model;
    cell.config = options.config_for(prior, model);
    cell.results.resize(options.observation_days.size());
    sweep.cells.push_back(std::move(cell));

    core::ExperimentSpec spec;
    spec.prior = prior;
    spec.model = model;
    spec.config = sweep.cells.back().config;
    spec.gibbs = options.gibbs;
    spec.observation_days = options.observation_days;
    spec.eventual_total = options.eventual_total;
    specs.push_back(std::move(spec));
  }

  SweepExecution exec;
  exec.cells_total = sweep.cells.size() * options.observation_days.size();

  // Plan every cell serially (store implementations need not lock here),
  // splicing reused results into their slots, then fan the remaining
  // kCompute cells out on the pool. The plan order is the fixed grid
  // layout order, so budgets ("first N fresh cells") are deterministic for
  // any worker count.
  struct Pending {
    std::size_t ci;
    std::size_t di;
  };
  std::vector<Pending> pending;
  for (std::size_t ci = 0; ci < sweep.cells.size(); ++ci) {
    for (std::size_t di = 0; di < options.observation_days.size(); ++di) {
      if (store == nullptr) {
        pending.push_back({ci, di});
        ++exec.cells_computed;
        continue;
      }
      core::ObservationResult stored;
      switch (store->plan(specs[ci], options.observation_days[di], stored)) {
        case core::ObservationStore::Plan::kReuse:
          sweep.cells[ci].results[di] = std::move(stored);
          ++exec.cells_reused;
          break;
        case core::ObservationStore::Plan::kSkip:
          ++exec.cells_skipped;
          break;
        case core::ObservationStore::Plan::kCompute:
          pending.push_back({ci, di});
          ++exec.cells_computed;
          break;
      }
    }
  }

  runtime::TaskGroup group;
  for (const auto& [ci, di] : pending) {
    group.run([&base, &sweep, &specs, &options, store, ci, di] {
      sweep.cells[ci].results[di] = core::fit_cell(
          base,
          core::single_cell_request(specs[ci], options.observation_days[di]));
      if (store != nullptr) {
        // Worker-thread callback; the store contract requires this to be
        // thread-safe.
        store->on_computed(specs[ci], options.observation_days[di],
                           sweep.cells[ci].results[di]);
      }
    });
  }
  group.wait();
  if (execution != nullptr) *execution = exec;
  return sweep;
}

std::vector<std::pair<core::PriorKind, core::DetectionModelKind>> sweep_grid(
    const std::vector<core::PriorKind>& families) {
  std::vector<std::pair<core::PriorKind, core::DetectionModelKind>> grid;
  for (const auto prior : families) {
    for (const auto model : core::family(prior).selection_models) {
      grid.emplace_back(prior, model);
    }
  }
  return grid;
}

std::vector<std::pair<core::PriorKind, core::DetectionModelKind>> select_grid(
    const mcmc::GibbsOptions& gibbs) {
  std::vector<core::PriorKind> families;
  for (const auto& entry : core::model_families().families()) {
    if (!gibbs.vectorized || entry.supports_vectorized) {
      families.push_back(entry.kind);
    }
  }
  return sweep_grid(families);
}

SweepOptions paper_sweep_options() {
  SweepOptions options;
  options.observation_days.assign(std::begin(data::kSys1ObservationPoints),
                                  std::end(data::kSys1ObservationPoints));
  options.eventual_total = data::kSys1TotalBugs;
  options.gibbs.chain_count = 2;
  options.gibbs.burn_in = 500;
  options.gibbs.iterations = 2500;
  options.gibbs.seed = 20240624;
  // The sweep only consumes streamed summaries, so cells run in O(1)
  // memory; scoring and diagnostics are bit-identical either way.
  options.gibbs.keep_traces = false;
  // Upper limits in the neighbourhood the paper's WAIC tuning lands on;
  // bench/ablation_hyperparams sweeps them explicitly.
  options.base_config.lambda_max = 2000.0;
  options.base_config.alpha_max = 100.0;
  options.base_config.limits.theta_max = 10.0;
  options.base_config.limits.gamma_bound = 10.0;
  return options;
}

}  // namespace srm::report
