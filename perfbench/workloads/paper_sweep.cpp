// paper_sweep: the paper's Section 5 grid on SYS1 (2 priors x 5 models x
// 9 observation days = 90 cells) through report::run_sweep, every cell
// persisted to a fresh artifact directory. The Gibbs scans and detection
// channels carry the load, with cell scheduling in runtime and the
// artifact writes beside them; LOO and serve do nothing here.
#include <algorithm>

#include "artifact/serialize.hpp"
#include "artifact/spec_hash.hpp"
#include "artifact/store.hpp"
#include "core/fit.hpp"
#include "data/datasets.hpp"
#include "report/sweep.hpp"
#include "runtime/task_group.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = srm::core;
namespace report = srm::report;
namespace artifact = srm::artifact;

namespace {

report::SweepOptions sweep_options(const Options& options) {
  auto sweep = report::paper_sweep_options();
  const auto scale = mcmc_scale(options);
  sweep.gibbs.chain_count = scale.chains;
  sweep.gibbs.burn_in = scale.burn_in;
  sweep.gibbs.iterations = scale.iterations;
  sweep.gibbs.seed = options.seed;
  return sweep;
}

/// Cells of the reloaded artifact whose bytes differ from the in-memory
/// result, plus cells the sweep left unfilled.
std::size_t bad_cells(const report::SweepResult& sweep,
                      const report::SweepResult& reloaded) {
  std::size_t bad = 0;
  for (std::size_t ci = 0; ci < sweep.cells.size(); ++ci) {
    for (std::size_t di = 0; di < sweep.observation_days.size(); ++di) {
      const auto& mine = sweep.cells[ci].results[di];
      const bool present = mine.observation_day != 0;
      const bool same =
          ci < reloaded.cells.size() &&
          di < reloaded.cells[ci].results.size() &&
          artifact::to_json(mine).dump() ==
              artifact::to_json(reloaded.cells[ci].results[di]).dump();
      if (!present || !same) ++bad;
    }
  }
  return bad;
}

/// The per-cell work of one sweep, in grid layout order.
struct GridCell {
  core::ExperimentSpec spec;
  std::size_t ci = 0;
  std::size_t di = 0;
};

std::vector<GridCell> grid_cells(const report::SweepOptions& options) {
  std::vector<GridCell> cells;
  std::size_t ci = 0;
  for (const auto& [prior, model] : report::sweep_grid(options.families)) {
    core::ExperimentSpec spec;
    spec.prior = prior;
    spec.model = model;
    spec.config = options.config_for(prior, model);
    spec.gibbs = options.gibbs;
    spec.observation_days = options.observation_days;
    spec.eventual_total = options.eventual_total;
    for (std::size_t di = 0; di < options.observation_days.size(); ++di) {
      cells.push_back({spec, ci, di});
    }
    ++ci;
  }
  return cells;
}

report::SweepResult empty_result(const report::SweepOptions& options) {
  report::SweepResult sweep;
  sweep.observation_days = options.observation_days;
  for (const auto& [prior, model] : report::sweep_grid(options.families)) {
    report::SweepCell cell;
    cell.prior = prior;
    cell.model = model;
    cell.config = options.config_for(prior, model);
    cell.results.resize(options.observation_days.size());
    sweep.cells.push_back(std::move(cell));
  }
  return sweep;
}

/// An ObservationStore that forwards to the ArtifactStore and times each
/// write; serialisation and hashing are timed as separate calls into the
/// artifact module's public functions.
class TimedStore final : public core::ObservationStore {
 public:
  TimedStore(artifact::ArtifactStore& inner, const srm::data::BugCountData& base)
      : inner_(inner), base_(base) {}

  Plan plan(const core::ExperimentSpec& spec, std::size_t observation_day,
            core::ObservationResult& reuse_out) override {
    return inner_.plan(spec, observation_day, reuse_out);
  }

  void on_computed(const core::ExperimentSpec& spec,
                   std::size_t observation_day,
                   const core::ObservationResult& result) override {
    auto start = Clock::now();
    const auto bytes = artifact::to_json(result).dump(2);
    serialize_.add(ns_between(start, Clock::now()));
    start = Clock::now();
    const auto hash = artifact::cell_hash(base_, spec, observation_day);
    hash_.add(ns_between(start, Clock::now()));
    start = Clock::now();
    inner_.on_computed(spec, observation_day, result);
    write_.add(ns_between(start, Clock::now()));
    (void)bytes;
    (void)hash;
  }

  Tally serialize_;
  Tally hash_;
  Tally write_;

 private:
  artifact::ArtifactStore& inner_;
  const srm::data::BugCountData& base_;
};

/// Artifact-store openings per timed set-up block (about a millisecond each).
constexpr std::size_t kSetupsPerBlock = 40;

double per_call_us(const Tally& tally) {
  const auto calls = tally.calls.load();
  return calls == 0 ? 0.0
                    : static_cast<double>(tally.ns.load()) / 1e3 /
                          static_cast<double>(calls);
}

}  // namespace

Report run_paper_sweep(const Options& options) {
  Report out;
  const auto sweep_opts = sweep_options(options);
  const std::size_t cells_per_sweep =
      report::sweep_grid(sweep_opts.families).size() *
      sweep_opts.observation_days.size();

  // Set-up: what `srm_cli sweep --out DIR` does before sampling — load the
  // dataset and open a fresh artifact directory (sweep hash, 90 cell
  // hashes, manifest). Timed in a block of openings before each sweep,
  // which then opens its own.
  const auto open_store = [](const std::filesystem::path& dir,
                             const report::SweepOptions& unit_opts) {
    auto base = srm::data::sys1_grouped();
    auto store = std::make_unique<artifact::ArtifactStore>(dir, base, unit_opts,
                                                           /*resume=*/false);
    return std::pair{std::move(base), std::move(store)};
  };
  const auto setup_dir = options.work_dir / "setup";
  std::vector<double> setup_s;

  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::uint64_t cells_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t retained_draws = 0;
  const auto run_start = Clock::now();
  for (std::size_t unit = 0; keep_going(run_start, options.seconds, wall_s);
       ++unit) {
    setup_s.push_back(setup_block_seconds(
        kSetupsPerBlock, [&] { (void)open_store(setup_dir, sweep_opts); },
        [&] { std::filesystem::remove_all(setup_dir); }));
    // Each sweep of a run samples under its own master seed derived from
    // --seed, so the sweeps of one run are not repeats of one another.
    auto unit_opts = sweep_opts;
    unit_opts.gibbs.seed = options.seed * 1000 + unit;
    const auto dir = options.work_dir / ("sweep-" + std::to_string(unit));
    std::filesystem::remove_all(dir);
    auto [base, store_ptr] = open_store(dir, unit_opts);
    auto& store = *store_ptr;

    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    report::SweepExecution execution;
    const auto sweep = report::run_sweep(base, unit_opts, &store, &execution);
    if (execution.complete()) store.finalize(sweep);
    store.record_run(execution);
    wall_s.push_back(seconds_since(start));
    cpu_s.push_back(process_cpu_s() - cpu_start);

    // Checks: no skipped cell, and the reloaded artifact serialises
    // byte-identically to the in-memory result, cell by cell.
    std::size_t bad = cells_per_sweep;
    if (execution.complete()) {
      bad = bad_cells(sweep, artifact::ArtifactStore::load_sweep(dir));
    }
    out.checks(cells_per_sweep, bad,
               "sweep cells skipped or reloaded differently");
    if (unit == 0) {
      out.digest = hex(fnv1a(artifact::to_json(sweep).dump()));
      cells_written = store.cells_sampled_this_run();
      bytes_written = directory_bytes(dir);
      for (const auto& cell : sweep.cells) {
        for (const auto& result : cell.results) {
          retained_draws += result.waic.samples;
        }
      }
    }
    std::filesystem::remove_all(dir);
  }

  const double cells = static_cast<double>(cells_per_sweep);
  double total_s = 0.0;
  for (const double w : wall_s) total_s += w;
  const double rate = cells * static_cast<double>(wall_s.size()) / total_s;
  std::vector<double> wall_ms;
  for (const double w : wall_s) wall_ms.push_back(w * 1e3);

  add_common_metrics(out, median(setup_s), cpu_s, process_peak_rss_mib());
  out.metric("ops_per_s", rate, "1/s");
  out.metric("op_ms.p50", median(wall_ms), "ms");
  out.metric("op_ms.p99", quantile(wall_ms, 0.99), "ms");

  out.info("sweep_cells_per_s", rate, "cells/s");
  out.info("sweep_s.p50", median(wall_s), "s");
  out.info("sweeps", static_cast<double>(wall_s.size()), "count");
  out.counts["cells_per_sweep"] = cells_per_sweep;
  out.counts["retained_draws"] = retained_draws;
  out.counts["cells_written"] = cells_written;
  out.counts["bytes_written"] = bytes_written;
  return out;
}

void trace_paper_sweep(const Options& options, Report& out,
                       TraceOverhead* overhead) {
  const auto sweep_opts = sweep_options(options);
  const auto base = srm::data::sys1_grouped();
  const auto grid = grid_cells(sweep_opts);

  // Optional untraced reference for trace.overhead_frac, run first.
  double untraced_wall_s = 0.0;
  if (overhead != nullptr) {
    const auto dir = options.work_dir / "sweep-untraced";
    std::filesystem::remove_all(dir);
    artifact::ArtifactStore store(dir, base, sweep_opts, false);
    const auto start = Clock::now();
    report::SweepExecution execution;
    const auto sweep = report::run_sweep(base, sweep_opts, &store, &execution);
    if (execution.complete()) store.finalize(sweep);
    untraced_wall_s = seconds_since(start);
    std::filesystem::remove_all(dir);
  }

  // Single-thread baseline: every cell one at a time through core::fit_cell
  // with parallel chains off, on the calling thread only.
  report::SweepResult serial = empty_result(sweep_opts);
  std::vector<double> serial_cell_ms;
  const auto serial_start = Clock::now();
  for (const auto& cell : grid) {
    auto request = core::single_cell_request(
        cell.spec, sweep_opts.observation_days[cell.di]);
    request.gibbs.parallel_chains = false;
    const auto start = Clock::now();
    serial.cells[cell.ci].results[cell.di] = core::fit_cell(base, request);
    serial_cell_ms.push_back(seconds_since(start) * 1e3);
  }
  const double serial_s = seconds_since(serial_start);

  // Traced parallel sweep: run_sweep's plan-then-fan-out schedule rebuilt
  // from the same public calls (ObservationStore plan/on_computed, one
  // runtime::TaskGroup task per cell), with each cell's fit traced.
  const auto dir = options.work_dir / "sweep-traced";
  std::filesystem::remove_all(dir);
  artifact::ArtifactStore inner(dir, base, sweep_opts, false);
  TimedStore store(inner, base);
  report::SweepResult traced = empty_result(sweep_opts);
  std::vector<CellProfile> profiles(grid.size());
  std::vector<double> task_start_ms(grid.size());
  std::vector<double> task_ms(grid.size());
  std::vector<double> store_ms(grid.size());

  const auto start = Clock::now();
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    core::ObservationResult reuse;
    const auto day = sweep_opts.observation_days[grid[i].di];
    if (store.plan(grid[i].spec, day, reuse) ==
        core::ObservationStore::Plan::kCompute) {
      pending.push_back(i);
    }
  }
  {
    srm::runtime::TaskGroup group;
    for (const std::size_t i : pending) {
      group.run([&, i] {
        const auto task_start = Clock::now();
        task_start_ms[i] = static_cast<double>(ns_between(start, task_start)) / 1e6;
        const auto day = sweep_opts.observation_days[grid[i].di];
        auto& slot = traced.cells[grid[i].ci].results[grid[i].di];
        slot = traced_fit(base, core::single_cell_request(grid[i].spec, day),
                          profiles[i]);
        const auto store_start = Clock::now();
        store.on_computed(grid[i].spec, day, slot);
        store_ms[i] = seconds_since(store_start) * 1e3;
        task_ms[i] = seconds_since(task_start) * 1e3;
      });
    }
    group.wait();
  }
  report::SweepExecution execution;
  execution.cells_total = grid.size();
  execution.cells_computed = pending.size();
  execution.cells_skipped = grid.size() - pending.size();
  if (execution.complete()) inner.finalize(traced);
  inner.record_run(execution);
  const double traced_wall_s = seconds_since(start);

  const auto reload_start = Clock::now();
  const auto reloaded = artifact::ArtifactStore::load_sweep(dir);
  const double reload_ms = seconds_since(reload_start) * 1e3;
  const auto bytes = directory_bytes(dir);
  std::filesystem::remove_all(dir);

  // The traced rebuild, the serial baseline and the reloaded artifact must
  // all agree byte for byte.
  const std::size_t bad_reload = bad_cells(traced, reloaded);
  const std::size_t bad_serial = bad_cells(traced, serial);
  out.checks(grid.size(), std::max(bad_reload, bad_serial),
             "traced sweep cells differ from the serial or reloaded result");

  // runtime
  const double threads = static_cast<double>(options.workers + 1);
  double last_start_ms = 0.0;
  for (const std::size_t i : pending) {
    last_start_ms = std::max(last_start_ms, task_start_ms[i]);
  }
  out.metric("runtime.compute_threads", threads, "count");
  out.metric("runtime.busy_frac", serial_s / (traced_wall_s * threads), "frac");
  out.metric("runtime.longest_cell_ms",
             *std::max_element(serial_cell_ms.begin(), serial_cell_ms.end()),
             "ms");
  out.metric("runtime.tail_idle_ms", traced_wall_s * 1e3 - last_start_ms, "ms");
  out.metric("runtime.serial_s", serial_s, "s");
  out.metric("runtime.speedup", serial_s / traced_wall_s, "x");

  // mcmc, core and diagnostics, summed or averaged over the 90 cells
  double scans = 0.0;
  double retained = 0.0;
  double burnin_ms = 0.0;
  double run_ms = 0.0;
  double chain_busy_ms = 0.0;
  double scorer_ns = 0.0;
  double stats_ns = 0.0;
  double residual_ns = 0.0;
  double make_model_us = 0.0;
  double waic_us = 0.0;
  double diag_us = 0.0;
  double observe_us = 0.0;
  double uncovered_ms = 0.0;
  double task_total_ms = 0.0;
  for (const std::size_t i : pending) {
    const auto& p = profiles[i];
    scans += static_cast<double>(p.scans);
    retained += static_cast<double>(p.retained);
    burnin_ms += p.burnin_ms;
    run_ms += p.run_ms;
    chain_busy_ms += p.chain_busy_ms;
    scorer_ns += p.scorer_ns;
    stats_ns += p.stats_ns;
    residual_ns += p.residual_ns;
    make_model_us += p.make_model_us;
    waic_us += p.waic_finalize_us;
    diag_us += p.diag_finalize_us;
    observe_us += p.observe_us;
    uncovered_ms += p.unaccounted_ms() +
                    std::max(0.0, task_ms[i] - p.total_ms - store_ms[i]);
    task_total_ms += task_ms[i];
  }
  const double n = static_cast<double>(std::max<std::size_t>(pending.size(), 1));
  out.metric("mcmc.scans", scans, "count");
  out.metric("mcmc.retained_draws", retained, "count");
  out.metric("mcmc.burnin_ms", burnin_ms / n, "ms");
  out.metric("mcmc.run_ms", run_ms / n, "ms");
  out.metric("core.make_model_us", make_model_us / n, "us");
  out.metric("core.scorer_us_per_draw", scorer_ns / 1e3 / retained, "us");
  out.metric("core.residual_us_per_draw", residual_ns / 1e3 / retained, "us");
  out.metric("core.sink_frac",
             (scorer_ns + stats_ns + residual_ns) / 1e6 / chain_busy_ms, "frac");
  out.metric("core.waic_finalize_us", waic_us / n, "us");
  out.metric("diagnostics.stats_us_per_draw", stats_ns / 1e3 / retained, "us");
  out.metric("diagnostics.finalize_us", diag_us / n, "us");
  out.metric("data.observe_us", observe_us / n, "us");

  // artifact
  out.metric("artifact.cells_written",
             static_cast<double>(store.write_.calls.load()), "count");
  out.metric("artifact.bytes_written", static_cast<double>(bytes), "bytes");
  out.metric("artifact.serialize_us", per_call_us(store.serialize_), "us");
  out.metric("artifact.hash_us", per_call_us(store.hash_), "us");
  out.metric("artifact.write_us", per_call_us(store.write_), "us");
  out.metric("artifact.reload_ms", reload_ms, "ms");

  out.digest = hex(fnv1a(artifact::to_json(traced).dump()));
  out.counts["trace.sweep_scans"] = static_cast<std::uint64_t>(scans);
  out.counts["trace.sweep_retained_draws"] = static_cast<std::uint64_t>(retained);
  out.counts["trace.sweep_cells_written"] = store.write_.calls.load();
  out.info("trace.sweep_wall_s", traced_wall_s, "s");
  if (overhead != nullptr) {
    overhead->traced_s = traced_wall_s;
    overhead->untraced_s = untraced_wall_s;
    overhead->unaccounted_frac = uncovered_ms / task_total_ms;
  }
}

}  // namespace perfbench
