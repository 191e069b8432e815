// cli_fleet: the interactive user. A closed loop with one client runs, for
// each project of a seeded synthetic fleet, one `fit` and one `select`
// through the entry point srm_cli itself uses (cli::dispatch). A select
// fits all 11 registry cells one after another (2-chain parallelism only),
// keeps the pointwise matrix, runs PSIS-LOO and pseudo-BMA: the only
// workload with LOO finalisation, model averaging and keep_matrix memory.
#include <cmath>
#include <fstream>
#include <sstream>

#include "artifact/serialize.hpp"
#include "cli/commands.hpp"
#include "core/fit.hpp"
#include "data/datasets.hpp"
#include "data/generator.hpp"
#include "support/format.hpp"
#include "support/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = srm::core;
using srm::support::Json;

namespace {

/// One synthetic project: its daily counts and the fit cell it is given.
struct Project {
  srm::data::BugCountData data;
  std::string prior;
  std::string model;
  std::uint64_t mcmc_seed = 0;
};

/// A project kind: one of the repository's real series, whose detection
/// process the fleet replays.
struct Kind {
  srm::data::BugCountData data;
  std::int64_t bugs = 0;  ///< initial bugs (the series' eventual total)
};

/// The fleet's project kinds span the repository's data: NTDS (25 periods,
/// 26 failures), SYS1 at the paper's first observation point (48 days of
/// its 136 bugs) and SYS1 in full (96 days, 136 bugs). Three kinds put the
/// median project in the middle one.
std::vector<Kind> project_kinds() {
  const auto ntds = srm::data::ntds_grouped();
  const auto sys1 = srm::data::sys1_grouped();
  return {{ntds, ntds.total()},
          {sys1.truncated(srm::data::kSys1ObservationPoints[0]),
           srm::data::kSys1TotalBugs},
          {sys1, srm::data::kSys1TotalBugs}};
}

/// A kind's empirical detection probability: on day i, the share of the
/// bugs still unfound before day i that the series found on day i.
srm::data::DetectionProbabilityFn shape(const Kind& kind) {
  std::vector<double> p;
  std::int64_t left = kind.bugs;
  for (std::size_t day = 1; day <= kind.data.days(); ++day) {
    const auto found = kind.data.count_on_day(day);
    p.push_back(left > 0 ? static_cast<double>(found) /
                               static_cast<double>(left)
                         : 0.0);
    left -= found;
  }
  return [p = std::move(p)](std::size_t day) { return p[day - 1]; };
}

/// The fleet: project j is replicate j / kinds of kind j % kinds (one
/// simulate_replications batch per kind) and is fitted with the j-th cell
/// of the 11-cell selection grid. Projects run in rounds of one per kind,
/// so every run sees the same mix of sizes and shapes; the seed changes the
/// simulated counts and the MCMC seeds.
std::vector<Project> make_fleet(const Options& options, std::size_t count) {
  std::vector<std::pair<std::string, std::string>> cells;
  for (const auto& entry : core::model_families().families()) {
    for (const auto kind : entry.selection_models) {
      cells.emplace_back(entry.id, core::to_string(kind));
    }
  }
  const auto kinds = project_kinds();
  std::vector<std::vector<srm::data::BugCountData>> replicas;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    replicas.push_back(srm::data::simulate_replications(
        kinds[k].bugs, kinds[k].data.days(), shape(kinds[k]),
        options.seed * 1000003ULL + k,
        (count + kinds.size() - 1) / kinds.size(), "fleet"));
  }
  std::vector<Project> fleet;
  for (std::size_t j = 0; j < count; ++j) {
    Project project{replicas[j % kinds.size()][j / kinds.size()], {}, {}, 0};
    project.prior = cells[j % cells.size()].first;
    project.model = cells[j % cells.size()].second;
    project.mcmc_seed = options.seed + j;
    fleet.push_back(std::move(project));
  }
  return fleet;
}

/// Writes a project's counts as the CSV file srm_cli reads.
void write_csv(const Project& project, const std::filesystem::path& path) {
  std::ofstream csv(path);
  csv << "day,count\n";
  for (std::size_t day = 1; day <= project.data.days(); ++day) {
    csv << day << ',' << project.data.count_on_day(day) << '\n';
  }
}

std::vector<std::string> mcmc_flags(const Options& options,
                                    const Project& project,
                                    const std::filesystem::path& csv) {
  const auto scale = mcmc_scale(options);
  return {"--csv",        csv.string(),
          "--chains",     std::to_string(scale.chains),
          "--burn-in",    std::to_string(scale.burn_in),
          "--iterations", std::to_string(scale.iterations),
          "--seed",       std::to_string(project.mcmc_seed),
          "--format",     "json"};
}

/// Runs one srm_cli command in process; returns its stdout, or nullopt
/// when it exited non-zero.
std::optional<std::string> dispatch(const std::string& command,
                                    const std::vector<std::string>& flags) {
  std::ostringstream out;
  std::ostringstream err;
  if (srm::cli::dispatch(command, flags, out, err) != 0) return std::nullopt;
  return out.str();
}

std::vector<std::string> fit_flags(const Options& options,
                                   const Project& project,
                                   const std::filesystem::path& csv) {
  auto flags = mcmc_flags(options, project, csv);
  flags.insert(flags.end(),
               {"--prior", project.prior, "--model", project.model});
  return flags;
}

bool fit_ok(const std::optional<std::string>& text) {
  if (!text) return false;
  try {
    const auto json = Json::parse(*text);
    return std::isfinite(json.at("result").at("waic").at("waic").as_double());
  } catch (const std::exception&) {
    return false;
  }
}

/// 11 rows, finite WAIC and LOOIC, pseudo-BMA weights summing to 1.
bool select_ok(const std::optional<std::string>& text,
               std::size_t expected_rows) {
  if (!text) return false;
  try {
    const auto json = Json::parse(*text);
    const auto& ranking = json.at("ranking").as_array();
    double weights = 0.0;
    for (const auto& row : ranking) {
      if (!std::isfinite(row.at("waic").as_double()) ||
          !std::isfinite(row.at("looic").as_double())) {
        return false;
      }
      weights += row.at("pseudo_bma_weight").as_double();
    }
    return ranking.size() == expected_rows && std::abs(weights - 1.0) < 1e-9;
  } catch (const std::exception&) {
    return false;
  }
}

std::size_t grid_size() {
  std::size_t cells = 0;
  for (const auto& entry : core::model_families().families()) {
    cells += entry.selection_models.size();
  }
  return cells;
}

/// Enough projects for every round a run at paper scale can start.
constexpr std::size_t kFleetSize = 36;
/// Fleet simulations per timed set-up block (about 0.1 ms each).
constexpr std::size_t kSetupsPerBlock = 200;

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Rows of a select's ranking (0 when it failed).
std::size_t ranking_rows(const std::optional<std::string>& text) {
  if (!text) return 0;
  try {
    return Json::parse(*text).at("ranking").as_array().size();
  } catch (const std::exception&) {
    return 0;
  }
}

/// Posterior draws a fit reports using (0 when it failed).
std::uint64_t fit_draws(const std::optional<std::string>& text) {
  if (!text) return 0;
  try {
    return Json::parse(*text).at("result").at("waic").at("samples").as_unsigned();
  } catch (const std::exception&) {
    return 0;
  }
}

}  // namespace

Report run_cli_fleet(const Options& options) {
  Report out;
  const std::size_t rows = grid_size();
  const std::size_t round = project_kinds().size();

  // Set-up: simulate the fleet; timed in a block of simulations before
  // each round. Each project's CSV file is written as the first step of
  // its measured work, the way a user exports a project's counts for
  // srm_cli.
  const auto fleet = make_fleet(options, kFleetSize);
  std::vector<double> setup_s;

  std::vector<double> project_s;
  std::vector<double> fit_s;
  std::vector<double> select_s;
  std::vector<double> cpu_s;
  std::uint64_t digest = fnv1a("");
  std::uint64_t output_bytes = 0;
  std::uint64_t select_rows = 0;
  std::uint64_t draws = 0;
  const auto run_start = Clock::now();
  // Projects run in rounds, one per kind, so the projects of a run always
  // hold the same mix of project sizes.
  std::vector<double> round_s;
  for (std::size_t j = 0; j < fleet.size(); ++j) {
    if (j % round == 0) {
      if (j > 0) round_s.push_back(seconds_since(run_start) - sum(round_s));
      if (!keep_going(run_start, options.seconds, round_s)) break;
      setup_s.push_back(setup_block_seconds(
          kSetupsPerBlock, [&] { (void)make_fleet(options, kFleetSize); },
          [] {}));
    }
    const auto csv = options.work_dir / ("project-" + std::to_string(j) + ".csv");
    const double cpu_start = process_cpu_s();
    const auto start = Clock::now();
    write_csv(fleet[j], csv);
    const auto fit = dispatch("fit", fit_flags(options, fleet[j], csv));
    fit_s.push_back(seconds_since(start));
    const auto select_start = Clock::now();
    const auto select = dispatch("select", mcmc_flags(options, fleet[j], csv));
    select_s.push_back(seconds_since(select_start));
    project_s.push_back(seconds_since(start));
    cpu_s.push_back(process_cpu_s() - cpu_start);

    std::filesystem::remove(csv);
    out.check(fit_ok(fit), "fit of " + csv.filename().string());
    out.check(select_ok(select, rows), "select of " + csv.filename().string());
    if (j < round) {
      // The first round is in every run: its outputs give the digest and
      // the exact counts a same-seed rerun must repeat.
      digest = fnv1a(fit.value_or("") + select.value_or(""), digest);
      output_bytes += fit.value_or("").size() + select.value_or("").size();
      select_rows += ranking_rows(select);
      draws += fit_draws(fit);
    }
  }

  std::vector<double> project_ms;
  for (const double s : project_s) project_ms.push_back(s * 1e3);
  const double busy_s = sum(project_s);

  add_common_metrics(out, median(setup_s), cpu_s, process_peak_rss_mib());
  out.metric("ops_per_s", static_cast<double>(project_s.size()) / busy_s, "1/s");
  out.metric("op_ms.p50", median(project_ms), "ms");
  out.metric("op_ms.p99", quantile(project_ms, 0.99), "ms");

  out.info("fit_s.p50", median(fit_s), "s");
  out.info("select_s.p50", median(select_s), "s");
  out.info("projects", static_cast<double>(project_s.size()), "count");
  out.counts["round_select_rows"] = select_rows;
  out.counts["round_fit_draws"] = draws;
  out.counts["round_output_bytes"] = output_bytes;
  out.digest = hex(digest);
  return out;
}

void trace_cli_fleet(const Options& options, Report& out,
                     TraceOverhead* overhead) {
  const auto fleet_start = Clock::now();
  const auto fleet = make_fleet(options, kFleetSize);
  out.metric("data.fleet_ms", seconds_since(fleet_start) * 1e3, "ms");

  // One project: the fit and the select through srm_cli's entry point
  // (untraced twin), then the same two commands rebuilt from timed calls.
  const Project& project = fleet[1];
  const auto csv = options.work_dir / "project-traced.csv";
  write_csv(project, csv);
  const auto data = srm::data::BugCountData::from_csv_file(csv.string());
  const auto scale = mcmc_scale(options);
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = scale.chains;
  gibbs.burn_in = scale.burn_in;
  gibbs.iterations = scale.iterations;
  gibbs.seed = project.mcmc_seed;
  gibbs.keep_traces = false;

  auto start = Clock::now();
  const auto cli_fit = dispatch("fit", fit_flags(options, project, csv));
  const auto cli_select = dispatch("select", mcmc_flags(options, project, csv));
  const double untraced_s = seconds_since(start);

  start = Clock::now();
  core::FitRequest request;
  request.prior = core::find_family(project.prior)->kind;
  request.model = *core::detection_model_from_string(project.model);
  request.gibbs = gibbs;
  request.observation_day = data.days();
  request.eventual_total = data.total();
  CellProfile fit_profile;
  const auto fit = traced_fit(data, request, fit_profile);
  SelectProfile select;
  const auto ranking = traced_select(data, gibbs, select);
  const double traced_s = seconds_since(start);

  bool same = cli_fit.has_value() && cli_select.has_value();
  if (same) {
    same = Json::parse(*cli_fit).at("result").dump() ==
               srm::artifact::to_json(fit).dump() &&
           *cli_select == ranking.dump(2);
  }
  out.check(same, "traced fit/select differ from srm_cli fit/select");

  double loo_ms = 0.0;
  double matrix_mib = 0.0;
  double covered_ms = 0.0;
  for (const auto& cell : select.cells) {
    out.metric("mcmc.scan_us." + cell.prior + "." + cell.model,
               cell.scan_ns / 1e3 / static_cast<double>(cell.scans), "us");
    loo_ms += cell.loo_ms;
    matrix_mib = std::max(matrix_mib, cell.matrix_mib);
    covered_ms += cell.total_ms - cell.unaccounted_ms();
  }
  out.metric("core.loo_finalize_ms",
             loo_ms / static_cast<double>(select.cells.size()), "ms");
  out.metric("core.average_models_us", select.average_models_us, "us");
  out.metric("core.keep_matrix_mib", matrix_mib, "MiB");

  if (overhead != nullptr) {
    overhead->traced_s = traced_s;
    overhead->untraced_s = untraced_s;
    covered_ms += fit_profile.total_ms - fit_profile.unaccounted_ms() +
                  select.average_models_us / 1e3;
    overhead->unaccounted_frac = 1.0 - covered_ms / (traced_s * 1e3);
  }

  // "Where does a fit spend its time": SYS1 at its last real day through
  // the traced fit, for a cheap, a channel-heavy and the size-biased cell.
  const auto sys1 = srm::data::sys1_grouped();
  std::ostringstream table;
  table << "| cell | make_model | burn-in | retained scans | scorer | "
           "diagnostics | residual | finalize | total |\n"
        << "|---|---|---|---|---|---|---|---|---|\n";
  const auto ms = [](double value) {
    return srm::support::fixed(value, 1) + " ms";
  };
  for (const auto& [prior, model] :
       std::vector<std::pair<std::string, std::string>>{
           {"poisson", "model0"}, {"poisson", "model2"},
           {"sizebiased", "multinomial"}}) {
    core::FitRequest cell = request;
    cell.prior = core::find_family(prior)->kind;
    cell.model = *core::detection_model_from_string(model);
    cell.observation_day = sys1.days();
    cell.eventual_total = srm::data::kSys1TotalBugs;
    CellProfile p;
    (void)traced_fit(sys1, cell, p);
    // Per-chain times: both chains run at once, so the scan and sink
    // columns are thread time divided by the chain count.
    const double chains = static_cast<double>(gibbs.chain_count);
    const double sinks_ms = (p.scorer_ns + p.stats_ns + p.residual_ns) / 1e6;
    const double retained_scan_ms =
        p.chain_busy_ms / chains - p.burnin_ms - sinks_ms / chains;
    table << "| " << prior << "/" << model << " | "
          << ms(p.make_model_us / 1e3) << " | " << ms(p.burnin_ms) << " | "
          << ms(retained_scan_ms) << " | " << ms(p.scorer_ns / 1e6 / chains)
          << " | " << ms(p.stats_ns / 1e6 / chains) << " | "
          << ms(p.residual_ns / 1e6 / chains) << " | "
          << ms((p.waic_finalize_us + p.diag_finalize_us +
                 p.residual_finalize_us) / 1e3)
          << " | " << ms(p.total_ms) << " |\n";
  }
  out.notes.push_back("where a fit spends its time (SYS1, day 96, per chain):\n" +
                      table.str());
  std::filesystem::remove(csv);
}

}  // namespace perfbench
