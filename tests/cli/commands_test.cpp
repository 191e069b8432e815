// End-to-end tests of the CLI subcommands (via the dispatch function, so
// the binary's plumbing is covered without spawning processes).
#include "cli/commands.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

namespace {

using srm::cli::dispatch;

struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run(const std::string& command,
              const std::vector<std::string>& flags) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = dispatch(command, flags, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, FitOnEmbeddedDataset) {
  const auto result =
      run("fit", {"--csv", "sys1", "--days", "48", "--model", "model1",
                  "--iterations", "400", "--burn-in", "100"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("residual bug posterior"), std::string::npos);
  EXPECT_NE(result.out.find("WAIC"), std::string::npos);
  EXPECT_NE(result.out.find("PSRF"), std::string::npos);
}

TEST(Cli, RetiredKeepTracesFlagFailsLoudly) {
  // fit and select always stream; the flag that chose the stored-trace
  // path is refused, never silently ignored.
  for (const std::string command : {"fit", "select", "predict", "release",
                                    "sweep"}) {
    std::vector<std::string> flags{"--csv", "sys1", "--keep-traces"};
    if (command == "predict") flags.insert(flags.end(), {"--fit-days", "40"});
    const auto result = run(command, flags);
    EXPECT_EQ(result.code, 2) << command;
    EXPECT_EQ(result.err, "error: unknown flag --keep-traces\n") << command;
  }
}

TEST(Cli, ThinReducesRetainedDraws) {
  // --thin N keeps every Nth scan; the report still renders (and differs
  // from the unthinned chain, since the retained draws differ).
  const auto result =
      run("fit", {"--csv", "sys1", "--days", "48", "--model", "model1",
                  "--iterations", "100", "--burn-in", "50", "--thin", "3"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("residual bug posterior"), std::string::npos);
}

TEST(Cli, MleOnNtds) {
  const auto result = run("mle", {"--csv", "ntds"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("AIC"), std::string::npos);
  EXPECT_NE(result.out.find("model1"), std::string::npos);
}

TEST(Cli, NhppBaseline) {
  const auto result = run("nhpp", {"--csv", "sys1", "--days", "48"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("goel-okumoto"), std::string::npos);
  EXPECT_NE(result.out.find("R(1 day)"), std::string::npos);
}

TEST(Cli, SimulateRoundTripsThroughCsv) {
  const auto path =
      (std::filesystem::temp_directory_path() / "srm_cli_sim.csv").string();
  const auto sim =
      run("simulate", {"--bugs", "80", "--days", "20", "--model", "model0",
                       "--mu", "0.1", "--seed", "7", "--out", path});
  EXPECT_EQ(sim.code, 0) << sim.err;
  // Feed the simulated file back through the MLE command.
  const auto mle = run("mle", {"--csv", path});
  EXPECT_EQ(mle.code, 0) << mle.err;
  std::filesystem::remove(path);
}

TEST(Cli, SimulateRequiresModelParameters) {
  const auto result = run("simulate", {"--bugs", "80", "--days", "20",
                                       "--model", "model1", "--mu", "0.9"});
  EXPECT_EQ(result.code, 2);  // missing --theta
  EXPECT_NE(result.err.find("theta"), std::string::npos);
}

TEST(Cli, PredictScoresHoldout) {
  const auto result =
      run("predict", {"--csv", "sys1", "--fit-days", "48", "--iterations",
                      "400", "--burn-in", "100"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("log predictive score"), std::string::npos);
}

TEST(Cli, ExtendedModelsSelectable) {
  const auto result =
      run("fit", {"--csv", "ntds", "--model", "model6", "--iterations",
                  "300", "--burn-in", "100"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("model6"), std::string::npos);
}

TEST(Cli, ReleasePlansOptimalDay) {
  const auto result =
      run("release", {"--csv", "ntds", "--day-cost", "2", "--bug-cost", "40",
                      "--horizon", "10", "--iterations", "400", "--burn-in",
                      "100", "--model", "model0"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("optimal release: day"), std::string::npos);
  EXPECT_NE(result.out.find("E[cost]"), std::string::npos);
}

TEST(Cli, SweepRendersPaperTables) {
  const auto result =
      run("sweep", {"--csv", "sys1", "--obs-days", "48", "--iterations", "60",
                    "--burn-in", "20"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("TABLE I: Comparison of WAIC."), std::string::npos);
  EXPECT_NE(result.out.find("mean values of the posterior"),
            std::string::npos);
  EXPECT_NE(result.out.find("standard deviations"), std::string::npos);
}

TEST(Cli, SweepCsvFormat) {
  const auto result =
      run("sweep", {"--csv", "sys1", "--obs-days", "48", "--iterations", "60",
                    "--burn-in", "20", "--format", "csv"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out.rfind("prior,model,observation_day", 0), 0u);
  EXPECT_NE(result.out.find("poisson,model0,48"), std::string::npos);
}

TEST(Cli, SweepArtifactsInterruptAndResume) {
  const auto dir = (std::filesystem::temp_directory_path() /
                    "srm_cli_sweep_artifacts")
                       .string();
  std::filesystem::remove_all(dir);
  const std::vector<std::string> base{"--csv",  "sys1", "--obs-days", "48",
                                      "--iterations", "60", "--burn-in", "20",
                                      "--out", dir};
  // Budgeted run: exit code 3 marks the partial sweep, no tables printed.
  auto budgeted = base;
  budgeted.insert(budgeted.end(), {"--max-cells", "4"});
  const auto partial = run("sweep", budgeted);
  EXPECT_EQ(partial.code, 3) << partial.err;
  EXPECT_NE(partial.out.find("partial sweep: 4/10"), std::string::npos);
  EXPECT_EQ(partial.out.find("TABLE I"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                       "sweep.json"));

  // Without --resume the directory is protected.
  const auto refused = run("sweep", base);
  EXPECT_EQ(refused.code, 2);
  EXPECT_NE(refused.err.find("--resume"), std::string::npos);

  // Resume completes the grid and renders the tables.
  auto resumed_flags = base;
  resumed_flags.push_back("--resume");
  const auto resumed = run("sweep", resumed_flags);
  EXPECT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("TABLE I"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) /
                                      "sweep.json"));
  std::filesystem::remove_all(dir);
}

TEST(Cli, SweepRejectsBudgetWithoutOut) {
  const auto result = run("sweep", {"--csv", "sys1", "--obs-days", "48",
                                    "--max-cells", "4"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--out"), std::string::npos);
}

TEST(Cli, ModelErrorListsRegistryNames) {
  const auto result = run("fit", {"--csv", "sys1", "--model", "model99"});
  EXPECT_EQ(result.code, 2);
  // The error text is derived from the detection-model registry.
  EXPECT_NE(result.err.find("model0"), std::string::npos);
  EXPECT_NE(result.err.find("model6"), std::string::npos);
}

TEST(Cli, FitJsonFormat) {
  const auto result =
      run("fit", {"--csv", "sys1", "--days", "48", "--model", "model1",
                  "--iterations", "100", "--burn-in", "50", "--format",
                  "json"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"observation_day\": 48"), std::string::npos);
  EXPECT_NE(result.out.find("\"psrf\""), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto result = run("frobnicate", {});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  const auto result = run("mle", {"--csv", "ntds", "--bogus", "1"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("bogus"), std::string::npos);
}

TEST(Cli, RetiredChainLanesFlagFailsLoudly) {
  // The lane-parallel executor is gone; its flag must be refused, never
  // silently ignored (which would hand back scalar output for a lane run).
  const auto result =
      run("fit", {"--csv", "sys1", "--days", "48", "--iterations", "20",
                  "--burn-in", "10", "--chain-lanes"});
  EXPECT_NE(result.code, 0);
  EXPECT_NE(result.err.find("unknown flag --chain-lanes"), std::string::npos)
      << result.err;
}

TEST(Cli, HelpPrintsUsageForEveryCommand) {
  for (const std::string command :
       {"fit", "select", "predict", "mle", "nhpp", "simulate", "release",
        "families", "sweep"}) {
    const auto result = run(command, {"--help"});
    EXPECT_EQ(result.code, 0) << command << ": " << result.err;
    EXPECT_EQ(result.out, srm::cli::usage()) << command;
    EXPECT_EQ(result.err, "") << command;
  }
  // Other unknown flags are still refused.
  EXPECT_EQ(run("fit", {"--csv", "sys1", "--hlep"}).code, 2);
}

TEST(Cli, MissingCsvFails) {
  const auto result = run("fit", {});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("csv"), std::string::npos);
}

// --- user errors read as plain messages ----------------------------------
//
// A bad flag value or a missing input file is user input, not a broken
// contract: exit code 2 and exactly `error: <message>`, with no
// SRM_EXPECTS report and no source location.

void expect_plain_user_error(const std::string& command,
                             const std::vector<std::string>& flags,
                             const std::string& message) {
  const auto result = run(command, flags);
  EXPECT_EQ(result.code, 2) << command;
  EXPECT_EQ(result.err, "error: " + message + "\n");
  EXPECT_EQ(result.err.find("SRM_EXPECTS"), std::string::npos);
  EXPECT_EQ(result.err.find(".cpp:"), std::string::npos);
}

TEST(CliUserErrors, UnknownFormat) {
  expect_plain_user_error("fit", {"--csv", "sys1", "--format", "bogus"},
                          "unknown --format 'bogus' (use table|json)");
  expect_plain_user_error("select", {"--csv", "sys1", "--format", "bogus"},
                          "unknown --format 'bogus' (use table|json)");
  expect_plain_user_error("sweep", {"--csv", "sys1", "--format", "bogus"},
                          "unknown --format 'bogus' (use table|json|csv)");
  expect_plain_user_error("families", {"--format", "bogus"},
                          "unknown --format 'bogus' (use table|markdown)");
}

TEST(CliUserErrors, FitDaysOutsideTheSeries) {
  expect_plain_user_error(
      "predict", {"--csv", "sys1", "--fit-days", "0"},
      "fit_days must name a strict prefix of the project's series");
}

TEST(CliUserErrors, ZeroObservationDay) {
  expect_plain_user_error("sweep", {"--csv", "sys1", "--obs-days", "48,0"},
                          "day must be >= 1");
  // --days 0 keeps the whole series; a negative day is an error, not a
  // silent "all days".
  expect_plain_user_error("fit", {"--csv", "sys1", "--days", "-4"},
                          "flag --days expects a non-negative integer, got -4");
}

TEST(CliUserErrors, EventualTotalBelowTheSeriesOrOverTheLimit) {
  // SYS1 records 136 bugs, so an eventual total below that would report a
  // negative actual residual; the sweep refuses it before any cell runs
  // and before --out creates a directory.
  const auto dir =
      std::filesystem::temp_directory_path() / "srm_cli_total_sweep";
  std::filesystem::remove_all(dir);
  const std::string below = "total must be >= the 136 bugs the series records";
  expect_plain_user_error(
      "sweep",
      {"--csv", "sys1", "--obs-days", "48", "--total", "-5", "--out",
       dir.string()},
      below);
  EXPECT_FALSE(std::filesystem::exists(dir));
  expect_plain_user_error(
      "sweep", {"--csv", "sys1", "--obs-days", "48", "--total", "135"}, below);
  expect_plain_user_error(
      "sweep", {"--csv", "sys1", "--obs-days", "48", "--total", "1000000001"},
      "total must be <= 1000000000");
}

TEST(CliUserErrors, ResumeOrBudgetWithoutOut) {
  expect_plain_user_error("sweep",
                          {"--csv", "sys1", "--obs-days", "48", "--resume"},
                          "--resume and --max-cells require --out DIR");
  expect_plain_user_error(
      "sweep", {"--csv", "sys1", "--obs-days", "48", "--max-cells", "4"},
      "--resume and --max-cells require --out DIR");
}

TEST(CliUserErrors, SimulateWithoutADetectionParameter) {
  expect_plain_user_error(
      "simulate", {"--days", "20", "--model", "model1", "--mu", "0.9"},
      "simulate with model1 requires --theta");
}

TEST(CliUserErrors, CsvFileThatCannotBeOpened) {
  const auto path =
      (std::filesystem::temp_directory_path() / "srm_no_such_series.csv")
          .string();
  expect_plain_user_error("fit", {"--csv", path},
                          "cannot open CSV file: " + path);
}

TEST(CliUserErrors, ReleaseArgumentsAreCheckedBeforeTheFit) {
  const std::vector<std::string> base = {"--csv", "ntds", "--iterations",
                                         "40", "--burn-in", "10"};
  const auto with = [&](const std::string& flag, const std::string& value) {
    auto flags = base;
    flags.push_back(flag);
    flags.push_back(value);
    return flags;
  };
  expect_plain_user_error("release", with("--horizon", "0"),
                          "horizon must be >= 1");
  expect_plain_user_error("release", with("--day-cost", "0"),
                          "day_cost must be > 0");
  expect_plain_user_error("release", with("--bug-cost", "-1"),
                          "bug_cost must be >= 0");
  // Nothing of the fit was printed before the error.
  EXPECT_EQ(run("release", with("--horizon", "0")).out, "");
}

TEST(CliUserErrors, SamplerSettingsAndHyperpriorLimits) {
  const std::vector<std::string> base = {"--csv", "sys1", "--days", "48"};
  const auto with = [&](const std::string& flag, const std::string& value) {
    auto flags = base;
    flags.push_back(flag);
    flags.push_back(value);
    return flags;
  };
  expect_plain_user_error("fit", with("--chains", "0"),
                          "gibbs.chains must be >= 1");
  expect_plain_user_error("fit", with("--iterations", "0"),
                          "gibbs.iterations must be >= 1");
  expect_plain_user_error("fit", with("--thin", "0"),
                          "gibbs.thin must be >= 1");
  expect_plain_user_error("fit", with("--lambda-max", "-1"),
                          "config.lambda_max must be > 0");
  expect_plain_user_error("fit", with("--theta-max", "0"),
                          "config.theta_max must be > 0");
  expect_plain_user_error("predict",
                          {"--csv", "sys1", "--fit-days", "40", "--thin", "0"},
                          "gibbs.thin must be >= 1");
  expect_plain_user_error("sweep", with("--chains", "0"),
                          "gibbs.chains must be >= 1");
  const std::string over_budget =
      "gibbs.chains x (gibbs.burn_in + gibbs.iterations x gibbs.thin) must "
      "be <= 1000000 Gibbs scans";
  expect_plain_user_error("fit", with("--iterations", "4000000000"),
                          over_budget);
  expect_plain_user_error("fit", with("--chains", "100000"), over_budget);
  expect_plain_user_error("select", with("--chains", "100000"), over_budget);
  expect_plain_user_error("release", with("--burn-in", "1000001"),
                          over_budget);
  expect_plain_user_error("sweep", with("--chains", "100000"), over_budget);
}

TEST(CliUserErrors, TooFewDrawsForTheDiagnostics) {
  const std::string geweke =
      "gibbs.iterations must be >= 40 to fit a cell (the Geweke "
      "diagnostic's first window needs 4 draws per chain)";
  for (const std::string iterations : {"10", "20", "39"}) {
    expect_plain_user_error("fit",
                            {"--csv", "sys1", "--days", "48", "--iterations",
                             iterations, "--burn-in", "10"},
                            geweke);
  }
  expect_plain_user_error("sweep",
                          {"--csv", "sys1", "--obs-days", "48",
                           "--iterations", "10", "--burn-in", "10"},
                          geweke);
  expect_plain_user_error("select",
                          {"--csv", "sys1", "--days", "48", "--chains", "2",
                           "--iterations", "12", "--burn-in", "10"},
                          "select needs --chains x --iterations >= 25 "
                          "posterior draws for PSIS-LOO");
  // The smallest accepted fit runs.
  const auto fit = run("fit", {"--csv", "sys1", "--days", "48",
                               "--iterations", "40", "--burn-in", "10"});
  EXPECT_EQ(fit.code, 0) << fit.err;
}

TEST(CliUserErrors, FailedSweepLeavesNoOutputDirectory) {
  // Every cell's settings are checked before the artifact store writes its
  // manifest, so a sweep that cannot run never creates --out DIR.
  const auto dir =
      std::filesystem::temp_directory_path() / "srm_cli_rejected_sweep";
  std::filesystem::remove_all(dir);
  expect_plain_user_error(
      "sweep", {"--smoke", "--out", dir.string(), "--iterations", "10"},
      "gibbs.iterations must be >= 40 to fit a cell (the Geweke "
      "diagnostic's first window needs 4 draws per chain)");
  expect_plain_user_error(
      "sweep", {"--smoke", "--out", dir.string(), "--chains", "100000"},
      "gibbs.chains x (gibbs.burn_in + gibbs.iterations x gibbs.thin) must "
      "be <= 1000000 Gibbs scans");
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(CliUserErrors, PredictAndReleaseNeedNoDiagnosticMinimum) {
  const auto predict =
      run("predict", {"--csv", "sys1", "--fit-days", "40", "--iterations",
                      "10", "--burn-in", "10"});
  EXPECT_EQ(predict.code, 0) << predict.err;
  const auto release =
      run("release", {"--csv", "sys1", "--days", "48", "--iterations", "10",
                      "--burn-in", "10"});
  EXPECT_EQ(release.code, 0) << release.err;
}

TEST(CliUserErrors, MalformedCsvFiles) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto write = [&](const std::string& name, const std::string& body) {
    const auto path = (dir / name).string();
    std::ofstream(path) << body;
    return path;
  };
  const auto bad_count = write("srm_bad_count.csv", "day,count\n1,3\n2,x\n");
  expect_plain_user_error("fit", {"--csv", bad_count},
                          "malformed count CSV cell: 'x'");
  const auto negative = write("srm_negative_count.csv", "1,3\n2,-1\n");
  expect_plain_user_error("fit", {"--csv", negative},
                          "malformed count CSV cell: '-1'");
  const auto one_cell = write("srm_one_cell.csv", "day,count\n1,3\n2\n");
  expect_plain_user_error("fit", {"--csv", one_cell},
                          "bug-count CSV rows must be 'day,count': " +
                              one_cell);
  const auto gap = write("srm_day_gap.csv", "1,3\n3,1\n");
  expect_plain_user_error("fit", {"--csv", gap},
                          "bug-count CSV days must be 1..k in order: " + gap);
  const auto header_only = write("srm_header_only.csv", "day,count\n");
  expect_plain_user_error("fit", {"--csv", header_only},
                          "bug-count CSV has no data rows: " + header_only);
  std::filesystem::remove(bad_count);
  std::filesystem::remove(negative);
  std::filesystem::remove(one_cell);
  std::filesystem::remove(gap);
  std::filesystem::remove(header_only);
}

/// Writes `body` to a temporary CSV file and returns its path.
std::string temp_csv(const std::string& name, const std::string& body) {
  const auto path = (std::filesystem::temp_directory_path() / name).string();
  std::ofstream(path) << body;
  return path;
}

/// A "day,count" CSV body of `days` rows, all zero but the first.
std::string csv_rows(std::size_t days, const std::string& first) {
  std::string body = "day,count\n1," + first + "\n";
  for (std::size_t day = 2; day <= days; ++day) {
    body += std::to_string(day) + ",0\n";
  }
  return body;
}

TEST(CliUserErrors, OversizedDaysHorizonsAndCountsArePlainErrors) {
  // Each of these once aborted on std::bad_alloc or leaked an SRM_EXPECTS
  // report; the days and bug limits now refuse them before any work.
  const std::string huge = "100000000000";
  for (const auto& days : {huge, std::string("10001")}) {
    expect_plain_user_error("fit", {"--csv", "sys1", "--days", days},
                            "day must be <= 10000");
    expect_plain_user_error("release", {"--csv", "sys1", "--horizon", days},
                            "horizon must be <= 10000");
    expect_plain_user_error("simulate", {"--mu", "0.5", "--days", days},
                            "days must be <= 10000");
    expect_plain_user_error("sweep", {"--csv", "sys1", "--obs-days", days},
                            "day must be <= 10000");
  }
  const auto dir =
      std::filesystem::temp_directory_path() / "srm_cli_oversized_sweep";
  std::filesystem::remove_all(dir);
  expect_plain_user_error("sweep",
                          {"--smoke", "--obs-days", "48," + huge, "--out",
                           dir.string()},
                          "day must be <= 10000");
  EXPECT_FALSE(std::filesystem::exists(dir));
  expect_plain_user_error("simulate", {"--mu", "0.5", "--bugs", "1000000001"},
                          "bugs must be <= 1000000000");

  const std::string too_many = "project counts must total <= 1000000000 bugs";
  const auto overflow =
      temp_csv("srm_overflow.csv", "day,count\n1,9223372036854775807\n2,5\n");
  expect_plain_user_error("fit", {"--csv", overflow}, too_many);
  const auto one_over =
      temp_csv("srm_one_over.csv", "day,count\n1,1000000000\n2,1\n");
  expect_plain_user_error("fit", {"--csv", one_over}, too_many);
  const auto too_long = temp_csv("srm_too_long.csv", csv_rows(10001, "3"));
  expect_plain_user_error("fit", {"--csv", too_long},
                          "project counts must span <= 10000 days");
  std::filesystem::remove(overflow);
  std::filesystem::remove(one_over);
  std::filesystem::remove(too_long);
}

TEST(CliUserErrors, LimitsAdmitTheirExactBoundary) {
  const std::vector<std::string> quick = {"--iterations", "40", "--burn-in",
                                          "10"};
  const auto with_quick = [&](std::vector<std::string> flags) {
    flags.insert(flags.end(), quick.begin(), quick.end());
    return flags;
  };
  const auto fit = run("fit", with_quick({"--csv", "sys1", "--days", "10000"}));
  EXPECT_EQ(fit.code, 0) << fit.err;
  EXPECT_NE(fit.out.find("(136 bugs / 10000 days)"), std::string::npos);
  const auto release =
      run("release", with_quick({"--csv", "sys1", "--horizon", "10000"}));
  EXPECT_EQ(release.code, 0) << release.err;
  EXPECT_NE(release.out.find("| 10096 "), std::string::npos);
  const auto simulate = run("simulate", {"--mu", "0.5", "--bugs", "1000000000",
                                         "--days", "10000"});
  EXPECT_EQ(simulate.code, 0) << simulate.err;
  EXPECT_EQ(simulate.out.rfind(
                "simulated 1000000000 of 1000000000 bugs over 10000 days", 0),
            0u);
  const auto at_total =
      temp_csv("srm_at_total.csv", "day,count\n1,999999999\n2,1\n");
  const auto at_days = temp_csv("srm_at_days.csv", csv_rows(10000, "3"));
  for (const auto& path : {at_total, at_days}) {
    const auto result = run("fit", with_quick({"--csv", path}));
    EXPECT_EQ(result.code, 0) << path << ": " << result.err;
    std::filesystem::remove(path);
  }
}

TEST(CliUserErrors, SimulateArgumentsAreCheckedBeforeTheRun) {
  expect_plain_user_error("simulate", {"--mu", "0.5", "--bugs", "-3"},
                          "bugs must be >= 0");
  expect_plain_user_error("simulate", {"--mu", "0.5", "--days", "0"},
                          "days must be >= 1");
  expect_plain_user_error("simulate", {"--mu", "0.5", "--days", "-2"},
                          "flag --days expects a non-negative integer, got -2");
  expect_plain_user_error("simulate", {"--mu", "1.5"},
                          "--mu must be in (0.0, 1.0)");
  expect_plain_user_error("simulate", {"--mu", "0"},
                          "--mu must be in (0.0, 1.0)");
  expect_plain_user_error(
      "simulate", {"--model", "model1", "--mu", "0.5", "--theta", "11"},
      "--theta must be in (0.0, 10.0)");
  expect_plain_user_error(
      "simulate", {"--model", "multinomial", "--shape", "0", "--scale", "0"},
      "--shape must be in (0.0, 20.0)");
}

TEST(CliUserErrors, MalformedObservationDay) {
  expect_plain_user_error("sweep", {"--csv", "sys1", "--obs-days", "48,x"},
                          "malformed count CSV cell: 'x'");
}

}  // namespace
