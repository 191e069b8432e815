// End-to-end tests of the CLI subcommands (via the dispatch function, so
// the binary's plumbing is covered without spawning processes).
#include "cli/commands.hpp"

#include <filesystem>
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

TEST(Cli, FitOutputIdenticalWithAndWithoutKeepTraces) {
  // The streaming pipeline's bit-identity contract, end to end: fit's
  // default streaming mode and --keep-traces must render byte-identical
  // reports.
  const std::vector<std::string> base{"--csv",  "sys1",       "--days",
                                      "48",     "--model",    "model1",
                                      "--iterations", "400",  "--burn-in",
                                      "100"};
  auto with = base;
  with.push_back("--keep-traces");
  const auto streamed = run("fit", base);
  const auto stored = run("fit", with);
  EXPECT_EQ(streamed.code, 0) << streamed.err;
  EXPECT_EQ(stored.code, 0) << stored.err;
  EXPECT_EQ(streamed.out, stored.out);
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
  expect_plain_user_error("predict", {"--csv", "sys1", "--fit-days", "0"},
                          "--fit-days must be a strict prefix of the series");
}

TEST(CliUserErrors, ZeroObservationDay) {
  expect_plain_user_error("sweep", {"--csv", "sys1", "--obs-days", "48,0"},
                          "--obs-days entries must be positive");
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
                          "--horizon must be >= 1");
  expect_plain_user_error("release", with("--day-cost", "0"),
                          "--day-cost must be > 0");
  expect_plain_user_error("release", with("--bug-cost", "-1"),
                          "--bug-cost must be >= 0");
  // Nothing of the fit was printed before the error.
  EXPECT_EQ(run("release", with("--horizon", "0")).out, "");
}

}  // namespace
