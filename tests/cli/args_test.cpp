// Tests for the CLI flag parser.
#include "cli/args.hpp"

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.hpp"
#include "support/error.hpp"

namespace {

using srm::cli::Args;

TEST(Args, ParsesValuesAndSwitches) {
  const auto args = Args::parse({"--csv", "file.csv", "--jeffreys",
                                 "--days", "48"});
  EXPECT_EQ(args.require_string("csv"), "file.csv");
  EXPECT_TRUE(args.has("jeffreys"));
  EXPECT_EQ(args.get_int("days", 0), 48);
  EXPECT_TRUE(args.unused().empty());
}

TEST(Args, FallbacksWhenAbsent) {
  const auto args = Args::parse({});
  EXPECT_EQ(args.get_string("prior", "poisson"), "poisson");
  EXPECT_DOUBLE_EQ(args.get_double("lambda-max", 2000.0), 2000.0);
  EXPECT_EQ(args.get_int("chains", 2), 2);
  EXPECT_FALSE(args.has("anything"));
}

TEST(Args, NumericValidation) {
  const auto args = Args::parse({"--days", "abc", "--rate", "1.5"});
  EXPECT_THROW((void)args.get_int("days", 0), srm::InvalidArgument);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 1.5);
}

TEST(Args, GetSizeParsesNonNegativeCounts) {
  const auto args = Args::parse({"--threads", "4", "--zero", "0"});
  EXPECT_EQ(args.get_size("threads", 1), 4u);
  EXPECT_EQ(args.get_size("zero", 1), 0u);
  EXPECT_EQ(args.get_size("absent", 7), 7u);
}

TEST(Args, GetSizeRejectsNegativeValues) {
  const auto args = Args::parse({"--threads", "-2"});
  EXPECT_THROW((void)args.get_size("threads", 0), srm::InvalidArgument);
}

TEST(Args, KeepTracesIsABooleanSwitch) {
  const auto with = Args::parse({"--keep-traces", "--chains", "4"});
  EXPECT_TRUE(with.has("keep-traces"));
  EXPECT_EQ(with.get_size("chains", 2), 4u);
  EXPECT_TRUE(with.unused().empty());
  const auto without = Args::parse({"--chains", "4"});
  EXPECT_FALSE(without.has("keep-traces"));
}

TEST(Args, ThinParsesAsPositiveCount) {
  const auto args = Args::parse({"--thin", "5"});
  EXPECT_EQ(args.get_size("thin", 1), 5u);
  EXPECT_TRUE(args.unused().empty());
  const auto absent = Args::parse({});
  EXPECT_EQ(absent.get_size("thin", 1), 1u);
  const auto negative = Args::parse({"--thin", "-3"});
  EXPECT_THROW((void)negative.get_size("thin", 1), srm::InvalidArgument);
}

TEST(Args, RequiredFlagMissingThrows) {
  const auto args = Args::parse({"--other", "x"});
  EXPECT_THROW(args.require_string("csv"), srm::InvalidArgument);
}

TEST(Args, MalformedTokensThrow) {
  EXPECT_THROW(Args::parse({"positional"}), srm::InvalidArgument);
  EXPECT_THROW(Args::parse({"--dup", "1", "--dup", "2"}),
               srm::InvalidArgument);
  EXPECT_THROW(Args::parse({"--"}), srm::InvalidArgument);
}

// Message of the srm::InvalidArgument `action` throws ("" if none).
std::string invalid_argument_message(const std::function<void()>& action) {
  try {
    action();
  } catch (const srm::InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(Args, FlagErrorsAreUserErrorsNotContractViolations) {
  // Flag mistakes come from the user: the message names the flag and
  // carries no contract decoration (macro name, condition, source path).
  const std::vector<std::pair<std::string, std::function<void()>>> cases = {
      {"missing required flag --csv",
       [] { (void)Args::parse({}).require_string("csv"); }},
      {"expected a --flag, got 'positional'",
       [] { (void)Args::parse({"positional"}); }},
      {"empty flag name", [] { (void)Args::parse({"--"}); }},
      {"duplicate flag --dup",
       [] { (void)Args::parse({"--dup", "1", "--dup", "2"}); }},
      {"flag --rate expects a number, got 'fast'",
       [] { (void)Args::parse({"--rate", "fast"}).get_double("rate", 0.0); }},
      {"flag --days expects an integer, got '4.5'",
       [] { (void)Args::parse({"--days", "4.5"}).get_int("days", 0); }},
      {"flag --threads expects a non-negative integer, got -2",
       [] { (void)Args::parse({"--threads", "-2"}).get_size("threads", 0); }},
  };
  for (const auto& [expected, action] : cases) {
    const std::string message = invalid_argument_message(action);
    EXPECT_EQ(message, expected);
    EXPECT_EQ(message.find("SRM_EXPECTS"), std::string::npos) << message;
    EXPECT_EQ(message.find('/'), std::string::npos) << message;
  }
}

TEST(Args, FitWithoutCsvPrintsThePlainFlagError) {
  // `fit --help` prints the usage instead (Cli.HelpPrintsUsageForEveryCommand).
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(srm::cli::dispatch("fit", {}, out, err), 2);
  EXPECT_EQ(err.str(), "error: missing required flag --csv\n");
  EXPECT_EQ(err.str().find("SRM_EXPECTS"), std::string::npos);
  EXPECT_EQ(err.str().find('/'), std::string::npos);
}

TEST(Args, UnusedTracksUnreadFlags) {
  const auto args = Args::parse({"--read", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("read", 0), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

}  // namespace
