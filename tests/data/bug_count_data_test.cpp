// Tests for the grouped bug-count data type and its experimental-protocol
// manipulations (truncation, virtual-testing padding, CSV loading).
#include "data/bug_count_data.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

using srm::data::BugCountData;

TEST(BugCountData, CumulativeBookkeeping) {
  const BugCountData data("t", {2, 0, 3, 1});
  EXPECT_EQ(data.days(), 4u);
  EXPECT_EQ(data.total(), 6);
  EXPECT_EQ(data.count_on_day(1), 2);
  EXPECT_EQ(data.count_on_day(3), 3);
  EXPECT_EQ(data.cumulative_through(0), 0);
  EXPECT_EQ(data.cumulative_through(2), 2);
  EXPECT_EQ(data.cumulative_through(4), 6);
}

TEST(BugCountData, RejectsInvalidInput) {
  EXPECT_THROW(BugCountData("t", {}), srm::InvalidArgument);
  EXPECT_THROW(BugCountData("t", {1, -2}), srm::InvalidArgument);
}

/// The message a rejected series carries ("" if it is accepted).
std::string rejection(std::vector<std::int64_t> counts) {
  try {
    (void)BugCountData("t", std::move(counts));
  } catch (const srm::InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(BugCountData, DaysAndBugLimitsAreExactBoundaries) {
  using srm::data::kMaxBugs;
  using srm::data::kMaxDays;
  EXPECT_EQ(rejection(std::vector<std::int64_t>(kMaxDays, 1)), "");
  EXPECT_EQ(rejection(std::vector<std::int64_t>(kMaxDays + 1, 0)),
            "project counts must span <= 10000 days");
  EXPECT_EQ(rejection({kMaxBugs}), "");
  EXPECT_EQ(rejection({kMaxBugs - 1, 1}), "");
  EXPECT_EQ(rejection({kMaxBugs, 1}),
            "project counts must total <= 1000000000 bugs");
  // A total past int64 is refused before the running sum can overflow.
  EXPECT_EQ(rejection({INT64_MAX, 5}),
            "project counts must total <= 1000000000 bugs");
  EXPECT_EQ(rejection({5, INT64_MAX}),
            "project counts must total <= 1000000000 bugs");
}

TEST(BugCountData, DayAccessorsValidateRange) {
  const BugCountData data("t", {1, 2});
  EXPECT_THROW((void)data.count_on_day(0), srm::InvalidArgument);
  EXPECT_THROW((void)data.count_on_day(3), srm::InvalidArgument);
  EXPECT_THROW((void)data.cumulative_through(3), srm::InvalidArgument);
}

TEST(BugCountData, TruncatedKeepsPrefix) {
  const BugCountData data("t", {2, 0, 3, 1});
  const auto prefix = data.truncated(2);
  EXPECT_EQ(prefix.days(), 2u);
  EXPECT_EQ(prefix.total(), 2);
  EXPECT_EQ(prefix.count_on_day(2), 0);
  EXPECT_THROW(data.truncated(0), srm::InvalidArgument);
  EXPECT_THROW(data.truncated(5), srm::InvalidArgument);
}

TEST(BugCountData, VirtualTestingPadsZeros) {
  const BugCountData data("t", {2, 1});
  const auto padded = data.with_virtual_testing(5);
  EXPECT_EQ(padded.days(), 5u);
  EXPECT_EQ(padded.total(), 3);
  EXPECT_EQ(padded.count_on_day(3), 0);
  EXPECT_EQ(padded.count_on_day(5), 0);
  EXPECT_EQ(padded.cumulative_through(5), 3);
  // Same length is a no-op; shrinking is rejected.
  EXPECT_EQ(data.with_virtual_testing(2).days(), 2u);
  EXPECT_THROW(data.with_virtual_testing(1), srm::InvalidArgument);
}

TEST(BugCountData, TruncateThenPadComposition) {
  const BugCountData data("t", {1, 2, 3, 4});
  const auto window = data.truncated(2).with_virtual_testing(6);
  EXPECT_EQ(window.days(), 6u);
  EXPECT_EQ(window.total(), 3);
}

TEST(BugCountData, CsvRoundTripWithHeader) {
  const auto path =
      (std::filesystem::temp_directory_path() / "srm_bugs_test.csv").string();
  {
    std::ofstream out(path);
    out << "day,count\n# comment\n1,4\n2,0\n3,2\n";
  }
  const auto data = BugCountData::from_csv_file(path, "csv-test");
  EXPECT_EQ(data.days(), 3u);
  EXPECT_EQ(data.total(), 6);
  EXPECT_EQ(data.name(), "csv-test");
  std::filesystem::remove(path);
}

TEST(BugCountData, CsvWithoutHeader) {
  const auto path =
      (std::filesystem::temp_directory_path() / "srm_bugs_test2.csv")
          .string();
  {
    std::ofstream out(path);
    out << "1,4\n2,1\n";
  }
  EXPECT_EQ(BugCountData::from_csv_file(path).total(), 5);
  std::filesystem::remove(path);
}

TEST(BugCountData, CsvRejectsOutOfOrderDays) {
  const auto path =
      (std::filesystem::temp_directory_path() / "srm_bugs_bad.csv").string();
  {
    std::ofstream out(path);
    out << "1,4\n3,1\n";
  }
  EXPECT_THROW(BugCountData::from_csv_file(path), srm::InvalidArgument);
  std::filesystem::remove(path);
}

}  // namespace
