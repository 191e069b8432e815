// Grouped software bug-count data: x_i bugs detected on testing day i.
//
// This is the data type every SRM in the library consumes (the paper's
// Section 2.1: group data x = {x_1, ..., x_k}, cumulative s_i).
// It also implements the two dataset manipulations of the experimental
// protocol (Section 5.1): truncation at an observation point and the
// "virtual testing" zero-count extension after release.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace srm::data {

/// Most days a series, an observation day or a release horizon may span:
/// about 27 years of daily testing, 68x the paper's last observation day
/// (146). Bounds every per-day allocation a user value can ask for.
inline constexpr std::size_t kMaxDays = 10'000;

/// Most bugs a series may total (and a simulation may start from), so no
/// cumulative count can overflow std::int64_t.
inline constexpr std::int64_t kMaxBugs = 1'000'000'000;

class BugCountData {
 public:
  /// `daily_counts[i]` is the number of bugs found on day i+1. Throws
  /// srm::InvalidArgument, with a plain message, unless there are 1 to
  /// kMaxDays days, every count is >= 0 and they total at most kMaxBugs.
  BugCountData(std::string name, std::vector<std::int64_t> daily_counts);

  /// Loads "day,count" CSV rows (header optional, '#' comments allowed).
  /// Days must be 1..k in order.
  static BugCountData from_csv_file(const std::string& path,
                                    const std::string& name = "csv");

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Number of testing days k.
  [[nodiscard]] std::size_t days() const { return counts_.size(); }
  /// Daily counts x_1..x_k (index 0 = day 1).
  [[nodiscard]] std::span<const std::int64_t> counts() const {
    return counts_;
  }
  /// x_i for 1-based day i.
  [[nodiscard]] std::int64_t count_on_day(std::size_t day) const;
  /// Cumulative counts s_1..s_k (index 0 = day 1).
  [[nodiscard]] std::span<const std::int64_t> cumulative() const {
    return cumulative_;
  }
  /// s_i for 1-based day i; s_0 = 0.
  [[nodiscard]] std::int64_t cumulative_through(std::size_t day) const;
  /// s_k — total bugs detected.
  [[nodiscard]] std::int64_t total() const {
    return cumulative_.empty() ? 0 : cumulative_.back();
  }

  /// The first `day` days (an observation point mid-testing).
  [[nodiscard]] BugCountData truncated(std::size_t day) const;

  /// Virtual testing (Section 5.1): extends the series with zero-count days
  /// until it spans `total_days` days, modeling the hypothesis that no bug
  /// is found after release.
  [[nodiscard]] BugCountData with_virtual_testing(std::size_t total_days) const;

 private:
  std::string name_;
  std::vector<std::int64_t> counts_;
  std::vector<std::int64_t> cumulative_;
};

}  // namespace srm::data
