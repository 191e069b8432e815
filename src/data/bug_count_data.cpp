#include "data/bug_count_data.hpp"

#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::data {

BugCountData::BugCountData(std::string name,
                           std::vector<std::int64_t> daily_counts)
    : name_(std::move(name)), counts_(std::move(daily_counts)) {
  // Built once: every series (each truncation and padding included) runs
  // these checks, the last one once per day.
  static const std::string too_long =
      "project counts must span <= " + support::dec(kMaxDays) + " days";
  static const std::string too_many =
      "project counts must total <= " + support::dec(kMaxBugs) + " bugs";
  require_input(!counts_.empty(), "project counts must not be empty");
  require_input(counts_.size() <= kMaxDays, too_long);
  cumulative_.reserve(counts_.size());
  std::int64_t running = 0;
  for (const std::int64_t x : counts_) {
    require_input(x >= 0, "project counts must be >= 0");
    // running <= kMaxBugs, so neither side of the test can overflow.
    require_input(x <= kMaxBugs - running, too_many);
    running += x;
    cumulative_.push_back(running);
  }
}

BugCountData BugCountData::from_csv_file(const std::string& path,
                                         const std::string& name) {
  const auto rows = support::read_csv_file(path);
  require_input(!rows.empty(), "empty bug-count CSV: " + path);
  std::vector<std::int64_t> counts;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    require_input(row.size() == 2,
                  "bug-count CSV rows must be 'day,count': " + path);
    if (r == 0) {
      // Optional header row: skip if the first cell is not numeric.
      bool numeric = !row[0].empty();
      for (const char c : row[0]) numeric = numeric && (c >= '0' && c <= '9');
      if (!numeric) continue;
    }
    const long long day = support::parse_count(row[0]);
    require_input(static_cast<std::size_t>(day) == counts.size() + 1,
                  "bug-count CSV days must be 1..k in order: " + path);
    counts.push_back(support::parse_count(row[1]));
  }
  require_input(!counts.empty(), "bug-count CSV has no data rows: " + path);
  return BugCountData(name, std::move(counts));
}

std::int64_t BugCountData::count_on_day(std::size_t day) const {
  SRM_EXPECTS(day >= 1 && day <= counts_.size(),
              "count_on_day requires 1 <= day <= k");
  return counts_[day - 1];
}

std::int64_t BugCountData::cumulative_through(std::size_t day) const {
  SRM_EXPECTS(day <= counts_.size(),
              "cumulative_through requires day <= k");
  return day == 0 ? 0 : cumulative_[day - 1];
}

BugCountData BugCountData::truncated(std::size_t day) const {
  SRM_EXPECTS(day >= 1 && day <= counts_.size(),
              "truncated requires 1 <= day <= k");
  return BugCountData(
      name_ + "@" + support::dec(day),
      std::vector<std::int64_t>(counts_.begin(),
                                counts_.begin() + static_cast<long>(day)));
}

BugCountData BugCountData::with_virtual_testing(std::size_t total_days) const {
  SRM_EXPECTS(total_days >= counts_.size(),
              "with_virtual_testing cannot shrink the series");
  std::vector<std::int64_t> extended(counts_.begin(), counts_.end());
  extended.resize(total_days, 0);
  return BugCountData(name_ + "+vt" + support::dec(total_days),
                      std::move(extended));
}

}  // namespace srm::data
