// Shared plumbing of the benchmark program: run options, the result record
// every workload fills, order statistics, process resource usage and the
// machine/build fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny MCMC settings and inputs; used by the benchmark's self-test only.
  bool smoke = false;
  /// Scratch directory inside the checkout; every artifact and store of a
  /// run lives below it and it is removed when the run ends.
  std::filesystem::path work_dir;
  /// The srm_cli binary built next to this program (serve_zipf spawns it).
  std::filesystem::path srm_cli;
  std::string commit = "unknown";
  /// Pool workers; the thread that joins a task group also computes, so a
  /// workload runs workers + 1 compute threads.
  std::size_t workers = 1;
};

/// MCMC settings of every workload: the paper's 2 chains x (500 burn-in +
/// 2500 retained), or a tiny configuration for the self-test.
struct McmcScale {
  std::size_t chains = 2;
  std::size_t burn_in = 500;
  std::size_t iterations = 2500;
};
McmcScale mcmc_scale(const Options& options);

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `metrics` are the benchmark contract's
/// names (end-to-end when untraced, per-layer when traced); `detail`
/// carries the per-workload metric names and exact counts printed above the
/// result line; `digest` fingerprints the outputs (information only).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> notes;
  std::string digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void info(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a false `ok` is a failure.
  void check(bool ok, const std::string& what);
  /// Counts `total` checked operations of which `bad` failed.
  void checks(std::uint64_t total, std::uint64_t bad, const std::string& what);
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sorted-sample quantile with linear interpolation (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// User + system CPU seconds of this process (all threads).
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process, MiB.
[[nodiscard]] double process_peak_rss_mib();

/// FNV-1a over `bytes`, continuing from `state`, as 16 hex digits.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t state = 1469598103934665603ULL);
[[nodiscard]] std::string hex(std::uint64_t value);

/// Total size of the regular files below `dir`.
[[nodiscard]] std::uint64_t directory_bytes(const std::filesystem::path& dir);

/// Machine and build fingerprint lines ("key: value").
[[nodiscard]] std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& options);

/// Whether a time-boxed run starts another unit of work: always the first,
/// then while at least half a unit (the median so far) of the budget is
/// left, so a run ends within half a unit of `seconds`.
[[nodiscard]] bool keep_going(Clock::time_point run_start, double seconds,
                              const std::vector<double>& unit_seconds);

/// One block of set-ups for setup_s: `per_block` calls of `set_up()`, each
/// followed by an untimed `tear_down()` that removes what it wrote (file
/// data left to pile up makes the kernel throttle writers, so later
/// set-ups would pay for earlier ones). Returns the mean set-up time. A
/// workload runs one block before each unit of work and reports the median
/// over blocks: the blocks sample the whole run, not just its first
/// moments, and one block covers many sub-millisecond set-ups, so jitter
/// on single ones averages out.
template <typename SetUp, typename TearDown>
[[nodiscard]] double setup_block_seconds(std::size_t per_block, SetUp set_up,
                                         TearDown tear_down) {
  double total = 0.0;
  for (std::size_t r = 0; r < per_block; ++r) {
    const auto start = Clock::now();
    set_up();
    total += seconds_since(start);
    tear_down();
  }
  return total / static_cast<double>(per_block);
}

/// setup_s, cpu_s (median per unit of work) and peak_rss_mib.
void add_common_metrics(Report& out, double setup_s,
                        const std::vector<double>& cpu_s, double peak_rss_mib);

}  // namespace perfbench
