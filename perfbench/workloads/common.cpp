#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

namespace perfbench {

McmcScale mcmc_scale(const Options& options) {
  if (options.smoke) return {2, 20, 60};
  return {};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
}

void Report::checks(std::uint64_t total, std::uint64_t bad,
                    const std::string& what) {
  attempted += total;
  failed += bad;
  if (bad > 0 && failures.size() < 20) {
    failures.push_back(std::to_string(bad) + "/" + std::to_string(total) +
                       " " + what);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {
double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}
}  // namespace

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_s(usage.ru_utime) + timeval_s(usage.ru_stime);
}

double process_peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t state) {
  for (const char c : bytes) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ULL;
  }
  return state;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t directory_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::vector<std::pair<std::string, std::string>> fingerprint(
    const Options& options) {
#if defined(__AVX2__)
  const char* baseline_isa = "AVX2";
#elif defined(__SSE2__)
  const char* baseline_isa = "SSE2";
#elif defined(__aarch64__)
  const char* baseline_isa = "NEON";
#else
  const char* baseline_isa = "scalar";
#endif
  // SRM_SIMD=ON widens only the kernel TUs to AVX2 (src/core/CMakeLists.txt);
  // every other TU, this one included, keeps the baseline backend.
  const std::string lane_isa =
      std::string(PERFBENCH_LANE_AVX2) == "ON" ? "AVX2" : baseline_isa;
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"pool_workers", std::to_string(options.workers)},
      {"compute_threads", std::to_string(options.workers + 1)},
      {"lane_isa", lane_isa},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"SRM_SIMD", PERFBENCH_SRM_SIMD},
      {"compiler", PERFBENCH_COMPILER},
      {"commit", options.commit},
  };
}

bool keep_going(Clock::time_point run_start, double seconds,
                const std::vector<double>& unit_seconds) {
  if (unit_seconds.empty()) return true;
  return seconds_since(run_start) + 0.5 * median(unit_seconds) < seconds;
}

void add_common_metrics(Report& out, double setup_s,
                        const std::vector<double>& cpu_s, double peak_rss_mib) {
  out.metric("setup_s", setup_s, "s");
  out.metric("cpu_s", median(cpu_s), "s");
  out.metric("peak_rss_mib", peak_rss_mib, "MiB");
}

}  // namespace perfbench
