// perfbench — runs one workload of the benchmark and prints its
// metrics. Normally started by perfbench/run.py, which builds it first.
//
//   perfbench --workload paper_sweep|cli_fleet|serve_zipf
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             --srm-cli PATH [--commit SHA] [--smoke]
//
// Untraced (--trace 0) the workload runs for about S seconds and the
// result line carries the end-to-end metrics. Traced (--trace 1) every
// layer is profiled from outside the program — the sweep, fleet and serve
// passes each time their layers' public calls — and the result line
// carries the per-layer metrics; the named workload additionally runs its
// untraced twin for trace.overhead_frac and trace.unaccounted_frac.
//
// Human-readable lines (fingerprint, per-workload metric names, exact
// counts, output digest, failed checks) come first; the last line of
// stdout is the JSON result. Exit code 0 when every output check passed,
// 1 when one failed, 2 on a usage error.
#include <cmath>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --srm-cli PATH [--commit SHA] "
               "[--smoke]\n";
  return 2;
}

std::string format(double value) { return srm::support::Json::format_double(value); }

void print_metrics(const char* kind, const std::vector<perfbench::Metric>& list) {
  for (const auto& m : list) {
    std::cout << kind << ' ' << m.name << " = " << format(m.value) << ' '
              << m.unit << '\n';
  }
}

/// Pool workers for a workload: pool workers plus the thread that joins
/// each task group (it computes too) make the compute threads, never more
/// than the machine's cores. serve_zipf keeps one more core for its load
/// generator, which must send on time while the service computes.
std::size_t workers_for(const std::string& workload) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t spare = workload == "serve_zipf" ? 2 : 1;
  return cores > spare ? cores - spare : 1;
}

/// Runs `pass` with the pool sized for `workload`.
template <typename Pass>
void with_pool(Options options, const std::string& workload, Pass pass) {
  options.workers = workers_for(workload);
  srm::runtime::ThreadPool::set_global_thread_count(options.workers);
  pass(options);
}

Report run_traced(const Options& options) {
  Report out;
  perfbench::TraceOverhead overhead;
  const auto mine = [&](const char* name) {
    return options.workload == name ? &overhead : nullptr;
  };
  with_pool(options, "paper_sweep", [&](const Options& o) {
    perfbench::trace_paper_sweep(o, out, mine("paper_sweep"));
  });
  with_pool(options, "cli_fleet", [&](const Options& o) {
    perfbench::trace_cli_fleet(o, out, mine("cli_fleet"));
  });
  with_pool(options, "serve_zipf", [&](const Options& o) {
    perfbench::trace_serve_zipf(o, out, mine("serve_zipf"));
  });
  out.metric("trace.overhead_frac",
             overhead.traced_s / overhead.untraced_s - 1.0, "frac");
  out.metric("trace.unaccounted_frac", overhead.unaccounted_frac, "frac");
  out.info("trace.traced_s", overhead.traced_s, "s");
  out.info("trace.untraced_s", overhead.untraced_s, "s");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // A service that dies mid-run must surface as a failed check, not kill
  // the load generator on its next write.
  std::signal(SIGPIPE, SIG_IGN);

  Options options;
  std::string trace = "0";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--srm-cli") {
        options.srm_cli = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  options.trace = trace == "1";
  if (options.workload != "paper_sweep" && options.workload != "cli_fleet" &&
      options.workload != "serve_zipf") {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (options.work_dir.empty() || options.srm_cli.empty() ||
      !(options.seconds > 0.0)) {
    return usage("--work-dir, --srm-cli and a positive --seconds are required");
  }

  options.workers = workers_for(options.workload);
  srm::runtime::ThreadPool::set_global_thread_count(options.workers);
  std::filesystem::create_directories(options.work_dir);

  Report report;
  try {
    if (options.trace) {
      report = run_traced(options);
    } else if (options.workload == "paper_sweep") {
      report = perfbench::run_paper_sweep(options);
    } else if (options.workload == "cli_fleet") {
      report = perfbench::run_cli_fleet(options);
    } else {
      report = perfbench::run_serve_zipf(options);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    std::filesystem::remove_all(options.work_dir);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir);

  std::cout << "# perfbench " << options.workload << " seed=" << options.seed
            << " seconds=" << format(options.seconds) << " trace=" << trace
            << (options.smoke ? " smoke" : "") << '\n';
  for (const auto& [key, value] : perfbench::fingerprint(options)) {
    std::cout << "fingerprint " << key << " = " << value << '\n';
  }
  print_metrics("detail", report.detail);
  for (const auto& [name, value] : report.counts) {
    std::cout << "count " << name << " = " << value << '\n';
  }
  for (const auto& note : report.notes) std::cout << note << '\n';
  const double failed_frac =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::cout << "detail failed_frac = " << format(failed_frac) << " frac\n";
  std::cout << "digest " << report.digest << " (information only)\n";
  for (const auto& failure : report.failures) {
    std::cout << "FAILED " << failure << '\n';
  }
  print_metrics("metric", report.metrics);

  // The result line is strict JSON: a metric that came out non-finite is
  // a failed check, reported as 0.
  for (auto& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::cout << "FAILED metric " << m.name << " is not finite\n";
      ++report.failed;
      m.value = 0.0;
    }
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  srm::support::Json metrics = srm::support::Json::Object{};
  for (const auto& m : report.metrics) {
    srm::support::Json entry = srm::support::Json::Object{};
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  srm::support::Json result = srm::support::Json::Object{};
  result.set("correct", correct);
  result.set("attempted", srm::support::Json::from_unsigned(report.attempted));
  result.set("failed", srm::support::Json::from_unsigned(report.failed));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}
