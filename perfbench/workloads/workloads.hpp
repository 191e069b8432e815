// The three workloads and their traced passes.
#pragma once

#include <vector>

#include "common.hpp"

namespace perfbench {

/// Untraced runs: each fills the end-to-end metrics of the benchmark
/// contract (setup_s, cpu_s, peak_rss_mib, ops_per_s, op_ms.p50,
/// op_ms.p99), the per-workload detail names and exact counts.
Report run_paper_sweep(const Options& options);
Report run_cli_fleet(const Options& options);
Report run_serve_zipf(const Options& options);

/// What the named workload's traced pass measured against its own
/// untraced twin, for trace.overhead_frac and trace.unaccounted_frac.
struct TraceOverhead {
  double traced_s = 0.0;
  double untraced_s = 0.0;
  double unaccounted_frac = 0.0;
};

/// Traced passes: each adds its layers' metrics to `out`. `overhead` is
/// non-null for the pass of the workload named on the command line, which
/// then also runs its untraced twin.
void trace_paper_sweep(const Options& options, Report& out,
                       TraceOverhead* overhead);
void trace_cli_fleet(const Options& options, Report& out,
                     TraceOverhead* overhead);
void trace_serve_zipf(const Options& options, Report& out,
                      TraceOverhead* overhead);

}  // namespace perfbench
