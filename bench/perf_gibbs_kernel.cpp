// Steady-state Gibbs kernel throughput and full-sweep wall time.
//
// Part 1 times single-chain steady-state scans (workspace-threaded
// BayesianSrm::update, collapsed scheme, full 96-day sys1 dataset) for every
// prior x detection-model pair of the paper grid and reports iters/sec.
// Part 2 re-times the pow/log-heavy heterogeneous models (model2..model4)
// with the SIMD detection kernels (GibbsOptions::vectorized) and reports
// the scalar-vs-vectorized speedup per cell.
// Part 3 runs the full paper sweep (2 priors x 5 models x 9 observation
// days) single-threaded in both modes and compares the scalar wall time
// against the pre-kernel baseline (63466.1 ms at threads=1).
//
// Output: a human-readable summary on stdout plus machine-readable JSON in
// BENCH_gibbs.json (or the path given as argv[1]).
//
//   --smoke       tiny iteration counts and a reduced sweep; exercises every
//                 code path (both modes included) in seconds for CI,
//                 numbers are not comparable
//   --threads N   worker threads for the sweep phase (default 1, matching
//                 the baseline). Requesting more threads than the machine
//                 has cores adds an oversubscription warning to the JSON.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/bayes_srm.hpp"
#include "core/detection_simd.hpp"
#include "core/model_family.hpp"
#include "data/datasets.hpp"
#include "mcmc/gibbs.hpp"
#include "random/rng.hpp"
#include "report/sweep.hpp"
#include "runtime/thread_pool.hpp"

namespace {

/// Single-thread full-sweep wall time of the pre-kernel implementation
/// (commit 72dd8dc, threads=1).
constexpr double kBaselineSweepWallMs = 63466.1;

struct KernelSample {
  std::string prior;
  int model_id = 0;
  double iters_per_sec = 0.0;
  double us_per_scan = 0.0;
};

/// A scalar/vectorized pair for one heterogeneous-model cell.
struct SimdSample {
  std::string prior;
  int model_id = 0;
  double scalar_us = 0.0;
  double vectorized_us = 0.0;
};

/// One registry cell: a family's selection-grid detection model, timed
/// through the make_model construction path every pipeline uses. Covers
/// the families outside the paper grid (the size-biased sampler has no
/// part-1 row) and cross-checks the reproduction cells against part 1.
struct FamilySample {
  std::string family;
  std::string model;
  double iters_per_sec = 0.0;
  double us_per_scan = 0.0;
};

FamilySample time_family_kernel(const srm::core::ModelFamily& family,
                                srm::core::DetectionModelKind kind,
                                const srm::data::BugCountData& data,
                                int warmup, int iters) {
  const auto model = srm::core::make_model(family.kind, kind, data, {});
  srm::random::Rng rng(42);
  auto state = model->initial_state(rng);
  const auto workspace = model->make_workspace();
  for (int i = 0; i < warmup; ++i) {
    model->update(state, rng, workspace.get());
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    model->update(state, rng, workspace.get());
  }
  const auto stop = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(stop - start).count();
  FamilySample s;
  s.family = family.id;
  s.model = srm::core::to_string(kind);
  s.iters_per_sec = static_cast<double>(iters) / sec;
  s.us_per_scan = 1e6 * sec / static_cast<double>(iters);
  return s;
}

KernelSample time_kernel(srm::core::PriorKind prior, int model_id,
                         const srm::data::BugCountData& data, int warmup,
                         int iters, bool vectorized = false) {
  const srm::core::BayesianSrm model(
      prior, static_cast<srm::core::DetectionModelKind>(model_id), data, {},
      vectorized);
  srm::random::Rng rng(42);
  auto state = model.initial_state(rng);
  const auto workspace = model.make_workspace();
  for (int i = 0; i < warmup; ++i) {
    model.update(state, rng, workspace.get());
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    model.update(state, rng, workspace.get());
  }
  const auto stop = std::chrono::steady_clock::now();
  const double sec = std::chrono::duration<double>(stop - start).count();
  KernelSample s;
  s.prior = srm::core::to_string(prior);
  s.model_id = model_id;
  s.iters_per_sec = static_cast<double>(iters) / sec;
  s.us_per_scan = 1e6 * sec / static_cast<double>(iters);
  return s;
}

double time_sweep(const srm::data::BugCountData& data,
                  const srm::report::SweepOptions& options,
                  std::size_t threads) {
  srm::runtime::ThreadPool::set_global_thread_count(threads);
  const auto start = std::chrono::steady_clock::now();
  const auto sweep = srm::report::run_sweep(data, options);
  const auto stop = std::chrono::steady_clock::now();
  srm::runtime::ThreadPool::set_global_thread_count(0);
  if (sweep.cells.size() != 10) {
    std::cerr << "sweep produced an unexpected cell count\n";
    std::exit(1);
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

std::string to_json(const std::vector<KernelSample>& kernel,
                    const std::vector<FamilySample>& families,
                    const std::vector<SimdSample>& simd,
                    bool smoke,
                    std::size_t sweep_threads, double sweep_wall_ms,
                    double simd_sweep_wall_ms,
                    const std::vector<std::string>& warnings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"benchmark\": \"gibbs_kernel\",\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "paper") << "\",\n"
      << "  \"hardware_concurrency\": "
      << srm::runtime::ThreadPool::default_thread_count() << ",\n"
      << "  \"kernel\": [\n";
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    const auto& k = kernel[i];
    out << "    {\"prior\": \"" << k.prior
        << "\", \"model\": " << k.model_id << ", \"iters_per_sec\": "
        << k.iters_per_sec << ", \"us_per_scan\": " << k.us_per_scan << "}"
        << (i + 1 < kernel.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"families\": [\n";
  for (std::size_t i = 0; i < families.size(); ++i) {
    const auto& s = families[i];
    out << "    {\"family\": \"" << s.family << "\", \"model\": \""
        << s.model << "\", \"iters_per_sec\": " << s.iters_per_sec
        << ", \"us_per_scan\": " << s.us_per_scan << "}"
        << (i + 1 < families.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"simd\": {\n"
      << "    \"isa\": \"" << srm::core::simd_kernels::isa_name() << "\",\n"
      << "    \"kernel\": [\n";
  for (std::size_t i = 0; i < simd.size(); ++i) {
    const auto& s = simd[i];
    out << "      {\"prior\": \"" << s.prior
        << "\", \"model\": " << s.model_id
        << ", \"scalar_us_per_scan\": " << s.scalar_us
        << ", \"vectorized_us_per_scan\": " << s.vectorized_us
        << ", \"speedup\": " << s.scalar_us / s.vectorized_us << "}"
        << (i + 1 < simd.size() ? "," : "") << "\n";
  }
  out << "    ],\n"
      << "    \"sweep\": {\"threads\": " << sweep_threads
      << ", \"scalar_wall_ms\": " << sweep_wall_ms
      << ", \"vectorized_wall_ms\": " << simd_sweep_wall_ms
      << ", \"speedup\": " << sweep_wall_ms / simd_sweep_wall_ms << "}\n"
      << "  },\n"
      << "  \"sweep\": {\"threads\": " << sweep_threads << ", \"wall_ms\": "
      << sweep_wall_ms;
  if (!smoke) {
    // Baseline and speedup only make sense at comparable scale.
    out << ", \"baseline_wall_ms\": " << kBaselineSweepWallMs
        << ", \"speedup\": " << kBaselineSweepWallMs / sweep_wall_ms;
  }
  out << "},\n"
      << "  \"warnings\": [";
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    out << "\"" << warnings[i] << "\""
        << (i + 1 < warnings.size() ? ", " : "");
  }
  out << "]\n}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string output_path = "BENCH_gibbs.json";
  bool smoke = false;
  std::size_t sweep_threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      sweep_threads = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg.rfind("--", 0) != 0) {
      output_path = arg;
    }
  }

  const auto data = srm::data::sys1_grouped();
  const int warmup = smoke ? 10 : 200;
  const int iters = smoke ? 100 : 3000;

  std::cout << "gibbs kernel throughput (mode=" << (smoke ? "smoke" : "paper")
            << ", dataset=sys1 " << data.days() << "d, collapsed scheme, "
            << iters << " timed scans)\n";

  std::vector<KernelSample> kernel;
  for (const auto prior : {srm::core::PriorKind::kPoisson,
                           srm::core::PriorKind::kNegativeBinomial}) {
    for (int model_id = 0; model_id <= 4; ++model_id) {
      const auto s = time_kernel(prior, model_id, data, warmup, iters);
      kernel.push_back(s);
      std::cout << "  prior=" << s.prior << " model=" << s.model_id << "  "
                << s.iters_per_sec << " iters/sec  (" << s.us_per_scan
                << " us/scan)\n";
    }
  }

  // Registry cells: every family's selection grid through make_model —
  // the construction path fit/select/sweep/serve use. The size-biased
  // family gets its steady-state cost on record here; the reproduction
  // rows double as a cross-check against the direct part-1 timings.
  std::cout << "registry families (make_model path, selection grids)\n";
  std::vector<FamilySample> families;
  for (const auto& entry : srm::core::model_families().families()) {
    for (const auto kind : entry.selection_models) {
      const auto s = time_family_kernel(entry, kind, data, warmup, iters);
      families.push_back(s);
      std::cout << "  family=" << s.family << " model=" << s.model << "  "
                << s.iters_per_sec << " iters/sec  (" << s.us_per_scan
                << " us/scan)\n";
    }
  }

  // The SIMD fork only reroutes the pow/log-heavy heterogeneous models;
  // model0/1 (and the extension models) never consult the flag.
  std::cout << "simd kernels (isa=" << srm::core::simd_kernels::isa_name()
            << ", --vectorized fork, models 2-4)\n";
  std::vector<SimdSample> simd;
  for (const auto prior : {srm::core::PriorKind::kPoisson,
                           srm::core::PriorKind::kNegativeBinomial}) {
    for (int model_id = 2; model_id <= 4; ++model_id) {
      SimdSample s;
      s.prior = srm::core::to_string(prior);
      s.model_id = model_id;
      for (const auto& k : kernel) {
        if (k.prior == s.prior && k.model_id == model_id) {
          s.scalar_us = k.us_per_scan;
        }
      }
      s.vectorized_us =
          time_kernel(prior, model_id, data, warmup, iters, true).us_per_scan;
      simd.push_back(s);
      std::cout << "  prior=" << s.prior << " model=" << s.model_id
                << "  scalar=" << s.scalar_us << " us/scan  vectorized="
                << s.vectorized_us << " us/scan  speedup="
                << s.scalar_us / s.vectorized_us << "x\n";
    }
  }

  std::vector<std::string> warnings;
  const std::size_t cores = srm::runtime::ThreadPool::default_thread_count();
  if (sweep_threads > cores) {
    std::ostringstream w;
    w << "requested " << sweep_threads << " sweep threads but "
      << "hardware_concurrency is " << cores
      << "; oversubscribed timings are not comparable";
    warnings.push_back(w.str());
    std::cout << "warning: " << w.str() << "\n";
  }

  auto options = srm::report::paper_sweep_options();
  if (smoke) {
    options.observation_days = {48, 96};
    options.gibbs.burn_in = 50;
    options.gibbs.iterations = 100;
  }
  const double sweep_wall_ms = time_sweep(data, options, sweep_threads);
  std::cout << "full sweep (scalar): threads=" << sweep_threads << "  wall="
            << sweep_wall_ms / 1000.0 << "s";
  if (!smoke) {
    std::cout << "  baseline=" << kBaselineSweepWallMs / 1000.0
              << "s  speedup=" << kBaselineSweepWallMs / sweep_wall_ms << "x";
  }
  std::cout << "\n";

  auto simd_options = options;
  simd_options.gibbs.vectorized = true;
  const double simd_sweep_wall_ms =
      time_sweep(data, simd_options, sweep_threads);
  std::cout << "full sweep (vectorized): threads=" << sweep_threads
            << "  wall=" << simd_sweep_wall_ms / 1000.0
            << "s  speedup-vs-scalar="
            << sweep_wall_ms / simd_sweep_wall_ms << "x\n";

  std::ofstream out(output_path);
  if (!out) {
    std::cerr << "cannot write " << output_path << "\n";
    return 1;
  }
  out << to_json(kernel, families, simd, smoke, sweep_threads,
                 sweep_wall_ms, simd_sweep_wall_ms, warnings);
  std::cout << "wrote " << output_path << "\n";
  return 0;
}
