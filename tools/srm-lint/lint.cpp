// Analyzer driver: the rule registry and the pass orchestration. The whole
// tree is read exactly once into a FileSet; every pass (include graph,
// token rules) shares that snapshot.
#include "lint.hpp"

#include <algorithm>
#include <tuple>

#include "passes.hpp"

namespace srm::lint {

const std::vector<RuleInfo>& registered_rules() {
  static const std::vector<RuleInfo> kRules = {
      // Include-graph pass.
      {"layer-dag",
       "module includes must point strictly down the layer DAG declared in "
       "layers.txt; back-edges, same-layer includes and undeclared modules "
       "are build-breaking",
       PassKind::kIncludeGraph,
       "include/backedge",
       {}},
      {"include-cycle",
       "the file-level include graph must be acyclic; cycles are reported "
       "with the offending path",
       PassKind::kIncludeGraph,
       "include/cycle",
       {}},
      // Numerical/style contracts.
      {"banned-random",
       "no std::rand/srand or the *rand48 family; only srm::random "
       "generators are reproducible and seedable per chain",
       PassKind::kToken,
       "violations",
       {}},
      {"log-domain",
       "no tgamma and no exp(lgamma(...)) in core/ or stats/; likelihood "
       "code stays in the log domain",
       PassKind::kToken,
       "violations",
       {"core/", "stats/"}},
      {"iostream",
       "no std::cout/std::cerr outside cli/, report/ and serve/",
       PassKind::kToken,
       "violations",
       {"cli/", "report/", "serve/"}},
      {"family-dispatch",
       "no PriorKind/DetectionModelKind enumerator dispatch outside core/; "
       "per-family behavior lives in the model-family registry "
       "(core/model_family.hpp)",
       PassKind::kToken,
       "violations",
       {"core/"}},
      {"float-compare",
       "no floating ==/!= against literals outside support/fp.hpp",
       PassKind::kToken,
       "violations",
       {"support/fp.hpp"}},
      {"raw-thread",
       "no std::thread/std::jthread/std::async outside runtime/",
       PassKind::kToken,
       "violations",
       {"runtime/"}},
      {"hot-std-function",
       "no std::function in mcmc/ or core/; take support::function_ref",
       PassKind::kToken,
       "violations",
       {"mcmc/", "core/"}},
      {"expects",
       "public numeric functions in core/ and stats/ carry an SRM_EXPECTS "
       "precondition",
       PassKind::kToken,
       "violations",
       {"core/", "stats/"}},
      {"nested-vector-matrix",
       "no std::vector<std::vector<...>> in core/ or report/; use the flat "
       "support::Matrix",
       PassKind::kToken,
       "violations",
       {"core/", "report/"}},
      {"adhoc-serialization",
       "no stream-insertion operator<< outside report/ and artifact/",
       PassKind::kToken,
       "violations",
       {"report/", "artifact/"}},
      // Determinism rules (bit-identity contract).
      {"unordered-output",
       "no std::unordered_map/std::unordered_set in artifact/, report/, "
       "cli/ or serve/; hash iteration order is nondeterministic and those "
       "layers feed serialized output",
       PassKind::kToken,
       "violations",
       {"artifact/", "report/", "cli/", "serve/"}},
      {"wallclock",
       "no std::random_device, std::chrono::system_clock, monotonic clocks "
       "or C time sources outside random/; serve/metrics.cpp is the one "
       "sanctioned monotonic read (latency-stats path only)",
       PassKind::kToken,
       "violations",
       {"random/", "serve/metrics.cpp"}},
      {"pointer-order",
       "no pointer-keyed std::map/std::set; pointer order is allocation "
       "order and varies run to run",
       PassKind::kToken,
       "violations",
       {}},
      {"locale-format",
       "no std::to_string/setlocale/std::locale outside support/; use the "
       "to_chars-backed support::dec / support::fixed",
       PassKind::kToken,
       "violations",
       {"support/"}},
      {"raw-intrinsics",
       "no <immintrin.h>/<emmintrin.h>/<arm_neon.h> includes, no "
       "__builtin_ia32_*, and no masked-select/movemask intrinsic "
       "spellings (_mm*_blendv_pd/_mm*_movemask_pd/_mm*_andnot_pd/"
       "vbslq_f64) outside support/simd/; all ISA-specific code goes "
       "through the lane layer so every other TU "
       "stays portable and baseline-compiled",
       PassKind::kToken,
       "violations",
       {"support/simd/"}},
  };
  return kRules;
}

Result run(const Options& options) {
  Result result;
  const FileSet files = FileSet::load(options.root);

  if (!options.layers_file.empty()) {
    result.layers = Layers::parse(options.layers_file, disk_modules(files));
    run_include_pass(files, result.layers, result.graph, result.findings);
  }

  if (!options.include_graph_only) {
    run_contract_rules(files, result.findings);
    run_determinism_rules(files, result.findings);
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return result;
}

std::vector<Finding> run_lint(const std::filesystem::path& root) {
  Options options;
  options.root = root;
  return run(options).findings;
}

}  // namespace srm::lint
