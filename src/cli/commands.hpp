// The srm_cli subcommands, separated from main() so they are directly
// unit-testable (each writes to a caller-provided stream and returns a
// process exit code).
//
//   srm_cli fit      --csv FILE [--prior poisson|negbin] [--model model0..4]
//                    [--days N] [--chains C] [--burn-in B] [--iterations I]
//                    [--seed S] [--lambda-max X] [--alpha-max X]
//                    [--theta-max X]
//   srm_cli select   --csv FILE [--days N] [mcmc flags]   WAIC+LOO ranking
//   srm_cli predict  --csv FILE --fit-days M [...]        holdout scoring
//   srm_cli mle      --csv FILE [--days N]                discrete MLE + AIC
//   srm_cli nhpp     --csv FILE [--days N]                continuous NHPP MLE
//   srm_cli simulate --bugs N --days K --model modelX --mu .. [--theta ..]
//                    [--omega ..] [--gamma ..] [--seed S] [--out FILE]
//   srm_cli release  --csv FILE [--day-cost X] [--bug-cost X]
//                    [--horizon H] [...]                 optimal ship day
//
// `--csv sys1` and `--csv ntds` select the embedded datasets.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace srm::cli {

int run_fit(const Args& args, std::ostream& out);
int run_select(const Args& args, std::ostream& out);
int run_predict(const Args& args, std::ostream& out);
int run_mle(const Args& args, std::ostream& out);
int run_nhpp(const Args& args, std::ostream& out);
int run_simulate(const Args& args, std::ostream& out);
int run_release(const Args& args, std::ostream& out);
/// The full evaluation grid with optional persistent artifacts: --out DIR
/// writes a spec-hashed artifact directory (src/artifact/), --resume skips
/// cells already on disk, --max-cells N caps freshly sampled cells and a
/// partial run exits with code 3 instead of printing tables.
int run_sweep(const Args& args, std::ostream& out);

/// Dispatches `command` and catches library errors into exit code 2.
/// `<command> --help` prints usage() to `out` and returns 0.
int dispatch(const std::string& command,
             const std::vector<std::string>& flags, std::ostream& out,
             std::ostream& err);

/// The usage text printed for unknown/missing commands and for --help.
std::string usage();

}  // namespace srm::cli
