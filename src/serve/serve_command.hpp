// The `srm serve` subcommand: a long-running estimation service.
//
//   srm_cli serve [--store DIR] [--cache-size N] [--batch N] [--no-meta]
//                 [--summary-every N] [--socket PATH] [--threads T]
//
//   --store DIR        disk cache tier (ArtifactStore cells/ format);
//                      a finished sweep directory warm-starts the service
//   --cache-size N     in-memory LRU capacity in posteriors (default 256)
//   --batch N          max requests dispatched as one pool batch (default 64)
//   --no-meta          omit the cache/latency_us meta members — response
//                      bytes become a pure function of the request
//   --summary-every N  one-line stats summary to stderr every N requests
//   --socket PATH      listen on a unix socket instead of stdin/stdout
//   --threads T        worker threads for cold computations (0 = all cores)
//
// Protocol reference: serve/protocol.hpp.
#pragma once

#include <iosfwd>

#include "cli/args.hpp"

namespace srm::serve {

/// Runs the service until EOF on `in` (or a shutdown request / closed
/// socket). Responses go to `out`, summaries and fatal errors to `err`.
/// With --help it prints cli::usage() to `out` and returns 0 instead.
int run_serve(const cli::Args& args, std::istream& in, std::ostream& out,
              std::ostream& err);

}  // namespace srm::serve
