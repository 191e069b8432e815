#include "serve/serve_command.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"
#include "support/error.hpp"

namespace srm::serve {

namespace {

/// Stream transport: greedily batch the lines that are already buffered
/// (up to --batch), so a piped query file fans out onto the pool while an
/// interactive session still answers every line immediately. A blank line
/// is a flush hint and produces no response.
int serve_over_stream(Service& service, std::size_t max_batch,
                      std::istream& in, std::ostream& out) {
  std::vector<std::string> batch;
  std::string line;

  const auto flush = [&] {
    if (batch.empty()) return;
    for (const auto& response : service.handle_batch(batch)) {
      out << response.line << '\n';
    }
    out.flush();
    batch.clear();
  };

  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      flush();
      continue;
    }
    batch.push_back(line);
    const bool more_buffered = in.rdbuf()->in_avail() > 0;
    if (batch.size() >= max_batch || !more_buffered) flush();
    if (service.shutdown_requested()) break;
  }
  flush();
  return 0;
}

}  // namespace

int run_serve(const cli::Args& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  if (args.has("help")) {
    out << cli::usage();
    return 0;
  }
  if (args.has("threads")) {
    runtime::ThreadPool::set_global_thread_count(args.get_size("threads", 0));
  }

  ServiceOptions options;
  options.cache_capacity = args.get_size("cache-size", options.cache_capacity);
  if (args.has("store")) options.store_dir = args.require_string("store");
  options.meta = !args.has("no-meta");
  options.summary_every = args.get_size("summary-every", 0);
  options.summary_out = &err;
  const std::size_t max_batch = args.get_size("batch", 64);
  require_input(max_batch >= 1, "--batch must be >= 1");
  const std::string socket_path = args.get_string("socket", "");

  args.reject_unused();

  Service service(options);
  if (!socket_path.empty()) {
    return serve_over_socket(service, socket_path, max_batch);
  }
  return serve_over_stream(service, max_batch, in, out);
}

}  // namespace srm::serve
