// serve_zipf: an open loop with one client connection (stdin/stdout) to
// `srm_cli serve` on a fresh disk store. After a warm-up of the hot
// working set, line-JSON requests go out on a seeded Poisson schedule at a
// ladder of offered rates, then as one burst; they are drawn Zipf-style
// over distinct posteriors (more than the LRU holds) — fits across every
// family and model, predict/release (both force stored traces), one rare
// select — and one in a hundred is a cold fit. Latency runs from when each
// request was due. Serve parse, hash, cache and dispatch carry the load
// here and nowhere else; cold computes block the single dispatcher, so
// their cost shows in the tail.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "data/generator.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using srm::support::Json;

namespace {

/// The service's in-memory LRU capacity; the hot working set is larger,
/// so Zipf traffic reaches both the memory and the disk tier.
constexpr std::size_t kCacheSize = 16;
/// Offered rates, requests per second; the first is the base rate.
constexpr double kRates[] = {200.0, 400.0, 800.0};
/// Requests per second of run budget in the final burst, which is sent
/// all at once; its completion rate is the service's capacity.
constexpr double kBurstPerSecond = 160.0;
/// serve_max_rps is the highest rate whose p99 stays under this limit.
constexpr double kP99LimitMs = 1000.0;
/// Days of every synthetic project the service is asked about.
constexpr std::size_t kDays = 30;
/// Requests of the traced pass's single base-rate phase.
constexpr std::size_t kTraceRequests = 1000;

/// Deterministic 64-bit generator for the schedule (SplitMix64).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

Json project_json(const srm::data::BugCountData& data) {
  Json counts = Json::Array{};
  for (const auto c : data.counts()) counts.push_back(c);
  Json project = Json::Object{};
  project.set("name", data.name());
  project.set("counts", std::move(counts));
  return project;
}

Json gibbs_json(const Options& options, std::uint64_t seed) {
  const auto scale = mcmc_scale(options);
  Json gibbs = Json::Object{};
  gibbs.set("chains", Json::from_unsigned(scale.chains));
  gibbs.set("burn_in", Json::from_unsigned(scale.burn_in));
  gibbs.set("iterations", Json::from_unsigned(scale.iterations));
  gibbs.set("seed", Json::from_unsigned(seed));
  return gibbs;
}

/// The requests of a run. The hot working set — 2 projects x 11 fit
/// cells plus a predict and a release per project, 26 distinct posteriors
/// — is warmed before measuring; measured traffic draws from it Zipf-style.
/// One request in kColdEvery is cold: a fit nobody asked for before, its
/// kind cycling through a fixed list so every phase carries the same cold
/// work. The rare select ranks a hot project, so its 11 cells come from
/// the cache tiers.
struct WorkingSet {
  std::vector<std::string> hot;
  std::string select;
  /// The c-th cold request of phase `phase`.
  [[nodiscard]] std::string cold(std::size_t phase, std::size_t c) const;

  const Options* options = nullptr;
  std::vector<Json> projects;
};

constexpr std::size_t kColdEvery = 100;
/// MCMC seed of every cold request (see WorkingSet::cold).
constexpr std::uint64_t kColdSeed = 4242;

Json request(const WorkingSet& set, const char* op, std::size_t project,
             std::uint64_t seed) {
  Json line = Json::Object{};
  line.set("op", op);
  line.set("project", set.projects[project]);
  line.set("gibbs", gibbs_json(*set.options, seed));
  return line;
}

std::string fit(const WorkingSet& set, std::size_t project, std::uint64_t seed,
                const std::string& prior, const std::string& model) {
  Json line = request(set, "fit", project, seed);
  line.set("prior", prior);
  line.set("model", model);
  return line.dump();
}

std::string predict(const WorkingSet& set, std::size_t project,
                    std::uint64_t seed) {
  Json line = request(set, "predict", project, seed);
  line.set("fit_days", Json::from_unsigned(kDays - 10));
  return line.dump();
}

std::string release(const WorkingSet& set, std::size_t project,
                    std::uint64_t seed) {
  Json line = request(set, "release", project, seed);
  line.set("horizon", 30);
  return line.dump();
}

std::string WorkingSet::cold(std::size_t phase, std::size_t c) const {
  // Three fits of about the same cost, so the stalls they cause are alike
  // and the tail does not hinge on which of a few slow kinds came up.
  static const std::pair<const char*, const char*> kColdKinds[] = {
      {"poisson", "model1"}, {"poisson", "model3"},
      {"sizebiased", "multinomial"}};
  const auto& [prior, model] = kColdKinds[c % std::size(kColdKinds)];
  // A fresh eventual total makes the request a posterior nobody asked for
  // before (it is part of the cell identity) while the sampling itself —
  // data, model and MCMC seed — repeats exactly, so every run's cold work
  // costs the same.
  Json line = request(*this, "fit", 0, kColdSeed);
  line.set("prior", prior);
  line.set("model", model);
  line.set("total", static_cast<std::int64_t>(1'000'000 * (phase + 1) + c));
  return line.dump();
}

/// The two projects are the same for every seed (the seed moves the MCMC
/// seeds and the traffic), so the cost of a cold compute does not swing
/// with the simulated data.
WorkingSet make_working_set(const Options& options) {
  WorkingSet set;
  set.options = &options;
  for (std::size_t p = 0; p < 2; ++p) {
    set.projects.push_back(project_json(
        srm::data::simulate_replications(
            110, kDays,
            [p](std::size_t i) {
              return 0.03 + 0.02 * static_cast<double>(p) *
                                std::exp(-static_cast<double>(i) / 10.0);
            },
            7919ULL + p, 1, "svc" + std::to_string(p))
            .front()));
  }
  for (std::size_t p = 0; p < 2; ++p) {
    for (const auto& entry : srm::core::model_families().families()) {
      for (const auto kind : entry.selection_models) {
        set.hot.push_back(
            fit(set, p, options.seed, entry.id, srm::core::to_string(kind)));
      }
    }
    set.hot.push_back(predict(set, p, options.seed));
    set.hot.push_back(release(set, p, options.seed));
  }
  set.select = request(set, "select", 0, options.seed).dump();
  return set;
}

/// One phase's request lines and due times.
struct Schedule {
  std::vector<std::string> line;
  std::vector<double> due_s;
  std::size_t cold = 0;
};

/// `count` Poisson arrivals at `rate`, or all due at once when `rate` is 0.
/// Every block of kColdEvery requests holds one cold request at a random
/// place, the phase holds one select in its middle half, and the rest are
/// Zipf(1.1) draws over the hot set. The popularity order of the hot set
/// is one fixed shuffle, so the memory/disk mix does not change with the
/// seed.
Schedule make_schedule(std::uint64_t seed, const WorkingSet& set,
                       std::size_t phase, double rate, std::size_t count) {
  const std::size_t hot = set.hot.size();
  std::vector<std::size_t> rank_to_key(hot);
  SplitMix shuffle(0);
  for (std::size_t k = 0; k < hot; ++k) rank_to_key[k] = k;
  for (std::size_t k = hot; k > 1; --k) {
    std::swap(rank_to_key[k - 1], rank_to_key[shuffle.next() % k]);
  }
  std::vector<double> cdf(hot);
  double total = 0.0;
  for (std::size_t k = 0; k < hot; ++k) {
    total += std::pow(static_cast<double>(k + 1), -1.1);
    cdf[k] = total;
  }

  SplitMix rng(seed);
  const std::size_t select_at = count / 4 + rng.next() % (count / 2 + 1);
  std::size_t cold_at = rng.next() % kColdEvery;
  Schedule schedule;
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (rate > 0.0) t += -std::log(1.0 - rng.uniform()) / rate;
    schedule.due_s.push_back(t);
    if (i == select_at) {
      schedule.line.push_back(set.select);
    } else if (i == cold_at) {
      schedule.line.push_back(set.cold(phase, schedule.cold++));
    } else {
      const double u = rng.uniform() * total;
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      schedule.line.push_back(set.hot[rank_to_key[std::min(rank, hot - 1)]]);
    }
    if (i % kColdEvery == kColdEvery - 1) {
      cold_at = i + 1 + rng.next() % kColdEvery;  // the next block's slot
    }
  }
  return schedule;
}

/// The response body without its meta members (cache tag, latency).
std::string strip_meta(const Json& response) {
  Json body = Json::Object{};
  for (const auto& [name, value] : response.as_object()) {
    if (name != "cache" && name != "latency_us") body.set(name, value);
  }
  return body.dump();
}

/// Response bookkeeping shared by every phase of a run: per-key bodies
/// (meta stripped) for the cross-tier byte-identity check, tier counts and
/// a digest of the bodies.
struct Responses {
  std::map<std::string, std::string> bodies;  ///< request line -> body
  std::map<std::string, std::set<std::string>> tiers_seen;
  std::map<std::string, std::uint64_t> tiers;
  std::size_t mismatched = 0;
  std::uint64_t digest = fnv1a("");

  /// Records one response line for `key`; false when it is not `ok`.
  bool record(const std::string& key, const std::string& line) {
    try {
      const Json response = Json::parse(line);
      if (!response.at("ok").as_bool()) return false;
      const std::string tier = response.at("cache").as_string();
      ++tiers[tier];
      tiers_seen[key].insert(tier);
      const std::string body = strip_meta(response);
      digest = fnv1a(body, digest);
      const auto [it, fresh] = bodies.emplace(key, body);
      if (!fresh && it->second != body) ++mismatched;
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }
};

/// What one offered-rate phase observed.
struct Phase {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< from due time to response
  std::vector<double> lag_ms;      ///< send time minus due time
  std::size_t failed = 0;          ///< not ok, or no response
  double cpu_s = 0.0;              ///< the service's CPU time in the phase
  double completed_rps = 0.0;      ///< responses per second, first due to last

  [[nodiscard]] double p99_ms() const { return quantile(latency_ms, 0.99); }
  /// Under the limit with no growing backlog: p99 and the median of the
  /// last tenth of the phase both under the limit, and nothing failed.
  [[nodiscard]] bool meets_limit() const {
    const auto tail = static_cast<std::ptrdiff_t>(latency_ms.size() / 10);
    const std::vector<double> last(latency_ms.end() - tail, latency_ms.end());
    return failed == 0 && p99_ms() <= kP99LimitMs &&
           median(last) <= kP99LimitMs;
  }
};

/// Sleeps until shortly before `when`, then spins, so requests leave on
/// time without paying a timer wake-up's latency.
void wait_until(Clock::time_point when) {
  std::this_thread::sleep_until(when - std::chrono::microseconds(500));
  while (Clock::now() < when) std::this_thread::yield();
}

/// Writes all of `text` to `fd`; false when the reader went away.
bool write_all(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// The service process with its stdin and stdout pipes.
class ServeProcess {
 public:
  ServeProcess(const Options& options, const std::filesystem::path& store) {
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    const std::vector<std::string> args = {
        options.srm_cli.string(), "serve",
        "--store",                store.string(),
        "--cache-size",           std::to_string(kCacheSize),
        "--threads",              std::to_string(options.workers)};
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
    ::fcntl(from_child_, F_SETFL, ::fcntl(from_child_, F_GETFL) | O_NONBLOCK);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + args[0]);
    }
  }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;
  ~ServeProcess() {
    close_input();
    if (from_child_ >= 0) ::close(from_child_);
    if (pid_ > 0) wait();
  }

  [[nodiscard]] int input() const { return to_child_; }
  /// One response line, or nullopt at end of output.
  std::optional<std::string> read_line() {
    while (true) {
      if (const auto end = pending_.find('\n'); end != std::string::npos) {
        std::string line = pending_.substr(0, end);
        pending_.erase(0, end + 1);
        return line;
      }
      char buffer[65536];
      const ssize_t n = ::read(from_child_, buffer, sizeof buffer);
      if (n > 0) {
        pending_.append(buffer, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        // Spin rather than block: a blocked reader's wake-up would add
        // scheduler latency to every measured response.
        std::this_thread::yield();
      } else {
        return std::nullopt;
      }
    }
  }
  void close_input() {
    if (to_child_ >= 0) ::close(to_child_);
    to_child_ = -1;
  }
  /// CPU seconds the service has used so far (/proc/<pid>/stat).
  [[nodiscard]] double cpu_s() const {
    std::FILE* stat = std::fopen(
        ("/proc/" + std::to_string(pid_) + "/stat").c_str(), "r");
    if (stat == nullptr) return 0.0;
    char buffer[1024] = {};
    const std::size_t n = std::fread(buffer, 1, sizeof buffer - 1, stat);
    std::fclose(stat);
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15, in clock ticks.
    const char* rest = std::strrchr(buffer, ')');
    if (n == 0 || rest == nullptr) return 0.0;
    unsigned long utime = 0;
    unsigned long stime = 0;
    if (std::sscanf(rest + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                    &utime, &stime) != 2) {
      return 0.0;
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  /// Waits for exit; returns the child's CPU seconds and peak RSS (MiB).
  std::pair<double, double> wait() {
    rusage usage{};
    int status = 0;
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    const auto tv = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
    };
    return {tv(usage.ru_utime) + tv(usage.ru_stime),
            static_cast<double>(usage.ru_maxrss) / 1024.0};
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string pending_;  ///< bytes read past the last returned line
};

/// Sends each scheduled line at its due time from a writer thread
/// while this thread reads the responses; returns what the phase saw.
Phase run_phase(ServeProcess& service, const Schedule& schedule, double rate,
                Responses& responses) {
  const std::size_t count = schedule.line.size();
  Phase phase;
  phase.rate = rate;
  std::vector<Clock::time_point> sent(count);
  std::vector<double> received_s(count, -1.0);
  const double cpu_start = service.cpu_s();
  const auto t0 = Clock::now();
  std::thread writer([&] {
    for (std::size_t i = 0; i < count; ++i) {
      wait_until(t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(schedule.due_s[i])));
      sent[i] = Clock::now();
      if (!write_all(service.input(), schedule.line[i] + "\n")) {
        break;
      }
    }
  });
  for (std::size_t i = 0; i < count; ++i) {
    const auto line = service.read_line();
    if (!line) break;
    received_s[i] = seconds_since(t0);
    if (!responses.record(schedule.line[i], *line)) ++phase.failed;
  }
  writer.join();
  phase.cpu_s = service.cpu_s() - cpu_start;
  if (count > 0 && received_s[count - 1] > schedule.due_s[0]) {
    phase.completed_rps = static_cast<double>(count) /
                          (received_s[count - 1] - schedule.due_s[0]);
  }

  for (std::size_t i = 0; i < count; ++i) {
    if (received_s[i] < 0.0) {
      ++phase.failed;  // never answered: counts as missing any limit
      phase.latency_ms.push_back(1e9);
      continue;
    }
    phase.latency_ms.push_back((received_s[i] - schedule.due_s[i]) * 1e3);
    phase.lag_ms.push_back(
        (std::chrono::duration<double>(sent[i] - t0).count() -
         schedule.due_s[i]) * 1e3);
  }
  return phase;
}

/// Requests per phase: the base-rate phase gets 40% of the budget (2000
/// requests at 25 s, so its p99 has 20 samples beyond it); the higher
/// rates share what is left after the warm-up and the burst.
std::size_t phase_requests(const Options& options, std::size_t phase) {
  const double share = phase == 0 ? 0.4 : 0.1;
  return static_cast<std::size_t>(share * options.seconds * kRates[phase]);
}

constexpr std::size_t kSetupRepeats = 9;

}  // namespace

Report run_serve_zipf(const Options& options) {
  Report out;
  const auto store = options.work_dir / "serve-store";

  // Set-up: build the working set, start the service on a fresh store and
  // wait for its first answer. Repeated; the last service is the one used.
  std::vector<double> setup_s;
  std::unique_ptr<ServeProcess> service;
  WorkingSet set;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    std::filesystem::remove_all(store);
    const auto start = Clock::now();
    set = make_working_set(options);
    service = std::make_unique<ServeProcess>(options, store);
    const bool ready = write_all(service->input(), "{\"op\":\"stats\"}\n") &&
                       service->read_line().has_value();
    setup_s.push_back(seconds_since(start));
    if (!ready) throw std::runtime_error("srm_cli serve did not answer");
  }

  // Warm-up (closed loop, not part of any latency): every hot posterior
  // once, so measured phases see memory and disk hits beside their own
  // cold computes.
  Responses responses;
  std::size_t warm_failed = 0;
  const auto warm_start = Clock::now();
  for (const auto& line : set.hot) {
    const auto response = write_all(service->input(), line + "\n")
                              ? service->read_line()
                              : std::nullopt;
    if (!response || !responses.record(line, *response)) ++warm_failed;
  }
  const double warmup_s = seconds_since(warm_start);
  out.checks(set.hot.size(), warm_failed, "warm-up requests not answered ok");

  std::vector<Phase> phases;
  std::size_t requests = 0;
  std::size_t cold = 0;
  for (std::size_t p = 0; p <= std::size(kRates); ++p) {
    const bool burst = p == std::size(kRates);
    const double rate = burst ? 0.0 : kRates[p];
    const std::size_t count =
        burst ? static_cast<std::size_t>(kBurstPerSecond * options.seconds)
              : phase_requests(options, p);
    const auto schedule =
        make_schedule(options.seed * 31ULL + p, set, p, rate, count);
    phases.push_back(run_phase(*service, schedule, rate, responses));
    requests += schedule.line.size();
    cold += schedule.cold;
    out.checks(schedule.line.size(), phases.back().failed,
               "serve requests not answered ok");
  }
  service->close_input();
  const double service_rss_mib = service->wait().second;
  service.reset();
  std::filesystem::remove_all(store);

  // serve_max_rps: the highest rate of the ladder whose p99 stays under
  // the limit with no growing backlog, every lower rate passing too.
  const Phase burst = phases.back();
  phases.pop_back();
  double max_rps = 0.0;
  for (const auto& phase : phases) {
    if (!phase.meets_limit()) break;
    max_rps = phase.rate;
  }
  for (const auto& phase : phases) {
    out.info("serve_ms.p99@" + std::to_string(static_cast<int>(phase.rate)),
             phase.p99_ms(), "ms");
  }
  out.checks(responses.tiers_seen.size(), responses.mismatched,
             "serve bodies differing across cache tiers");
  out.check(responses.tiers["hit"] > 0 && responses.tiers["disk"] > 0 &&
                responses.tiers["computed"] > 0,
            "serve tiers not all exercised");

  const Phase& base = phases.front();
  const double capacity = burst.completed_rps;
  add_common_metrics(out, median(setup_s), {base.cpu_s}, service_rss_mib);
  out.metric("ops_per_s", capacity, "1/s");
  out.metric("op_ms.p50", median(base.latency_ms), "ms");
  out.metric("op_ms.p99", base.p99_ms(), "ms");

  out.info("serve_ms.p50", median(base.latency_ms), "ms");
  out.info("serve_ms.p99", base.p99_ms(), "ms");
  out.info("serve_max_rps", max_rps, "1/s");
  out.info("serve_capacity_rps", capacity, "1/s");
  out.info("serve_p99_limit_ms", kP99LimitMs, "ms");
  out.info("warmup_s", warmup_s, "s");
  out.info("generator_lag_ms.p99", quantile(base.lag_ms, 0.99), "ms");
  out.counts["requests"] = requests;
  out.counts["base_requests"] = base.latency_ms.size();
  out.counts["cold_requests"] = cold;
  out.counts["hot_posteriors"] = set.hot.size();
  out.counts["hits_memory"] = responses.tiers["hit"];
  out.counts["hits_disk"] = responses.tiers["disk"];
  out.counts["computed"] = responses.tiers["computed"];
  out.digest = hex(responses.digest);
  return out;
}

namespace {

/// The in-process service of the traced pass. Each line goes through the
/// same calls the stdin transport makes — one Service::handle_batch per
/// line — with parse_request and request_hash timed as separate calls.
class TracedService {
 public:
  TracedService(const std::filesystem::path& store, bool traced)
      : traced_(traced), service_(options(store)) {}

  srm::serve::ResponseInfo handle(const std::string& line) {
    if (traced_) {
      auto start = Clock::now();
      const auto request = srm::serve::parse_request(Json::parse(line));
      parse.add(ns_between(start, Clock::now()));
      start = Clock::now();
      (void)srm::serve::request_hash(request);
      hash.add(ns_between(start, Clock::now()));
    }
    const auto start = Clock::now();
    auto responses = service_.handle_batch({line});
    batch.add(ns_between(start, Clock::now()));
    lines += responses.size();
    auto info = std::move(responses.front());
    if (info.cache_tag == "computed") {
      compute_ms.push_back(static_cast<double>(info.latency_us) / 1e3);
    }
    return info;
  }

  [[nodiscard]] const srm::serve::Service& service() const { return service_; }

  Tally parse;
  Tally hash;
  Tally batch;
  std::size_t lines = 0;
  std::vector<double> compute_ms;

 private:
  static srm::serve::ServiceOptions options(const std::filesystem::path& store) {
    srm::serve::ServiceOptions options;
    options.cache_capacity = kCacheSize;
    options.store_dir = store;
    return options;
  }

  bool traced_;
  srm::serve::Service service_;
};

double mean_us(const Tally& tally) {
  const auto calls = tally.calls.load();
  return calls == 0 ? 0.0
                    : static_cast<double>(tally.ns.load()) / 1e3 /
                          static_cast<double>(calls);
}

}  // namespace

void trace_serve_zipf(const Options& options, Report& out,
                      TraceOverhead* overhead) {
  const auto set = make_working_set(options);
  const auto schedule = make_schedule(
      options.seed * 31ULL, set, 0, kRates[0], kTraceRequests);
  const auto store = options.work_dir / "serve-traced";
  std::filesystem::remove_all(store);

  Responses responses;
  std::size_t failed = 0;
  double covered_ms = 0.0;
  double busy_ms = 0.0;
  const auto dispatch = [&](TracedService& service, const std::string& line) {
    const auto before = service.parse.ns.load() + service.hash.ns.load() +
                        service.batch.ns.load();
    const auto start = Clock::now();
    const auto info = service.handle(line);
    busy_ms += seconds_since(start) * 1e3;
    if (!info.ok || !responses.record(line, info.line)) ++failed;
    covered_ms += static_cast<double>(service.parse.ns.load() +
                                      service.hash.ns.load() +
                                      service.batch.ns.load() - before) /
                  1e6;
  };

  {
    TracedService service(store, true);
    for (const auto& line : set.hot) dispatch(service, line);

    // The base-rate phase: a generator thread queues each line at its due
    // time; this thread dispatches one line at a time, as the stdin
    // transport does.
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<std::size_t> queue;  // indices of sent, unhandled lines
    std::vector<double> lag_ms;
    const auto t0 = Clock::now();
    const auto due = [&](std::size_t i) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule.due_s[i]));
    };
    std::thread generator([&] {
      for (std::size_t i = 0; i < schedule.line.size(); ++i) {
        wait_until(due(i));
        const auto now = Clock::now();
        lag_ms.push_back(static_cast<double>(ns_between(due(i), now)) / 1e6);
        {
          const std::lock_guard lock(mutex);
          queue.push_back(i);
        }
        ready.notify_one();
      }
    });
    std::vector<double> wait_ms;
    for (std::size_t handled = 0; handled < schedule.line.size(); ++handled) {
      std::size_t i = 0;
      {
        std::unique_lock lock(mutex);
        ready.wait(lock, [&] { return !queue.empty(); });
        i = queue.front();
        queue.pop_front();
      }
      wait_ms.push_back(
          static_cast<double>(ns_between(due(i), Clock::now())) / 1e6);
      dispatch(service, schedule.line[i]);
    }
    generator.join();

    const auto& svc = service.service();
    const double hits = static_cast<double>(svc.memory_hits() + svc.disk_hits());
    const double answered = hits + static_cast<double>(svc.computed());
    out.metric("serve.parse_us", mean_us(service.parse), "us");
    out.metric("serve.hash_us", mean_us(service.hash), "us");
    out.metric("serve.batch_ms", mean_us(service.batch) / 1e3, "ms");
    out.metric("serve.compute_ms", mean(service.compute_ms), "ms");
    out.metric("serve.queue_wait_ms.p99", quantile(wait_ms, 0.99), "ms");
    out.metric("serve.batch_size.mean",
               static_cast<double>(service.lines) /
                   static_cast<double>(service.batch.calls.load()),
               "count");
    out.metric("serve.hits_memory", static_cast<double>(svc.memory_hits()),
               "count");
    out.metric("serve.hits_disk", static_cast<double>(svc.disk_hits()), "count");
    out.metric("serve.computed", static_cast<double>(svc.computed()), "count");
    out.metric("serve.dedup_shared", static_cast<double>(svc.dedup_shared()),
               "count");
    out.metric("serve.evictions",
               static_cast<double>(svc.cache().evictions()), "count");
    out.metric("serve.hit_frac", hits / answered, "frac");
    out.metric("serve.generator_lag_ms", quantile(lag_ms, 0.99), "ms");
  }
  std::filesystem::remove_all(store);
  const std::size_t requests = set.hot.size() + schedule.line.size();
  out.checks(requests, failed, "traced serve requests not answered ok");
  out.checks(responses.tiers_seen.size(), responses.mismatched,
             "traced serve bodies differing across cache tiers");

  if (overhead != nullptr) {
    // Untraced twin: the same lines, closed loop, through handle_batch
    // alone; the traced replay adds the parse/hash calls and timers.
    const auto replay = [&](bool traced) {
      std::filesystem::remove_all(store);
      TracedService service(store, traced);
      const auto start = Clock::now();
      for (const auto& line : set.hot) (void)service.handle(line);
      for (const auto& line : schedule.line) (void)service.handle(line);
      const double wall = seconds_since(start);
      std::filesystem::remove_all(store);
      return wall;
    };
    overhead->untraced_s = replay(false);
    overhead->traced_s = replay(true);
    overhead->unaccounted_frac = 1.0 - covered_ms / busy_ms;
  }
}

}  // namespace perfbench
