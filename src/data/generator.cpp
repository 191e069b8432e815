#include "data/generator.hpp"

#include <optional>

#include "random/samplers.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/seed_sequence.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::data {

BugCountData simulate_detection_process(
    std::int64_t initial_bugs, std::size_t days,
    const DetectionProbabilityFn& detection_probability, random::Rng& rng,
    const std::string& name) {
  // Built once: replication batches call this many times.
  static const std::string too_many =
      "bugs must be <= " + support::dec(kMaxBugs);
  static const std::string too_long =
      "days must be <= " + support::dec(kMaxDays);
  require_input(initial_bugs >= 0, "bugs must be >= 0");
  require_input(initial_bugs <= kMaxBugs, too_many);
  require_input(days >= 1, "days must be >= 1");
  require_input(days <= kMaxDays, too_long);

  std::vector<std::int64_t> counts;
  counts.reserve(days);
  std::int64_t remaining = initial_bugs;
  for (std::size_t day = 1; day <= days; ++day) {
    const double p = detection_probability(day);
    SRM_EXPECTS(p >= 0.0 && p <= 1.0,
                "detection probabilities must lie in [0, 1]");
    const std::int64_t found = random::sample_binomial(rng, remaining, p);
    counts.push_back(found);
    remaining -= found;
  }
  return BugCountData(name, std::move(counts));
}

std::vector<BugCountData> simulate_replications(
    std::int64_t initial_bugs, std::size_t days,
    const DetectionProbabilityFn& detection_probability,
    std::uint64_t master_seed, std::size_t replications,
    const std::string& name_prefix) {
  SRM_EXPECTS(replications >= 1,
              "simulate_replications requires replications >= 1");
  // Substreams are keyed by replicate index, and each replicate fills its
  // own slot: the batch is reproducible independent of scheduling.
  runtime::SeedSequence seeds(master_seed);
  auto rngs = seeds.streams(replications);
  std::vector<std::optional<BugCountData>> slots(replications);
  runtime::parallel_for(0, replications, [&](std::size_t r) {
    slots[r] = simulate_detection_process(
        initial_bugs, days, detection_probability, rngs[r],
        name_prefix + "-" + support::dec(r));
  });
  std::vector<BugCountData> out;
  out.reserve(replications);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace srm::data
