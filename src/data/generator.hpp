// Synthetic bug-count generator: simulates the exact detection process of
// the paper's Eq (1) — N0 initial bugs, day-i detection probability p_i,
// each remaining bug found independently, found bugs removed immediately.
//
// Used for property tests (parameter recovery), the multi-dataset ablation,
// and as a building block for users who want calibration studies.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data/bug_count_data.hpp"
#include "random/rng.hpp"

namespace srm::data {

/// Day-indexed detection probability: detection_probability(i) for
/// i = 1..days, each value in [0, 1].
using DetectionProbabilityFn = std::function<double(std::size_t)>;

/// Simulates `days` testing days starting from `initial_bugs` bugs.
/// X_i | remaining ~ Binomial(remaining, p_i). Throws srm::InvalidArgument,
/// with a plain message, unless 0 <= initial_bugs <= kMaxBugs and
/// 1 <= days <= kMaxDays.
BugCountData simulate_detection_process(
    std::int64_t initial_bugs, std::size_t days,
    const DetectionProbabilityFn& detection_probability, random::Rng& rng,
    const std::string& name = "synthetic");

/// Simulates `replications` independent datasets from the same detection
/// process, in parallel on the shared srm::runtime pool. Replicate r draws
/// from a substream derived from (master_seed, r) via runtime::SeedSequence,
/// so the batch is bit-identical for any worker count and replicate r of a
/// batch of n equals replicate r of any larger batch. Names are
/// "<name_prefix>-<r>".
std::vector<BugCountData> simulate_replications(
    std::int64_t initial_bugs, std::size_t days,
    const DetectionProbabilityFn& detection_probability,
    std::uint64_t master_seed, std::size_t replications,
    const std::string& name_prefix = "replicate");

}  // namespace srm::data
