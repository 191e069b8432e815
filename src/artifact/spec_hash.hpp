// Deterministic content identity for experiment cells and sweeps.
//
// A cell — one (dataset, prior, model, hyperprior config, Gibbs settings,
// observation day, eventual total) posterior — is identified by the FNV-1a
// 64-bit hash of its canonical compact-JSON form. The canonical form covers
// exactly the inputs that determine the sampled result:
//
//   * the dataset's daily counts (not its display name),
//   * prior, detection model, hyperprior config (all fields, including the
//     sampler scheme — schemes share a posterior but not a draw sequence),
//   * the result-determining Gibbs fields: chain_count, burn_in, iterations,
//     thin, seed. The execution-only fields parallel_chains and keep_traces
//     are EXCLUDED: the library's bit-identity contracts guarantee they do
//     not change any retained draw, so runs differing only there share
//     artifacts.
//   * the observation day and the eventual bug total.
//
// Two runs produce the same hash iff they would produce bit-identical
// results, for any thread count (tests/artifact/spec_hash_test.cpp pins
// this plus one golden hash against accidental canonical-form drift).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "data/bug_count_data.hpp"
#include "report/sweep.hpp"
#include "support/json.hpp"

namespace srm::artifact {

/// FNV-1a 64-bit over the bytes of `bytes` (offset basis
/// 14695981039346656037, prime 1099511628211 — the same constants the
/// golden-trace digests use).
std::uint64_t fnv1a64(std::string_view bytes);

/// `value` as 16 lowercase hex digits (zero padded).
std::string hex64(std::uint64_t value);

/// The dataset's daily counts as a JSON array: the dataset part of every
/// identity (the display name is not part of it).
support::Json canonical_counts(const data::BugCountData& base);

/// The result-determining Gibbs fields (see the contract above).
support::Json canonical_gibbs(const mcmc::GibbsOptions& gibbs);

/// Canonical compact-JSON identity of one cell. spec.observation_days is
/// deliberately not part of the identity: the cell's posterior depends only
/// on its own observation day, so sweeps over different day grids share
/// per-cell artifacts.
std::string cell_identity(const data::BugCountData& base,
                          const core::ExperimentSpec& spec,
                          std::size_t observation_day);

/// hex64(fnv1a64(cell_identity(...))) — the cell's artifact key.
std::string cell_hash(const data::BugCountData& base,
                      const core::ExperimentSpec& spec,
                      std::size_t observation_day);

/// Canonical compact-JSON identity of a whole sweep (dataset counts plus
/// the full SweepOptions, minus the execution-only Gibbs fields).
std::string sweep_identity(const data::BugCountData& base,
                           const report::SweepOptions& options);

/// hex64(fnv1a64(sweep_identity(...))) — pinned in the artifact manifest
/// and validated on --resume so a directory can never silently mix results
/// from incompatible sweep configurations.
std::string sweep_hash(const data::BugCountData& base,
                       const report::SweepOptions& options);

}  // namespace srm::artifact
