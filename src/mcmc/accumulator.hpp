// Streaming posterior sinks. The Gibbs driver feeds every retained draw
// to a set of PosteriorAccumulator sinks at the moment it is emitted, so
// downstream consumers (pointwise scoring, WAIC/LOO moments, convergence
// diagnostics, posterior summaries) run single-pass without the chains
// ever being stored. The sinks are the only code that turns retained
// draws into a score or a summary; a stored trace is never fed back
// through them.
#pragma once

#include <cstddef>
#include <span>

namespace srm::mcmc {

class GibbsWorkspace;

/// One sink fed once per retained draw.
///
/// Thread-safety contract: chains may run concurrently, so accumulate()
/// can be called concurrently for *different* `chain` values but never
/// concurrently for the same chain. Implementations shard their state
/// per chain and merge shards in chain order at finalization — that
/// deterministic merge is what keeps results independent of the worker
/// count.
class PosteriorAccumulator {
 public:
  virtual ~PosteriorAccumulator() = default;

  /// `state` is the retained draw (state-vector order). `workspace` is
  /// the chain's scratch workspace: the one the model's make_workspace()
  /// returned and its update() just ran with, so sinks may reuse its
  /// freshly sized buffers.
  virtual void accumulate(std::size_t chain, std::span<const double> state,
                          GibbsWorkspace* workspace) = 0;
};

}  // namespace srm::mcmc
