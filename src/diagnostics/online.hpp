// Online convergence diagnostics for the streaming posterior pipeline:
// one PosteriorAccumulator that ingests every retained draw once and can
// reproduce the per-parameter numbers run_observation() reports —
// posterior mean, Gelman-Rubin PSRF, chain-0 Geweke Z, and pooled ESS —
// without the chains ever being stored.
//
// This accumulator is the only producer of the diagnostics a fit reports.
// Replication guarantees against the batch diagnostics functions, which
// read a stored trace (the tests attach this sink to the same run_gibbs
// call that stores one):
//   * PSRF executes exactly the gelman_rubin() arithmetic: per-chain
//     Welford variances and plain-sum means, combined in chain order.
//   * Geweke collects the same first/last chain-0 windows the trace path
//     slices and finalizes through geweke_from_windows() — bit-identical.
//   * The pooled mean merges per-chain plain sums in chain order (the
//     trace path sums the pooled concatenation in one pass; same value up
//     to floating-point association).
//   * ESS uses the same Geyer initial-positive-sequence estimator on
//     pooled autocovariances, but from a bounded lag window (kMaxEssLag):
//     the O(n) lag scan of effective_sample_size() cannot be streamed in
//     O(1) memory. Truncating the positive sequence can only shrink the
//     autocorrelation-time estimate, i.e. the streamed ESS is >= the
//     trace-based one and equal whenever Geyer's sequence dies out within
//     the window (it does for every paper-scale chain).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mcmc/accumulator.hpp"
#include "stats/online.hpp"

namespace srm::diagnostics {

/// Finalized per-parameter diagnostics, as fit_cell reports them.
struct OnlineParameterStats {
  double posterior_mean = 0.0;
  double psrf = 0.0;      ///< 1.0 (neutral) for single-chain runs
  double geweke_z = 0.0;  ///< chain-0 Geweke statistic
  double ess = 0.0;       ///< pooled effective sample size
};

class ParameterStatsAccumulator final : public mcmc::PosteriorAccumulator {
 public:
  /// Autocovariance window for the streamed ESS (see file comment).
  static constexpr std::size_t kMaxEssLag = 128;

  /// The retention geometry must be known up front: `draws_per_chain` is
  /// GibbsOptions::iterations (every chain retains exactly that many
  /// draws), which fixes the Geweke window boundaries and the ESS lag
  /// window. All per-draw buffers are allocated here — accumulate() is
  /// allocation-free.
  ParameterStatsAccumulator(std::size_t parameter_count,
                            std::size_t chain_count,
                            std::size_t draws_per_chain);

  void accumulate(std::size_t chain, std::span<const double> state,
                  mcmc::GibbsWorkspace* workspace) override;

  /// Finalized diagnostics for parameter `p`. Requires every chain to
  /// have delivered exactly `draws_per_chain` draws.
  [[nodiscard]] OnlineParameterStats parameter(std::size_t p) const;

  [[nodiscard]] std::size_t parameter_count() const {
    return parameter_count_;
  }

 private:
  /// Per-(parameter, chain) state. Autocovariances accumulate shifted by
  /// the chain's first value (lag products of y = x - shift), which keeps
  /// the lag-product sums near the magnitude of the centered quantities
  /// they reconstruct; the exact centering to the pooled mean happens at
  /// finalization from (lag_products, shifted_sum, head, ring).
  struct ChainShard {
    stats::OnlineMoments moments;
    double shift = 0.0;
    double shifted_sum = 0.0;          ///< sum of (x - shift)
    std::vector<double> lag_products;  ///< P[l] = sum y_t y_{t-l}, l<=max_lag
    std::vector<double> head;          ///< first max_lag+1 raw values
    /// Last ring_cap_ raw values, slot t & ring_mask_. Capacity is the
    /// power of two >= max_lag_+1 so the per-draw lag loop indexes with a
    /// mask instead of a division.
    std::vector<double> ring;
    std::size_t n = 0;
  };

  void add_value(ChainShard& shard, double x);
  [[nodiscard]] const ChainShard& shard(std::size_t p, std::size_t c) const {
    return shards_[p * chain_count_ + c];
  }
  [[nodiscard]] double pooled_ess(std::size_t p, double pooled_mean) const;

  std::size_t parameter_count_;
  std::size_t chain_count_;
  std::size_t draws_per_chain_;
  std::size_t max_lag_;    ///< min(kMaxEssLag, draws_per_chain - 1)
  std::size_t ring_mask_;  ///< bit_ceil(max_lag_ + 1) - 1
  std::vector<ChainShard> shards_;  ///< [p * chain_count_ + c]

  // Chain-0 Geweke windows (geweke()'s default 10% / 50% fractions).
  std::size_t geweke_first_n_ = 0;
  std::size_t geweke_last_n_ = 0;
  std::vector<std::vector<double>> geweke_first_;  ///< per parameter
  std::vector<std::vector<double>> geweke_last_;   ///< per parameter
};

}  // namespace srm::diagnostics
