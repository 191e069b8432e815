// Shared pointwise log-predictive evaluation for WAIC and PSIS-LOO.
//
// Both criteria need log p(x_i | omega_s) for every (data point i,
// posterior draw s) — by far the hot loop of model scoring, and perfectly
// data-parallel over draws. The matrix builder below runs sample chunks on
// the shared srm::runtime pool; every draw writes only its own column
// (disjoint slots), so the result is bit-identical for any worker count.
// The streaming pipeline (core/streaming.hpp) produces the same values
// in-scan without this second pass; this builder remains for stored-trace
// consumers.
#pragma once

#include "core/bayes_srm.hpp"
#include "mcmc/trace.hpp"
#include "support/matrix.hpp"

namespace srm::core {

/// log p(x_i | omega_s) as a flat row-major matrix, rows() = data points,
/// cols() = flattened sample index (chain 0's draws first, matching
/// McmcRun::pooled). Evaluated in parallel over posterior draws.
support::Matrix pointwise_log_likelihood_matrix(const BayesianSrm& model,
                                                const mcmc::McmcRun& run);

}  // namespace srm::core
