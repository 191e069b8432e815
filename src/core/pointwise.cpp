#include "core/pointwise.hpp"

#include "runtime/parallel_for.hpp"
#include "support/error.hpp"

namespace srm::core {

support::Matrix pointwise_log_likelihood_matrix(const BayesianSrm& model,
                                                const mcmc::McmcRun& run) {
  const std::size_t k = model.data().days();
  const std::size_t total_samples = run.total_samples();
  support::Matrix log_terms(k, total_samples);

  // Flattened sample index -> (chain, in-chain sample) via chain offsets.
  std::vector<std::size_t> offsets;
  offsets.reserve(run.chain_count() + 1);
  offsets.push_back(0);
  for (std::size_t c = 0; c < run.chain_count(); ++c) {
    offsets.push_back(offsets.back() + run.chain(c).sample_count());
  }

  // Grain sized for ~one likelihood sweep per scheduling decision batch;
  // chunking is worker-count independent, and every draw writes only its
  // own column, so any schedule produces identical bits.
  constexpr std::size_t kGrain = 32;
  runtime::parallel_for_chunks(
      total_samples, kGrain,
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        // One state buffer, workspace and output row per chunk: the inner
        // per-draw evaluation is allocation-free.
        std::vector<double> state(model.state_size());
        const auto workspace = model.make_workspace();
        std::vector<double> pointwise(k);
        std::size_t chain_index = 0;
        for (std::size_t s = lo; s < hi; ++s) {
          while (s >= offsets[chain_index + 1]) ++chain_index;
          const auto& chain = run.chain(chain_index);
          const std::size_t within = s - offsets[chain_index];
          for (std::size_t p = 0; p < state.size(); ++p) {
            state[p] = chain.parameter(p)[within];
          }
          model.pointwise_row(state, *workspace, pointwise);
          for (std::size_t i = 0; i < k; ++i) {
            log_terms(i, s) = pointwise[i];
          }
        }
      });
  return log_terms;
}

}  // namespace srm::core
