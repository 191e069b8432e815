#include "core/waic.hpp"

#include <vector>

#include "core/pointwise.hpp"
#include "core/streaming.hpp"
#include "support/error.hpp"

namespace srm::core {

WaicResult compute_waic(const BayesianSrm& model, const mcmc::McmcRun& run) {
  const std::size_t k = model.data().days();
  const std::size_t total_samples = run.total_samples();
  SRM_EXPECTS(total_samples >= 2, "WAIC requires at least 2 posterior draws");
  SRM_EXPECTS(run.parameter_names().size() == model.state_size(),
              "McmcRun does not match the model's state layout");

  // log p(x_i | omega_s) for every (day i, sample s), evaluated in parallel
  // over samples (each sample fills its own column of the k x S matrix).
  const auto log_terms = pointwise_log_likelihood_matrix(model, run);

  // Replay the matrix through the same accumulator the streaming scorer
  // feeds in-scan — draw by draw, chain by chain in pooled order — so the
  // stored-trace WAIC is bit-identical to the streaming one.
  WaicAccumulator accumulator(k, run.chain_count());
  std::vector<double> row(k);
  std::size_t sample = 0;
  for (std::size_t c = 0; c < run.chain_count(); ++c) {
    const std::size_t chain_samples = run.chain(c).sample_count();
    for (std::size_t s = 0; s < chain_samples; ++s, ++sample) {
      for (std::size_t i = 0; i < k; ++i) {
        row[i] = log_terms(i, sample);
      }
      accumulator.add_draw(c, row);
    }
  }
  return accumulator.finalize();
}

}  // namespace srm::core
