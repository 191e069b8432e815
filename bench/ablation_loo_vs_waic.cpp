// Ablation: WAIC (the paper's criterion, Eq 23) versus PSIS-LOO
// cross-validation (Vehtari et al. 2017) — Watanabe proved their
// asymptotic equivalence, and this bench checks how closely they agree on
// finite software bug-count data, including the Pareto k-hat reliability
// diagnostics. Expected: looic tracks the deviance-scale WAIC within a few
// units per model and induces the same ranking (model1 best, model3 worst).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "core/loo.hpp"
#include "core/streaming.hpp"
#include "data/datasets.hpp"
#include "mcmc/gibbs.hpp"
#include "support/table.hpp"

int main() {
  using namespace srm;
  const auto observed = data::sys1_grouped();

  mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 400;
  gibbs.iterations = 2500;
  gibbs.keep_traces = false;  // scored in-scan, as `srm_cli select` does

  std::printf("WAIC vs PSIS-LOO at the 96-day observation point\n\n");
  support::Table t;
  t.set_header({"prior", "model", "WAIC", "looic", "|diff|", "max k-hat",
                "k>0.7 pts"});
  for (const auto prior :
       {core::PriorKind::kPoisson, core::PriorKind::kNegativeBinomial}) {
    for (const auto kind : core::all_detection_model_kinds()) {
      const auto model = core::make_model(prior, kind, observed, {});
      core::StreamingScorer scorer(*model, gibbs.chain_count,
                                   gibbs.iterations, /*keep_matrix=*/true);
      const std::array<mcmc::PosteriorAccumulator*, 1> sinks{&scorer};
      mcmc::run_gibbs(*model, gibbs, sinks);
      const auto waic = scorer.waic();
      const auto loo =
          core::compute_psis_loo_from_matrix(scorer.log_likelihood_matrix());
      double max_k = 0.0;
      for (const auto& point : loo.pointwise) {
        if (std::isfinite(point.pareto_k)) {
          max_k = std::max(max_k, point.pareto_k);
        }
      }
      t.add_row({core::to_string(prior), core::to_string(kind),
                 support::format_double(waic.waic, 3),
                 support::format_double(loo.looic, 3),
                 support::format_double(std::abs(loo.looic - waic.waic), 3),
                 support::format_double(max_k, 3),
                 std::to_string(loo.high_k_count)});
    }
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
