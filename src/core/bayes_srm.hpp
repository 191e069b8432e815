// The paper's 2 x 5 Bayesian discrete-time SRMs (Section 3): a prior on the
// initial bug content N (Poisson -> NHPP-based SRM, negative binomial ->
// NHMPP-based SRM) crossed with the five detection-probability models, all
// hyperparameters under non-informative uniform hyperpriors, sampled by a
// Gibbs scheme (Eqs 14-22) built on srm::mcmc.
//
// The same scan samples the size-biased family (Dey-Chakraborty,
// arXiv:2202.08107 / 2406.04360). Its per-bug Gamma detectability model
// (DetectionModelKind::kSizeBiasedMultinomial: big bugs first, Lomax tail)
// makes the day counts given N multinomial over detection days, which
// factorizes into exactly the sequential-binomial likelihood of Eq (2)
// with that hazard, and N is Poisson(lambda0). So the family is a Poisson
// bug-content layer plus one more detection model, and it takes every
// Poisson conditional below.
//
// Gibbs conditionals (derived in DESIGN.md):
//   Poisson prior (and size-biased):
//     R = N - s_k | lambda0, zeta, x  ~ Poisson(lambda0 * prod q_i)  [exact]
//     lambda0 | N ~ TruncatedGamma(N + 1, 1, lambda_max)             [exact]
//     zeta_j | N, x  — slice sampling of the zeta-kernel of Eq (2)
//   Negative binomial prior:
//     R | alpha0, beta0, zeta, x ~ NB(alpha0 + s_k, beta_k)          [exact]
//     beta0 | N, alpha0 ~ Beta(alpha0 + 1, N + 1)                    [exact]
//     alpha0 | N, beta0 — slice sampling on (0, alpha_max)
//     zeta_j | N, x     — slice sampling
//
// State vector layout (also the parameter-name order):
//   Poisson / size-biased:  [residual, lambda0, zeta...]
//   NB prior:               [residual, alpha0, beta0, zeta...]
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/detection_models.hpp"
#include "core/model_family.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/gibbs.hpp"

namespace srm::core {

/// The one model type of every registered family: the Gibbs-sampleable
/// state plus the channels the estimation pipeline consumes downstream of
/// the sampler — pointwise log-likelihood rows (WAIC/LOO/streaming
/// scoring), the state-vector layout (residual slot, detection-parameter
/// block), and the detection model for out-of-window prediction.
class BayesianSrm final : public mcmc::GibbsModel {
 public:
  /// The size-biased prior requires its multinomial detection model and
  /// checks the sb_* limits instead of alpha_max / theta_max /
  /// gamma_bound.
  BayesianSrm(PriorKind prior, DetectionModelKind model_kind,
              data::BugCountData data, HyperPriorConfig config = {});

  /// Per-chain scratch buffers for a full Gibbs scan, sized once from
  /// days() and parameter_count(). Threading one of these through update()
  /// makes steady-state sampling allocation-free; the buffers carry no
  /// sampler state, so draws are bit-identical with or without one.
  class Workspace final : public mcmc::GibbsWorkspace {
   public:
    explicit Workspace(const BayesianSrm& model);

   private:
    friend class BayesianSrm;
    std::vector<double> zeta;           ///< zeta block under update
    std::vector<double> probe;          ///< zeta with one coordinate probed
    std::vector<double> proposal;       ///< mode-jump candidate
    std::vector<double> probabilities;  ///< p_1..p_k channel
    std::vector<double> log_survivals;  ///< log q_1..log q_k channel
  };

  // --- mcmc::GibbsModel -------------------------------------------------
  [[nodiscard]] std::vector<std::string> parameter_names() const override;
  [[nodiscard]] std::vector<double> initial_state(
      random::Rng& rng) const override;
  [[nodiscard]] std::unique_ptr<mcmc::GibbsWorkspace> make_workspace()
      const override;
  void update(std::vector<double>& state, random::Rng& rng,
              mcmc::GibbsWorkspace* workspace) const override;
  using mcmc::GibbsModel::update;

  // --- accessors ----------------------------------------------------------
  /// Registry key of the family this model belongs to.
  [[nodiscard]] PriorKind prior() const { return prior_; }
  [[nodiscard]] const data::BugCountData& data() const { return data_; }
  [[nodiscard]] const HyperPriorConfig& config() const { return config_; }

  // --- state-vector layout ------------------------------------------------
  /// Index of the residual bug count R in the state vector.
  [[nodiscard]] std::size_t residual_index() const { return 0; }
  /// Index of the first detection-model parameter.
  [[nodiscard]] std::size_t zeta_offset() const {
    return poisson_content() ? 2 : 3;
  }
  [[nodiscard]] std::size_t state_size() const {
    return zeta_offset() + model_->parameter_count();
  }

  /// The family's detection model; probability(day, zeta) extrapolates past
  /// the fitted window for holdout scoring and release planning.
  [[nodiscard]] const DetectionModel& detection_model() const {
    return *model_;
  }

  // --- scoring ------------------------------------------------------------
  /// Fills out[i-1] = log P(X_i = x_i | state) for day i = 1..data().days()
  /// — the WAIC/LOO ingredient (Eqs 24-25) — from one batch probability
  /// fill into the workspace's buffer. `workspace` must come from this
  /// model's make_workspace(); the fill is allocation-free and its bits do
  /// not depend on the workspace's history. The streaming scorer calls it
  /// once per retained draw with the chain's scan workspace.
  void pointwise_row(std::span<const double> state,
                     mcmc::GibbsWorkspace& workspace,
                     std::span<double> out) const;

  // --- derived quantities -------------------------------------------------
  /// p_1..p_k for the given detection parameters.
  [[nodiscard]] std::vector<double> detection_probabilities(
      std::span<const double> zeta) const;

  /// Unnormalized log joint density of (state, data) — prior * likelihood.
  /// Exposed for testing the Gibbs conditionals against brute force.
  [[nodiscard]] double log_joint(std::span<const double> state) const;

 private:
  /// True for the families whose bug-content layer is Poisson(lambda0):
  /// poisson and sizebiased. They share every conditional and the layout.
  [[nodiscard]] bool poisson_content() const {
    return prior_ != PriorKind::kNegativeBinomial;
  }

  void update_with(std::vector<double>& state, random::Rng& rng,
                   Workspace& workspace) const;
  void update_residual(std::vector<double>& state, random::Rng& rng,
                       double survival) const;
  /// prod q_i computed through the detection model's batch log-survival
  /// channel (exact even where q_i underflows); one virtual call per
  /// evaluation, buffered in the workspace.
  [[nodiscard]] double stable_survival(std::span<const double> zeta,
                                       Workspace& workspace) const;
  void update_hyperparameters(std::vector<double>& state,
                              random::Rng& rng) const;
  void update_zeta(std::vector<double>& state, random::Rng& rng,
                   Workspace& workspace) const;
  void update_hyperparameters_collapsed(std::vector<double>& state,
                                        random::Rng& rng,
                                        Workspace& workspace) const;
  void update_zeta_collapsed(std::vector<double>& state, random::Rng& rng,
                             Workspace& workspace) const;

  [[nodiscard]] std::int64_t initial_bugs_of(
      std::span<const double> state) const;

  PriorKind prior_;
  std::unique_ptr<DetectionModel> model_;
  data::BugCountData data_;
  HyperPriorConfig config_;
  std::vector<ParameterSupport> zeta_supports_;
};

/// Constructs one estimation cell's model after validate_family_model and
/// validate_family_gibbs; the single construction path for fit/select/
/// sweep/serve cells.
std::unique_ptr<BayesianSrm> make_model(PriorKind family,
                                        DetectionModelKind model,
                                        data::BugCountData data,
                                        const HyperPriorConfig& config,
                                        const mcmc::GibbsOptions& gibbs = {});

}  // namespace srm::core
