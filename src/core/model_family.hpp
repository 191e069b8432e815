// The model-family registry: one constant record per Bayesian SRM family
// (prior structure x detection likelihood), bundling everything the outer
// layers used to hard-code per family —
//
//   * parameter metadata: hyper-parameter names and which hyperprior limit
//     the WAIC tuning grid searches;
//   * canonical serialization identity: the stable id string used by the
//     artifact layer, CLI flags and the serve protocol;
//   * presentation: report table titles, display names and the reference
//     shown in the generated README model table;
//   * the per-family detection-model grid for `select`/`sweep` and the
//     superset of detection kinds the family accepts at all.
//
// Every switch/if-chain over PriorKind/DetectionModelKind outside src/core/
// is banned (srm-lint rule `family-dispatch`): mle/, report/, artifact/,
// cli/ and serve/ consult the registry instead, so a new family lands as a
// record in model_family.cpp plus, where it needs one, a DetectionModel —
// the size-biased family is exactly that, sampled by the shared BayesianSrm
// scan.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/detection_models.hpp"
#include "mcmc/gibbs.hpp"

namespace srm::core {

/// Registry key of a model family. The enum survives only as that key (and
/// as the typed field of specs); everything known *about* a family lives in
/// its ModelFamily record.
enum class PriorKind {
  kPoisson,           ///< NHPP-based SRM (Rallis-Lansdowne)
  kNegativeBinomial,  ///< NHMPP-based SRM (heterogeneous Chun)
  kSizeBiased,        ///< size-biased bug content (Dey-Chakraborty)
};

/// Gibbs blocking scheme.
///
/// kVanilla follows the paper's Eqs (14)-(22) literally: R, the
/// hyperparameters, and zeta each conditioned on everything else. R and the
/// prior scale (lambda0 / beta0) are strongly coupled, so the vanilla chain
/// mixes slowly when the survival product prod q_i is not small.
///
/// kCollapsed marginalizes R out of every other conditional (the sums over
/// R have closed forms; see DESIGN.md) and draws R last from its exact
/// conditional — the same invariant posterior with near-iid mixing. Both
/// schemes are verified to agree in tests/integration/.
enum class SamplerScheme {
  kCollapsed,  ///< default
  kVanilla,
};

/// Stable family id ("poisson" / "negbin" / "sizebiased") — the registry
/// record's id string, used by the CLI, the serve protocol and the
/// canonical artifact serialization.
std::string to_string(PriorKind prior);

/// Inverse of to_string(PriorKind); nullopt for unknown names.
std::optional<PriorKind> prior_kind_from_string(const std::string& name);

/// "collapsed" / "vanilla".
std::string to_string(SamplerScheme scheme);

/// Inverse of to_string(SamplerScheme); nullopt for unknown names.
std::optional<SamplerScheme> sampler_scheme_from_string(
    const std::string& name);

/// Upper limits of the uniform hyperpriors — the quantities the paper tunes
/// by WAIC minimization (Section 5.1) — plus the optional Jeffreys variant
/// for lambda0 flagged as future work in Section 6.
struct HyperPriorConfig {
  double lambda_max = 2000.0;  ///< support of lambda0 (Poisson prior)
  double alpha_max = 100.0;    ///< support of alpha0 (NB prior)
  DetectionModelLimits limits{};
  /// Replace the Uniform(0, lambda_max) hyperprior on lambda0 with the
  /// Jeffreys prior for a Poisson rate, pi(lambda) ∝ lambda^{-1/2}
  /// (truncated to the same support). Ablation for the paper's Section 6.
  bool jeffreys_lambda0 = false;
  /// Gibbs blocking scheme; see SamplerScheme.
  SamplerScheme scheme = SamplerScheme::kCollapsed;
};

/// Which hyperprior limit the WAIC tuning grid searches for this family.
enum class TunedScale {
  kLambdaMax,  ///< families with a lambda0-style rate hyperparameter
  kAlphaMax,   ///< families with an alpha0-style shape hyperparameter
};

/// One registered model family. The table in model_family.cpp is constant;
/// its order is presentation order (tables, help text, select grids).
struct ModelFamily {
  PriorKind kind;
  std::string id;            ///< stable identity: CLI, serve, artifacts
  std::string display_name;  ///< "Poisson (NHPP)" — README / docs label
  std::string table_title;   ///< report section title, e.g. "(i) Poisson prior."
  std::string summary;       ///< one-line description for --help and docs
  std::string reference;     ///< citation shown in the generated model table
  /// Member of the paper's reproduction grid (the default sweep).
  bool reproduction = false;
  /// Detection kinds in this family's `select`/`sweep` grid, in column
  /// order.
  std::vector<DetectionModelKind> selection_models;
  /// Every detection kind the family accepts (superset of
  /// selection_models).
  std::vector<DetectionModelKind> accepted_models;
  /// Detection kind used when a request names the family but no model.
  DetectionModelKind default_model = DetectionModelKind::kConstant;
  /// State-vector names between the residual slot and the zeta block.
  std::vector<std::string> hyper_parameter_names;
  /// Which hyperprior limit the tuning grid searches.
  TunedScale tuned_scale = TunedScale::kLambdaMax;
};

/// The process registry: the reproduction families in paper order, then
/// the library extensions. Constant after start-up; model_families()
/// returns the one instance.
class ModelFamilyRegistry {
 public:
  explicit ModelFamilyRegistry(std::vector<ModelFamily> families)
      : families_(std::move(families)) {}

  /// All families in presentation order.
  [[nodiscard]] const std::vector<ModelFamily>& families() const {
    return families_;
  }

 private:
  std::vector<ModelFamily> families_;
};

/// The process registry.
const ModelFamilyRegistry& model_families();

/// Registry record for `kind`. Throws support::InvalidArgument for a value
/// outside the enum.
const ModelFamily& family(PriorKind kind);

/// Registry record by id string, or nullptr.
const ModelFamily* find_family(std::string_view id);

/// Registered ids joined with `separator` — error/help text listing the
/// accepted family names ("poisson|negbin|sizebiased").
std::string family_ids_joined(char separator = '|');

/// Kinds of the reproduction families, in registration order — the default
/// sweep grid.
std::vector<PriorKind> reproduction_family_kinds();

/// Throws support::InvalidArgument unless `family` accepts `model`; the
/// message lists the family's accepted detection-model names.
void validate_family_model(PriorKind family, DetectionModelKind model);

/// Most Gibbs scans one fit may run: chains x (burn_in + iterations x
/// thin). At the slowest model's ~60 us per scan that is about a minute of
/// one worker, and it caps the retained draws the sinks allocate for. The
/// largest run in the tree (the scheme-equivalence test's thinned chains,
/// 2 x (1000 + 6000 x 10)) is 8x under it; the paper's fits run 6000.
inline constexpr std::size_t kMaxGibbsScans = 1'000'000;

/// Throws support::InvalidArgument, with a plain message naming the serve
/// field, unless the settings can run: chains, iterations and thin >= 1;
/// at most kMaxGibbsScans scans; lambda_max > 0, plus alpha_max and
/// theta_max > 0 for the families that read them. make_model runs it
/// before constructing.
void validate_family_gibbs(PriorKind family, const HyperPriorConfig& config,
                           const mcmc::GibbsOptions& gibbs);

/// Renders the registry as the Markdown model table embedded in README.md
/// (`srm_cli families --format markdown` emits it; a docs test pins the
/// README copy to this output).
std::string render_family_table_markdown();

}  // namespace srm::core
