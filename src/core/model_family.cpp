#include "core/model_family.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::core {

namespace {

std::string accepted_model_names(const ModelFamily& family) {
  std::string names;
  for (const auto kind : family.accepted_models) {
    if (!names.empty()) names += '|';
    names += to_string(kind);
  }
  return names;
}

std::vector<ModelFamily> shipped_families() {
  // The Poisson and negative binomial families select the paper's five
  // detection models and also accept the library extensions.
  const auto paper = all_detection_model_kinds();
  const auto extended = extended_detection_model_kinds();
  const std::vector<DetectionModelKind> paper_models(paper.begin(),
                                                     paper.end());
  auto accepted = paper_models;
  accepted.insert(accepted.end(), extended.begin(), extended.end());
  return {
      {.kind = PriorKind::kPoisson,
       .id = "poisson",
       .display_name = "Poisson prior (NHPP)",
       .table_title = "(i) Poisson prior.",
       .summary = "Poisson(lambda0) initial bug content — the NHPP-based SRM "
                  "(Rallis-Lansdowne), lambda0 under a uniform hyperprior",
       .reference = "Rallis-Lansdowne; source paper Sec. 3.1",
       .reproduction = true,
       .selection_models = paper_models,
       .accepted_models = accepted,
       .default_model = DetectionModelKind::kConstant,
       .hyper_parameter_names = {"lambda0"},
       .tuned_scale = TunedScale::kLambdaMax},
      {.kind = PriorKind::kNegativeBinomial,
       .id = "negbin",
       .display_name = "Negative binomial prior (NHMPP)",
       .table_title = "(ii) Negative binomial prior.",
       .summary =
           "NegBin(alpha0, beta0) initial bug content — the NHMPP-based SRM "
           "(heterogeneous Chun), alpha0 slice-sampled under a uniform "
           "hyperprior",
       .reference = "heterogeneous Chun; source paper Sec. 3.2",
       .reproduction = true,
       .selection_models = paper_models,
       .accepted_models = accepted,
       .default_model = DetectionModelKind::kConstant,
       .hyper_parameter_names = {"alpha0", "beta0"},
       .tuned_scale = TunedScale::kAlphaMax},
      {.kind = PriorKind::kSizeBiased,
       .id = "sizebiased",
       .display_name = "Size-biased prior (multinomial)",
       .table_title = "(iii) Size-biased prior.",
       .summary = "Poisson(lambda0) bug content with per-bug Gamma(shape, "
                  "scale) detectability thinned day by day — big bugs found "
                  "first (Dey-Chakraborty)",
       .reference = "Dey-Chakraborty, arXiv:2202.08107 / 2406.04360",
       .reproduction = false,
       .selection_models = {DetectionModelKind::kSizeBiasedMultinomial},
       .accepted_models = {DetectionModelKind::kSizeBiasedMultinomial},
       .default_model = DetectionModelKind::kSizeBiasedMultinomial,
       .hyper_parameter_names = {"lambda0"},
       .tuned_scale = TunedScale::kLambdaMax},
  };
}

}  // namespace

std::string to_string(PriorKind prior) { return family(prior).id; }

std::optional<PriorKind> prior_kind_from_string(const std::string& name) {
  const ModelFamily* found = find_family(name);
  if (found == nullptr) return std::nullopt;
  return found->kind;
}

std::string to_string(SamplerScheme scheme) {
  return scheme == SamplerScheme::kCollapsed ? "collapsed" : "vanilla";
}

std::optional<SamplerScheme> sampler_scheme_from_string(
    const std::string& name) {
  if (name == "collapsed") return SamplerScheme::kCollapsed;
  if (name == "vanilla") return SamplerScheme::kVanilla;
  return std::nullopt;
}

const ModelFamilyRegistry& model_families() {
  static const ModelFamilyRegistry registry(shipped_families());
  return registry;
}

const ModelFamily& family(PriorKind kind) {
  for (const ModelFamily& entry : model_families().families()) {
    if (entry.kind == kind) return entry;
  }
  throw InvalidArgument("model family kind is not registered");
}

const ModelFamily* find_family(std::string_view id) {
  for (const ModelFamily& entry : model_families().families()) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

std::string family_ids_joined(char separator) {
  std::string joined;
  for (const ModelFamily& entry : model_families().families()) {
    if (!joined.empty()) joined += separator;
    joined += entry.id;
  }
  return joined;
}

std::vector<PriorKind> reproduction_family_kinds() {
  std::vector<PriorKind> kinds;
  for (const ModelFamily& entry : model_families().families()) {
    if (entry.reproduction) kinds.push_back(entry.kind);
  }
  return kinds;
}

void validate_family_model(PriorKind prior, DetectionModelKind model) {
  const ModelFamily& entry = family(prior);
  if (std::find(entry.accepted_models.begin(), entry.accepted_models.end(),
                model) != entry.accepted_models.end()) {
    return;
  }
  throw InvalidArgument("family " + entry.id +
                        " does not accept detection model " + to_string(model) +
                        "; use " + accepted_model_names(entry));
}

void validate_family_gibbs(PriorKind prior, const HyperPriorConfig& config,
                           const mcmc::GibbsOptions& gibbs) {
  require_input(gibbs.chain_count >= 1, "gibbs.chains must be >= 1");
  require_input(gibbs.iterations >= 1, "gibbs.iterations must be >= 1");
  require_input(gibbs.thin >= 1, "gibbs.thin must be >= 1");
  // chains x (burn_in + iterations x thin) <= kMaxGibbsScans, checked one
  // factor at a time so no product or sum can wrap.
  const bool within_budget =
      gibbs.iterations <= kMaxGibbsScans / gibbs.thin &&
      gibbs.burn_in <= kMaxGibbsScans - gibbs.iterations * gibbs.thin &&
      gibbs.chain_count <=
          kMaxGibbsScans / (gibbs.burn_in + gibbs.iterations * gibbs.thin);
  require_input(within_budget,
                "gibbs.chains x (gibbs.burn_in + gibbs.iterations x "
                "gibbs.thin) must be <= " +
                    support::dec(kMaxGibbsScans) + " Gibbs scans");
  require_input(config.lambda_max > 0.0, "config.lambda_max must be > 0");
  // The size-biased family reads neither alpha_max nor theta_max.
  if (prior != PriorKind::kSizeBiased) {
    require_input(config.alpha_max > 0.0, "config.alpha_max must be > 0");
    require_input(config.limits.theta_max > 0.0,
                  "config.theta_max must be > 0");
  }
}

std::string render_family_table_markdown() {
  std::string table =
      "| Family | Id | Detection models | Hyper-parameters | Reference |\n"
      "| --- | --- | --- | --- | --- |\n";
  for (const ModelFamily& entry : model_families().families()) {
    table += "| ";
    table += entry.display_name;
    table += " | `";
    table += entry.id;
    table += "` | ";
    for (std::size_t i = 0; i < entry.accepted_models.size(); ++i) {
      if (i != 0) table += ", ";
      table += '`';
      table += to_string(entry.accepted_models[i]);
      table += '`';
    }
    table += " | ";
    for (std::size_t i = 0; i < entry.hyper_parameter_names.size(); ++i) {
      if (i != 0) table += ", ";
      table += '`';
      table += entry.hyper_parameter_names[i];
      table += '`';
    }
    table += " | ";
    table += entry.reference;
    table += " |\n";
  }
  return table;
}

}  // namespace srm::core
