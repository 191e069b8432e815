#include "core/size_biased.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/conjugate.hpp"
#include "core/likelihood.hpp"
#include "mcmc/metropolis.hpp"
#include "mcmc/slice.hpp"
#include "random/samplers.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace srm::core {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Keeps initial draws strictly inside an open support.
double interior_uniform(random::Rng& rng, double lo, double hi) {
  const double margin = 0.05 * (hi - lo);
  return rng.uniform(lo + margin, hi - margin);
}

// The size-biased multinomial detection likelihood as a DetectionModel:
// the per-bug Gamma(shape, scale) detectability thinned day by day yields
// the survivor hazard
//
//   log q_i = shape * (log(scale + i - 1) - log(scale + i)),
//   p_i     = 1 - q_i = -expm1(log q_i).
//
// Both channels run through the log form: q_i itself never underflows for
// admissible (shape, scale) but the log form is the exact quantity the
// likelihood kernels consume, and -expm1 keeps p_i fully accurate when
// q_i ~ 1 (large scale, the common posterior region).
class SizeBiasedDetection final : public DetectionModel {
 public:
  [[nodiscard]] DetectionModelKind kind() const override {
    return DetectionModelKind::kSizeBiasedMultinomial;
  }

  [[nodiscard]] std::string name() const override { return "multinomial"; }

  [[nodiscard]] std::size_t parameter_count() const override { return 2; }

  [[nodiscard]] std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"shape", 0.0, limits.sb_shape_max},
            {"scale", 0.0, limits.sb_scale_max}};
  }

  [[nodiscard]] double probability(std::size_t day,
                                   std::span<const double> zeta)
      const override {
    return -std::expm1(log_survival(day, zeta));
  }

  [[nodiscard]] double log_survival(std::size_t day,
                                    std::span<const double> zeta)
      const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    return shape * (std::log(scale + static_cast<double>(day - 1)) -
                    std::log(scale + static_cast<double>(day)));
  }

  // Batch channels: one log per day instead of two — log(scale + i - 1) at
  // day i is exactly the log(scale + i) computed at day i - 1, so the loop
  // carries it. Bit-identical to the scalar channel because the carried
  // value is std::log of the same double (scale + double(day - 1)).
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    double prev = std::log(scale);
    for (std::size_t i = 0; i < days; ++i) {
      const double cur = std::log(scale + static_cast<double>(i + 1));
      out[i] = -std::expm1(shape * (prev - cur));
      prev = cur;
    }
  }

  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    double prev = std::log(scale);
    for (std::size_t i = 0; i < days; ++i) {
      const double cur = std::log(scale + static_cast<double>(i + 1));
      out[i] = shape * (prev - cur);
      prev = cur;
    }
  }

  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    double prev = std::log(scale);
    for (std::size_t i = 0; i < days; ++i) {
      const double cur = std::log(scale + static_cast<double>(i + 1));
      const double log_q = shape * (prev - cur);
      log_survivals_out[i] = log_q;
      probabilities_out[i] = -std::expm1(log_q);
      prev = cur;
    }
  }
};

}  // namespace

std::unique_ptr<DetectionModel> make_size_biased_detection() {
  return std::make_unique<SizeBiasedDetection>();
}

SizeBiasedSrm::SizeBiasedSrm(DetectionModelKind model_kind,
                             data::BugCountData data, HyperPriorConfig config)
    : model_(make_size_biased_detection()),
      data_(std::move(data)),
      config_(config),
      zeta_supports_(model_->parameter_supports(config.limits)) {
  SRM_EXPECTS(model_kind == DetectionModelKind::kSizeBiasedMultinomial,
              "the size-biased family only accepts its multinomial "
              "detection model");
  SRM_EXPECTS(config.lambda_max > 0.0, "lambda_max must be positive");
  SRM_EXPECTS(config.limits.sb_shape_max > 0.0,
              "sb_shape_max must be positive");
  SRM_EXPECTS(config.limits.sb_scale_max > 0.0,
              "sb_scale_max must be positive");
}

SizeBiasedSrm::Workspace::Workspace(const SizeBiasedSrm& model)
    : zeta(model.model_->parameter_count(), 0.0),
      probe(model.model_->parameter_count(), 0.0),
      proposal(model.model_->parameter_count(), 0.0),
      probabilities(model.data_.days(), 0.0),
      log_survivals(model.data_.days(), 0.0) {}

std::unique_ptr<mcmc::GibbsWorkspace> SizeBiasedSrm::make_workspace() const {
  return std::make_unique<Workspace>(*this);
}

std::vector<std::string> SizeBiasedSrm::parameter_names() const {
  std::vector<std::string> names{"residual", "lambda0"};
  for (const auto& support : zeta_supports_) names.push_back(support.name);
  return names;
}

std::vector<double> SizeBiasedSrm::initial_state(random::Rng& rng) const {
  std::vector<double> state(state_size(), 0.0);
  state[1] = interior_uniform(rng, 0.0, config_.lambda_max);
  for (std::size_t j = 0; j < zeta_supports_.size(); ++j) {
    state[zeta_offset() + j] =
        interior_uniform(rng, zeta_supports_[j].lower, zeta_supports_[j].upper);
  }
  // Draw the residual from its exact conditional so the state is coherent.
  Workspace scratch(*this);
  const auto zeta = std::span<const double>(state).subspan(zeta_offset());
  update_residual(state, rng, stable_survival(zeta, scratch));
  return state;
}

void SizeBiasedSrm::update(std::vector<double>& state, random::Rng& rng,
                           mcmc::GibbsWorkspace* workspace) const {
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  if (workspace != nullptr) {
    auto* ws = dynamic_cast<Workspace*>(workspace);
    SRM_EXPECTS(ws != nullptr,
                "update() requires a workspace from make_workspace()");
    update_with(state, rng, *ws);
    return;
  }
  Workspace scratch(*this);
  update_with(state, rng, scratch);
}

void SizeBiasedSrm::update_with(std::vector<double>& state, random::Rng& rng,
                                Workspace& ws) const {
  if (config_.scheme == SamplerScheme::kCollapsed) {
    // Same blocking as the Poisson family: R and lambda0 are integrated out
    // of the (shape, scale) conditional, lambda0 is re-drawn from its
    // truncated-gamma conditional, and R is re-drawn exactly last.
    update_zeta_collapsed(state, rng, ws);
    update_lambda0_collapsed(state, rng, ws);
    const auto zeta = std::span<const double>(state).subspan(zeta_offset());
    update_residual(state, rng, stable_survival(zeta, ws));
  } else {
    const auto zeta = std::span<const double>(state).subspan(zeta_offset());
    update_residual(state, rng, stable_survival(zeta, ws));
    update_lambda0(state, rng);
    update_zeta(state, rng, ws);
  }
}

void SizeBiasedSrm::update_residual(std::vector<double>& state,
                                    random::Rng& rng, double survival) const {
  // Proposition 1 applies verbatim: the bug-content layer is Poisson, and
  // the size-biased multinomial factorizes into the sequential-binomial
  // form of Eq (2), so R | lambda0, zeta ~ Poisson(lambda0 * Q_k).
  const auto posterior =
      poisson_residual_posterior(std::max(state[1], 1e-12), data_, survival);
  state[residual_index()] = static_cast<double>(posterior.sample(rng));
}

double SizeBiasedSrm::stable_survival(std::span<const double> zeta,
                                      Workspace& ws) const {
  // Q_k = (scale / (scale + k))^shape through the stable log channel; the
  // ordered summation matches the per-day loop exactly (identity contract
  // shared with BayesianSrm::stable_survival).
  const std::size_t days = data_.days();
  model_->log_survivals_into(days, zeta, ws.log_survivals);
  double sum = 0.0;
  for (std::size_t i = 0; i < days; ++i) {
    const double log_q = ws.log_survivals[i];
    if (log_q == kNegInf) return 0.0;
    sum += log_q;
  }
  return std::exp(sum);
}

void SizeBiasedSrm::update_lambda0(std::vector<double>& state,
                                   random::Rng& rng) const {
  // p(lambda0 | N) ∝ pi(lambda0) lambda0^N e^{-lambda0} on (0, lambda_max):
  // TruncatedGamma(N + 1, 1) under the uniform hyperprior, shape N + 1/2
  // under the Jeffreys variant pi ∝ lambda^{-1/2}.
  const std::int64_t n = initial_bugs_of(state);
  const double shape =
      static_cast<double>(n) + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
  state[1] =
      random::sample_truncated_gamma(rng, shape, 1.0, config_.lambda_max);
}

void SizeBiasedSrm::update_zeta(std::vector<double>& state, random::Rng& rng,
                                Workspace& ws) const {
  const std::int64_t n = initial_bugs_of(state);
  const std::size_t days = data_.days();
  auto& zeta = ws.zeta;
  zeta.assign(state.begin() + static_cast<long>(zeta_offset()), state.end());
  // Probe buffer mirrors zeta outside the coordinate under update, exactly
  // as in BayesianSrm::update_zeta.
  auto& probe = ws.probe;
  probe.assign(zeta.begin(), zeta.end());
  for (std::size_t j = 0; j < zeta.size(); ++j) {
    const auto& support = zeta_supports_[j];
    const auto log_density = [&](double value) {
      if (value <= support.lower || value >= support.upper) return kNegInf;
      probe[j] = value;
      model_->detection_into(days, probe, ws.probabilities, ws.log_survivals);
      return log_likelihood_zeta_kernel(data_, n, ws.probabilities,
                                        ws.log_survivals);
    };
    mcmc::SliceOptions options;
    options.lower = support.lower;
    options.upper = support.upper;
    options.initial_width = (support.upper - support.lower) / 10.0;
    zeta[j] = mcmc::slice_sample(
        rng,
        std::clamp(zeta[j], support.lower + 1e-12, support.upper - 1e-12),
        log_density, options);
    probe[j] = zeta[j];
    state[zeta_offset() + j] = zeta[j];
  }
}

void SizeBiasedSrm::update_lambda0_collapsed(std::vector<double>& state,
                                             random::Rng& rng,
                                             Workspace& ws) const {
  // p(lambda0 | zeta, x) ∝ pi(lambda0) lambda0^{s_k} e^{-lambda0 (1-Q)}:
  // TruncatedGamma(s_k + 1, 1 - Q) under the uniform hyperprior (shape
  // s_k + 1/2 for Jeffreys), rate clamped away from 0 for Q = 1.
  const auto zeta = std::span<const double>(state).subspan(zeta_offset());
  const double survival = stable_survival(zeta, ws);
  const double s_k = static_cast<double>(data_.total());
  const double shape = s_k + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
  const double rate = std::max(1.0 - survival, 1e-12);
  state[1] =
      random::sample_truncated_gamma(rng, shape, rate, config_.lambda_max);
}

void SizeBiasedSrm::update_zeta_collapsed(std::vector<double>& state,
                                          random::Rng& rng,
                                          Workspace& ws) const {
  auto& zeta = ws.zeta;
  zeta.assign(state.begin() + static_cast<long>(zeta_offset()), state.end());
  const double s_k = static_cast<double>(data_.total());
  const std::size_t days = data_.days();

  // Collapsed marginal log-density of a full (shape, scale) vector: the
  // Poisson-prior closed form —
  //   p(zeta | x) ∝ base(zeta) * Gamma(g) (1-Q)^{-g} P(g, lambda_max (1-Q)),
  // with g = s_k + 1 (uniform hyperprior) or s_k + 1/2 (Jeffreys) — the
  // same marginal BayesianSrm uses, because the bug-content layer is
  // identical.
  const auto log_density_of = [&](std::span<const double> probe) {
    for (std::size_t j = 0; j < probe.size(); ++j) {
      if (probe[j] <= zeta_supports_[j].lower ||
          probe[j] >= zeta_supports_[j].upper) {
        return kNegInf;
      }
    }
    model_->detection_into(days, probe, ws.probabilities, ws.log_survivals);
    const double base = log_likelihood_collapsed_base(data_, ws.probabilities,
                                                      ws.log_survivals);
    if (base == kNegInf) return kNegInf;
    double log_q_sum = 0.0;
    for (std::size_t i = 0; i < days; ++i) log_q_sum += ws.log_survivals[i];
    const double survival =
        std::isfinite(log_q_sum) ? std::exp(log_q_sum) : 0.0;
    const double shape = s_k + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
    const double rate = std::max(1.0 - survival, 1e-300);
    return base - shape * std::log(rate) +
           math::log_regularized_gamma_p(shape, config_.lambda_max * rate);
  };

  auto& probe = ws.probe;
  probe.assign(zeta.begin(), zeta.end());
  for (std::size_t j = 0; j < zeta.size(); ++j) {
    const auto& support = zeta_supports_[j];
    const auto log_density = [&](double value) {
      probe[j] = value;
      return log_density_of(probe);
    };
    mcmc::SliceOptions options;
    options.lower = support.lower;
    options.upper = support.upper;
    options.initial_width = (support.upper - support.lower) / 10.0;
    zeta[j] = mcmc::slice_sample(
        rng,
        std::clamp(zeta[j], support.lower + 1e-12, support.upper - 1e-12),
        log_density, options);
    probe[j] = zeta[j];
    state[zeta_offset() + j] = zeta[j];
  }

  // Mode-jump move across the shape * log(1 + 1/scale) ridge: the two 1-D
  // slice updates crawl along it (any (shape, scale) with the same product
  // fits the early days almost equally well), so finish the scan with an
  // independence-Metropolis proposal from the prior box — same invariant
  // distribution, uniform prior makes the proposal density cancel.
  constexpr int kModeJumpProposals = 5;
  auto& proposal = ws.proposal;
  mcmc::independence_metropolis(
      rng, kModeJumpProposals, log_density_of(zeta),
      [&](random::Rng& proposal_rng) {
        for (std::size_t j = 0; j < zeta.size(); ++j) {
          proposal[j] = proposal_rng.uniform(zeta_supports_[j].lower,
                                             zeta_supports_[j].upper);
        }
        return log_density_of(proposal);
      },
      [&] {
        zeta = proposal;  // equal sizes: copies in place, no allocation
        for (std::size_t j = 0; j < zeta.size(); ++j) {
          state[zeta_offset() + j] = zeta[j];
        }
      });
}

std::int64_t SizeBiasedSrm::initial_bugs_of(
    std::span<const double> state) const {
  return data_.total() +
         static_cast<std::int64_t>(std::llround(state[residual_index()]));
}

bool SizeBiasedSrm::is_scan_workspace(
    const mcmc::GibbsWorkspace& workspace) const {
  return dynamic_cast<const Workspace*>(&workspace) != nullptr;
}

void SizeBiasedSrm::pointwise_row(std::span<const double> state,
                                  mcmc::GibbsWorkspace& workspace,
                                  std::span<double> out) const {
  auto* ws = dynamic_cast<Workspace*>(&workspace);
  SRM_EXPECTS(ws != nullptr,
              "pointwise_row requires a workspace from make_workspace()");
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  SRM_EXPECTS(out.size() >= data_.days(),
              "pointwise output needs one slot per testing day");
  model_->probabilities_into(data_.days(), state.subspan(zeta_offset()),
                             ws->probabilities);
  const std::int64_t n = initial_bugs_of(state);
  for (std::size_t day = 1; day <= data_.days(); ++day) {
    out[day - 1] =
        log_pointwise_likelihood(data_, day, n, ws->probabilities);
  }
}

std::vector<double> SizeBiasedSrm::pointwise_log_likelihood(
    std::span<const double> state) const {
  Workspace scratch(*this);
  std::vector<double> terms(data_.days());
  pointwise_row(state, scratch, terms);
  return terms;
}

double SizeBiasedSrm::log_joint(std::span<const double> state) const {
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  const std::int64_t n = initial_bugs_of(state);
  const auto zeta = state.subspan(zeta_offset());
  for (std::size_t j = 0; j < zeta.size(); ++j) {
    if (zeta[j] <= zeta_supports_[j].lower ||
        zeta[j] >= zeta_supports_[j].upper) {
      return kNegInf;
    }
  }
  const double lambda0 = state[1];
  if (lambda0 <= 0.0 || lambda0 >= config_.lambda_max) return kNegInf;
  double log_prior = static_cast<double>(n) * std::log(lambda0) - lambda0 -
                     math::log_factorial(n);
  if (config_.jeffreys_lambda0) log_prior -= 0.5 * std::log(lambda0);
  return log_prior +
         log_likelihood(data_, n, model_->probabilities(data_.days(), zeta));
}

void register_size_biased_family(ModelFamilyRegistry& registry) {
  ModelFamily family;
  family.kind = PriorKind::kSizeBiased;
  family.id = "sizebiased";
  family.display_name = "Size-biased prior (multinomial)";
  family.table_title = "(iii) Size-biased prior.";
  family.summary =
      "Poisson(lambda0) bug content with per-bug Gamma(shape, scale) "
      "detectability thinned day by day — big bugs found first "
      "(Dey-Chakraborty)";
  family.reference = "Dey-Chakraborty, arXiv:2202.08107 / 2406.04360";
  family.reproduction = false;
  family.selection_models = {DetectionModelKind::kSizeBiasedMultinomial};
  family.accepted_models = {DetectionModelKind::kSizeBiasedMultinomial};
  family.default_model = DetectionModelKind::kSizeBiasedMultinomial;
  family.hyper_parameter_names = {"lambda0"};
  family.tuned_scale = TunedScale::kLambdaMax;
  family.supports_vectorized = false;
  family.make = [](DetectionModelKind model, data::BugCountData data,
                   const HyperPriorConfig& config,
                   bool vectorized) -> std::unique_ptr<SrmModel> {
    SRM_EXPECTS(!vectorized,
                "the size-biased family has no --vectorized fork");
    return std::make_unique<SizeBiasedSrm>(model, std::move(data), config);
  };
  registry.add(std::move(family));
}

}  // namespace srm::core
