#include "core/bayes_srm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/conjugate.hpp"
#include "core/likelihood.hpp"
#include "mcmc/metropolis.hpp"
#include "mcmc/slice.hpp"
#include "random/samplers.hpp"
#include "stats/beta.hpp"
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
}  // namespace

BayesianSrm::BayesianSrm(PriorKind prior, DetectionModelKind model_kind,
                         data::BugCountData data, HyperPriorConfig config)
    : prior_(prior),
      model_(make_detection_model(model_kind)),
      data_(std::move(data)),
      config_(config),
      zeta_supports_(model_->parameter_supports(config.limits)) {
  SRM_EXPECTS(config.lambda_max > 0.0, "lambda_max must be positive");
  if (prior_ == PriorKind::kSizeBiased) {
    SRM_EXPECTS(model_kind == DetectionModelKind::kSizeBiasedMultinomial,
                "the size-biased family only accepts its multinomial "
                "detection model");
    SRM_EXPECTS(config.limits.sb_shape_max > 0.0,
                "sb_shape_max must be positive");
    SRM_EXPECTS(config.limits.sb_scale_max > 0.0,
                "sb_scale_max must be positive");
    return;
  }
  SRM_EXPECTS(config.alpha_max > 0.0, "alpha_max must be positive");
  SRM_EXPECTS(config.limits.theta_max > 0.0, "theta_max must be positive");
  SRM_EXPECTS(config.limits.gamma_bound > 0.0, "gamma_bound must be positive");
}

BayesianSrm::Workspace::Workspace(const BayesianSrm& model)
    : zeta(model.model_->parameter_count(), 0.0),
      probe(model.model_->parameter_count(), 0.0),
      proposal(model.model_->parameter_count(), 0.0),
      probabilities(model.data_.days(), 0.0),
      log_survivals(model.data_.days(), 0.0) {}

std::unique_ptr<mcmc::GibbsWorkspace> BayesianSrm::make_workspace() const {
  return std::make_unique<Workspace>(*this);
}

std::vector<std::string> BayesianSrm::parameter_names() const {
  std::vector<std::string> names{"residual"};
  if (poisson_content()) {
    names.emplace_back("lambda0");
  } else {
    names.emplace_back("alpha0");
    names.emplace_back("beta0");
  }
  for (const auto& support : zeta_supports_) names.push_back(support.name);
  return names;
}

std::vector<double> BayesianSrm::initial_state(random::Rng& rng) const {
  std::vector<double> state(state_size(), 0.0);
  if (poisson_content()) {
    state[1] = interior_uniform(rng, 0.0, config_.lambda_max);
  } else {
    state[1] = interior_uniform(rng, 0.0, config_.alpha_max);
    state[2] = interior_uniform(rng, 0.0, 1.0);
  }
  for (std::size_t j = 0; j < zeta_supports_.size(); ++j) {
    state[zeta_offset() + j] =
        interior_uniform(rng, zeta_supports_[j].lower, zeta_supports_[j].upper);
  }
  // Draw the residual from its exact conditional so the state is coherent.
  Workspace scratch(*this);
  const auto zeta =
      std::span<const double>(state).subspan(zeta_offset());
  update_residual(state, rng, stable_survival(zeta, scratch));
  return state;
}

void BayesianSrm::update(std::vector<double>& state, random::Rng& rng,
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

void BayesianSrm::update_with(std::vector<double>& state, random::Rng& rng,
                              Workspace& ws) const {
  if (config_.scheme == SamplerScheme::kCollapsed) {
    // R is integrated out of the zeta and hyperparameter conditionals and
    // re-drawn exactly at the end of the scan, eliminating the R-scale
    // coupling that slows the vanilla scheme.
    update_zeta_collapsed(state, rng, ws);
    update_hyperparameters_collapsed(state, rng, ws);
    const auto zeta = std::span<const double>(state).subspan(zeta_offset());
    update_residual(state, rng, stable_survival(zeta, ws));
  } else {
    const auto zeta = std::span<const double>(state).subspan(zeta_offset());
    update_residual(state, rng, stable_survival(zeta, ws));
    update_hyperparameters(state, rng);
    update_zeta(state, rng, ws);
  }
}

void BayesianSrm::update_residual(std::vector<double>& state,
                                  random::Rng& rng, double survival) const {
  if (poisson_content()) {
    const auto posterior = poisson_residual_posterior(
        std::max(state[1], 1e-12), data_, survival);
    state[residual_index()] = static_cast<double>(posterior.sample(rng));
  } else {
    const auto posterior = negative_binomial_residual_posterior(
        std::max(state[1], 1e-12), std::clamp(state[2], 1e-12, 1.0 - 1e-12),
        data_, survival);
    state[residual_index()] = static_cast<double>(posterior.sample(rng));
  }
}

double BayesianSrm::stable_survival(std::span<const double> zeta,
                                    Workspace& ws) const {
  // prod q_i via the models' stable log-survival channel; a result that
  // underflows to 0 is the correct limit (residual posterior collapses).
  // One batch virtual call fills the workspace buffer, then the summation
  // runs in the exact day order the per-day loop used.
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

void BayesianSrm::update_hyperparameters(std::vector<double>& state,
                                         random::Rng& rng) const {
  const std::int64_t n = initial_bugs_of(state);
  if (poisson_content()) {
    // p(lambda0 | N) ∝ pi(lambda0) lambda0^N e^{-lambda0} on (0, lambda_max):
    // TruncatedGamma(N + 1, 1) under the uniform hyperprior, shape N + 1/2
    // under the Jeffreys variant pi ∝ lambda^{-1/2}.
    const double shape =
        static_cast<double>(n) + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
    state[1] = random::sample_truncated_gamma(rng, shape, 1.0,
                                              config_.lambda_max);
  } else {
    // beta0 | N, alpha0 ~ Beta(alpha0 + 1, N + 1)  [exact].
    const double alpha0 = std::max(state[1], 1e-12);
    state[2] = stats::Beta(alpha0 + 1.0, static_cast<double>(n) + 1.0)
                   .sample(rng);
    state[2] = std::clamp(state[2], 1e-12, 1.0 - 1e-12);
    // alpha0 | N, beta0 ∝ Gamma(N + alpha0)/Gamma(alpha0) * beta0^{alpha0}.
    const double beta0 = state[2];
    const double nd = static_cast<double>(n);
    const auto log_density = [nd, beta0](double a) {
      if (a <= 0.0) return kNegInf;
      return math::lgamma(nd + a) - math::lgamma(a) + a * std::log(beta0);
    };
    mcmc::SliceOptions options;
    options.lower = 1e-10;
    options.upper = config_.alpha_max;
    options.initial_width = config_.alpha_max / 10.0;
    state[1] = mcmc::slice_sample(rng, std::clamp(state[1], options.lower,
                                                  options.upper),
                                  log_density, options);
  }
}

void BayesianSrm::update_zeta(std::vector<double>& state, random::Rng& rng,
                              Workspace& ws) const {
  const std::int64_t n = initial_bugs_of(state);
  const std::size_t days = data_.days();
  auto& zeta = ws.zeta;
  zeta.assign(state.begin() + static_cast<long>(zeta_offset()), state.end());
  // The probe buffer mirrors zeta except at the coordinate under update:
  // each density evaluation writes only probe[j] instead of copying the
  // whole vector, and the coordinate is restored after its slice move.
  auto& probe = ws.probe;
  probe.assign(zeta.begin(), zeta.end());
  for (std::size_t j = 0; j < zeta.size(); ++j) {
    const auto& support = zeta_supports_[j];
    const auto log_density = [&](double value) {
      if (value <= support.lower || value >= support.upper) return kNegInf;
      probe[j] = value;
      model_->detection_into(days, probe, ws.probabilities,
                             ws.log_survivals);
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

void BayesianSrm::update_hyperparameters_collapsed(
    std::vector<double>& state, random::Rng& rng, Workspace& ws) const {
  const auto zeta = std::span<const double>(state).subspan(zeta_offset());
  const double survival = stable_survival(zeta, ws);
  const double s_k = static_cast<double>(data_.total());
  if (poisson_content()) {
    // p(lambda0 | zeta, x) ∝ pi(lambda0) lambda0^{s_k} e^{-lambda0 (1-Q)}:
    // TruncatedGamma(s_k + 1, 1 - Q) under the uniform hyperprior (shape
    // s_k + 1/2 for Jeffreys). Rate is clamped away from 0 for the
    // degenerate no-detection case Q = 1.
    const double shape = s_k + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
    const double rate = std::max(1.0 - survival, 1e-12);
    state[1] =
        random::sample_truncated_gamma(rng, shape, rate, config_.lambda_max);
  } else {
    // p(beta0 | alpha0, zeta, x) ∝ beta0^{alpha0} (1-beta0)^{s_k}
    //                              (1 - (1-beta0) Q)^{-(s_k+alpha0)}.
    const double q = survival;
    {
      const double alpha0 = std::max(state[1], 1e-12);
      const auto log_density = [&](double b) {
        if (b <= 0.0 || b >= 1.0) return kNegInf;
        const double z = std::clamp((1.0 - b) * q, 0.0, 1.0 - 1e-16);
        return alpha0 * std::log(b) + s_k * std::log1p(-b) -
               (s_k + alpha0) * std::log1p(-z);
      };
      mcmc::SliceOptions options;
      options.lower = 1e-12;
      options.upper = 1.0 - 1e-12;
      options.initial_width = 0.1;
      state[2] = mcmc::slice_sample(
          rng, std::clamp(state[2], options.lower, options.upper),
          log_density, options);
    }
    // p(alpha0 | beta0, zeta, x) ∝ Gamma(s_k+alpha0)/Gamma(alpha0)
    //                              beta0^{alpha0} (1-z)^{-(s_k+alpha0)}.
    {
      const double beta0 = state[2];
      const double z = std::clamp((1.0 - beta0) * q, 0.0, 1.0 - 1e-16);
      const double log_one_minus_z = std::log1p(-z);
      const auto log_density = [&](double a) {
        if (a <= 0.0) return kNegInf;
        return math::lgamma(s_k + a) - math::lgamma(a) + a * std::log(beta0) -
               (s_k + a) * log_one_minus_z;
      };
      mcmc::SliceOptions options;
      options.lower = 1e-10;
      options.upper = config_.alpha_max;
      options.initial_width = config_.alpha_max / 10.0;
      state[1] = mcmc::slice_sample(
          rng, std::clamp(state[1], options.lower, options.upper),
          log_density, options);
    }
    // Joint (alpha0, beta0) independence-Metropolis move on their collapsed
    // conditional, to break the strong alpha0-beta0 ridge the two 1-D
    // updates crawl along. Same invariant distribution; the uniform
    // hyperprior makes the proposal density cancel.
    {
      const auto log_joint_hyper = [&](double a, double b) {
        if (a <= 0.0 || a >= config_.alpha_max || b <= 0.0 || b >= 1.0) {
          return kNegInf;
        }
        const double z = std::clamp((1.0 - b) * q, 0.0, 1.0 - 1e-16);
        return math::lgamma(s_k + a) - math::lgamma(a) + a * std::log(b) +
               s_k * std::log1p(-b) - (s_k + a) * std::log1p(-z);
      };
      double a = 0.0;
      double b = 0.0;
      mcmc::independence_metropolis(
          rng, 5, log_joint_hyper(state[1], state[2]),
          [&](random::Rng& proposal_rng) {
            a = proposal_rng.uniform(0.0, config_.alpha_max);
            b = proposal_rng.uniform(0.0, 1.0);
            return log_joint_hyper(a, b);
          },
          [&] {
            state[1] = a;
            state[2] = std::clamp(b, 1e-12, 1.0 - 1e-12);
          });
    }
  }
}

void BayesianSrm::update_zeta_collapsed(std::vector<double>& state,
                                        random::Rng& rng,
                                        Workspace& ws) const {
  auto& zeta = ws.zeta;
  zeta.assign(state.begin() + static_cast<long>(zeta_offset()), state.end());
  const double s_k = static_cast<double>(data_.total());
  const std::size_t days = data_.days();

  // Collapsed marginal log-density of a full zeta vector, evaluated through
  // the workspace's probability/log-survival buffers (no allocation).
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
    if (poisson_content()) {
      // lambda0 is integrated out as well (its conditional is a truncated
      // gamma, so the normalizer is available in closed form):
      //   p(zeta | x) ∝ base(zeta) * Gamma(shape) (1-Q)^{-shape}
      //                 * P(shape, lambda_max (1-Q)),
      // with shape = s_k + 1 (uniform hyperprior) or s_k + 1/2 (Jeffreys).
      const double shape = s_k + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
      const double rate = std::max(1.0 - survival, 1e-300);
      return base - shape * std::log(rate) +
             math::log_regularized_gamma_p(shape, config_.lambda_max * rate);
    }
    const double z =
        std::clamp((1.0 - state[2]) * survival, 0.0, 1.0 - 1e-16);
    return base - (s_k + state[1]) * std::log1p(-z);
  };

  // Probe buffer mirrors zeta outside the coordinate under update, exactly
  // as in the vanilla path.
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

  // Mode-jump move: component-wise slice sampling cannot cross between
  // well-separated posterior modes (model2's (mu, gamma) surface is
  // genuinely multimodal on some datasets), so finish the scan with an
  // independence-Metropolis proposal drawn uniformly from the prior box.
  // The move targets the same collapsed marginal, so correctness is
  // unaffected; acceptance is rare but sufficient to mix across modes.
  // Uniform prior => the proposal density cancels in the MH ratio.
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

std::int64_t BayesianSrm::initial_bugs_of(
    std::span<const double> state) const {
  return data_.total() +
         static_cast<std::int64_t>(std::llround(state[residual_index()]));
}

std::vector<double> BayesianSrm::detection_probabilities(
    std::span<const double> zeta) const {
  return model_->probabilities(data_.days(), zeta);
}

void BayesianSrm::pointwise_row(std::span<const double> state,
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
  const std::int64_t initial_bugs = initial_bugs_of(state);
  for (std::size_t day = 1; day <= data_.days(); ++day) {
    out[day - 1] =
        log_pointwise_likelihood(data_, day, initial_bugs, ws->probabilities);
  }
}

double BayesianSrm::log_joint(std::span<const double> state) const {
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  const std::int64_t n = initial_bugs_of(state);
  const auto zeta = state.subspan(zeta_offset());
  for (std::size_t j = 0; j < zeta.size(); ++j) {
    if (zeta[j] <= zeta_supports_[j].lower ||
        zeta[j] >= zeta_supports_[j].upper) {
      return kNegInf;
    }
  }

  double log_prior;
  if (poisson_content()) {
    const double lambda0 = state[1];
    if (lambda0 <= 0.0 || lambda0 >= config_.lambda_max) return kNegInf;
    log_prior = static_cast<double>(n) * std::log(lambda0) - lambda0 -
                math::log_factorial(n);
    if (config_.jeffreys_lambda0) log_prior -= 0.5 * std::log(lambda0);
  } else {
    const double alpha0 = state[1];
    const double beta0 = state[2];
    if (alpha0 <= 0.0 || alpha0 >= config_.alpha_max || beta0 <= 0.0 ||
        beta0 >= 1.0) {
      return kNegInf;
    }
    log_prior = math::log_negbinomial_coefficient(alpha0, n) +
                alpha0 * std::log(beta0) +
                static_cast<double>(n) * std::log1p(-beta0);
  }
  return log_prior +
         log_likelihood(data_, n, detection_probabilities(zeta));
}

std::unique_ptr<BayesianSrm> make_model(PriorKind prior,
                                        DetectionModelKind model,
                                        data::BugCountData data,
                                        const HyperPriorConfig& config,
                                        const mcmc::GibbsOptions& gibbs) {
  validate_family_model(prior, model);
  validate_family_gibbs(prior, config, gibbs);
  return std::make_unique<BayesianSrm>(prior, model, std::move(data), config);
}

}  // namespace srm::core
