#include "core/detection_models.hpp"

#include <array>
#include <limits>
#include <cmath>

#include "core/detection_simd.hpp"
#include "core/detection_tables.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::core {

namespace {

// Each kind's `fill` is its formula, written once. Day-indexed constants
// (log d, the Pareto hazard exponent) live in the shared thread_local
// tables of detection_tables.hpp; each model pulls the column it needs.

class ConstantModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kConstant;
  }
  std::string name() const override { return "model0"; }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }

 protected:
  void fill(std::size_t first_day, std::size_t last_day,
            std::span<const double> zeta, std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];  // Eq (3)
    const double log_q = mu >= 1.0
                             ? -std::numeric_limits<double>::infinity()
                             : std::log1p(-mu);
    for (std::size_t day = first_day; day <= last_day; ++day) {
      const std::size_t i = day - first_day;
      if (!p_out.empty()) p_out[i] = mu;
      if (!log_q_out.empty()) log_q_out[i] = log_q;
    }
  }
};

class PadgettSpurrierModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kPadgettSpurrier;
  }
  std::string name() const override { return "model1"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"theta", 0.0, limits.theta_max}};
  }

 protected:
  void fill(std::size_t first_day, std::size_t last_day,
            std::span<const double> zeta, std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double theta = zeta[1];
    const double log_mu = std::log(mu);
    for (std::size_t day = first_day; day <= last_day; ++day) {
      const std::size_t i = day - first_day;
      const double denom = theta * static_cast<double>(day) + 1.0;
      if (!p_out.empty()) p_out[i] = 1.0 - mu / denom;  // Eq (4)
      // q_i = mu / (theta i + 1) exactly.
      if (!log_q_out.empty()) log_q_out[i] = log_mu - std::log(denom);
    }
  }
};

class LogLogisticModel final : public DetectionModel {
 public:
  explicit LogLogisticModel(bool vectorized) : vectorized_(vectorized) {}
  DetectionModelKind kind() const override {
    return DetectionModelKind::kLogLogistic;
  }
  std::string name() const override { return "model2"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"gamma", -limits.gamma_bound,
                               limits.gamma_bound}};
  }

 protected:
  void fill(std::size_t first_day, std::size_t last_day,
            std::span<const double> zeta, std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double gamma = zeta[1];
    const double one_minus_mu = 1.0 - mu;
    const auto& log_day = day_tables(last_day).log_day;
    for (std::size_t day = first_day; day <= last_day; ++day) {
      const std::size_t i = day - first_day;
      const double exponent = log_day[day - 1] - gamma + 1.0;
      // Both channels need mu^e for the same exponent; compute it once.
      const double t = std::pow(mu, exponent);
      if (!p_out.empty()) p_out[i] = one_minus_mu / (t + 1.0);  // Eq (5)
      // q = (mu^e + mu) / (mu^e + 1); for mu^e overflowing, q -> 1.
      if (!log_q_out.empty()) {
        log_q_out[i] =
            !std::isfinite(t) ? 0.0 : std::log(t + mu) - std::log1p(t);
      }
    }
  }
  void fill_batch(std::size_t days, std::span<const double> zeta,
                  std::span<double> p_out,
                  std::span<double> log_q_out) const override {
    if (vectorized_) {
      simd_kernels::loglogistic_detection(days, zeta[0], zeta[1],
                                          day_tables(days).log_day, p_out,
                                          log_q_out);
    } else {
      fill(1, days, zeta, p_out, log_q_out);
    }
  }

 private:
  bool vectorized_ = false;
};

class ParetoModel final : public DetectionModel {
 public:
  explicit ParetoModel(bool vectorized) : vectorized_(vectorized) {}
  DetectionModelKind kind() const override {
    return DetectionModelKind::kPareto;
  }
  std::string name() const override { return "model3"; }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }

 protected:
  void fill(std::size_t first_day, std::size_t last_day,
            std::span<const double> zeta, std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double log_mu = std::log(mu);
    const auto& exponents = day_tables(last_day).pareto_exponent;
    for (std::size_t day = first_day; day <= last_day; ++day) {
      const std::size_t i = day - first_day;
      const double exponent = exponents[day - 1];  // log(i+2) / (i+1)
      if (!p_out.empty()) p_out[i] = 1.0 - std::pow(mu, exponent);  // Eq (6)
      if (!log_q_out.empty()) log_q_out[i] = exponent * log_mu;
    }
  }
  void fill_batch(std::size_t days, std::span<const double> zeta,
                  std::span<double> p_out,
                  std::span<double> log_q_out) const override {
    if (vectorized_) {
      simd_kernels::pareto_detection(days, zeta[0],
                                     day_tables(days).pareto_exponent, p_out,
                                     log_q_out);
    } else {
      fill(1, days, zeta, p_out, log_q_out);
    }
  }

 private:
  bool vectorized_ = false;
};

class WeibullModel final : public DetectionModel {
 public:
  explicit WeibullModel(bool vectorized) : vectorized_(vectorized) {}
  DetectionModelKind kind() const override {
    return DetectionModelKind::kWeibull;
  }
  std::string name() const override { return "model4"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}, {"omega", 0.0, 1.0}};
  }

 protected:
  // The loop carries pow(day, omega): pow(d - 1, omega) at day d is
  // exactly pow(d, omega) from day d - 1 (integer days are exact doubles),
  // so each day costs one day-power instead of two.
  void fill(std::size_t first_day, std::size_t last_day,
            std::span<const double> zeta, std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double omega = zeta[1];
    const double log_mu = std::log(mu);
    double prev = std::pow(static_cast<double>(first_day - 1), omega);
    for (std::size_t day = first_day; day <= last_day; ++day) {
      const std::size_t i = day - first_day;
      const double cur = std::pow(static_cast<double>(day), omega);
      const double exponent = cur - prev;
      if (!p_out.empty()) p_out[i] = 1.0 - std::pow(mu, exponent);  // Eq (7)
      if (!log_q_out.empty()) log_q_out[i] = exponent * log_mu;
      prev = cur;
    }
  }
  void fill_batch(std::size_t days, std::span<const double> zeta,
                  std::span<double> p_out,
                  std::span<double> log_q_out) const override {
    if (vectorized_) {
      simd_kernels::weibull_detection(days, zeta[0], zeta[1],
                                      day_tables(days).log_day, p_out,
                                      log_q_out);
    } else {
      fill(1, days, zeta, p_out, log_q_out);
    }
  }

 private:
  bool vectorized_ = false;
};

class RayleighModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kRayleigh;
  }
  std::string name() const override { return "model5"; }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }

 protected:
  void fill(std::size_t first_day, std::size_t last_day,
            std::span<const double> zeta, std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double log_mu = std::log(mu);
    for (std::size_t day = first_day; day <= last_day; ++day) {
      const std::size_t i = day - first_day;
      // i^2 - (i-1)^2 = 2i - 1: the discrete Weibull of Eq (7) at shape 2,
      // i.e. a linearly increasing hazard exponent.
      const double exponent = 2.0 * static_cast<double>(day) - 1.0;
      if (!p_out.empty()) p_out[i] = 1.0 - std::pow(mu, exponent);
      if (!log_q_out.empty()) log_q_out[i] = exponent * log_mu;
    }
  }
};

class LearningCurveModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kLearningCurve;
  }
  std::string name() const override { return "model6"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"theta", 0.0, limits.theta_max}};
  }

 protected:
  void fill(std::size_t first_day, std::size_t last_day,
            std::span<const double> zeta, std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double one_minus_mu = 1.0 - mu;
    const double theta = zeta[1];
    for (std::size_t day = first_day; day <= last_day; ++day) {
      const std::size_t i = day - first_day;
      const double theta_i = theta * static_cast<double>(day);
      // Detection skill ramps from ~0 on day 1 toward the asymptote mu —
      // the "testers learn the system" mirror image of model1 (which
      // starts at 1 - mu and saturates at 1).
      if (!p_out.empty()) p_out[i] = mu * theta_i / (theta_i + 1.0);
      // q = (theta i (1 - mu) + 1) / (theta i + 1) exactly.
      if (!log_q_out.empty()) {
        log_q_out[i] =
            std::log(theta_i * one_minus_mu + 1.0) - std::log1p(theta_i);
      }
    }
  }
};

// The size-biased multinomial detection likelihood ("multinomial"): the
// per-bug Gamma(shape, scale) detectability thinned day by day yields the
// survivor hazard
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
  DetectionModelKind kind() const override {
    return DetectionModelKind::kSizeBiasedMultinomial;
  }
  std::string name() const override { return "multinomial"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"shape", 0.0, limits.sb_shape_max},
            {"scale", 0.0, limits.sb_scale_max}};
  }

 protected:
  // One log per day instead of two: log(scale + i - 1) at day i is exactly
  // the log(scale + i) computed at day i - 1, so the loop carries it.
  void fill(std::size_t first_day, std::size_t last_day,
            std::span<const double> zeta, std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    double prev = std::log(scale + static_cast<double>(first_day - 1));
    for (std::size_t day = first_day; day <= last_day; ++day) {
      const std::size_t i = day - first_day;
      const double cur = std::log(scale + static_cast<double>(day));
      const double log_q = shape * (prev - cur);
      if (!p_out.empty()) p_out[i] = -std::expm1(log_q);
      if (!log_q_out.empty()) log_q_out[i] = log_q;
      prev = cur;
    }
  }
};

constexpr std::array<DetectionModelKind, 5> kAllKinds = {
    DetectionModelKind::kConstant,        DetectionModelKind::kPadgettSpurrier,
    DetectionModelKind::kLogLogistic,     DetectionModelKind::kPareto,
    DetectionModelKind::kWeibull,
};

constexpr std::array<DetectionModelKind, 2> kExtendedKinds = {
    DetectionModelKind::kRayleigh,
    DetectionModelKind::kLearningCurve,
};

}  // namespace

std::span<const DetectionModelKind> all_detection_model_kinds() {
  return kAllKinds;
}

std::span<const DetectionModelKind> extended_detection_model_kinds() {
  return kExtendedKinds;
}

std::string to_string(DetectionModelKind kind) {
  // The size-biased multinomial is not part of the "modelN" hazard
  // catalogue; it carries its own stable name in artifacts and flags.
  if (kind == DetectionModelKind::kSizeBiasedMultinomial) {
    return "multinomial";
  }
  return "model" + support::dec(static_cast<int>(kind));
}

std::optional<DetectionModelKind> detection_model_from_string(
    const std::string& name) {
  for (const auto kind : all_detection_model_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  for (const auto kind : extended_detection_model_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  if (name == to_string(DetectionModelKind::kSizeBiasedMultinomial)) {
    return DetectionModelKind::kSizeBiasedMultinomial;
  }
  return std::nullopt;
}

std::vector<std::string> detection_model_names() {
  std::vector<std::string> names;
  for (const auto kind : all_detection_model_kinds()) {
    names.push_back(to_string(kind));
  }
  for (const auto kind : extended_detection_model_kinds()) {
    names.push_back(to_string(kind));
  }
  return names;
}

double DetectionModel::probability(std::size_t day,
                                   std::span<const double> zeta) const {
  SRM_EXPECTS(day >= 1 && zeta.size() == parameter_count(),
              "probability requires a 1-based day and a full zeta vector");
  double p = 0.0;
  fill(day, day, zeta, {&p, 1}, {});
  return p;
}

double DetectionModel::log_survival(std::size_t day,
                                    std::span<const double> zeta) const {
  SRM_EXPECTS(day >= 1 && zeta.size() == parameter_count(),
              "log_survival requires a 1-based day and a full zeta vector");
  double log_q = 0.0;
  fill(day, day, zeta, {}, {&log_q, 1});
  return log_q;
}

void DetectionModel::probabilities_into(std::size_t days,
                                        std::span<const double> zeta,
                                        std::span<double> out) const {
  SRM_EXPECTS(zeta.size() == parameter_count() && out.size() >= days,
              "probabilities_into requires a full zeta vector and "
              "out.size() >= days");
  fill_batch(days, zeta, out.first(days), {});
}

void DetectionModel::log_survivals_into(std::size_t days,
                                        std::span<const double> zeta,
                                        std::span<double> out) const {
  SRM_EXPECTS(zeta.size() == parameter_count() && out.size() >= days,
              "log_survivals_into requires a full zeta vector and "
              "out.size() >= days");
  fill_batch(days, zeta, {}, out.first(days));
}

void DetectionModel::detection_into(std::size_t days,
                                    std::span<const double> zeta,
                                    std::span<double> probabilities_out,
                                    std::span<double> log_survivals_out)
    const {
  SRM_EXPECTS(zeta.size() == parameter_count() &&
                  probabilities_out.size() >= days &&
                  log_survivals_out.size() >= days,
              "detection_into requires a full zeta vector and both out "
              "buffers >= days");
  fill_batch(days, zeta, probabilities_out.first(days),
             log_survivals_out.first(days));
}

std::vector<double> DetectionModel::probabilities(
    std::size_t days, std::span<const double> zeta) const {
  SRM_EXPECTS(zeta.size() == parameter_count(),
              "probabilities requires a full zeta vector");
  std::vector<double> p(days);
  fill_batch(days, zeta, p, {});
  return p;
}

std::vector<double> DetectionModel::log_survivals(
    std::size_t days, std::span<const double> zeta) const {
  SRM_EXPECTS(zeta.size() == parameter_count(),
              "log_survivals requires a full zeta vector");
  std::vector<double> log_q(days);
  fill_batch(days, zeta, {}, log_q);
  return log_q;
}

std::unique_ptr<DetectionModel> make_detection_model(DetectionModelKind kind,
                                                     bool vectorized) {
  switch (kind) {
    case DetectionModelKind::kConstant:
      return std::make_unique<ConstantModel>();
    case DetectionModelKind::kPadgettSpurrier:
      return std::make_unique<PadgettSpurrierModel>();
    case DetectionModelKind::kLogLogistic:
      return std::make_unique<LogLogisticModel>(vectorized);
    case DetectionModelKind::kPareto:
      return std::make_unique<ParetoModel>(vectorized);
    case DetectionModelKind::kWeibull:
      return std::make_unique<WeibullModel>(vectorized);
    case DetectionModelKind::kRayleigh:
      return std::make_unique<RayleighModel>();
    case DetectionModelKind::kLearningCurve:
      return std::make_unique<LearningCurveModel>();
    case DetectionModelKind::kSizeBiasedMultinomial:
      return std::make_unique<SizeBiasedDetection>();
  }
  throw InvalidArgument("unknown DetectionModelKind");
}

}  // namespace srm::core
