#include "core/posterior.hpp"

#include <cmath>

#include "support/error.hpp"

namespace srm::core {

std::pair<std::int64_t, std::int64_t> ResidualPosterior::credible_interval(
    double level) const {
  SRM_EXPECTS(level > 0.0 && level < 1.0,
              "credible level must lie in (0, 1)");
  const double tail = 0.5 * (1.0 - level);
  return {stats::integer_quantile(samples, tail),
          stats::integer_quantile(samples, 1.0 - tail)};
}

double ResidualPosterior::probability_at_most(std::int64_t r) const {
  SRM_EXPECTS(!samples.empty(), "posterior has no samples");
  std::size_t count = 0;
  for (const std::int64_t v : samples) {
    if (v <= r) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(samples.size());
}

ResidualPosterior summarize_residual_samples(std::span<const double> pooled) {
  SRM_EXPECTS(!pooled.empty(), "run contains no residual samples");

  ResidualPosterior posterior;
  posterior.samples.reserve(pooled.size());
  for (const double v : pooled) {
    posterior.samples.push_back(static_cast<std::int64_t>(std::llround(v)));
  }
  posterior.summary = stats::summarize_integers(posterior.samples);
  posterior.box = stats::five_number_summary(pooled);
  return posterior;
}

}  // namespace srm::core
