#include "core/good.hpp"

namespace srm::core {

Model::Model(double rate) : rate_(rate) {
  SRM_EXPECTS(rate > 0.0, "rate must be positive");
}

double Model::log_pdf(double x) const {
  SRM_EXPECTS(x >= 0.0, "x must be nonnegative");
  return -rate_ * x;
}

double Model::helper(double x) const { return x + rate_; }

double summarize(const Model& m) { return m.rate(); }

double packed_pdf(const Model& m, double x, int lanes) {
  SRM_EXPECTS(lanes >= 1, "at least one lane");
  return m.log_pdf(x) * static_cast<double>(lanes);
}

}  // namespace srm::core
