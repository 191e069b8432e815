// Satellite TU of good.hpp: carries the SRM_EXPECTS precondition for a
// declaration whose definition does not live in the exact sibling good.cpp.
#include "core/good.hpp"

namespace srm::core {

double packed_pdf(const Model& m, double x, int lanes) {
  SRM_EXPECTS(lanes >= 1, "at least one lane");
  return m.log_pdf(x) * static_cast<double>(lanes);
}

}  // namespace srm::core
