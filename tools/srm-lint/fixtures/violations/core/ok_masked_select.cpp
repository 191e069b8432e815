// The clean twin of bad_masked_select.cpp: the same masked-select control
// flow expressed through the sanctioned support/simd lane layer. The
// wrapper names (vselect, vlt, vmin) must never trip the raw-intrinsics
// rule — only the underlying ISA spellings do.
#include "support/simd/lanes.hpp"

namespace srm::core {

simd::VecD clamp_or_replace(simd::VecD x, simd::VecD limit,
                            simd::VecD replacement) {
  const simd::VecD below = simd::vlt(x, limit);
  const simd::VecD clamped = simd::vmin(x, limit);
  return simd::vselect(below, clamped, replacement);
}

}  // namespace srm::core
