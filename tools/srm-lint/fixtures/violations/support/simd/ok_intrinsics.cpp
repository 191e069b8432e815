// support/simd/ is the one sanctioned home for ISA-specific code: the lane
// layer wraps these behind a portable interface. Must stay finding-free.
#include <immintrin.h>
#include <emmintrin.h>

namespace srm::simd {

double lane_sum(const double* data) {
  return __builtin_ia32_vec_ext_v2df(__extension__(__v2df){data[0], data[1]},
                                     0);
}

int lane_ledger(__m128d mask) {
  // Masked-select/movemask spellings are also sanctioned here — this is
  // where the lanes.hpp wrappers live.
  return _mm_movemask_pd(_mm_blendv_pd(mask, mask, mask));
}

}  // namespace srm::simd
