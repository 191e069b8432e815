// Portable fixed-width SIMD lanes: four double lanes per vector, selected
// at compile time from the target ISA (no runtime CPUID in library code).
//
//   backend   register layout        selected when
//   -------   --------------------   ----------------------------------
//   avx2      1 x __m256d            __AVX2__         (SRM_SIMD=ON adds
//                                    -mavx2 to the kernel TUs only)
//   sse2      2 x __m128d            __SSE2__ / x86-64 baseline
//   neon      2 x float64x2_t        __aarch64__ (f64 lanes need A64)
//   scalar    double[4]              everything else, or
//                                    SRM_SIMD_FORCE_SCALAR
//
// Every operation exposed here is an IEEE-754 *exact* elementwise
// operation (add/sub/mul/div, comparisons, bit manipulation) — never a
// fused multiply-add, approximation, or reduction — so the same algorithm
// produces bit-identical lanes on every backend. That property is what
// lets the golden traces (tests/mcmc) pin one digest per case across the
// SRM_SIMD=ON/OFF CI legs.
//
// Translation units in one binary may be compiled with different ISA
// flags, so the whole API lives in a backend-named inline namespace
// (SRM_SIMD_NS_BEGIN/END): each TU's instantiation gets distinct symbols
// and the linker can never mix, say, an AVX2 kernel into a baseline test.
#pragma once

#include <cstdint>
#include <cstring>

#if defined(SRM_SIMD_FORCE_SCALAR)
#define SRM_SIMD_BACKEND_SCALAR 1
#elif defined(__AVX2__)
#include <immintrin.h>
#define SRM_SIMD_BACKEND_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define SRM_SIMD_BACKEND_SSE2 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define SRM_SIMD_BACKEND_NEON 1
#else
#define SRM_SIMD_BACKEND_SCALAR 1
#endif

#if defined(SRM_SIMD_BACKEND_AVX2)
#define SRM_SIMD_NS_BEGIN \
  namespace srm::simd {   \
  inline namespace backend_avx2 {
#elif defined(SRM_SIMD_BACKEND_SSE2)
#define SRM_SIMD_NS_BEGIN \
  namespace srm::simd {   \
  inline namespace backend_sse2 {
#elif defined(SRM_SIMD_BACKEND_NEON)
#define SRM_SIMD_NS_BEGIN \
  namespace srm::simd {   \
  inline namespace backend_neon {
#else
#define SRM_SIMD_NS_BEGIN \
  namespace srm::simd {   \
  inline namespace backend_scalar {
#endif
#define SRM_SIMD_NS_END \
  }                     \
  }

SRM_SIMD_NS_BEGIN

/// Lane count is fixed at 4 on every backend so batch loops never need
/// per-ISA tiling.
inline constexpr std::size_t kLanes = 4;

#if defined(SRM_SIMD_BACKEND_AVX2)

inline constexpr const char* kIsaName = "avx2";

struct VecD {
  __m256d v;
};
struct VecI {
  __m256i v;
};

inline VecD vset1(double x) { return {_mm256_set1_pd(x)}; }
inline VecD vload(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void vstore(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }

inline VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }

inline VecD vlt(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline VecD vle(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
}
inline VecD vgt(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}
inline VecD vge(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
inline VecD veq(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}
/// Unordered not-equal: true when either operand is NaN.
inline VecD vneq(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_NEQ_UQ)};
}

inline VecD vand(VecD a, VecD b) { return {_mm256_and_pd(a.v, b.v)}; }

/// Lanewise `mask ? a : b`; mask lanes are all-ones or all-zero bits.
inline VecD vselect(VecD mask, VecD a, VecD b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}

inline VecI to_bits(VecD a) { return {_mm256_castpd_si256(a.v)}; }
inline VecD from_bits(VecI a) { return {_mm256_castsi256_pd(a.v)}; }

inline VecI iset1(std::uint64_t x) {
  return {_mm256_set1_epi64x(static_cast<long long>(x))};
}
inline VecI iadd(VecI a, VecI b) { return {_mm256_add_epi64(a.v, b.v)}; }
inline VecI isub(VecI a, VecI b) { return {_mm256_sub_epi64(a.v, b.v)}; }
inline VecI iand(VecI a, VecI b) { return {_mm256_and_si256(a.v, b.v)}; }
inline VecI ior(VecI a, VecI b) { return {_mm256_or_si256(a.v, b.v)}; }
inline VecI ixor(VecI a, VecI b) { return {_mm256_xor_si256(a.v, b.v)}; }
template <int N>
inline VecI ishl(VecI a) {
  return {_mm256_slli_epi64(a.v, N)};
}
template <int N>
inline VecI ishr(VecI a) {
  return {_mm256_srli_epi64(a.v, N)};
}

#elif defined(SRM_SIMD_BACKEND_SSE2)

inline constexpr const char* kIsaName = "sse2";

struct VecD {
  __m128d lo, hi;
};
struct VecI {
  __m128i lo, hi;
};

inline VecD vset1(double x) {
  const __m128d v = _mm_set1_pd(x);
  return {v, v};
}
inline VecD vload(const double* p) {
  return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
}
inline void vstore(double* p, VecD a) {
  _mm_storeu_pd(p, a.lo);
  _mm_storeu_pd(p + 2, a.hi);
}

inline VecD operator+(VecD a, VecD b) {
  return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
}
inline VecD operator-(VecD a, VecD b) {
  return {_mm_sub_pd(a.lo, b.lo), _mm_sub_pd(a.hi, b.hi)};
}
inline VecD operator*(VecD a, VecD b) {
  return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
}
inline VecD operator/(VecD a, VecD b) {
  return {_mm_div_pd(a.lo, b.lo), _mm_div_pd(a.hi, b.hi)};
}

inline VecD vlt(VecD a, VecD b) {
  return {_mm_cmplt_pd(a.lo, b.lo), _mm_cmplt_pd(a.hi, b.hi)};
}
inline VecD vle(VecD a, VecD b) {
  return {_mm_cmple_pd(a.lo, b.lo), _mm_cmple_pd(a.hi, b.hi)};
}
inline VecD vgt(VecD a, VecD b) {
  return {_mm_cmpgt_pd(a.lo, b.lo), _mm_cmpgt_pd(a.hi, b.hi)};
}
inline VecD vge(VecD a, VecD b) {
  return {_mm_cmpge_pd(a.lo, b.lo), _mm_cmpge_pd(a.hi, b.hi)};
}
inline VecD veq(VecD a, VecD b) {
  return {_mm_cmpeq_pd(a.lo, b.lo), _mm_cmpeq_pd(a.hi, b.hi)};
}
/// Unordered not-equal: true when either operand is NaN.
inline VecD vneq(VecD a, VecD b) {
  return {_mm_cmpneq_pd(a.lo, b.lo), _mm_cmpneq_pd(a.hi, b.hi)};
}

inline VecD vand(VecD a, VecD b) {
  return {_mm_and_pd(a.lo, b.lo), _mm_and_pd(a.hi, b.hi)};
}

/// Lanewise `mask ? a : b`; mask lanes are all-ones or all-zero bits.
inline VecD vselect(VecD mask, VecD a, VecD b) {
  return {_mm_or_pd(_mm_and_pd(mask.lo, a.lo),
                    _mm_andnot_pd(mask.lo, b.lo)),
          _mm_or_pd(_mm_and_pd(mask.hi, a.hi),
                    _mm_andnot_pd(mask.hi, b.hi))};
}

inline VecI to_bits(VecD a) {
  return {_mm_castpd_si128(a.lo), _mm_castpd_si128(a.hi)};
}
inline VecD from_bits(VecI a) {
  return {_mm_castsi128_pd(a.lo), _mm_castsi128_pd(a.hi)};
}

inline VecI iset1(std::uint64_t x) {
  const __m128i v = _mm_set1_epi64x(static_cast<long long>(x));
  return {v, v};
}
inline VecI iadd(VecI a, VecI b) {
  return {_mm_add_epi64(a.lo, b.lo), _mm_add_epi64(a.hi, b.hi)};
}
inline VecI isub(VecI a, VecI b) {
  return {_mm_sub_epi64(a.lo, b.lo), _mm_sub_epi64(a.hi, b.hi)};
}
inline VecI iand(VecI a, VecI b) {
  return {_mm_and_si128(a.lo, b.lo), _mm_and_si128(a.hi, b.hi)};
}
inline VecI ior(VecI a, VecI b) {
  return {_mm_or_si128(a.lo, b.lo), _mm_or_si128(a.hi, b.hi)};
}
inline VecI ixor(VecI a, VecI b) {
  return {_mm_xor_si128(a.lo, b.lo), _mm_xor_si128(a.hi, b.hi)};
}
template <int N>
inline VecI ishl(VecI a) {
  return {_mm_slli_epi64(a.lo, N), _mm_slli_epi64(a.hi, N)};
}
template <int N>
inline VecI ishr(VecI a) {
  return {_mm_srli_epi64(a.lo, N), _mm_srli_epi64(a.hi, N)};
}

#elif defined(SRM_SIMD_BACKEND_NEON)

inline constexpr const char* kIsaName = "neon";

struct VecD {
  float64x2_t lo, hi;
};
struct VecI {
  uint64x2_t lo, hi;
};

inline VecD vset1(double x) {
  const float64x2_t v = vdupq_n_f64(x);
  return {v, v};
}
inline VecD vload(const double* p) { return {vld1q_f64(p), vld1q_f64(p + 2)}; }
inline void vstore(double* p, VecD a) {
  vst1q_f64(p, a.lo);
  vst1q_f64(p + 2, a.hi);
}

inline VecD operator+(VecD a, VecD b) {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
inline VecD operator-(VecD a, VecD b) {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
inline VecD operator*(VecD a, VecD b) {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
inline VecD operator/(VecD a, VecD b) {
  return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
}

inline VecD from_mask(uint64x2_t lo, uint64x2_t hi) {
  return {vreinterpretq_f64_u64(lo), vreinterpretq_f64_u64(hi)};
}
inline VecD vlt(VecD a, VecD b) {
  return from_mask(vcltq_f64(a.lo, b.lo), vcltq_f64(a.hi, b.hi));
}
inline VecD vle(VecD a, VecD b) {
  return from_mask(vcleq_f64(a.lo, b.lo), vcleq_f64(a.hi, b.hi));
}
inline VecD vgt(VecD a, VecD b) {
  return from_mask(vcgtq_f64(a.lo, b.lo), vcgtq_f64(a.hi, b.hi));
}
inline VecD vge(VecD a, VecD b) {
  return from_mask(vcgeq_f64(a.lo, b.lo), vcgeq_f64(a.hi, b.hi));
}
inline VecD veq(VecD a, VecD b) {
  return from_mask(vceqq_f64(a.lo, b.lo), vceqq_f64(a.hi, b.hi));
}
/// Unordered not-equal: true when either operand is NaN.
inline VecD vneq(VecD a, VecD b) {
  const uint64x2_t ones = vdupq_n_u64(~0ULL);
  return from_mask(veorq_u64(vceqq_f64(a.lo, b.lo), ones),
                   veorq_u64(vceqq_f64(a.hi, b.hi), ones));
}

inline VecD vand(VecD a, VecD b) {
  return from_mask(vandq_u64(vreinterpretq_u64_f64(a.lo),
                             vreinterpretq_u64_f64(b.lo)),
                   vandq_u64(vreinterpretq_u64_f64(a.hi),
                             vreinterpretq_u64_f64(b.hi)));
}

/// Lanewise `mask ? a : b`; mask lanes are all-ones or all-zero bits.
inline VecD vselect(VecD mask, VecD a, VecD b) {
  return {vbslq_f64(vreinterpretq_u64_f64(mask.lo), a.lo, b.lo),
          vbslq_f64(vreinterpretq_u64_f64(mask.hi), a.hi, b.hi)};
}

inline VecI to_bits(VecD a) {
  return {vreinterpretq_u64_f64(a.lo), vreinterpretq_u64_f64(a.hi)};
}
inline VecD from_bits(VecI a) {
  return {vreinterpretq_f64_u64(a.lo), vreinterpretq_f64_u64(a.hi)};
}

inline VecI iset1(std::uint64_t x) {
  const uint64x2_t v = vdupq_n_u64(x);
  return {v, v};
}
inline VecI iadd(VecI a, VecI b) {
  return {vaddq_u64(a.lo, b.lo), vaddq_u64(a.hi, b.hi)};
}
inline VecI isub(VecI a, VecI b) {
  return {vsubq_u64(a.lo, b.lo), vsubq_u64(a.hi, b.hi)};
}
inline VecI iand(VecI a, VecI b) {
  return {vandq_u64(a.lo, b.lo), vandq_u64(a.hi, b.hi)};
}
inline VecI ior(VecI a, VecI b) {
  return {vorrq_u64(a.lo, b.lo), vorrq_u64(a.hi, b.hi)};
}
inline VecI ixor(VecI a, VecI b) {
  return {veorq_u64(a.lo, b.lo), veorq_u64(a.hi, b.hi)};
}
template <int N>
inline VecI ishl(VecI a) {
  return {vshlq_n_u64(a.lo, N), vshlq_n_u64(a.hi, N)};
}
template <int N>
inline VecI ishr(VecI a) {
  return {vshrq_n_u64(a.lo, N), vshrq_n_u64(a.hi, N)};
}

#else  // scalar fallback

inline constexpr const char* kIsaName = "scalar";

struct VecD {
  double l[4];
};
struct VecI {
  std::uint64_t l[4];
};

inline VecD vset1(double x) { return {{x, x, x, x}}; }
inline VecD vload(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
inline void vstore(double* p, VecD a) {
  p[0] = a.l[0];
  p[1] = a.l[1];
  p[2] = a.l[2];
  p[3] = a.l[3];
}

inline VecD operator+(VecD a, VecD b) {
  return {{a.l[0] + b.l[0], a.l[1] + b.l[1], a.l[2] + b.l[2],
           a.l[3] + b.l[3]}};
}
inline VecD operator-(VecD a, VecD b) {
  return {{a.l[0] - b.l[0], a.l[1] - b.l[1], a.l[2] - b.l[2],
           a.l[3] - b.l[3]}};
}
inline VecD operator*(VecD a, VecD b) {
  return {{a.l[0] * b.l[0], a.l[1] * b.l[1], a.l[2] * b.l[2],
           a.l[3] * b.l[3]}};
}
inline VecD operator/(VecD a, VecD b) {
  return {{a.l[0] / b.l[0], a.l[1] / b.l[1], a.l[2] / b.l[2],
           a.l[3] / b.l[3]}};
}

inline constexpr std::uint64_t kMaskOn = ~0ULL;

inline VecD mask_of(bool m0, bool m1, bool m2, bool m3) {
  VecI bits{{m0 ? kMaskOn : 0U, m1 ? kMaskOn : 0U, m2 ? kMaskOn : 0U,
             m3 ? kMaskOn : 0U}};
  VecD out;
  std::memcpy(out.l, bits.l, sizeof(out.l));
  return out;
}

inline VecD vlt(VecD a, VecD b) {
  return mask_of(a.l[0] < b.l[0], a.l[1] < b.l[1], a.l[2] < b.l[2],
                 a.l[3] < b.l[3]);
}
inline VecD vle(VecD a, VecD b) {
  return mask_of(a.l[0] <= b.l[0], a.l[1] <= b.l[1], a.l[2] <= b.l[2],
                 a.l[3] <= b.l[3]);
}
inline VecD vgt(VecD a, VecD b) {
  return mask_of(a.l[0] > b.l[0], a.l[1] > b.l[1], a.l[2] > b.l[2],
                 a.l[3] > b.l[3]);
}
inline VecD vge(VecD a, VecD b) {
  return mask_of(a.l[0] >= b.l[0], a.l[1] >= b.l[1], a.l[2] >= b.l[2],
                 a.l[3] >= b.l[3]);
}
inline VecD veq(VecD a, VecD b) {
  return mask_of(a.l[0] == b.l[0], a.l[1] == b.l[1], a.l[2] == b.l[2],
                 a.l[3] == b.l[3]);
}
/// Unordered not-equal: true when either operand is NaN.
inline VecD vneq(VecD a, VecD b) {
  return mask_of(!(a.l[0] == b.l[0]), !(a.l[1] == b.l[1]),
                 !(a.l[2] == b.l[2]), !(a.l[3] == b.l[3]));
}

inline VecD vand(VecD a, VecD b) {
  VecI ia, ib;
  std::memcpy(ia.l, a.l, sizeof(ia.l));
  std::memcpy(ib.l, b.l, sizeof(ib.l));
  for (std::size_t i = 0; i < 4; ++i) ia.l[i] &= ib.l[i];
  VecD out;
  std::memcpy(out.l, ia.l, sizeof(out.l));
  return out;
}

/// Lanewise `mask ? a : b`; mask lanes are all-ones or all-zero bits.
inline VecD vselect(VecD mask, VecD a, VecD b) {
  VecI im, ia, ib;
  std::memcpy(im.l, mask.l, sizeof(im.l));
  std::memcpy(ia.l, a.l, sizeof(ia.l));
  std::memcpy(ib.l, b.l, sizeof(ib.l));
  for (std::size_t i = 0; i < 4; ++i) {
    ia.l[i] = (im.l[i] & ia.l[i]) | (~im.l[i] & ib.l[i]);
  }
  VecD out;
  std::memcpy(out.l, ia.l, sizeof(out.l));
  return out;
}

inline VecI to_bits(VecD a) {
  VecI out;
  std::memcpy(out.l, a.l, sizeof(out.l));
  return out;
}
inline VecD from_bits(VecI a) {
  VecD out;
  std::memcpy(out.l, a.l, sizeof(out.l));
  return out;
}

inline VecI iset1(std::uint64_t x) { return {{x, x, x, x}}; }
inline VecI iadd(VecI a, VecI b) {
  return {{a.l[0] + b.l[0], a.l[1] + b.l[1], a.l[2] + b.l[2],
           a.l[3] + b.l[3]}};
}
inline VecI isub(VecI a, VecI b) {
  return {{a.l[0] - b.l[0], a.l[1] - b.l[1], a.l[2] - b.l[2],
           a.l[3] - b.l[3]}};
}
inline VecI iand(VecI a, VecI b) {
  return {{a.l[0] & b.l[0], a.l[1] & b.l[1], a.l[2] & b.l[2],
           a.l[3] & b.l[3]}};
}
inline VecI ior(VecI a, VecI b) {
  return {{a.l[0] | b.l[0], a.l[1] | b.l[1], a.l[2] | b.l[2],
           a.l[3] | b.l[3]}};
}
inline VecI ixor(VecI a, VecI b) {
  return {{a.l[0] ^ b.l[0], a.l[1] ^ b.l[1], a.l[2] ^ b.l[2],
           a.l[3] ^ b.l[3]}};
}
template <int N>
inline VecI ishl(VecI a) {
  return {{a.l[0] << N, a.l[1] << N, a.l[2] << N, a.l[3] << N}};
}
template <int N>
inline VecI ishr(VecI a) {
  return {{a.l[0] >> N, a.l[1] >> N, a.l[2] >> N, a.l[3] >> N}};
}

#endif

/// Lanewise minimum with SSE2 semantics: `a < b ? a : b` (so a NaN in `a`
/// selects `b`). Implemented through the comparison+select primitives so
/// every backend agrees bit for bit, including on NaN and signed zeros.
inline VecD vmin(VecD a, VecD b) { return vselect(vlt(a, b), a, b); }

/// Lanewise maximum, `a > b ? a : b` (NaN in `a` selects `b`).
inline VecD vmax(VecD a, VecD b) { return vselect(vgt(a, b), a, b); }

SRM_SIMD_NS_END
