// Double-precision log / exp evaluated four lanes at a time.
//
// ## Accuracy contract
//
// The implementations are FMA-free ports of the FreeBSD msun (fdlibm)
// scalar kernels, evaluated four lanes at a time with the exact-op-only
// primitives from lanes.hpp. They are *not* bit-identical to `std::log`
// etc. (libm uses different polynomial orderings and, on most hosts,
// fused operations). They *are* bit-identical to themselves across every
// lanes.hpp backend, because no operation here depends on ISA-specific
// rounding (no FMA, no rsqrt-style approximations, no minpd NaN
// asymmetry), and each lane is computed independently of the others.
//
// Worst-case error bounds versus correctly-rounded results, asserted by
// tests/support/simd_ulp_test.cpp over random bit patterns and the
// boundary ranges the detection models produce (`mu -> 0`, `mu -> 1`,
// Weibull exponents up to the exp overflow threshold):
//
//   function | budget (ULP)       | domain notes
//   -------- | ------------------ | -------------------------------------
//   log      | kLogUlpBudget      | full positive range incl. subnormals
//   exp      | kExpUlpBudget      | normal results; subnormal results may
//            |                    | carry one extra rounding (documented
//            |                    | below, tested with a looser bound)
//
// IEEE special cases (0, +/-inf, NaN) match `std::` semantics
// lane-for-lane; see the blends at the tail of each function and
// tests/support/simd_math_test.cpp.
#pragma once

#include <cstdint>

#include "support/simd/lanes.hpp"

namespace srm::simd {

/// Pinned worst-case ULP budgets for the lane transcendentals (see
/// the accuracy contract above). The property tests assert the measured
/// error stays within these; docs quote them. Budgets are deliberately a
/// little above the worst error observed during bring-up so a compiler
/// upgrade cannot flake the suite.
inline constexpr double kLogUlpBudget = 2.0;
inline constexpr double kExpUlpBudget = 2.0;
/// exp results that land in the subnormal range suffer one extra rounding
/// from the two-step 2^k scaling; the property tests use this bound there.
inline constexpr double kExpSubnormalUlpBudget = 4096.0;

}  // namespace srm::simd

SRM_SIMD_NS_BEGIN

// fdlibm e_log.c coefficients: ln2 split plus the Remez polynomial for
// log(1+f) - f on [sqrt(2)/2 - 1, sqrt(2) - 1]. Hex floats keep the bit
// patterns exact and identical on every toolchain.
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kLg1 = 0x1.5555555555593p-1;
inline constexpr double kLg2 = 0x1.999999997fa04p-2;
inline constexpr double kLg3 = 0x1.2492494229359p-2;
inline constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
inline constexpr double kLg5 = 0x1.7466496cb03dep-3;
inline constexpr double kLg6 = 0x1.39a09d078c69fp-3;
inline constexpr double kLg7 = 0x1.2f112df3e5244p-3;

// fdlibm e_exp.c: 1/ln2 and the degree-5 polynomial for the core
// interval |r| <= 0.5*ln2.
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
inline constexpr double kExpP1 = 0x1.555555555553ep-3;
inline constexpr double kExpP2 = -0x1.6c16c16bebd93p-9;
inline constexpr double kExpP3 = 0x1.1566aaf25de2cp-14;
inline constexpr double kExpP4 = -0x1.bbd41c5d26bf1p-20;
inline constexpr double kExpP5 = 0x1.6376972bea4d0p-25;

inline constexpr double kInf = __builtin_inf();
inline constexpr double kQuietNan = __builtin_nan("");

/// Round to nearest integer (ties to even) as a double, via the classic
/// 1.5*2^52 magic-number trick. Valid for |x| < 2^51.
inline VecD vnearbyint(VecD x) {
  const VecD magic = vset1(0x1.8p52);
  return (x + magic) - magic;
}

/// Integer value of an integer-valued double (|k| < 2^51), as 64-bit lanes
/// (two's complement for negatives), again through the magic constant:
/// bits(k + 1.5*2^52) - bits(1.5*2^52) == k.
inline VecI vint_bits(VecD k) {
  const VecD magic = vset1(0x1.8p52);
  return isub(to_bits(k + magic), iset1(0x4338000000000000ULL));
}

/// Inverse of vint_bits: 64-bit integer lanes (|i| < 2^51) to doubles.
inline VecD vfrom_int(VecI i) {
  const VecD magic = vset1(0x1.8p52);
  return from_bits(iadd(i, iset1(0x4338000000000000ULL))) - magic;
}

/// Natural logarithm; fdlibm e_log.c algorithm: x = 2^k * m with m in
/// [sqrt(2)/2, sqrt(2)), then log(m) = f - hfsq + s*(hfsq+R) where f = m-1
/// and s = f/(2+f).
inline VecD log(VecD x) {
  // Subnormal inputs: scale by 2^54 so the exponent field is usable.
  const VecD mask_sub =
      vand(vlt(x, vset1(0x1p-1022)), vgt(x, vset1(0.0)));
  const VecD xs = vselect(mask_sub, x * vset1(0x1p54), x);
  const VecD kbias = vselect(mask_sub, vset1(-54.0), vset1(0.0));

  const VecI bits = to_bits(xs);
  const VecI e =
      iadd(ishr<52>(bits), iset1(static_cast<std::uint64_t>(-1023)));
  const VecI man = iand(bits, iset1(0x000fffffffffffffULL));
  // Pick m in [sqrt(2)/2, sqrt(2)): i is bit 52 set when the mantissa is
  // at or above sqrt(2), i.e. when m should be halved and k bumped.
  const VecI i52 = iand(iadd(man, iset1(0x00095f6400000000ULL)),
                        iset1(0x0010000000000000ULL));
  const VecI mbits = ior(man, ixor(i52, iset1(0x3ff0000000000000ULL)));
  const VecD m = from_bits(mbits);
  // k as a double (includes the subnormal rescale bias).
  const VecD dk = vfrom_int(iadd(e, ishr<52>(i52))) + kbias;

  const VecD f = m - vset1(1.0);
  const VecD s = f / (vset1(2.0) + f);
  const VecD z = s * s;
  const VecD w = z * z;
  const VecD t1 =
      w * (vset1(kLg2) + w * (vset1(kLg4) + w * vset1(kLg6)));
  const VecD t2 =
      z * (vset1(kLg1) +
           w * (vset1(kLg3) + w * (vset1(kLg5) + w * vset1(kLg7))));
  const VecD hfsq = vset1(0.5) * (f * f);
  const VecD s_r = s * (hfsq + (t1 + t2));
  VecD r = dk * vset1(kLn2Hi) - ((hfsq - (s_r + dk * vset1(kLn2Lo))) - f);
  // x == 0 -> -inf, x < 0 -> NaN, +inf -> +inf, NaN -> NaN.
  r = vselect(vle(x, vset1(0.0)),
              vselect(veq(x, vset1(0.0)), vset1(-kInf), vset1(kQuietNan)),
              r);
  r = vselect(vge(x, vset1(kInf)), vset1(kInf), r);
  r = vselect(vneq(x, x), x, r);
  return r;
}

/// Natural exponential; fdlibm e_exp.c algorithm with a two-step 2^k
/// scaling that keeps overflow/underflow lanes finite until the blends.
inline VecD exp(VecD x) {
  // Clamp so the reduction arithmetic never overflows; the true
  // saturation (inf / 0) is restored by the blends below. exp overflows
  // above ~709.78 and is exactly 0 below ~-745.2.
  const VecD hi_cut = vset1(710.0);
  const VecD lo_cut = vset1(-746.0);
  const VecD xc = vmin(vmax(x, lo_cut), hi_cut);

  const VecD kd = vnearbyint(xc * vset1(kInvLn2));
  const VecD rhi = xc - kd * vset1(kLn2Hi);
  const VecD rlo = kd * vset1(kLn2Lo);
  const VecD r = rhi - rlo;
  const VecD t = r * r;
  const VecD c =
      r - t * (vset1(kExpP1) +
               t * (vset1(kExpP2) +
                    t * (vset1(kExpP3) +
                         t * (vset1(kExpP4) + t * vset1(kExpP5)))));
  VecD y =
      vset1(1.0) - ((rlo - (r * c) / (vset1(2.0) - c)) - rhi);

  // Scale by 2^k in two exact halves so k near the overflow/underflow
  // limits (|k| up to 1077) stays inside the normal-exponent range of
  // each factor.
  const VecD kd1 = vnearbyint(kd * vset1(0.5));
  const VecD kd2 = kd - kd1;
  const VecI one_bits = iset1(0x3ff0000000000000ULL);
  const VecD s1 = from_bits(iadd(ishl<52>(vint_bits(kd1)), one_bits));
  const VecD s2 = from_bits(iadd(ishl<52>(vint_bits(kd2)), one_bits));
  y = (y * s1) * s2;

  y = vselect(vge(x, hi_cut), vset1(kInf), y);
  y = vselect(vle(x, lo_cut), vset1(0.0), y);
  y = vselect(vneq(x, x), x, y);
  return y;
}

SRM_SIMD_NS_END
