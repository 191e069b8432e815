// Semantics tests for the vectorized transcendentals: IEEE special cases,
// lane independence, the magic-number integer helpers, and the backend
// dispatch surface. Accuracy bounds live in simd_ulp_test.cpp.
#include "support/simd/math.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/detection_simd.hpp"

namespace simd = srm::simd;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Applies a one-argument lane function to four scalars at once.
template <typename Fn>
void lanes4(Fn&& fn, const double (&in)[4], double (&out)[4]) {
  simd::vstore(out, fn(simd::vload(in)));
}

double v_log(double x) {
  double in[4] = {x, x, x, x};
  double out[4];
  lanes4([](simd::VecD v) { return simd::log(v); }, in, out);
  return out[0];
}

double v_exp(double x) {
  double in[4] = {x, x, x, x};
  double out[4];
  lanes4([](simd::VecD v) { return simd::exp(v); }, in, out);
  return out[0];
}

}  // namespace

TEST(SimdLog, SpecialCases) {
  EXPECT_EQ(v_log(1.0), 0.0);
  EXPECT_EQ(v_log(0.0), -kInf);
  EXPECT_EQ(v_log(kInf), kInf);
  EXPECT_TRUE(std::isnan(v_log(-1.0)));
  EXPECT_TRUE(std::isnan(v_log(-kInf)));
  EXPECT_TRUE(std::isnan(v_log(kNan)));
}

TEST(SimdLog, SubnormalInputsStayFinite) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_NEAR(v_log(tiny), std::log(tiny), 1e-12);
  const double sub = 0x1p-1060;
  EXPECT_NEAR(v_log(sub), std::log(sub), 1e-12);
}

TEST(SimdExp, SpecialCases) {
  EXPECT_EQ(v_exp(0.0), 1.0);
  EXPECT_EQ(v_exp(kInf), kInf);
  EXPECT_EQ(v_exp(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(v_exp(kNan)));
  // Saturation beyond the clamp cut-offs.
  EXPECT_EQ(v_exp(711.0), kInf);
  EXPECT_EQ(v_exp(1e9), kInf);
  EXPECT_EQ(v_exp(-747.0), 0.0);
  EXPECT_EQ(v_exp(-1e9), 0.0);
}

TEST(SimdExp, NearOverflowStaysFinite) {
  // 709.78 is the largest representable exp argument; the two-step 2^k
  // scaling must not overflow an intermediate there.
  const double x = 709.78;
  EXPECT_TRUE(std::isfinite(v_exp(x)));
  EXPECT_NEAR(v_exp(x) / std::exp(x), 1.0, 1e-13);
}

TEST(SimdMath, LanesAreIndependent) {
  const double in[4] = {0.25, 1.0, 7.5, 1e300};
  double out[4];
  lanes4([](simd::VecD v) { return simd::log(v); }, in, out);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], v_log(in[i])) << "lane " << i;
  }
  const double ein[4] = {-700.0, -1.0, 0.5, 700.0};
  lanes4([](simd::VecD v) { return simd::exp(v); }, ein, out);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], v_exp(ein[i])) << "lane " << i;
  }
}

TEST(SimdMath, NearbyintTiesToEven) {
  const double in[4] = {2.5, 3.5, -2.5, 0.49999999999999994};
  double out[4];
  lanes4([](simd::VecD v) { return simd::vnearbyint(v); }, in, out);
  EXPECT_EQ(out[0], 2.0);
  EXPECT_EQ(out[1], 4.0);
  EXPECT_EQ(out[2], -2.0);
  EXPECT_EQ(out[3], 0.0);
}

TEST(SimdMath, IntBitsRoundTripsNegatives) {
  const double in[4] = {-1077.0, -1.0, 0.0, 1023.0};
  double out[4];
  lanes4([](simd::VecD v) { return simd::vfrom_int(simd::vint_bits(v)); },
         in, out);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i], in[i]) << "lane " << i;
  }
}

TEST(SimdBackend, IsaNameIsKnown) {
  // The kernels TU and this test TU may legitimately pick different
  // backends (only detection_simd.cpp is ever compiled with -mavx2); both
  // must report one of the four dispatchable names.
  const std::string kernel_isa = srm::core::simd_kernels::isa_name();
  EXPECT_TRUE(kernel_isa == "avx2" || kernel_isa == "sse2" ||
              kernel_isa == "neon" || kernel_isa == "scalar")
      << kernel_isa;
  const std::string local_isa = simd::kIsaName;
  EXPECT_TRUE(local_isa == "avx2" || local_isa == "sse2" ||
              local_isa == "neon" || local_isa == "scalar")
      << local_isa;
}
