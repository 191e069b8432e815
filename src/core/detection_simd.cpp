// The one core/ TU that may be compiled with wider-ISA flags (see
// src/core/CMakeLists.txt): every kernel here runs on the support/simd
// lane layer, whose backend is chosen by this TU's compile flags alone.
#include "core/detection_simd.hpp"

#include <cmath>

#include "support/error.hpp"
#include "support/simd/math.hpp"

namespace srm::core::simd_kernels {

namespace {

using simd::VecD;

constexpr std::size_t kLanes = simd::kLanes;

/// Loads a full lane block from `src + i`, padding lanes past `n` with
/// `pad` so the tail of a day range can run through the same vector code
/// without reading past the end.
VecD load_padded(const double* src, std::size_t i, std::size_t n,
                 double pad) {
  if (i + kLanes <= n) return simd::vload(src + i);
  double buf[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    buf[l] = i + l < n ? src[i + l] : pad;
  }
  return simd::vload(buf);
}

/// Stores the lanes of `v` that fall inside `n` back to `dst + i`.
void store_clipped(double* dst, std::size_t i, std::size_t n, VecD v) {
  if (i + kLanes <= n) {
    simd::vstore(dst + i, v);
    return;
  }
  double buf[kLanes];
  simd::vstore(buf, v);
  for (std::size_t l = 0; i + l < n; ++l) dst[i + l] = buf[l];
}

/// True when [first_day, last_day] (empty when first_day == last_day + 1)
/// lies inside the 1-based day table and each non-empty output span
/// covers it.
bool range_fits(std::size_t first_day, std::size_t last_day,
                std::span<const double> table, std::span<double> probabilities,
                std::span<double> log_survivals) {
  const std::size_t n = last_day + 1 - first_day;
  return first_day >= 1 && first_day <= last_day + 1 &&
         table.size() >= last_day &&
         (probabilities.empty() || probabilities.size() >= n) &&
         (log_survivals.empty() || log_survivals.size() >= n);
}

}  // namespace

const char* isa_name() { return simd::kIsaName; }

// All three kernels need mu^e with a probe-constant base, so they hoist
// log(mu) to one scalar std::log per probe and compute exp(e * log_mu)
// instead of a vector pow. The product e * log_mu adds one rounding of at
// most |e * log_mu| * 2^-53 relative on top of exp's own budget — at the
// exp overflow threshold that is ~710 * 2^-53. A saturating product lands
// exactly on exp's inf / 0 rails.

void loglogistic_detection(std::size_t first_day, std::size_t last_day,
                           double mu, double gamma,
                           std::span<const double> log_day,
                           std::span<double> probabilities,
                           std::span<double> log_survivals) {
  SRM_EXPECTS(
      range_fits(first_day, last_day, log_day, probabilities, log_survivals),
      "loglogistic_detection spans must cover the day range");
  const std::size_t n = last_day + 1 - first_day;
  const double* days = log_day.data() + (first_day - 1);
  const VecD vmu = simd::vset1(mu);
  const VecD vone = simd::vset1(1.0);
  const VecD vshift = simd::vset1(1.0 - gamma);
  const VecD vlog_mu = simd::vset1(std::log(mu));
  const VecD vone_minus_mu = simd::vset1(1.0 - mu);
  const VecD vmu_minus_one = simd::vset1(mu - 1.0);
  const VecD vinf = simd::vset1(simd::kInf);
  const VecD vzero = simd::vset1(0.0);
  for (std::size_t i = 0; i < n; i += kLanes) {
    // Pad with log(1): the padded lanes stay finite and are clipped away.
    const VecD e = load_padded(days, i, n, 0.0) + vshift;
    const VecD t = simd::exp(e * vlog_mu);
    if (!probabilities.empty()) {
      store_clipped(probabilities.data(), i, n, vone_minus_mu / (t + vone));
    }
    if (!log_survivals.empty()) {
      // q = (mu^e + mu) / (mu^e + 1), one transcendental either way:
      // for q <= 1/2 take log(q) of the accurately-formed quotient (its
      // relative error stays a few ULP and |log q| >= log 2, so the
      // textbook log(t+mu) - log1p(t) cancellation never appears); for
      // q > 1/2 switch to log1p(s) with s = (mu-1)/(1+t), |s| < 1/2,
      // which stays exact as q -> 1 and never rounds above 0. Both
      // branches share the single log evaluation: log1p(s) == log(u) +
      // (s - (u-1))/u with u = 1+s, so the blend picks the log argument
      // and the correction term per lane.
      const VecD den = t + vone;
      const VecD q = (t + vmu) / den;
      const VecD s = vmu_minus_one / den;
      const VecD small_q = simd::vlt(q, simd::vset1(0.5));
      const VecD u = simd::vselect(small_q, q, vone + s);
      const VecD corr =
          simd::vselect(small_q, vzero, (s - (u - vone)) / u);
      // When mu^e overflows, q is inf/inf == NaN; the select rescues the
      // lane to the exact q -> 1 limit, lq == 0.
      VecD lq = simd::log(u) + corr;
      lq = simd::vselect(simd::vge(t, vinf), vzero, lq);
      store_clipped(log_survivals.data(), i, n, lq);
    }
  }
}

void pareto_detection(std::size_t first_day, std::size_t last_day, double mu,
                      std::span<const double> exponents,
                      std::span<double> probabilities,
                      std::span<double> log_survivals) {
  SRM_EXPECTS(
      range_fits(first_day, last_day, exponents, probabilities, log_survivals),
      "pareto_detection spans must cover the day range");
  const std::size_t n = last_day + 1 - first_day;
  const double* days = exponents.data() + (first_day - 1);
  const VecD vone = simd::vset1(1.0);
  const VecD vlog_mu = simd::vset1(std::log(mu));
  for (std::size_t i = 0; i < n; i += kLanes) {
    const VecD e = load_padded(days, i, n, 0.0);
    if (!probabilities.empty()) {
      store_clipped(probabilities.data(), i, n,
                    vone - simd::exp(e * vlog_mu));
    }
    if (!log_survivals.empty()) {
      store_clipped(log_survivals.data(), i, n, e * vlog_mu);
    }
  }
}

void weibull_detection(std::size_t first_day, std::size_t last_day,
                       double mu, double omega,
                       std::span<const double> log_day,
                       std::span<double> probabilities,
                       std::span<double> log_survivals) {
  SRM_EXPECTS(
      range_fits(first_day, last_day, log_day, probabilities, log_survivals),
      "weibull_detection spans must cover the day range");
  const std::size_t n = last_day + 1 - first_day;
  if (n == 0 || (probabilities.empty() && log_survivals.empty())) return;
  const double* days = log_day.data() + (first_day - 1);
  const VecD vone = simd::vset1(1.0);
  const VecD vomega = simd::vset1(omega);
  const VecD vlog_mu = simd::vset1(std::log(mu));
  // The day power before the range: pow(0, omega) == 0 for the omega > 0
  // the support allows at day 1, else the same lane exp that yields day
  // first_day - 1 inside a longer range.
  double previous = std::pow(0.0, omega);
  if (first_day > 1) {
    double lanes[kLanes] = {};
    simd::vstore(lanes,
                 simd::exp(vomega * simd::vset1(log_day[first_day - 2])));
    previous = lanes[0];
  }
  // Two passes so no lane result ever feeds the next group through a
  // store/shuffle/load carry (which would serialize the groups). Pass 1
  // streams the day powers d^omega = exp(omega * log d) into one of the
  // output buffers as scratch; pass 2 forms e_d = d^omega - (d-1)^omega
  // with a one-element-shifted load and overwrites the scratch with the
  // real channel value. Pass 2 walks the groups BACKWARD: group i reads
  // scratch[i-1 .. i+2] and writes [i .. i+3], so earlier (not yet
  // processed) groups only ever read scratch the later writes have not
  // touched.
  double* scratch = probabilities.empty() ? log_survivals.data()
                                          : probabilities.data();
  for (std::size_t i = 0; i < n; i += kLanes) {
    // Padded lanes (log 1 -> d^omega = 1) only feed clipped stores and
    // pass 2 never reads at or past `n`.
    store_clipped(scratch, i, n,
                  simd::exp(vomega * load_padded(days, i, n, 0.0)));
  }
  const std::size_t groups = (n + kLanes - 1) / kLanes;
  for (std::size_t g = groups; g-- > 0;) {
    const std::size_t i = g * kLanes;
    const VecD cur = load_padded(scratch, i, n, 0.0);
    VecD shifted;
    if (i == 0) {
      double head[kLanes];
      head[0] = previous;
      for (std::size_t l = 1; l < kLanes; ++l) {
        head[l] = l - 1 < n ? scratch[l - 1] : 0.0;
      }
      shifted = simd::vload(head);
    } else {
      shifted = load_padded(scratch, i - 1, n, 0.0);
    }
    const VecD e = cur - shifted;
    if (!log_survivals.empty()) {
      store_clipped(log_survivals.data(), i, n, e * vlog_mu);
    }
    if (!probabilities.empty()) {
      store_clipped(probabilities.data(), i, n,
                    vone - simd::exp(e * vlog_mu));
    }
  }
}

}  // namespace srm::core::simd_kernels
