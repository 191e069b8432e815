// Bit-identity tests for the detection-model channels.
//
// Every channel (scalar probability/log_survival, the batch *_into fills
// and the vector conveniences) runs the model's one day-range kernel, so
// the channels agree with each other BIT FOR BIT by construction — which
// is what keeps fixed-seed MCMC traces unchanged whichever channel a
// caller uses. The cross-channel checks below still guard the seeding of
// carried day values; the pinned channel digests at the end are the
// independent guard: recorded while each channel had its own copy of the
// formula, they catch a formula change that moves every channel alike.
// Probed across the full parameter supports, including the boundary
// regions where model2's mu^e overflows.
#include <bit>
#include <cstdint>
#include <ios>
#include <vector>

#include <gtest/gtest.h>

#include "core/detection_models.hpp"
#include "support/error.hpp"

namespace {

using srm::core::DetectionModelKind;
using srm::core::DetectionModelLimits;
using srm::core::make_detection_model;

constexpr std::size_t kDays = 150;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Probe vectors spanning each parameter's support, including near-boundary
/// values that exercise the overflow/underflow branches.
std::vector<std::vector<double>> probe_grid(const srm::core::DetectionModel& m) {
  const auto supports = m.parameter_supports(DetectionModelLimits{});
  const double fractions[] = {1e-9, 0.1, 0.35, 0.5, 0.9, 1.0 - 1e-9};
  std::vector<std::vector<double>> grid;
  if (supports.size() == 1) {
    for (const double f : fractions) {
      const auto& s = supports[0];
      grid.push_back({s.lower + f * (s.upper - s.lower)});
    }
  } else {
    for (const double f0 : fractions) {
      for (const double f1 : fractions) {
        const auto& s0 = supports[0];
        const auto& s1 = supports[1];
        grid.push_back({s0.lower + f0 * (s0.upper - s0.lower),
                        s1.lower + f1 * (s1.upper - s1.lower)});
      }
    }
  }
  return grid;
}

class DetectionBatch : public ::testing::TestWithParam<DetectionModelKind> {};

TEST_P(DetectionBatch, ProbabilitiesIntoMatchesScalarBitwise) {
  const auto model = make_detection_model(GetParam());
  std::vector<double> batch(kDays);
  for (const auto& zeta : probe_grid(*model)) {
    model->probabilities_into(kDays, zeta, batch);
    for (std::size_t day = 1; day <= kDays; ++day) {
      const double scalar = model->probability(day, zeta);
      ASSERT_EQ(bits(batch[day - 1]), bits(scalar))
          << model->name() << " day " << day;
    }
  }
}

TEST_P(DetectionBatch, LogSurvivalsIntoMatchesScalarBitwise) {
  const auto model = make_detection_model(GetParam());
  std::vector<double> batch(kDays);
  for (const auto& zeta : probe_grid(*model)) {
    model->log_survivals_into(kDays, zeta, batch);
    for (std::size_t day = 1; day <= kDays; ++day) {
      const double scalar = model->log_survival(day, zeta);
      ASSERT_EQ(bits(batch[day - 1]), bits(scalar))
          << model->name() << " day " << day;
    }
  }
}

TEST_P(DetectionBatch, FusedChannelMatchesSingleChannelsBitwise) {
  const auto model = make_detection_model(GetParam());
  std::vector<double> p_single(kDays);
  std::vector<double> q_single(kDays);
  std::vector<double> p_fused(kDays);
  std::vector<double> q_fused(kDays);
  for (const auto& zeta : probe_grid(*model)) {
    model->probabilities_into(kDays, zeta, p_single);
    model->log_survivals_into(kDays, zeta, q_single);
    model->detection_into(kDays, zeta, p_fused, q_fused);
    for (std::size_t i = 0; i < kDays; ++i) {
      ASSERT_EQ(bits(p_fused[i]), bits(p_single[i])) << model->name();
      ASSERT_EQ(bits(q_fused[i]), bits(q_single[i])) << model->name();
    }
  }
}

TEST_P(DetectionBatch, VectorConvenienceMatchesBatch) {
  const auto model = make_detection_model(GetParam());
  std::vector<double> batch(kDays);
  const auto grid = probe_grid(*model);
  const auto& zeta = grid.front();
  const auto p = model->probabilities(kDays, zeta);
  model->probabilities_into(kDays, zeta, batch);
  ASSERT_EQ(p.size(), kDays);
  for (std::size_t i = 0; i < kDays; ++i) {
    ASSERT_EQ(bits(p[i]), bits(batch[i]));
  }
}

TEST_P(DetectionBatch, BatchRejectsUndersizedBuffer) {
  const auto model = make_detection_model(GetParam());
  const auto grid = probe_grid(*model);
  const auto& zeta = grid.front();
  std::vector<double> small(kDays - 1);
  EXPECT_THROW(model->probabilities_into(kDays, zeta, small),
               srm::InvalidArgument);
  EXPECT_THROW(model->log_survivals_into(kDays, zeta, small),
               srm::InvalidArgument);
  std::vector<double> full(kDays);
  EXPECT_THROW(model->detection_into(kDays, zeta, full, small),
               srm::InvalidArgument);
  EXPECT_THROW(model->detection_into(kDays, zeta, small, full),
               srm::InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DetectionBatch,
    ::testing::Values(DetectionModelKind::kConstant,
                      DetectionModelKind::kPadgettSpurrier,
                      DetectionModelKind::kLogLogistic,
                      DetectionModelKind::kPareto,
                      DetectionModelKind::kWeibull,
                      DetectionModelKind::kRayleigh,
                      DetectionModelKind::kLearningCurve,
                      DetectionModelKind::kSizeBiasedMultinomial),
    [](const ::testing::TestParamInfo<DetectionModelKind>& param_info) {
      return srm::core::to_string(param_info.param);
    });

// --- pinned channel digests ---------------------------------------------
//
// FNV-1a digests of every value each public channel writes over the probe
// grid at kDays days, for every kind built both scalar and vectorized.
// The bitwise tests above compare channels with each other; these compare
// each channel with its own recorded bits, so they still catch a formula
// change that moves every channel alike.

std::uint64_t fnv1a_append(std::uint64_t hash, double value) {
  const std::uint64_t b = bits(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (b >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct ChannelDigests {
  std::uint64_t probability = 14695981039346656037ULL;
  std::uint64_t log_survival = 14695981039346656037ULL;
  std::uint64_t probabilities_into = 14695981039346656037ULL;
  std::uint64_t log_survivals_into = 14695981039346656037ULL;
  std::uint64_t detection_into = 14695981039346656037ULL;
};

ChannelDigests channel_digests(const srm::core::DetectionModel& model) {
  ChannelDigests d;
  std::vector<double> p(kDays);
  std::vector<double> q(kDays);
  for (const auto& zeta : probe_grid(model)) {
    for (std::size_t day = 1; day <= kDays; ++day) {
      d.probability = fnv1a_append(d.probability, model.probability(day, zeta));
      d.log_survival =
          fnv1a_append(d.log_survival, model.log_survival(day, zeta));
    }
    model.probabilities_into(kDays, zeta, p);
    for (const double v : p) {
      d.probabilities_into = fnv1a_append(d.probabilities_into, v);
    }
    model.log_survivals_into(kDays, zeta, q);
    for (const double v : q) {
      d.log_survivals_into = fnv1a_append(d.log_survivals_into, v);
    }
    model.detection_into(kDays, zeta, p, q);
    for (std::size_t i = 0; i < kDays; ++i) {
      d.detection_into = fnv1a_append(d.detection_into, p[i]);
      d.detection_into = fnv1a_append(d.detection_into, q[i]);
    }
  }
  return d;
}

struct PinnedChannels {
  DetectionModelKind kind;
  bool vectorized;
  ChannelDigests expected;
};

// Recorded while each channel still had its own copy of the formula. The
// scalar-only kinds ignore `vectorized`, so both of their rows agree.
const PinnedChannels kPinnedChannels[] = {
    {DetectionModelKind::kConstant,
     false,
     {0xa344e1f65a7f683dULL, 0xf2fd69c97c8f5029ULL,
      0xa344e1f65a7f683dULL, 0xf2fd69c97c8f5029ULL,
      0x4cad7b4013561761ULL}},
    {DetectionModelKind::kConstant,
     true,
     {0xa344e1f65a7f683dULL, 0xf2fd69c97c8f5029ULL,
      0xa344e1f65a7f683dULL, 0xf2fd69c97c8f5029ULL,
      0x4cad7b4013561761ULL}},
    {DetectionModelKind::kPadgettSpurrier,
     false,
     {0x13d27923e8f1ffdaULL, 0x56ced3a498ae29deULL,
      0x13d27923e8f1ffdaULL, 0x56ced3a498ae29deULL,
      0x8cfc8d2addd650a9ULL}},
    {DetectionModelKind::kPadgettSpurrier,
     true,
     {0x13d27923e8f1ffdaULL, 0x56ced3a498ae29deULL,
      0x13d27923e8f1ffdaULL, 0x56ced3a498ae29deULL,
      0x8cfc8d2addd650a9ULL}},
    {DetectionModelKind::kLogLogistic,
     false,
     {0x32f1c42a1669f9e2ULL, 0x57d230c988696e73ULL,
      0x32f1c42a1669f9e2ULL, 0x57d230c988696e73ULL,
      0xfb494c45331b0a68ULL}},
    {DetectionModelKind::kLogLogistic,
     true,
     {0x32f1c42a1669f9e2ULL, 0x57d230c988696e73ULL,
      0x24bd2aad6c699bddULL, 0x25577fbd412bfe1aULL,
      0x75a041085c18f9eaULL}},
    {DetectionModelKind::kPareto,
     false,
     {0xf4f10f390b06d46fULL, 0xc8de0e785fda017aULL,
      0xf4f10f390b06d46fULL, 0xc8de0e785fda017aULL,
      0xf7c145e3dfae5bd4ULL}},
    {DetectionModelKind::kPareto,
     true,
     {0xf4f10f390b06d46fULL, 0xc8de0e785fda017aULL,
      0x9c1dd5af5e90f5c6ULL, 0xc8de0e785fda017aULL,
      0xd21f944b8679474dULL}},
    {DetectionModelKind::kWeibull,
     false,
     {0xce34b5e670a0d69cULL, 0x6c7f4e66fb71c28aULL,
      0xce34b5e670a0d69cULL, 0x6c7f4e66fb71c28aULL,
      0xb49e3d8acf365113ULL}},
    {DetectionModelKind::kWeibull,
     true,
     {0xce34b5e670a0d69cULL, 0x6c7f4e66fb71c28aULL,
      0x7b08791330af6105ULL, 0xcdfcec570ff60feaULL,
      0x3bb8687caa46a6aaULL}},
    {DetectionModelKind::kRayleigh,
     false,
     {0x6ee3399839102b19ULL, 0xd0d104c8106ef901ULL,
      0x6ee3399839102b19ULL, 0xd0d104c8106ef901ULL,
      0xf7bb80f0507ca699ULL}},
    {DetectionModelKind::kRayleigh,
     true,
     {0x6ee3399839102b19ULL, 0xd0d104c8106ef901ULL,
      0x6ee3399839102b19ULL, 0xd0d104c8106ef901ULL,
      0xf7bb80f0507ca699ULL}},
    {DetectionModelKind::kLearningCurve,
     false,
     {0xfbae82f1fa348838ULL, 0xfb4512a592d7ec5aULL,
      0xfbae82f1fa348838ULL, 0xfb4512a592d7ec5aULL,
      0x1ec98f28362eed37ULL}},
    {DetectionModelKind::kLearningCurve,
     true,
     {0xfbae82f1fa348838ULL, 0xfb4512a592d7ec5aULL,
      0xfbae82f1fa348838ULL, 0xfb4512a592d7ec5aULL,
      0x1ec98f28362eed37ULL}},
    {DetectionModelKind::kSizeBiasedMultinomial,
     false,
     {0xcbfb7efd6955cbd7ULL, 0xbfbad2328a8974faULL,
      0xcbfb7efd6955cbd7ULL, 0xbfbad2328a8974faULL,
      0x191d80513ad7a9cULL}},
    {DetectionModelKind::kSizeBiasedMultinomial,
     true,
     {0xcbfb7efd6955cbd7ULL, 0xbfbad2328a8974faULL,
      0xcbfb7efd6955cbd7ULL, 0xbfbad2328a8974faULL,
      0x191d80513ad7a9cULL}},
};

class DetectionChannelDigest
    : public ::testing::TestWithParam<PinnedChannels> {};

TEST_P(DetectionChannelDigest, MatchesPinnedDigest) {
  const auto& pin = GetParam();
  const auto model = make_detection_model(pin.kind, pin.vectorized);
  const auto got = channel_digests(*model);
  EXPECT_EQ(got.probability, pin.expected.probability)
      << std::hex << "probability 0x" << got.probability;
  EXPECT_EQ(got.log_survival, pin.expected.log_survival)
      << std::hex << "log_survival 0x" << got.log_survival;
  EXPECT_EQ(got.probabilities_into, pin.expected.probabilities_into)
      << std::hex << "probabilities_into 0x" << got.probabilities_into;
  EXPECT_EQ(got.log_survivals_into, pin.expected.log_survivals_into)
      << std::hex << "log_survivals_into 0x" << got.log_survivals_into;
  EXPECT_EQ(got.detection_into, pin.expected.detection_into)
      << std::hex << "detection_into 0x" << got.detection_into;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DetectionChannelDigest, ::testing::ValuesIn(kPinnedChannels),
    [](const ::testing::TestParamInfo<PinnedChannels>& param_info) {
      return srm::core::to_string(param_info.param.kind) +
             (param_info.param.vectorized ? "_vectorized" : "_scalar");
    });

}  // namespace
