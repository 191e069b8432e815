// Golden-trace pinning for the SIMD lane kernels of model2/3/4 on a serial
// chain schedule.
//
// The lane kernels (core/detection_simd.hpp over support/simd) are the only
// formula of the heterogeneous detection models, and their digests are
// backend-independent: scalar, SSE2, AVX2 and NEON lanes all produce the
// same bits (see support/simd/lanes.hpp). golden_trace_test.cpp pins those
// digests with the chains scheduled on the runtime pool; here the same
// configurations run with `parallel_chains = false`, every chain on the
// calling thread one after the other, and must reproduce the same pinned
// digests. A kernel that kept state per thread, or a workspace shared
// between chains, would make the two schedules disagree.
#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "data/datasets.hpp"
#include "mcmc/gibbs.hpp"

namespace {

using srm::core::BayesianSrm;
using srm::core::DetectionModelKind;
using srm::core::HyperPriorConfig;
using srm::core::PriorKind;
using srm::core::SamplerScheme;

std::uint64_t fnv1a_append(std::uint64_t hash, std::uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Digest of every retained draw in (chain, parameter, sample) order, with
/// the chains run serially on the calling thread.
std::uint64_t serial_trace_digest(SamplerScheme scheme, PriorKind prior,
                                  int model_id) {
  const auto data = srm::data::sys1_grouped().truncated(67);
  HyperPriorConfig config;
  config.scheme = scheme;
  const BayesianSrm model(prior, static_cast<DetectionModelKind>(model_id),
                          data, config);
  srm::mcmc::GibbsOptions options;
  options.chain_count = 2;
  options.burn_in = 50;
  options.iterations = 120;
  options.seed = 20240624;
  options.parallel_chains = false;
  const auto run = srm::mcmc::run_gibbs(model, options);
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t c = 0; c < run.chain_count(); ++c) {
    for (std::size_t p = 0; p < run.parameter_names().size(); ++p) {
      for (const double v : run.chain(c).parameter(p)) {
        hash = fnv1a_append(hash, std::bit_cast<std::uint64_t>(v));
      }
    }
  }
  return hash;
}

struct VectorizedCase {
  SamplerScheme scheme;
  PriorKind prior;
  int model_id;
  std::uint64_t digest;
};

// Captured at the introduction of the SIMD layer with the exact options
// above (same geometry as the golden set in golden_trace_test.cpp).
constexpr VectorizedCase kVectorizedCases[] = {
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 2,
     0xabe4507312dc017aULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 3,
     0xc8710c092693ba65ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 4,
     0x94f14f3f8e7ae94bULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 2,
     0x040a7c8e06efa21bULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 3,
     0xfd943a36fba7961cULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 4,
     0xf9daeaf1da1eb8bcULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 2, 0xe5a5fe8e3b6d2c26ULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 3, 0x163924ee93faa2abULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 4, 0xb9fac956ef8d99b5ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 2,
     0x3e6e17cc2e60ffdfULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 3,
     0x978ecada2059586cULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 4,
     0xe4785cce3283a229ULL},
};

class VectorizedGoldenTrace
    : public ::testing::TestWithParam<VectorizedCase> {};

TEST_P(VectorizedGoldenTrace, MatchesPinnedDigest) {
  const auto& c = GetParam();
  EXPECT_EQ(serial_trace_digest(c.scheme, c.prior, c.model_id), c.digest)
      << "scheme=" << (c.scheme == SamplerScheme::kVanilla ? 1 : 0)
      << " prior=" << (c.prior == PriorKind::kNegativeBinomial ? 1 : 0)
      << " model=" << c.model_id;
}

std::string case_name(const ::testing::TestParamInfo<VectorizedCase>& info) {
  const auto& c = info.param;
  return std::string(c.scheme == SamplerScheme::kVanilla ? "vanilla"
                                                         : "collapsed") +
         "_" + srm::core::to_string(c.prior) + "_model" +
         std::to_string(c.model_id);
}

INSTANTIATE_TEST_SUITE_P(HeterogeneousModels, VectorizedGoldenTrace,
                         ::testing::ValuesIn(kVectorizedCases), case_name);

}  // namespace
