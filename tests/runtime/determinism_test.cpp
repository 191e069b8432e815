// The runtime's core promise: the same master seed yields bit-identical
// results no matter how many workers execute the schedule. This runs a
// reduced paper sweep under 1-worker and 4-worker global pools and
// compares the posteriors sample-by-sample.
#include <algorithm>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.hpp"
#include "data/generator.hpp"
#include "report/sweep.hpp"
#include "runtime/thread_pool.hpp"

namespace {

namespace core = srm::core;
namespace report = srm::report;
using srm::runtime::ThreadPool;

report::SweepResult sweep_with_workers(std::size_t workers) {
  ThreadPool::set_global_thread_count(workers);
  report::SweepOptions options;
  options.observation_days = {48, 96};
  options.eventual_total = srm::data::kSys1TotalBugs;
  options.gibbs.chain_count = 2;
  options.gibbs.burn_in = 50;
  options.gibbs.iterations = 150;
  options.gibbs.parallel_chains = true;
  return report::run_sweep(srm::data::sys1_grouped(), options);
}

void expect_bit_identical(const report::SweepResult& serial,
                          const report::SweepResult& parallel) {
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const auto& lhs = serial.cells[c];
    const auto& rhs = parallel.cells[c];
    ASSERT_EQ(lhs.prior, rhs.prior);
    ASSERT_EQ(lhs.model, rhs.model);
    ASSERT_EQ(lhs.results.size(), rhs.results.size());
    for (std::size_t d = 0; d < lhs.results.size(); ++d) {
      const auto& a = lhs.results[d];
      const auto& b = rhs.results[d];
      // Exact equality on purpose: the contract is bit-identity, not
      // statistical agreement.
      EXPECT_EQ(a.posterior.samples, b.posterior.samples)
          << "cell " << c << ", day " << a.observation_day;
      EXPECT_EQ(a.posterior.summary.mean, b.posterior.summary.mean);
      EXPECT_EQ(a.posterior.box.median, b.posterior.box.median);
      EXPECT_EQ(a.waic.waic, b.waic.waic);
      EXPECT_EQ(a.waic.learning_loss, b.waic.learning_loss);
      EXPECT_EQ(a.waic.functional_variance, b.waic.functional_variance);
    }
  }
}

class RuntimeDeterminism : public ::testing::Test {
 protected:
  // Leave the global pool at its default size for whatever test runs next.
  void TearDown() override { ThreadPool::set_global_thread_count(0); }
};

TEST_F(RuntimeDeterminism, SweepIsBitIdenticalAtOneAndFourWorkers) {
  const auto serial = sweep_with_workers(1);
  const auto parallel = sweep_with_workers(4);

  // The paper grid: 2 reproduction priors x 5 detection models.
  ASSERT_EQ(serial.cells.size(), 10u);
  ASSERT_EQ(parallel.cells.size(), 10u);
  expect_bit_identical(serial, parallel);
}

TEST_F(RuntimeDeterminism, SimulatedReplicationsAreWorkerCountInvariant) {
  const auto simulate = [](std::size_t workers) {
    ThreadPool::set_global_thread_count(workers);
    return srm::data::simulate_replications(
        /*initial_bugs=*/80, /*days=*/30,
        [](std::size_t) { return 0.05; },
        /*master_seed=*/20240624, /*replications=*/8);
  };
  const auto serial = simulate(1);
  const auto parallel = simulate(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].name(), parallel[r].name());
    const auto lhs = serial[r].counts();
    const auto rhs = parallel[r].counts();
    ASSERT_EQ(lhs.size(), rhs.size());
    EXPECT_TRUE(std::equal(lhs.begin(), lhs.end(), rhs.begin()));
  }
}

}  // namespace
