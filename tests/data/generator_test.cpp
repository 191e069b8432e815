// Tests for the synthetic bug-detection-process generator.
#include "data/generator.hpp"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

using srm::data::simulate_detection_process;
using srm::random::Rng;

TEST(Generator, NeverDetectsMoreThanInitialBugs) {
  Rng rng(1);
  const auto data = simulate_detection_process(
      50, 100, [](std::size_t) { return 0.2; }, rng);
  EXPECT_LE(data.total(), 50);
  EXPECT_EQ(data.days(), 100u);
}

TEST(Generator, CertainDetectionFindsEverythingOnDayOne) {
  Rng rng(2);
  const auto data = simulate_detection_process(
      30, 5, [](std::size_t) { return 1.0; }, rng);
  EXPECT_EQ(data.count_on_day(1), 30);
  EXPECT_EQ(data.total(), 30);
  for (std::size_t day = 2; day <= 5; ++day) {
    EXPECT_EQ(data.count_on_day(day), 0);
  }
}

TEST(Generator, ZeroDetectionFindsNothing) {
  Rng rng(3);
  const auto data = simulate_detection_process(
      30, 10, [](std::size_t) { return 0.0; }, rng);
  EXPECT_EQ(data.total(), 0);
}

TEST(Generator, ZeroInitialBugs) {
  Rng rng(4);
  const auto data = simulate_detection_process(
      0, 10, [](std::size_t) { return 0.5; }, rng);
  EXPECT_EQ(data.total(), 0);
}

TEST(Generator, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  const auto da = simulate_detection_process(
      100, 20, [](std::size_t d) { return 0.01 * static_cast<double>(d); },
      a);
  const auto db = simulate_detection_process(
      100, 20, [](std::size_t d) { return 0.01 * static_cast<double>(d); },
      b);
  for (std::size_t day = 1; day <= 20; ++day) {
    EXPECT_EQ(da.count_on_day(day), db.count_on_day(day));
  }
}

TEST(Generator, ExpectedDetectedMatchesTheory) {
  // With constant p, E[s_k] = N (1 - (1-p)^k). Average over replicates.
  const double p = 0.05;
  const std::int64_t n0 = 200;
  const std::size_t k = 30;
  const double expected =
      n0 * (1.0 - std::pow(1.0 - p, static_cast<double>(k)));
  double sum = 0.0;
  const int replicates = 400;
  for (int r = 0; r < replicates; ++r) {
    Rng rng(1000 + static_cast<std::uint64_t>(r));
    sum += static_cast<double>(
        simulate_detection_process(n0, k, [&](std::size_t) { return p; }, rng)
            .total());
  }
  EXPECT_NEAR(sum / replicates, expected, 2.0);
}

TEST(Generator, RejectsInvalidArguments) {
  Rng rng(5);
  EXPECT_THROW(simulate_detection_process(
                   -1, 10, [](std::size_t) { return 0.5; }, rng),
               srm::InvalidArgument);
  EXPECT_THROW(simulate_detection_process(
                   10, 0, [](std::size_t) { return 0.5; }, rng),
               srm::InvalidArgument);
  EXPECT_THROW(simulate_detection_process(
                   10, 5, [](std::size_t) { return 1.5; }, rng),
               srm::InvalidArgument);
}

TEST(Generator, BugAndDayLimitsAreExactBoundaries) {
  Rng rng(5);
  const auto half = [](std::size_t) { return 0.5; };
  const auto data = simulate_detection_process(srm::data::kMaxBugs,
                                               srm::data::kMaxDays, half, rng);
  EXPECT_EQ(data.days(), srm::data::kMaxDays);
  EXPECT_EQ(data.total(), srm::data::kMaxBugs);
  const auto message = [&](std::int64_t bugs, std::size_t days) {
    try {
      (void)simulate_detection_process(bugs, days, half, rng);
    } catch (const srm::InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(message(srm::data::kMaxBugs + 1, 5), "bugs must be <= 1000000000");
  EXPECT_EQ(message(-3, 5), "bugs must be >= 0");
  EXPECT_EQ(message(10, srm::data::kMaxDays + 1), "days must be <= 10000");
  EXPECT_EQ(message(10, 100000000000), "days must be <= 10000");
  EXPECT_EQ(message(10, 0), "days must be >= 1");
}

}  // namespace
