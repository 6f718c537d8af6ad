#include "peerlab/sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <vector>

#include "peerlab/common/check.hpp"

namespace peerlab::sim {
namespace {

constexpr int kSamples = 20000;

TEST(Rng, SameSeedSameSequence) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  const double x = r.uniform();
  EXPECT_GE(x, 0.0);
  EXPECT_LT(x, 1.0);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng f1 = parent.fork(1);
  Rng f2 = parent.fork(2);
  Rng parent2(7);
  Rng f1b = parent2.fork(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(f1.uniform(), f1b.uniform());
  }
  // Different stream keys give different sequences.
  Rng f1c = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (f1c.uniform() == f2.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(3);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const auto x = r.uniform_int(0, 5);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, 5);
    ++seen[static_cast<std::size_t>(x)];
  }
  for (const int c : seen) EXPECT_GT(c, 0);
}

TEST(Rng, BernoulliEdgeProbabilities) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
  // Out-of-range probabilities clamp instead of UB.
  EXPECT_TRUE(r.bernoulli(1.5));
  EXPECT_FALSE(r.bernoulli(-0.5));
}

TEST(Rng, NormalZeroSigmaIsDegenerate) {
  Rng r(5);
  EXPECT_DOUBLE_EQ(r.normal(3.5, 0.0), 3.5);
}

struct MeanCase {
  const char* name;
  double expected_mean;
  double tolerance;
  std::function<double(Rng&)> draw;
};

// gtest lists each case as "<name> # GetParam() = <printed param>", and
// ctest takes that whole line as the test name. Without this overload the
// param prints as raw bytes, pointers included, so the names would change
// with every build's load address.
void PrintTo(const MeanCase& c, std::ostream* os) { *os << c.name; }

class RngMeanTest : public ::testing::TestWithParam<MeanCase> {};

TEST_P(RngMeanTest, EmpiricalMeanMatches) {
  const auto& param = GetParam();
  Rng r(2024);
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) sum += param.draw(r);
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, param.expected_mean, param.tolerance) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, RngMeanTest,
    ::testing::Values(
        MeanCase{"uniform01", 0.5, 0.02, [](Rng& r) { return r.uniform(); }},
        MeanCase{"uniform_2_6", 4.0, 0.05, [](Rng& r) { return r.uniform(2.0, 6.0); }},
        MeanCase{"normal_10_2", 10.0, 0.1, [](Rng& r) { return r.normal(10.0, 2.0); }},
        MeanCase{"exponential_3", 3.0, 0.15, [](Rng& r) { return r.exponential(3.0); }},
        MeanCase{"lognormal_mean_12", 12.0, 0.6,
                 [](Rng& r) { return r.lognormal_mean(12.0, 0.5); }},
        MeanCase{"lognormal_mean_004", 0.04, 0.005,
                 [](Rng& r) { return r.lognormal_mean(0.04, 0.35); }},
        MeanCase{"bernoulli_03", 0.3, 0.02,
                 [](Rng& r) { return r.bernoulli(0.3) ? 1.0 : 0.0; }}),
    [](const ::testing::TestParamInfo<MeanCase>& info) { return info.param.name; });

TEST(Rng, LognormalIsAlwaysPositive) {
  Rng r(11);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GT(r.lognormal_mean(0.04, 1.0), 0.0);
  }
}

TEST(Rng, LognormalRejectsNonPositiveMean) {
  Rng r(11);
  EXPECT_THROW(r.lognormal_mean(0.0, 0.5), InvariantError);
  EXPECT_THROW(r.lognormal_mean(-1.0, 0.5), InvariantError);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng r(11);
  EXPECT_THROW(r.exponential(0.0), InvariantError);
}

TEST(Rng, ParetoStaysInBounds) {
  Rng r(13);
  for (int i = 0; i < 2000; ++i) {
    const double x = r.pareto(1.0, 100.0, 1.3);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(Rng, ParetoRejectsBadParameters) {
  Rng r(13);
  EXPECT_THROW(r.pareto(0.0, 10.0, 1.0), InvariantError);
  EXPECT_THROW(r.pareto(5.0, 5.0, 1.0), InvariantError);
  EXPECT_THROW(r.pareto(1.0, 10.0, 0.0), InvariantError);
}

TEST(Rng, ParetoIsHeavyTailedTowardLowerBound) {
  Rng r(17);
  int low = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (r.pareto(1.0, 1000.0, 1.5) < 2.0) ++low;
  }
  // For alpha 1.5 roughly 65% of mass is below 2x the lower bound.
  EXPECT_GT(low, kSamples / 2);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r(19);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[r.weighted_index(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, WeightedIndexRejectsDegenerateInput) {
  Rng r(19);
  EXPECT_THROW(r.weighted_index({}), InvariantError);
  EXPECT_THROW(r.weighted_index({0.0, 0.0}), InvariantError);
  EXPECT_THROW(r.weighted_index({1.0, -1.0}), InvariantError);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(23);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  auto shuffled = items;
  r.shuffle(shuffled);
  EXPECT_NE(shuffled, items);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, ShuffleHandlesTinyInputs) {
  Rng r(23);
  std::vector<int> empty;
  r.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  r.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

}  // namespace
}  // namespace peerlab::sim
