#include "util/statistics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "oracles/order_stats.hpp"
#include "util/rng.hpp"

namespace vdc::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  std::mt19937 gen(7);
  std::normal_distribution<double> dist(3.0, 2.0);
  RunningStats a;
  RunningStats b;
  RunningStats whole;
  for (int i = 0; i < 500; ++i) {
    const double x = dist(gen);
    (i % 3 == 0 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(s.mean(), 1e9, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25 * 1000.0 / 999.0, 1e-6);
}

TEST(Quantile, ThrowsOnEmptyOrBadQ) {
  EXPECT_THROW(static_cast<void>(quantile({}, 0.5)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(quantile({1.0}, -0.1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(quantile({1.0}, 1.1)), std::invalid_argument);
}

TEST(Quantile, EndpointsAndMedian) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 9.0);
}

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, MatchesSortedIndexOnUniformGrid) {
  const double q = GetParam();
  std::vector<double> v(101);
  for (int i = 0; i <= 100; ++i) v[static_cast<std::size_t>(i)] = static_cast<double>(i);
  // With 101 equally spaced points, the type-7 quantile is exactly 100*q.
  EXPECT_NEAR(quantile(v, q), 100.0 * q, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0));

TEST(WindowStats, MatchesRunningStatsAndExactQuantileBitForBit) {
  // WindowStats is the shared order-statistic glue behind both the
  // monitor's percentile path and the tsdb's tier rollups; its outputs
  // must be the exact doubles of the brute-force recompute.
  WindowStats w;
  RunningStats rs;
  std::vector<double> samples;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    w.add(x);
    rs.add(x);
    samples.push_back(x);
    EXPECT_EQ(w.mean(), rs.mean());
    EXPECT_EQ(w.min(), rs.min());
    EXPECT_EQ(w.max(), rs.max());
  }
  EXPECT_EQ(w.count(), 500u);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(w.quantile(q), quantile(samples, q));
  }
}

TEST(WindowStats, RejectsNaNWithoutMutating) {
  WindowStats w;
  w.add(1.0);
  EXPECT_THROW(w.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_EQ(w.mean(), 1.0);
}

TEST(WindowStats, ResetEmptiesTheWindow) {
  WindowStats w;
  w.add(2.0);
  w.add(4.0);
  w.reset();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.count(), 0u);
  w.add(7.0);
  EXPECT_EQ(w.quantile(0.9), 7.0);
}

// ---- WindowStats against the order-statistic tree it replaced -----------

/// Bitwise equality: tells -0.0 from +0.0 and compares NaN results (an
/// interpolation between -inf and +inf) by their bits.
::testing::AssertionResult same_bits(double actual, double expected) {
  if (std::memcmp(&actual, &expected, sizeof actual) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "got " << actual << (std::signbit(actual) ? " (-)" : "")
                                       << ", oracle " << expected
                                       << (std::signbit(expected) ? " (-)" : "");
}

/// One value from a mix built to hit every tie the tree orders: a
/// continuous range, a handful of repeated values, both zeros and both
/// infinities.
double tricky_sample(Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (rng.uniform_int(0, 5)) {
    case 0: return rng.uniform(-5.0, 5.0);
    case 1: return static_cast<double>(rng.uniform_int(-2, 2));
    case 2: return 0.0;
    case 3: return -0.0;
    case 4: return rng.bernoulli(0.5) ? inf : -inf;
    default: return rng.uniform(0.0, 1.0) < 0.5 ? 1.5 : -1.5;
  }
}

void expect_quantiles_match(const WindowStats& w, const oracles::OrderStatisticTree& tree,
                            double extra_q, const std::string& where) {
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0, extra_q}) {
    EXPECT_TRUE(same_bits(w.quantile(q), tree.quantile(q))) << where << " q " << q;
  }
}

TEST(WindowStatsDifferential, MatchesTheOrderStatisticTreeBitForBit) {
  // Seeded windows of mixed samples, read between adds, on one recycled
  // accumulator (reset reuse) against a fresh tree per window.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    WindowStats w;
    for (int window = 0; window < 25; ++window) {
      w.reset();
      oracles::OrderStatisticTree tree;
      const auto n = static_cast<int>(rng.uniform_int(1, 160));
      for (int i = 0; i < n; ++i) {
        const double x = tricky_sample(rng);
        w.add(x);
        tree.insert(x);
        if (rng.bernoulli(0.15) || i + 1 == n) {
          expect_quantiles_match(w, tree, rng.uniform(0.0, 1.0),
                                 "seed " + std::to_string(seed) + " window " +
                                     std::to_string(window) + " size " + std::to_string(i + 1));
        }
      }
      EXPECT_EQ(w.count(), tree.size());
    }
  }
}

TEST(WindowStatsDifferential, OneSampleWindowsAndSignedZeroTies) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {0.0, -0.0, 3.25, -7.5, inf, -inf}) {
    WindowStats w;
    oracles::OrderStatisticTree tree;
    w.add(x);
    tree.insert(x);
    expect_quantiles_match(w, tree, 0.37, "one sample " + std::to_string(x));
  }
  // The tree ranks a later zero below an earlier one whatever the signs:
  // every arrival order of a few zeros, with values on both sides.
  const std::vector<std::vector<double>> streams = {
      {0.0, -0.0},           {-0.0, 0.0},
      {-0.0, 0.0, -0.0},     {0.0, 0.0, -0.0, 0.0},
      {-1.0, 0.0, 2.0, -0.0}, {-0.0, -inf, 0.0, inf, -0.0, 1.0},
      {0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0}};
  for (std::size_t s = 0; s < streams.size(); ++s) {
    WindowStats w;
    oracles::OrderStatisticTree tree;
    for (const double x : streams[s]) {
      w.add(x);
      tree.insert(x);
    }
    for (std::size_t k = 0; k <= 20; ++k) {
      const double q = static_cast<double>(k) / 20.0;
      EXPECT_TRUE(same_bits(w.quantile(q), tree.quantile(q))) << "stream " << s << " q " << q;
    }
  }
}

TEST(WindowStatsDifferential, QuantileReadLeavesTheWindowIntact) {
  // A read selects on a copy: reading, then adding more, must equal adding
  // everything and reading once.
  Rng rng(77);
  WindowStats read_often;
  WindowStats read_once;
  for (int i = 0; i < 300; ++i) {
    const double x = tricky_sample(rng);
    read_often.add(x);
    read_once.add(x);
    static_cast<void>(read_often.quantile(rng.uniform(0.0, 1.0)));
  }
  for (const double q : {0.0, 0.3, 0.9, 1.0}) {
    EXPECT_TRUE(same_bits(read_often.quantile(q), read_once.quantile(q))) << "q " << q;
  }
}

TEST(WindowStats, QuantileValidatesItsInput) {
  WindowStats w;
  EXPECT_THROW(static_cast<void>(w.quantile(0.5)), std::invalid_argument);
  w.add(1.0);
  EXPECT_THROW(static_cast<void>(w.quantile(-0.1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(w.quantile(1.1)), std::invalid_argument);
}

}  // namespace
}  // namespace vdc::util
