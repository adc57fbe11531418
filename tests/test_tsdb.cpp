// Differential and property tests for the tiered telemetry store.
//
// The load-bearing claim: every tier-1/tier-2 rollup point — finalized or
// still open — is *bit-identical* to a brute-force recompute over the raw
// samples of its window (util::RunningStats in append order for the
// moments, util::quantile for the percentile). EXPECT_EQ on doubles is
// deliberate throughout: the engine and the oracle must run the exact same
// arithmetic.
#include "telemetry/tsdb.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace vdc::telemetry::tsdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Brute-force rollup of (time, value) pairs: group by floor(t / period),
/// recompute each window's statistics from scratch. Returns windows in
/// time order, the last one being the still-open window.
std::vector<RollupPoint> brute_rollups(const std::vector<RawSample>& samples, double period_s,
                                       double q) {
  std::map<std::int64_t, std::vector<double>> windows;
  for (const RawSample& s : samples) {
    windows[static_cast<std::int64_t>(std::floor(s.time_s / period_s))].push_back(s.value);
  }
  std::vector<RollupPoint> out;
  for (const auto& [w, values] : windows) {
    util::RunningStats rs;
    for (double v : values) rs.add(v);
    RollupPoint p;
    p.start_s = static_cast<double>(w) * period_s;
    p.count = rs.count();
    p.min = rs.min();
    p.max = rs.max();
    p.mean = rs.mean();
    p.p90 = util::quantile(values, q);
    out.push_back(p);
  }
  return out;
}

TsdbConfig small_config() {
  TsdbConfig config;
  config.page_samples = 4;
  config.tier0_max_pages = 0;  // keep everything unless a test says otherwise
  config.tier1_period_s = 2.0;
  config.tier1_retention_points = 0;
  config.tier2_period_s = 8.0;
  config.tier2_retention_points = 0;
  return config;
}

TEST(TsdbConfigValidation, RejectsNonsense) {
  TsdbConfig config;
  config.page_samples = 0;
  EXPECT_THROW(Tsdb{config}, std::invalid_argument);
  config = {};
  config.tier1_period_s = 0.0;
  EXPECT_THROW(Tsdb{config}, std::invalid_argument);
  config = {};
  config.tier2_period_s = -1.0;
  EXPECT_THROW(Tsdb{config}, std::invalid_argument);
  config = {};
  config.quantile = 1.5;
  EXPECT_THROW(Tsdb{config}, std::invalid_argument);
  config = {};
  config.quantile = kNan;
  EXPECT_THROW(Tsdb{config}, std::invalid_argument);
}

TEST(TsdbDeclare, IdempotentAndFindable) {
  Tsdb db(small_config());
  const MetricId a = db.declare("app0/p90");
  const MetricId b = db.declare("cluster/power_w");
  EXPECT_NE(a, b);
  EXPECT_EQ(db.declare("app0/p90"), a);
  EXPECT_EQ(db.metric_count(), 2u);
  ASSERT_TRUE(db.find("cluster/power_w").has_value());
  EXPECT_EQ(*db.find("cluster/power_w"), b);
  EXPECT_FALSE(db.find("nope").has_value());
  EXPECT_EQ(db.name(a), "app0/p90");
  EXPECT_THROW(static_cast<void>(db.samples_appended(99)), std::out_of_range);
}

TEST(TsdbRollups, BitIdenticalToBruteForceRecompute) {
  TsdbConfig config = small_config();
  Tsdb db(config);
  const MetricId id = db.declare("m");

  util::Rng rng(42);
  std::vector<RawSample> accepted;
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.uniform(0.0, 1.3);  // irregular spacing: empty windows included
    const double v = rng.uniform(0.1, 3.0);
    ASSERT_TRUE(db.append(id, t, v));
    accepted.push_back(RawSample{t, v});
  }

  for (const Tier tier : {Tier::kPeriod, Tier::kHourly}) {
    const double period_s =
        tier == Tier::kPeriod ? config.tier1_period_s : config.tier2_period_s;
    const std::vector<RollupPoint> expected =
        brute_rollups(accepted, period_s, config.quantile);
    const std::vector<RollupPoint> got = db.rollups(id, tier, -kInf, kInf);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].start_s, expected[k].start_s);
      EXPECT_EQ(got[k].count, expected[k].count);
      EXPECT_EQ(got[k].min, expected[k].min);
      EXPECT_EQ(got[k].max, expected[k].max);
      EXPECT_EQ(got[k].mean, expected[k].mean);
      EXPECT_EQ(got[k].p90, expected[k].p90);
    }
    // All but the open window are finalized.
    EXPECT_EQ(db.finalized(id, tier).size(), expected.size() - 1);
  }
}

TEST(TsdbRollups, EmptyWindowsProduceNoPoints) {
  Tsdb db(small_config());  // tier-1 period 2 s
  const MetricId id = db.declare("m");
  ASSERT_TRUE(db.append(id, 0.5, 1.0));
  ASSERT_TRUE(db.append(id, 100.5, 2.0));  // 49 empty windows skipped
  const std::vector<RollupPoint> points = db.rollups(id, Tier::kPeriod, -kInf, kInf);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].start_s, 0.0);
  EXPECT_EQ(points[1].start_s, 100.0);
}

TEST(TsdbRollups, SingleSampleWindowHasDegenerateStats) {
  Tsdb db(small_config());
  const MetricId id = db.declare("m");
  ASSERT_TRUE(db.append(id, 3.0, 0.7));
  const std::vector<RollupPoint> points = db.rollups(id, Tier::kPeriod, -kInf, kInf);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].count, 1u);
  EXPECT_EQ(points[0].min, 0.7);
  EXPECT_EQ(points[0].max, 0.7);
  EXPECT_EQ(points[0].mean, 0.7);
  EXPECT_EQ(points[0].p90, 0.7);
}

TEST(TsdbRollups, OpenWindowIsComputedOnTheFlyWithoutMutation) {
  Tsdb db(small_config());
  const MetricId id = db.declare("m");
  ASSERT_TRUE(db.append(id, 0.1, 1.0));
  ASSERT_TRUE(db.append(id, 0.2, 3.0));
  EXPECT_TRUE(db.finalized(id, Tier::kPeriod).empty());
  const std::vector<RollupPoint> first = db.rollups(id, Tier::kPeriod, -kInf, kInf);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].count, 2u);
  EXPECT_EQ(first[0].mean, 2.0);
  // Querying again is identical (nothing was flushed)...
  EXPECT_EQ(db.rollups(id, Tier::kPeriod, -kInf, kInf)[0], first[0]);
  // ...and the open window keeps absorbing samples.
  ASSERT_TRUE(db.append(id, 0.3, 5.0));
  EXPECT_EQ(db.rollups(id, Tier::kPeriod, -kInf, kInf)[0].count, 3u);
}

TEST(TsdbAppend, RejectsNaNAndCountsIt) {
  Tsdb db(small_config());
  const MetricId id = db.declare("m");
  EXPECT_FALSE(db.append(id, 1.0, kNan));
  EXPECT_FALSE(db.append(id, kNan, 1.0));
  EXPECT_EQ(db.rejected_nan(id), 2u);
  EXPECT_EQ(db.samples_appended(id), 0u);
  EXPECT_TRUE(db.raw(id, -kInf, kInf).empty());
  EXPECT_TRUE(db.rollups(id, Tier::kPeriod, -kInf, kInf).empty());
  // A NaN-rejected append does not advance the time cursor.
  EXPECT_TRUE(db.append(id, 0.5, 1.0));
}

TEST(TsdbAppend, RejectsOutOfOrderKeepsEqualTimestamps) {
  Tsdb db(small_config());
  const MetricId id = db.declare("m");
  ASSERT_TRUE(db.append(id, 2.0, 1.0));
  EXPECT_FALSE(db.append(id, 1.9, 9.0));
  EXPECT_EQ(db.rejected_out_of_order(id), 1u);
  EXPECT_TRUE(db.append(id, 2.0, 2.0));  // equal timestamp is in order
  EXPECT_EQ(db.samples_appended(id), 2u);
  const std::vector<RawSample> raw = db.raw(id, -kInf, kInf);
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_EQ(raw[1].value, 2.0);
}

TEST(TsdbRaw, HalfOpenRangeAndPageBoundaries) {
  Tsdb db(small_config());  // 4 samples per page
  const MetricId id = db.declare("m");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.append(id, static_cast<double>(i), static_cast<double>(i) * 10.0));
  }
  EXPECT_EQ(db.pages_live(id), 3u);
  // [3, 7) straddles the first page boundary: samples 3,4,5,6.
  const std::vector<RawSample> mid = db.raw(id, 3.0, 7.0);
  ASSERT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid.front().time_s, 3.0);  // t0 inclusive
  EXPECT_EQ(mid.back().time_s, 6.0);   // t1 exclusive
  EXPECT_TRUE(db.raw(id, 10.0, kInf).empty());
  EXPECT_TRUE(db.raw(id, 5.0, 5.0).empty());  // empty window
  EXPECT_EQ(db.raw(id, -kInf, kInf).size(), 10u);
}

TEST(TsdbEviction, DropsWholePagesAndRecyclesThem) {
  TsdbConfig config = small_config();
  config.tier0_max_pages = 2;
  Tsdb db(config);
  const MetricId id = db.declare("m");
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(db.append(id, static_cast<double>(i), 1.0));
  }
  EXPECT_EQ(db.pages_live(id), 2u);
  EXPECT_EQ(db.samples_evicted(id), 4u);
  EXPECT_EQ(db.free_pages(), 1u);  // evicted page parked for reuse
  ASSERT_TRUE(db.earliest_raw_time_s(id).has_value());
  EXPECT_EQ(*db.earliest_raw_time_s(id), 4.0);
  // Rollups survive eviction: every window is still present.
  EXPECT_EQ(db.rollups(id, Tier::kPeriod, -kInf, kInf).size(), 6u);
}

TEST(TsdbMemoryBound, WeekLongStreamStaysWithinPageBudget) {
  TsdbConfig config;  // defaults: 256-sample pages, 64-page budget
  config.tier1_retention_points = 512;
  config.tier2_retention_points = 256;
  Tsdb db(config);
  const MetricId id = db.declare("m");
  util::Rng rng(7);
  // One sample per 4 s control period for a simulated week.
  const std::size_t samples = 7 * 24 * 3600 / 4;
  for (std::size_t i = 0; i < samples; ++i) {
    ASSERT_TRUE(db.append(id, static_cast<double>(i) * 4.0, rng.uniform(0.0, 2.0)));
  }
  EXPECT_EQ(db.samples_appended(id), samples);
  // The bound is on pages allocated, not RSS: the live ring never exceeds
  // the budget and eviction recycles through at most one spare page.
  EXPECT_LE(db.pages_live(id), config.tier0_max_pages);
  EXPECT_LE(db.free_pages(), 1u);
  // Whole-page eviction: the newest (possibly partial) page counts against
  // the budget, so retained = budget pages minus the unfilled tail.
  const std::size_t total_pages =
      (samples + config.page_samples - 1) / config.page_samples;
  EXPECT_EQ(db.samples_evicted(id),
            (total_pages - config.tier0_max_pages) * config.page_samples);
  // Storage model: bounded pages + bounded rollup rings, irrespective of
  // how many samples streamed through.
  const auto open_acc_samples =
      static_cast<std::size_t>((config.tier1_period_s + config.tier2_period_s) / 4.0) + 2;
  const std::size_t budget_bytes =
      (config.tier0_max_pages + 1) * config.page_samples * sizeof(RawSample) +
      (config.tier1_retention_points + config.tier2_retention_points + 2) *
          sizeof(RollupPoint) +
      open_acc_samples * sizeof(double);
  EXPECT_LE(db.approx_memory_bytes(), budget_bytes);
}

TEST(TsdbAutoTier, DegradesFromRawToPeriodToHourly) {
  TsdbConfig config = small_config();
  config.tier0_max_pages = 2;        // raw keeps 8 samples
  config.tier1_retention_points = 4;  // tier 1 keeps 4 finalized windows
  Tsdb db(config);
  const MetricId id = db.declare("m");

  // While nothing has been evicted, kAuto serves raw — even for ranges
  // before the first sample (the history is complete).
  ASSERT_TRUE(db.append(id, 0.0, 1.0));
  EXPECT_EQ(db.query(id, -kInf, kInf).tier, Tier::kRaw);

  for (int i = 1; i < 40; ++i) {
    ASSERT_TRUE(db.append(id, static_cast<double>(i), static_cast<double>(i)));
  }
  // Raw now starts at t=32; tier 1 (2 s windows, 4 retained + open) starts
  // at t=28; tier 2 (8 s windows, nothing evicted) covers everything.
  ASSERT_TRUE(db.earliest_raw_time_s(id).has_value());
  EXPECT_EQ(*db.earliest_raw_time_s(id), 32.0);

  EXPECT_EQ(db.query(id, 33.0, kInf).tier, Tier::kRaw);
  EXPECT_EQ(db.query(id, 30.0, kInf).tier, Tier::kPeriod);
  EXPECT_EQ(db.query(id, 1.0, kInf).tier, Tier::kHourly);
  // Explicit tier requests are honored regardless of coverage.
  EXPECT_EQ(db.query(id, 1.0, kInf, Tier::kPeriod).tier, Tier::kPeriod);
  const QueryResult hourly = db.query(id, -kInf, kInf, Tier::kHourly);
  EXPECT_EQ(hourly.tier, Tier::kHourly);
  EXPECT_EQ(hourly.size(), 5u);  // windows 0,8,16,24,32
}

TEST(TsdbRollupRange, ReturnsIntersectingWindowsOnly) {
  Tsdb db(small_config());  // tier-1 period 2 s
  const MetricId id = db.declare("m");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.append(id, static_cast<double>(i), 1.0));
  }
  // Windows: [0,2) [2,4) [4,6) [6,8) [8,10). Range [3,5) intersects
  // [2,4) and [4,6).
  const std::vector<RollupPoint> points = db.rollups(id, Tier::kPeriod, 3.0, 5.0);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].start_s, 2.0);
  EXPECT_EQ(points[1].start_s, 4.0);
  // A range that touches only the open window returns just it.
  const std::vector<RollupPoint> open = db.rollups(id, Tier::kPeriod, 8.5, 9.0);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].start_s, 8.0);
}

TEST(TsdbValueSemantics, CopiesAreIndependent) {
  Tsdb db(small_config());
  const MetricId id = db.declare("m");
  ASSERT_TRUE(db.append(id, 0.0, 1.0));
  Tsdb copy = db;
  ASSERT_TRUE(copy.append(id, 1.0, 2.0));
  EXPECT_EQ(db.samples_appended(id), 1u);
  EXPECT_EQ(copy.samples_appended(id), 2u);
}

}  // namespace
}  // namespace vdc::telemetry::tsdb
