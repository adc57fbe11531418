#include "telemetry/recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden.hpp"
#include "telemetry/export.hpp"

namespace vdc::telemetry {
namespace {

TEST(Recorder, ScalarSeriesAppendsInOrder) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("p90", 0.5);
  rec.append("p90", 2.0);
  EXPECT_TRUE(rec.has("p90"));
  EXPECT_FALSE(rec.is_vector("p90"));
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{1.0, 0.5, 2.0}));
  EXPECT_EQ(rec.size("p90"), 3u);
}

TEST(Recorder, VectorSeriesKeepsRows) {
  Recorder rec;
  rec.append("alloc", std::vector<double>{0.3, 0.4});
  rec.append("alloc", std::vector<double>{0.5, 0.6});
  EXPECT_TRUE(rec.is_vector("alloc"));
  ASSERT_EQ(rec.rows("alloc").size(), 2u);
  EXPECT_EQ(rec.rows("alloc")[1], (std::vector<double>{0.5, 0.6}));
}

TEST(Recorder, DeclareCreatesEmptySeries) {
  Recorder rec;
  rec.declare_scalar("power");
  rec.declare_vector("alloc");
  EXPECT_TRUE(rec.has("power"));
  EXPECT_TRUE(rec.values("power").empty());
  EXPECT_TRUE(rec.rows("alloc").empty());
  EXPECT_EQ(rec.size("power"), 0u);
}

TEST(Recorder, SeriesNamesInCreationOrder) {
  Recorder rec;
  rec.append("z", 1.0);
  rec.append("a", 2.0);
  rec.append("m", std::vector<double>{3.0});
  EXPECT_EQ(rec.series_names(), (std::vector<std::string>{"z", "a", "m"}));
  EXPECT_EQ(rec.series_count(), 3u);
}

TEST(Recorder, KindMismatchThrows) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("alloc", std::vector<double>{0.3});
  EXPECT_THROW(rec.append("p90", std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(rec.append("alloc", 1.0), std::invalid_argument);
  EXPECT_THROW((void)rec.values("alloc"), std::out_of_range);
  EXPECT_THROW((void)rec.rows("p90"), std::out_of_range);
  EXPECT_THROW((void)rec.values("unknown"), std::out_of_range);
}

TEST(Recorder, ReferencesStayValidAcrossNewSeries) {
  Recorder rec;
  rec.append("first", 1.0);
  const std::vector<double>& first = rec.values("first");
  for (int i = 0; i < 64; ++i) rec.append("series" + std::to_string(i), double(i));
  EXPECT_EQ(first, (std::vector<double>{1.0}));  // node-based storage
}

TEST(Recorder, EqualityIsExact) {
  Recorder a;
  Recorder b;
  a.append("p90", 1.0);
  a.append("alloc", std::vector<double>{0.3, 0.4});
  b.append("p90", 1.0);
  b.append("alloc", std::vector<double>{0.3, 0.4});
  EXPECT_TRUE(a == b);
  b.append("p90", 1.0 + 1e-15);
  EXPECT_FALSE(a == b);
}

TEST(Recorder, ClearRemovesEverything) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_FALSE(rec.has("p90"));
}

// ---- tsdb store -------------------------------------------------------------

TEST(RecorderTsdb, ValuesIdenticalToRawBackend) {
  // The historical raw-vector store was push_back: values() must hand back
  // exactly the appended doubles, in order, while retention covers them.
  Recorder tiered;
  std::vector<double> appended;
  for (int i = 0; i < 300; ++i) {
    const double v = 1.0 / (1.0 + static_cast<double>(i));  // awkward decimals
    appended.push_back(v);
    tiered.append("p90", v);
  }
  EXPECT_EQ(tiered.values("p90"), appended);
  EXPECT_EQ(tiered.size("p90"), appended.size());
  Recorder copy;
  for (const double v : appended) copy.append("p90", v);
  EXPECT_TRUE(tiered == copy);
}

TEST(RecorderTsdb, AppendAtTimestampsLandInTheStore) {
  Recorder rec;
  rec.append_at("p90", 4.0, 1.0);
  rec.append_at("p90", 8.0, 2.0);
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{1.0, 2.0}));
  const auto id = rec.tsdb().find("p90");
  ASSERT_TRUE(id.has_value());
  const std::vector<tsdb::RawSample> samples =
      rec.tsdb().raw(*id, 0.0, std::numeric_limits<double>::infinity());
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].time_s, 4.0);
  EXPECT_EQ(samples[1].time_s, 8.0);
  // Equality compares samples, not timestamps: synthesized times match.
  Recorder ordinal;
  ordinal.append("p90", 1.0);
  ordinal.append("p90", 2.0);
  EXPECT_TRUE(ordinal == rec);
}

TEST(RecorderTsdb, VectorSeriesStayRawRows) {
  Recorder rec;
  rec.append("alloc", std::vector<double>{0.3, 0.4});
  rec.append("alloc", std::vector<double>{0.5, 0.6});
  EXPECT_TRUE(rec.is_vector("alloc"));
  ASSERT_EQ(rec.rows("alloc").size(), 2u);
  EXPECT_FALSE(rec.tsdb().find("alloc").has_value());
}

TEST(RecorderTsdb, ReferencesStayValidAndRefreshInPlace) {
  Recorder rec;
  rec.append("first", 1.0);
  const std::vector<double>& first = rec.values("first");
  for (int i = 0; i < 64; ++i) rec.append("series" + std::to_string(i), double(i));
  EXPECT_EQ(first, (std::vector<double>{1.0}));
  rec.append("first", 2.0);
  // The next values() call refreshes the materialization in place: the old
  // reference still points at the (same) cache vector.
  static_cast<void>(rec.values("first"));
  EXPECT_EQ(first, (std::vector<double>{1.0, 2.0}));
}

TEST(RecorderTsdb, NaNSamplesAreRejectedNotStored) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("p90", std::numeric_limits<double>::quiet_NaN());
  rec.append("p90", 2.0);
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{1.0, 2.0}));
  const auto id = rec.tsdb().find("p90");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(rec.tsdb().rejected_nan(*id), 1u);
}

TEST(RecorderTsdb, ClearResetsTheStore) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_FALSE(rec.has("p90"));
  EXPECT_EQ(rec.tsdb().metric_count(), 0u);
  rec.append("p90", 3.0);  // usable again after the reset
  EXPECT_EQ(rec.values("p90"), (std::vector<double>{3.0}));
}

TEST(RecorderTsdb, EvictionShrinksVisibleValues) {
  RecorderConfig config;
  config.tsdb.page_samples = 4;
  config.tsdb.tier0_max_pages = 2;
  Recorder rec(config);
  for (int i = 0; i < 12; ++i) rec.append("p90", static_cast<double>(i));
  // Oldest page dropped: the visible window is the retained tail.
  EXPECT_EQ(rec.size("p90"), 8u);
  EXPECT_EQ(rec.values("p90").front(), 4.0);
  // The rollups still cover the whole stream.
  const auto id = rec.tsdb().find("p90");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(rec.tsdb()
                .rollups(*id, tsdb::Tier::kPeriod,
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::infinity())
                .front()
                .count,
            4u);  // window [0,4) at 1 s synthesized spacing, period 4 s
}

TEST(RecorderTsdb, CsvExportByteIdenticalToRawBackend) {
  // The golden holds what the retired raw-vector store exported for these
  // exact appends (ragged lengths and a vector series included).
  Recorder tiered;
  for (int i = 0; i < 100; ++i) {
    tiered.append("p90", 0.9 + 0.01 * static_cast<double>(i % 7));
    tiered.append("alloc", std::vector<double>{0.3, 0.4 + 0.001 * i});
  }
  tiered.append("power", 123.456789);
  check_golden("recorder_raw_export.csv", to_csv(tiered));
}

TEST(Export, CsvRoundTripsExactly) {
  Recorder rec;
  rec.append("p90", 1.0 / 3.0);  // not representable in short decimal
  rec.append("p90", 0.125);
  rec.append("alloc", std::vector<double>{0.3, 0.7});
  rec.append("alloc", std::vector<double>{0.6, 1.4});
  rec.append("power", 123.456789);
  // power has 1 sample, p90 has 2: ragged lengths pad with empty cells.
  const Recorder back = from_csv(to_csv(rec));
  EXPECT_TRUE(back == rec);
}

TEST(Export, HeaderFlattensVectorSeries) {
  Recorder rec;
  rec.append("p90", 1.0);
  rec.append("alloc", std::vector<double>{0.3, 0.7});
  std::ostringstream out;
  write_csv(rec, out);
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, text.find('\n')), "p90,alloc[0],alloc[1]");
}

TEST(Export, FileRoundTrip) {
  Recorder rec;
  rec.append("p90", 0.987);
  rec.append("alloc", std::vector<double>{0.25, 0.5, 0.75});
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "vdc_telemetry_roundtrip.csv";
  write_csv_file(rec, path);
  const Recorder back = read_csv_file(path);
  std::filesystem::remove(path);
  EXPECT_TRUE(back == rec);
}

TEST(Export, EmptyRecorderRejectedEmptyTextAccepted) {
  const Recorder rec;
  EXPECT_THROW((void)to_csv(rec), std::invalid_argument);
  EXPECT_TRUE(from_csv("") == rec);
}

TEST(Export, ImportRejectsNonFiniteCellNamingColumnAndRow) {
  // The tsdb store drops NaN samples, which would silently shift every
  // later sample of the column up one row; the import refuses instead.
  for (const char* cell : {"nan", "inf", "-inf"}) {
    const std::string text = std::string("p90,alloc[0]\n1.0,0.5\n") + cell + ",0.5\n";
    try {
      (void)from_csv(text);
      ADD_FAILURE() << "accepted '" << cell << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'p90'"), std::string::npos) << what;
      EXPECT_NE(what.find("row 2"), std::string::npos) << what;
    }
  }
  // Vector columns are checked the same way.
  EXPECT_THROW((void)from_csv("alloc[0],alloc[1]\n0.5,nan\n"), std::runtime_error);
}

TEST(Export, ImportKeepsTablesLongerThanDefaultRetention) {
  // Default tier-0 retention is 64 pages x 256 samples = 16,384 per metric;
  // an imported table must round-trip whole, however long.
  const RecorderConfig defaults;
  const std::size_t rows = defaults.tsdb.page_samples * defaults.tsdb.tier0_max_pages + 1000;
  std::string text = "p90\n";
  for (std::size_t k = 0; k < rows; ++k) text += std::to_string(k) + "\n";
  const Recorder back = from_csv(text);
  ASSERT_EQ(back.size("p90"), rows);
  EXPECT_EQ(back.values("p90").front(), 0.0);
  EXPECT_EQ(back.values("p90").back(), static_cast<double>(rows - 1));
  const auto id = back.tsdb().find("p90");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(back.tsdb().samples_evicted(*id), 0u);
}

}  // namespace
}  // namespace vdc::telemetry
