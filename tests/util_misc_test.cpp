// Tests for RNG, statistics, histograms, time series, tables, text, the
// sorted map and the flat hash map.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/ascii_plot.hpp"
#include "util/error.hpp"
#include "util/flat_map.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/sorted_map.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/text.hpp"
#include "util/time_series.hpp"

namespace craysim {
namespace {

// ---------------------------------------------------------------- Rng -----

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, NormalAtLeastRespectsFloor) {
  Rng rng(17);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(rng.normal_at_least(0.0, 3.0, 1.0), 1.0);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// ------------------------------------------------------------- stats -----

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double v = i * 0.7 - 3;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

TEST(Percentile, EmptyIsZero) { EXPECT_EQ(percentile({}, 50), 0.0); }

TEST(Autocorrelation, PeriodicSignalPeaksAtPeriod) {
  std::vector<double> signal;
  for (int i = 0; i < 200; ++i) signal.push_back(i % 10 == 0 ? 5.0 : 0.0);
  EXPECT_GT(autocorrelation(signal, 10), 0.9);
  EXPECT_LT(autocorrelation(signal, 5), 0.2);
  EXPECT_EQ(dominant_period(signal, 2, 50), 10u);
}

TEST(Autocorrelation, ConstantSignalIsZero) {
  const std::vector<double> signal(100, 3.0);
  EXPECT_EQ(autocorrelation(signal, 5), 0.0);
  EXPECT_EQ(dominant_period(signal, 1, 40), 0u);
}

// --------------------------------------------------------- histogram -----

TEST(Log2Histogram, BucketBoundaries) {
  Log2Histogram h;
  h.add(1);     // bucket 0
  h.add(2);     // bucket 1
  h.add(3);     // bucket 1
  h.add(4);     // bucket 2
  h.add(1024);  // bucket 10
  EXPECT_EQ(h.total_count(), 5);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(10), 1);
}

TEST(Log2Histogram, PercentileApproximation) {
  Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(1024);
  for (int i = 0; i < 10; ++i) h.add(1 << 20);
  EXPECT_EQ(h.percentile(50), 1024);
  EXPECT_EQ(h.percentile(99), 1 << 20);
}

TEST(Log2Histogram, RenderContainsBars) {
  Log2Histogram h;
  h.add(4096, 10);
  const std::string text = h.render();
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find("4096"), std::string::npos);
}

TEST(Log2Histogram, EmptyRender) {
  EXPECT_EQ(Log2Histogram{}.render(), "(empty histogram)\n");
}

// ------------------------------------------------------- time series -----

TEST(BinnedSeries, AddGoesToRightBin) {
  BinnedSeries s(Ticks::from_seconds(1));
  s.add(Ticks::from_seconds(0.5), 10.0);
  s.add(Ticks::from_seconds(1.5), 20.0);
  s.add(Ticks::from_seconds(1.9), 5.0);
  ASSERT_EQ(s.num_bins(), 2u);
  EXPECT_DOUBLE_EQ(s.bin(0), 10.0);
  EXPECT_DOUBLE_EQ(s.bin(1), 25.0);
  EXPECT_DOUBLE_EQ(s.total(), 35.0);
}

TEST(BinnedSeries, NegativeTimeClampsToFirstBin) {
  BinnedSeries s(Ticks::from_seconds(1));
  s.add(Ticks(-100), 7.0);
  EXPECT_DOUBLE_EQ(s.bin(0), 7.0);
}

TEST(BinnedSeries, AddSpreadSplitsProportionally) {
  BinnedSeries s(Ticks::from_seconds(1));
  // 2-second transfer centered on a bin boundary: half in each bin.
  s.add_spread(Ticks::from_seconds(0.5), Ticks::from_seconds(1.0), 100.0);
  EXPECT_NEAR(s.bin(0), 50.0, 1e-6);
  EXPECT_NEAR(s.bin(1), 50.0, 1e-6);
  EXPECT_NEAR(s.total(), 100.0, 1e-6);
}

TEST(BinnedSeries, AddSpreadZeroDurationActsLikeAdd) {
  BinnedSeries s(Ticks::from_seconds(1));
  s.add_spread(Ticks::from_seconds(2.5), Ticks::zero(), 9.0);
  EXPECT_DOUBLE_EQ(s.bin(2), 9.0);
}

TEST(BinnedSeries, RatesDivideByBinWidth) {
  BinnedSeries s(Ticks::from_seconds(2));
  s.add(Ticks::zero(), 10.0);
  EXPECT_DOUBLE_EQ(s.rates()[0], 5.0);
}

TEST(BinnedSeries, RejectsNonPositiveWidth) {
  EXPECT_THROW(BinnedSeries(Ticks::zero()), ConfigError);
}

// -------------------------------------------------------------- table -----

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "long-header"});
  t.row().cell("xx").cell("1");
  t.row().cell("y").num(2.5);
  const std::string text = t.render();
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
  // Header separator row exists.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"x", "y"});
  t.row().integer(1).integer(2);
  EXPECT_EQ(t.render_csv(), "x,y\n1,2\n");
}

TEST(FormatNumber, TrimsTrailingZeros) {
  EXPECT_EQ(format_number(44.100, 3), "44.1");
  EXPECT_EQ(format_number(5.000, 3), "5");
  EXPECT_EQ(format_number(0.25, 2), "0.25");
}

// --------------------------------------------------------------- text -----

TEST(Text, SplitDropsEmptyTokens) {
  const auto parts = split("a  b c ", ' ');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Text, ParseIntStrict) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int(" 13 "), 13);
  EXPECT_FALSE(parse_int("12x"));
  EXPECT_FALSE(parse_int(""));
  EXPECT_FALSE(parse_int("4.5"));
}

TEST(Text, ParseUintHex) {
  EXPECT_EQ(parse_uint("0xff"), 255u);
  EXPECT_EQ(parse_uint("80"), 80u);
  EXPECT_FALSE(parse_uint("0x"));
  EXPECT_FALSE(parse_uint("-1"));
}

TEST(Text, ParseSizeUnits) {
  EXPECT_EQ(parse_size("512"), 512);
  EXPECT_EQ(parse_size("4k"), 4000);
  EXPECT_EQ(parse_size("32MB"), 32'000'000);
  EXPECT_EQ(parse_size("1GiB"), 1073741824);
  EXPECT_EQ(parse_size("2.5mb"), 2'500'000);
  EXPECT_FALSE(parse_size("abc"));
  EXPECT_FALSE(parse_size("12parsecs"));
}

TEST(Text, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

// --------------------------------------------------------------- plot -----

TEST(AsciiPlot, EmptySeries) {
  EXPECT_EQ(ascii_plot({}, PlotOptions{}), "(empty series)\n");
}

TEST(AsciiPlot, ContainsBarsAndLabels) {
  std::vector<double> series(50, 1.0);
  series[25] = 10.0;
  PlotOptions options;
  options.y_label = "MB/s";
  const std::string plot = ascii_plot(series, options);
  EXPECT_NE(plot.find('#'), std::string::npos);
  EXPECT_NE(plot.find("MB/s"), std::string::npos);
}

TEST(SeriesCsv, Format) {
  const std::vector<double> series = {1.0, 2.0};
  EXPECT_EQ(series_csv(series, 0.5, "t", "v"), "t,v\n0,1\n0.5,2\n");
}

// ---------------------------------------------------------- SortedMap64 ---

// Random inserts, erases and order-preserving rekeys against std::map, in
// phases that grow the map to thousands of keys (many leaf splits) and drain
// it again (merges and dropped leaves).
TEST(SortedMap64, MatchesStdMap) {
  using util::SortedMap64;
  SortedMap64 map;
  std::map<std::uint64_t, std::uint32_t> want;
  Rng rng(11);
  const auto expect_same_at = [&](std::uint64_t key) {
    const auto next = want.upper_bound(key);
    ASSERT_EQ(map.floor(key),
              next == want.begin() ? SortedMap64::kNoValue : std::prev(next)->second)
        << key;
    const auto ceil = map.ceil(key);
    const auto at = want.lower_bound(key);
    ASSERT_EQ(ceil.has_value(), at != want.end()) << key;
    if (ceil) {
      ASSERT_EQ(ceil->key, at->first) << key;
      ASSERT_EQ(ceil->value, at->second) << key;
    }
  };
  for (int phase = 0; phase < 6; ++phase) {
    const double insert_share = phase % 2 == 0 ? 0.8 : 0.2;
    for (int step = 0; step < 20000; ++step) {
      const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 40000));
      const auto it = want.find(key);
      if (it == want.end() && rng.chance(insert_share)) {
        const auto value = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
        map.insert(key, value);
        want.emplace(key, value);
      } else if (it != want.end() && rng.chance(0.7)) {
        map.erase(key);
        want.erase(it);
      } else if (it != want.end()) {
        // Move the key up inside the gap before its successor.
        const auto next = std::next(it);
        const std::uint64_t limit = next == want.end() ? key + 100 : next->first;
        if (limit > key + 1) {
          const auto to = key + 1 + static_cast<std::uint64_t>(rng.uniform_int(
                                        0, static_cast<std::int64_t>(limit - key - 2)));
          map.rekey(key, to);
          const std::uint32_t value = it->second;
          want.erase(it);
          want.emplace(to, value);
        }
      }
      ASSERT_EQ(map.size(), want.size());
      expect_same_at(key);
      expect_same_at(static_cast<std::uint64_t>(rng.uniform_int(0, 40100)));
      if (HasFatalFailure()) return;
    }
    // Walk the whole map through ceil().
    std::size_t walked = 0;
    for (auto e = map.ceil(0); e; e = map.ceil(e->key + 1)) {
      const auto it = want.find(e->key);
      ASSERT_NE(it, want.end());
      ASSERT_EQ(e->value, it->second);
      ++walked;
    }
    EXPECT_EQ(walked, want.size());
  }
  // Drain from the top: the last leaf, having no successor, merges into its
  // predecessor.
  while (!want.empty()) {
    const auto last = std::prev(want.end());
    const std::uint64_t key = last->first;
    map.erase(key);
    want.erase(last);
    ASSERT_EQ(map.size(), want.size());
    expect_same_at(key);
    if (HasFatalFailure()) return;
  }
  EXPECT_FALSE(map.ceil(0).has_value());
}

// ------------------------------------------------------------ FlatMap64 ---

// Seeded interleavings of emplace, erase and find against
// std::unordered_map. The key space is small, so the table stays at 16 or
// 32 slots, and a third of the keys hash to the last slot of a 16-slot
// table, so probe runs wrap past the table end and erase() shifts entries
// back across it. After every operation, size() and find() must agree for
// every key.
TEST(FlatMap64, MatchesUnorderedMap) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < 8; ++k) {
    if ((util::mix64(k) & 15) == 15) keys.push_back(k);
  }
  for (std::uint64_t k = 1000; keys.size() < 24; ++k) keys.push_back(k);

  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::FlatMap64<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> want;
    Rng rng(seed);
    for (std::uint64_t step = 1; step <= 2000; ++step) {
      const std::uint64_t key =
          keys[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(keys) - 1))];
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          std::uint64_t& value = map.emplace(key);
          const auto [it, fresh] = want.emplace(key, step);
          if (fresh) {
            ASSERT_EQ(value, 0u) << "a re-inserted key must start value-initialized";
            value = step;
          }
          ASSERT_EQ(value, it->second);
          break;
        }
        case 1:
          ASSERT_EQ(map.erase(key), want.erase(key) == 1) << key;
          break;
        default:
          ASSERT_EQ(map.contains(key), want.count(key) == 1) << key;
          break;
      }
      ASSERT_EQ(map.size(), want.size());
      for (const std::uint64_t k : keys) {
        const std::uint64_t* got = map.find(k);
        const auto it = want.find(k);
        if (it == want.end()) {
          ASSERT_EQ(got, nullptr) << "seed " << seed << " step " << step << " key " << k;
        } else {
          ASSERT_NE(got, nullptr) << "seed " << seed << " step " << step << " key " << k;
          ASSERT_EQ(*got, it->second) << "seed " << seed << " step " << step << " key " << k;
        }
      }
    }
  }
}

// The in-flight table's pattern: one emplace and one erase per operation id
// while a long-lived entry stays put.
TEST(FlatMap64, SteadyChurnKeepsTheLiveKey) {
  util::FlatMap64<std::uint64_t> map;
  map.emplace(0) = 42;
  for (std::uint64_t id = 1; id <= 100000; ++id) {
    map.emplace(id) = id;
    ASSERT_EQ(map.size(), 2u);
    ASSERT_TRUE(map.erase(id)) << id;
    ASSERT_EQ(map.find(id), nullptr) << id;
    ASSERT_EQ(map.size(), 1u);
  }
  const std::uint64_t* live = map.find(0);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(*live, 42u);
  EXPECT_FALSE(map.erase(1));
}

}  // namespace
}  // namespace craysim
