#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ios>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stats/cdf.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace dohperf::stats {
namespace {

TEST(SplitMix64, Deterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(SplitMix64, DoubleInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64, NextBelowRespectsBound) {
  SplitMix64 rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(SplitMix64, NextInInclusiveRange) {
  SplitMix64 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(PoissonArrivals, MeanGapMatchesRate) {
  PoissonArrivals arrivals(10.0, 3);  // the paper's 10 queries/second
  double total = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += arrivals.next_gap_sec();
  EXPECT_NEAR(total / n, 0.1, 0.005);
}

TEST(PoissonArrivals, ArrivalTimesMonotonic) {
  PoissonArrivals arrivals(10.0, 5);
  const auto times = arrivals.arrival_times(100);
  ASSERT_EQ(times.size(), 100u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
}

TEST(ZipfSampler, RanksInRange) {
  ZipfSampler zipf(100, 1.0, 17);
  for (int i = 0; i < 10000; ++i) {
    const auto r = zipf.sample();
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
  }
}

TEST(ZipfSampler, HeadIsHot) {
  // With s=1 over 1000 ranks, the top-15 ranks should capture a large
  // share — the paper found 25% of queries going to 15 names.
  ZipfSampler zipf(1000, 1.0, 23);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample() <= 15) ++head;
  }
  const double share = static_cast<double>(head) / n;
  EXPECT_GT(share, 0.3);
  EXPECT_LT(share, 0.6);
}

/// The sampler without cut points: the same cumulative masses, searched in
/// full for the first mass >= u.
class FullSearchZipf {
 public:
  FullSearchZipf(std::size_t n, double exponent) {
    double total = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), exponent);
      cumulative_.push_back(total);
    }
    for (auto& c : cumulative_) c /= total;
  }

  std::size_t rank_at(double u) const {
    const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    return static_cast<std::size_t>(it - cumulative_.begin()) + 1;
  }

  const std::vector<double>& cumulative() const { return cumulative_; }

 private:
  std::vector<double> cumulative_;
};

TEST(ZipfSampler, CutPointsFindTheFullSearchRank) {
  const std::vector<std::pair<std::size_t, double>> tables = {
      {1, 1.22}, {7, 1.0}, {100, 1.2}, {5000, 1.1}, {60000, 1.22}};
  for (const auto& [n, exponent] : tables) {
    const ZipfSampler zipf(n, exponent, 0);
    const FullSearchZipf full(n, exponent);
    // Seeded draws, 1.25 M over the five tables.
    SplitMix64 drawn(n);
    SplitMix64 same(n);
    for (int i = 0; i < 250000; ++i) {
      ASSERT_EQ(zipf.sample(drawn), full.rank_at(same.next_double()))
          << "n " << n << " draw " << i;
    }
    // Every cut point and every mass, each with its neighbours in [0, 1).
    std::vector<double> edges = full.cumulative();
    for (std::size_t j = 0; j <= ZipfSampler::kCuts; ++j) {
      edges.push_back(static_cast<double>(j) / ZipfSampler::kCuts);
    }
    for (const double edge : edges) {
      for (const double u : {std::nextafter(edge, -1.0), edge,
                             std::nextafter(edge, 2.0)}) {
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(zipf.rank_at(u), full.rank_at(u))
            << "n " << n << " u " << std::hexfloat << u;
      }
    }
  }
}

TEST(LogNormalSampler, MedianNearExpMu) {
  LogNormalSampler ln(std::log(50.0), 0.5, 31);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(ln.sample());
  EXPECT_NEAR(median(xs), 50.0, 3.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

TEST(Percentile, SingleElement) {
  std::vector<double> xs{42};
  EXPECT_DOUBLE_EQ(percentile(xs, 37.5), 42.0);
}

// An empty sample has no percentiles in any build type (with NDEBUG an
// unchecked one read out of bounds).
TEST(Percentile, EmptySampleThrows) {
  const std::vector<double> none;
  EXPECT_THROW(percentile(none, 50), std::invalid_argument);
  EXPECT_THROW(percentile_sorted(none, 0), std::invalid_argument);
  EXPECT_THROW(median(none), std::invalid_argument);
}

TEST(BoxWhisker, FiveNumbers) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(i);
  const auto bw = BoxWhisker::from(xs);
  EXPECT_DOUBLE_EQ(bw.min, 1);
  EXPECT_DOUBLE_EQ(bw.q1, 26);
  EXPECT_DOUBLE_EQ(bw.median, 51);
  EXPECT_DOUBLE_EQ(bw.q3, 76);
  EXPECT_DOUBLE_EQ(bw.max, 101);
}

TEST(BoxWhisker, EmptySampleThrows) {
  EXPECT_THROW(BoxWhisker::from(std::vector<double>{}), std::invalid_argument);
}

TEST(Cdf, FractionAtValue) {
  Cdf cdf;
  for (double x : {1.0, 2.0, 3.0, 4.0}) cdf.add(x);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
}

TEST(Cdf, Quantile) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
  EXPECT_THROW(cdf.quantile(0.0), std::domain_error);
}

TEST(Cdf, QuantileEmptyThrows) {
  Cdf cdf;
  EXPECT_THROW(cdf.quantile(0.5), std::domain_error);
}

// Shard merges build CDFs by add_all()-ing the sorted samples of per-shard
// CDFs (which takes the sorted-merge fast path). Every quantile must be
// identical to the serial CDF built by add()-ing the same values one at a
// time, whatever the shard split.
TEST(Cdf, ShardMergeQuantileIdentity) {
  SplitMix64 rng(17);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.next_double() * 1e3);

  Cdf serial;
  for (const double v : values) serial.add(v);

  for (const std::size_t shards : {1u, 3u, 7u, 16u}) {
    std::vector<Cdf> parts(shards);
    for (std::size_t i = 0; i < values.size(); ++i) {
      parts[i % shards].add(values[i]);
    }
    Cdf merged;
    for (const Cdf& part : parts) merged.add_all(part.sorted_values());

    ASSERT_EQ(merged.count(), serial.count());
    for (const double q : {0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(merged.quantile(q), serial.quantile(q))
          << "shards=" << shards << " q=" << q;
    }
    EXPECT_EQ(merged.sorted_values(), serial.sorted_values());
  }
}

// The sorted-merge fast path must not engage when either side is unsorted;
// interleaving add() and add_all() stays correct.
TEST(Cdf, MixedAddAndMergeStaysCorrect) {
  Cdf cdf;
  cdf.add(5.0);
  cdf.add(1.0);  // now unsorted
  const std::vector<double> sorted_batch = {2.0, 3.0, 4.0};
  cdf.add_all(sorted_batch);
  const std::vector<double> unsorted_batch = {9.0, 0.0};
  cdf.add_all(unsorted_batch);
  const std::vector<double> expect = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0};
  EXPECT_EQ(cdf.sorted_values(), expect);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 9.0);
}

TEST(Cdf, CurveIsMonotone) {
  Cdf cdf;
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) cdf.add(rng.next_double() * 100);
  const auto curve = cdf.curve(0, 100, 50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0, 10, 10);
  h.add(-1);
  h.add(0);
  h.add(5.5);
  h.add(10);
  h.add(100);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.add_row({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string rendered = t.render();
  EXPECT_NE(rendered.find("name       value"), std::string::npos);
  EXPECT_NE(rendered.find("long-name  22"), std::string::npos);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(RenderSeries, GnuplotShape) {
  std::vector<std::pair<double, double>> pts{{0, 0}, {1, 0.5}};
  const std::string out = render_series("test", pts);
  EXPECT_NE(out.find("# test"), std::string::npos);
  EXPECT_NE(out.find("1.0000 0.500000"), std::string::npos);
}

}  // namespace
}  // namespace dohperf::stats
