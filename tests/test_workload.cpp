#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "workload/alexa.hpp"
#include "workload/names.hpp"

namespace dohperf::workload {
namespace {

TEST(UniqueNameGenerator, ShapeMatchesPaper) {
  // §3: "a random prefix of constant length five followed by a fixed base
  // domain".
  UniqueNameGenerator gen("example.com", 42);
  const auto n = gen.next();
  EXPECT_EQ(n.label_count(), 3u);
  EXPECT_EQ(n.label(0).size(), 5u);
  EXPECT_TRUE(n.is_subdomain_of(dns::Name::parse("example.com")));
}

TEST(UniqueNameGenerator, NamesAreUnique) {
  UniqueNameGenerator gen("example.com", 42);
  std::set<dns::Name> seen;
  for (const auto& name : gen.generate(5000)) {
    EXPECT_TRUE(seen.insert(name).second) << name.to_string();
  }
}

TEST(UniqueNameGenerator, Deterministic) {
  UniqueNameGenerator a("example.com", 7);
  UniqueNameGenerator b("example.com", 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(AlexaPageModel, PagesAreDeterministicPerRank) {
  AlexaPageModel model;
  const Page p1 = model.page(42);
  const Page p2 = model.page(42);
  EXPECT_EQ(p1.primary, p2.primary);
  ASSERT_EQ(p1.objects.size(), p2.objects.size());
  for (std::size_t i = 0; i < p1.objects.size(); ++i) {
    EXPECT_EQ(p1.objects[i].domain, p2.objects[i].domain);
    EXPECT_EQ(p1.objects[i].bytes, p2.objects[i].bytes);
    EXPECT_EQ(p1.objects[i].depth, p2.objects[i].depth);
  }
}

TEST(AlexaPageModel, ObjectsHaveValidParents) {
  // Rank 2907 is the first page without a depth-0 object but with objects
  // at depths 1 and 2.
  AlexaPageModel model;
  for (std::size_t rank = 1; rank <= 3000; ++rank) {
    const Page p = model.page(rank);
    for (const auto& obj : p.objects) {
      if (obj.depth == 0) {
        EXPECT_EQ(obj.parent, -1);
      } else {
        ASSERT_GE(obj.parent, 0);
        ASSERT_LT(static_cast<std::size_t>(obj.parent), p.objects.size());
        EXPECT_EQ(p.objects[static_cast<std::size_t>(obj.parent)].depth,
                  obj.depth - 1);
      }
    }
  }
}

TEST(AlexaPageModel, Figure1Calibration) {
  // The paper's Figure 1: ~50% of pages require >= 20 DNS queries, with a
  // long tail well past 100.
  AlexaPageModel model;
  const auto stats = model.corpus_stats(2000);
  ASSERT_EQ(stats.queries_per_page.size(), 2000u);

  std::size_t at_least_20 = 0;
  std::size_t max_queries = 0;
  for (const auto q : stats.queries_per_page) {
    if (q >= 20) ++at_least_20;
    max_queries = std::max(max_queries, q);
  }
  const double frac_20 =
      static_cast<double>(at_least_20) / 2000.0;
  EXPECT_GT(frac_20, 0.35);
  EXPECT_LT(frac_20, 0.65);
  EXPECT_GT(max_queries, 100u);
  EXPECT_LE(max_queries, 300u);
}

TEST(AlexaPageModel, Top15DomainsTakeQuarterOfQueries) {
  // §4: "almost 25% of all DNS queries can be attributed to the fifteen
  // most frequently queried domain names".
  AlexaPageModel model;
  const auto stats = model.corpus_stats(2000);
  EXPECT_GT(stats.top15_query_share, 0.15);
  EXPECT_LT(stats.top15_query_share, 0.40);
}

TEST(AlexaPageModel, UniqueDomainsScaleSublinearly) {
  // Real corpus: 100k pages -> 281k unique names out of 2.18M queries:
  // heavy sharing of third parties. Check sharing happens.
  AlexaPageModel model;
  const auto stats = model.corpus_stats(1000);
  EXPECT_LT(stats.unique_domains, stats.total_queries / 2);
  EXPECT_GT(stats.unique_domains, 1000u);  // at least the primaries
}

TEST(AlexaPageModel, UniqueDomainsIncludePrimary) {
  AlexaPageModel model;
  const Page p = model.page(3);
  const auto domains = p.unique_domains();
  EXPECT_NE(std::find(domains.begin(), domains.end(), p.primary),
            domains.end());
  // No duplicates.
  std::set<dns::Name> dedup(domains.begin(), domains.end());
  EXPECT_EQ(dedup.size(), domains.size());
}

TEST(AlexaPageModel, ObjectSizesAreReasonable) {
  AlexaPageModel model;
  stats::Summary sizes;
  for (std::size_t rank = 1; rank <= 100; ++rank) {
    const Page p = model.page(rank);
    EXPECT_GE(p.html_bytes, 2000u);
    for (const auto& obj : p.objects) {
      sizes.add(static_cast<double>(obj.bytes));
      EXPECT_GE(obj.bytes, 200u);
      EXPECT_LE(obj.bytes, 2000000u);
    }
  }
  EXPECT_GT(sizes.mean(), 5e3);
  EXPECT_LT(sizes.mean(), 1e5);
}

/// FNV-1a over a fixed little-endian encoding of the values added.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(const dns::Name& name) {
    const std::string text = name.to_string();
    add(text.size());
    for (const char c : text) byte(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void byte(std::uint8_t b) { hash_ = (hash_ ^ b) * 0x100000001b3ULL; }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every field of pages [lo, hi], digested.
std::uint64_t page_digest(AlexaPageModel& model, std::size_t lo,
                          std::size_t hi) {
  Fnv1a digest;
  for (std::size_t rank = lo; rank <= hi; ++rank) {
    const Page p = model.page(rank);
    digest.add(p.rank);
    digest.add(p.primary);
    digest.add(p.html_bytes);
    digest.add(p.objects.size());
    for (const auto& obj : p.objects) {
      digest.add(obj.domain);
      digest.add(obj.bytes);
      digest.add(static_cast<std::uint64_t>(obj.depth));
      digest.add(static_cast<std::uint64_t>(obj.parent));
    }
  }
  return digest.value();
}

TEST(AlexaPageModel, PagesMatchParentDigest) {
  // The values were recorded before page() drew its domains through
  // draw_domains() (ranks 1-2,000) and before the draw found repeats by
  // pool index and shared one popularity table (the rest), so a draw taken
  // out of the per-rank RNG's order shows here, not only in the bench
  // outputs. perfbench's corpus scans ranks past 1,000,000.
  AlexaPageModel model;
  EXPECT_EQ(page_digest(model, 1, 2000), 0x5bacf3dcf4ef6b02ULL);
  EXPECT_EQ(page_digest(model, 1000001, 1002000), 0xb5957e717e6dbb68ULL);
  // A model with its own, smaller and flatter, popularity table.
  AlexaModelConfig config;
  config.third_party_pool = 5000;
  config.zipf_exponent = 1.1;
  AlexaPageModel own_table(config);
  EXPECT_EQ(page_digest(own_table, 1, 2000), 0x12aa4bfcca5da9ffULL);
}

// --- corpus shards against the map-based reference ---------------------------
//
// The reference is the scan as it was written over std::map: a shard counts
// page(r).unique_domains() of each rank into a map, and shards merge by
// adding their maps into one, whose sorted counts give the top 15.

using CorpusShard = AlexaPageModel::CorpusShard;
using CorpusStats = AlexaPageModel::CorpusStats;
using RefCounts = std::map<dns::Name, std::uint64_t>;

struct RefShard {
  std::uint64_t total_queries = 0;
  std::vector<std::size_t> queries_per_page;
  RefCounts counts;
};

RefShard ref_shard(AlexaPageModel& model, std::size_t lo, std::size_t hi) {
  RefShard shard;
  if (lo == 0) lo = 1;
  for (std::size_t rank = lo; rank <= hi; ++rank) {
    const auto domains = model.page(rank).unique_domains();
    shard.queries_per_page.push_back(domains.size());
    shard.total_queries += domains.size();
    for (const auto& d : domains) ++shard.counts[d];
  }
  return shard;
}

CorpusStats ref_merge(const std::vector<RefShard>& shards) {
  CorpusStats stats;
  RefCounts counts;
  for (const auto& shard : shards) {
    stats.total_queries += shard.total_queries;
    stats.queries_per_page.insert(stats.queries_per_page.end(),
                                  shard.queries_per_page.begin(),
                                  shard.queries_per_page.end());
    for (const auto& [name, c] : shard.counts) counts[name] += c;
  }
  stats.unique_domains = counts.size();
  std::vector<std::uint64_t> sorted;
  for (const auto& [name, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  std::uint64_t top15 = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(15, sorted.size()); ++i) {
    top15 += sorted[i];
  }
  stats.top15_query_share =
      stats.total_queries == 0 ? 0.0
                               : static_cast<double>(top15) /
                                     static_cast<double>(stats.total_queries);
  return stats;
}

/// Sorted, each name once, and the reference's counts.
void expect_same_shard(const CorpusShard& shard, const RefShard& ref) {
  EXPECT_EQ(shard.total_queries, ref.total_queries);
  EXPECT_EQ(shard.queries_per_page, ref.queries_per_page);
  ASSERT_EQ(shard.query_counts.size(), ref.counts.size());
  auto it = ref.counts.begin();
  for (std::size_t i = 0; i < shard.query_counts.size(); ++i, ++it) {
    const auto& entry = shard.query_counts[i];
    if (i > 0) {
      EXPECT_LT(shard.query_counts[i - 1].name, entry.name);
    }
    EXPECT_EQ(entry.name.to_string(), it->first.to_string());
    EXPECT_EQ(entry.count, it->second) << entry.name.to_string();
  }
}

void expect_same_stats(const CorpusStats& got, const CorpusStats& want) {
  EXPECT_EQ(got.total_queries, want.total_queries);
  EXPECT_EQ(got.unique_domains, want.unique_domains);
  EXPECT_EQ(got.queries_per_page, want.queries_per_page);
  EXPECT_EQ(got.top15_query_share, want.top15_query_share);
}

TEST(CorpusShards, MatchMapReferenceAtEverySplit) {
  // Seeded rank ranges, one from rank 0 (read as 1), each cut into 1, 2, 7
  // and 64 shards with an empty shard (hi < lo) spliced in.
  AlexaPageModel model;
  stats::SplitMix64 rng(2019);
  std::vector<std::pair<std::size_t, std::size_t>> ranges = {{0, 300}};
  for (int i = 0; i < 2; ++i) {
    const std::size_t lo = 1 + rng.next_below(1000000);
    ranges.emplace_back(lo, lo + 200 + rng.next_below(400));
  }
  for (const auto& [lo, hi] : ranges) {
    for (const std::size_t split : {1, 2, 7, 64}) {
      SCOPED_TRACE("ranks " + std::to_string(lo) + "-" + std::to_string(hi) +
                   " in " + std::to_string(split) + " shards");
      const std::size_t first = std::max<std::size_t>(lo, 1);
      const std::size_t pages = hi - first + 1;
      std::vector<CorpusShard> shards;
      std::vector<RefShard> refs;
      for (std::size_t i = 0; i < split; ++i) {
        // Shard 0 keeps `lo` as given, so the range from 0 passes 0 on.
        const std::size_t a = i == 0 ? lo : first + i * pages / split;
        const std::size_t b = first + (i + 1) * pages / split - 1;
        shards.push_back(model.corpus_shard(a, b));
        refs.push_back(ref_shard(model, a, b));
        expect_same_shard(shards.back(), refs.back());
        if (i == split / 2) {
          shards.push_back(model.corpus_shard(b + 1, b));
          refs.push_back(ref_shard(model, b + 1, b));
          EXPECT_TRUE(shards.back().query_counts.empty());
          EXPECT_TRUE(shards.back().queries_per_page.empty());
        }
      }
      const CorpusStats want = ref_merge(refs);
      ASSERT_EQ(want.queries_per_page.size(), pages);
      expect_same_stats(
          AlexaPageModel::merge_corpus_shards(std::move(shards)), want);
    }
  }
}

TEST(CorpusShards, MergeOfNothingIsEmpty) {
  const CorpusStats none = AlexaPageModel::merge_corpus_shards({});
  EXPECT_EQ(none.total_queries, 0u);
  EXPECT_EQ(none.unique_domains, 0u);
  EXPECT_TRUE(none.queries_per_page.empty());
  EXPECT_EQ(none.top15_query_share, 0.0);
}

TEST(CorpusShards, SingleRankNamesAreThePagesUniqueDomains) {
  AlexaPageModel model;
  for (std::size_t rank = 1; rank <= 5000; ++rank) {
    const CorpusShard shard = model.corpus_shard(rank, rank);
    const auto domains = model.page(rank).unique_domains();
    ASSERT_EQ(shard.query_counts.size(), domains.size()) << "rank " << rank;
    ASSERT_EQ(shard.queries_per_page,
              std::vector<std::size_t>{domains.size()});
    for (std::size_t i = 0; i < domains.size(); ++i) {
      ASSERT_EQ(shard.query_counts[i].name, domains[i]) << "rank " << rank;
      ASSERT_EQ(shard.query_counts[i].count, 1u);
    }
  }
}

}  // namespace
}  // namespace dohperf::workload
