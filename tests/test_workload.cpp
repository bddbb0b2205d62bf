#include <gtest/gtest.h>

#include <set>

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
  AlexaPageModel model;
  for (std::size_t rank = 1; rank <= 50; ++rank) {
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

}  // namespace
}  // namespace dohperf::workload
