// Figure 1: CDF of the number of DNS queries required to retrieve all
// embedded objects for each of the top 100k Alexa sites.
//
// Paper reference points: ~50% of sites require at least 20 queries; the
// tail extends past 150. Corpus-wide (§4): 2,178,235 queries / 281,414
// unique names over 100k pages; the top-15 names draw ~25% of queries.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "shard_runner.hpp"
#include "workload/alexa.hpp"

int main(int argc, char** argv) {
  using namespace dohperf;
  bench::Flags flags(argc, argv);
  const std::size_t pages = flags.num("pages", 100000);
  const std::size_t jobs = flags.num("jobs", bench::default_jobs());
  const bench::Output output = flags.output();
  flags.reject_unknown();

  std::printf("=== Figure 1: DNS queries per page (Alexa top %zu) ===\n\n",
              pages);

  // Pages are a pure function of rank, so the corpus scan shards into
  // disjoint rank ranges; merging shards in rank order reproduces the
  // serial corpus_stats() byte for byte at any --jobs value.
  constexpr std::size_t kRanksPerShard = 4096;
  const std::size_t shard_count =
      std::max<std::size_t>(1, (pages + kRanksPerShard - 1) / kRanksPerShard);
  auto shards = bench::run_sharded<workload::AlexaPageModel::CorpusShard>(
      shard_count, jobs, [&](std::size_t i) {
        // Each shard owns its model; every model draws from one shared,
        // read-only popularity table.
        workload::AlexaPageModel shard_model;
        const std::size_t lo = 1 + i * kRanksPerShard;
        const std::size_t hi = std::min(pages, lo + kRanksPerShard - 1);
        return shard_model.corpus_shard(lo, hi);
      });
  const auto stats =
      workload::AlexaPageModel::merge_corpus_shards(std::move(shards));

  stats::Cdf cdf;
  for (const auto q : stats.queries_per_page) {
    cdf.add(static_cast<double>(q));
  }

  std::printf("CDF of queries per page:\n");
  std::printf("  %-10s %-8s\n", "queries", "CDF");
  for (const double x : {1.0, 5.0, 10.0, 20.0, 30.0, 50.0, 75.0, 100.0,
                         150.0, 200.0, 250.0}) {
    std::printf("  %-10.0f %-8.3f\n", x, cdf.at(x));
  }

  std::vector<double> curve;
  for (const auto& [x, y] : cdf.curve(0, 260, 60)) curve.push_back(y);
  std::printf("\n  0 %s 260 queries\n\n", stats::ascii_sparkline(curve).c_str());

  std::printf("Corpus statistics (paper: 2,178,235 queries, 281,414 unique "
              "names at 100k pages):\n");
  std::printf("  total queries          : %llu\n",
              static_cast<unsigned long long>(stats.total_queries));
  std::printf("  unique domain names    : %llu\n",
              static_cast<unsigned long long>(stats.unique_domains));
  std::printf("  top-15 name query share: %.1f%%  (paper: ~25%%)\n",
              stats.top15_query_share * 100.0);
  std::printf("  pages needing >=20 q   : %.1f%%  (paper: ~50%%)\n",
              (1.0 - cdf.at(19.999)) * 100.0);
  std::printf("  median queries per page: %.0f\n", cdf.quantile(0.5));

  bench::BenchReport report("fig1_queries_per_page");
  report.params["pages"] = static_cast<std::int64_t>(pages);
  report.set("corpus", "queries_per_page", bench::cdf_json(cdf));
  report.set("corpus", "total_queries",
             static_cast<std::int64_t>(stats.total_queries));
  report.set("corpus", "unique_domains",
             static_cast<std::int64_t>(stats.unique_domains));
  report.set("corpus", "top15_query_share", stats.top15_query_share);
  bench::finish(output, report);
  return 0;
}
