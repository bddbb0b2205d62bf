// Synthetic Alexa-style page corpus.
//
// SUBSTITUTION NOTE (see DESIGN.md): the paper crawls the real Alexa
// top-100k (2,178,235 queries over 281,414 unique names). Offline, we
// generate a corpus calibrated to the statistics the paper reports:
//   * queries per page: median ~20, with ~50% of pages needing >= 20
//     queries and a long tail beyond 150 (Figure 1) — log-normal
//   * domain popularity: ~25% of all queries go to the 15 hottest
//     third-party names — Zipf over a shared third-party pool
// Pages also carry object sizes and discovery depths so the browser model
// (Figure 6) can replay them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dns/name.hpp"
#include "stats/rng.hpp"

namespace dohperf::workload {

/// One fetchable object of a page.
struct PageObject {
  dns::Name domain;     ///< origin serving the object
  std::size_t bytes;    ///< body size
  int depth;            ///< 0 = referenced by the HTML, d = found after a
                        ///  depth d-1 object completed (CSS/JS chains)
  int parent = -1;      ///< index of the discovering object (-1 for HTML)
};

struct Page {
  std::size_t rank = 0;     ///< 1-based Alexa-style rank
  dns::Name primary;        ///< the site's own domain
  std::size_t html_bytes;   ///< root document size
  std::vector<PageObject> objects;

  /// Distinct domains needing resolution (primary + object origins).
  std::vector<dns::Name> unique_domains() const;
};

struct AlexaModelConfig {
  std::size_t third_party_pool = 60000; ///< shared third-party domains
  double zipf_exponent = 1.22;          ///< third-party popularity skew
  double queries_mu = 3.0;              ///< log-normal location, exp(3)≈20
  double queries_sigma = 0.85;          ///< long tail beyond 150
  std::size_t max_queries = 300;
  double third_party_fraction = 0.94;   ///< objects on third-party origins
  double object_mu = 9.2;               ///< exp(9.2) ≈ 10 KB median object
  double object_sigma = 1.2;
  std::uint64_t seed = 20190915;        ///< the paper's Alexa snapshot date
};

class AlexaPageModel {
 public:
  explicit AlexaPageModel(AlexaModelConfig config = {});

  /// Deterministically generate page `rank` (1-based). The same rank always
  /// yields the same page, so experiments on disjoint rank ranges compose.
  Page page(std::size_t rank);

  /// Corpus statistics over ranks [1, n]: total queries, unique names.
  struct CorpusStats {
    std::uint64_t total_queries = 0;
    std::uint64_t unique_domains = 0;
    std::vector<std::size_t> queries_per_page;
    /// Fraction of all queries hitting the 15 most popular domains.
    double top15_query_share = 0.0;
  };
  CorpusStats corpus_stats(std::size_t n);

  /// How many of a shard's pages resolve one name.
  struct NameCount {
    dns::Name name;
    std::uint64_t count = 0;
  };

  /// Partial corpus statistics over the inclusive rank range [lo, hi]:
  /// the mergeable intermediate form behind corpus_stats(). Because pages
  /// are a pure function of rank, disjoint ranges computed by different
  /// shards (each with its own model instance) merge into exactly the
  /// serial result.
  // detlint: hot-slot
  struct alignas(64) CorpusShard {
    std::uint64_t total_queries = 0;
    std::vector<std::size_t> queries_per_page;  ///< ranks lo..hi, in order
    /// Every name the range resolves, once each, sorted by Name's order.
    std::vector<NameCount> query_counts;
  };
  CorpusShard corpus_shard(std::size_t lo, std::size_t hi);

  /// Fold rank-ordered shards into final corpus statistics. Shards must be
  /// passed in ascending rank order and cover disjoint ranges.
  static CorpusStats merge_corpus_shards(std::vector<CorpusShard> shards);

  const AlexaModelConfig& config() const noexcept { return config_; }

  /// The i-th shared third-party domain (0-based), e.g. "tp17.thirdparty.example".
  dns::Name third_party_domain(std::size_t index) const;
  /// Primary domain for a rank, e.g. "site42.web.example".
  static dns::Name primary_domain(std::size_t rank);

 private:
  /// How page(rank) starts: its distinct domains, drawn from the rank's
  /// RNG. corpus_shard() needs only the domains; page() goes on to draw
  /// the objects from where the domain draw left `rng`.
  struct DomainDraw {
    /// The primary, then the others in the order they were drawn.
    std::vector<dns::Name> domains;
    std::uint64_t object_size_seed = 0;  ///< seeds page()'s size sampler
    stats::SplitMix64 rng;
  };
  DomainDraw draw_domains(std::size_t rank) const;

  AlexaModelConfig config_;
  /// Third-party popularity, which pages draw from with their own per-rank
  /// RNGs. Its cumulative masses take 1-2 ms to build, so every model with
  /// the default pool and exponent shares one process-wide table; a model
  /// with another pool or exponent builds its own in `own_popularity_`.
  const stats::ZipfSampler* popularity_;
  std::unique_ptr<const stats::ZipfSampler> own_popularity_;
};

}  // namespace dohperf::workload
