#include "workload/alexa.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <string_view>

namespace dohperf::workload {

namespace {

/// `prefix`, the decimal `n`, then `suffix`, parsed as a name. The text is
/// formatted on the stack, so a name that fits inline allocates nothing.
dns::Name numbered_name(std::string_view prefix, std::size_t n,
                        std::string_view suffix) {
  char text[64];  // the longest use: 4 + 20 digits + 19
  char* end = std::copy(prefix.begin(), prefix.end(), text);
  end = std::to_chars(end, text + sizeof text, n).ptr;
  end = std::copy(suffix.begin(), suffix.end(), end);
  return dns::Name::parse({text, static_cast<std::size_t>(end - text)});
}

/// The default pool's popularity table, shared read-only by every model
/// with the default pool and exponent.
const stats::ZipfSampler& default_popularity() {
  static const stats::ZipfSampler table(AlexaModelConfig{}.third_party_pool,
                                        AlexaModelConfig{}.zipf_exponent,
                                        /*seed=*/0);
  return table;
}

/// Builds the table during static initialisation, before main() can open a
/// shard's arena scope: a block first allocated inside a shard's arena would
/// keep that whole arena alive until exit.
[[maybe_unused]] const stats::ZipfSampler& kPopularityBuiltAtStart =
    default_popularity();

/// A name read in place from a shard's query_counts, and its count summed
/// over the shards merged so far.
struct Tally {
  const dns::Name* name;
  std::uint64_t count;
};

/// The name-sorted union of two name-sorted runs, summing the counts of a
/// name both hold. Each step compares the two heads once.
std::vector<Tally> merge_runs(const std::vector<Tally>& a,
                              const std::vector<Tally>& b) {
  std::vector<Tally> out;
  out.reserve(a.size() + b.size());
  auto x = a.begin();
  auto y = b.begin();
  while (x != a.end() && y != b.end()) {
    const int order = x->name->compare(*y->name);
    if (order < 0) {
      out.push_back(*x++);
    } else if (order > 0) {
      out.push_back(*y++);
    } else {
      out.push_back({x->name, x->count + y->count});
      ++x;
      ++y;
    }
  }
  out.insert(out.end(), x, a.end());
  out.insert(out.end(), y, b.end());
  return out;
}

}  // namespace

std::vector<dns::Name> Page::unique_domains() const {
  std::set<dns::Name> seen;
  seen.insert(primary);
  for (const auto& obj : objects) seen.insert(obj.domain);
  return {seen.begin(), seen.end()};
}

AlexaPageModel::AlexaPageModel(AlexaModelConfig config)
    : config_(config), popularity_(&default_popularity()) {
  const AlexaModelConfig defaults;
  if (config_.third_party_pool != defaults.third_party_pool ||
      config_.zipf_exponent != defaults.zipf_exponent) {
    own_popularity_ = std::make_unique<const stats::ZipfSampler>(
        config_.third_party_pool, config_.zipf_exponent, /*seed=*/0);
    popularity_ = own_popularity_.get();
  }
}

dns::Name AlexaPageModel::third_party_domain(std::size_t index) const {
  return numbered_name("tp", index, ".thirdparty.example");
}

dns::Name AlexaPageModel::primary_domain(std::size_t rank) {
  return numbered_name("site", rank, ".web.example");
}

AlexaPageModel::DomainDraw AlexaPageModel::draw_domains(
    std::size_t rank) const {
  // Per-rank deterministic RNG so pages are stable independent of the
  // order they are generated in.
  DomainDraw draw{
      {}, 0, stats::SplitMix64(config_.seed ^ (rank * 0x9e3779b97f4a7c15ULL))};
  stats::SplitMix64& rng = draw.rng;
  stats::LogNormalSampler query_count(config_.queries_mu,
                                      config_.queries_sigma,
                                      rng.next());
  draw.object_size_seed = rng.next();

  // Number of *distinct resolutions* the page needs (what Figure 1 counts),
  // including the primary domain itself.
  const auto resolutions = static_cast<std::size_t>(std::clamp(
      query_count.sample(), 1.0, static_cast<double>(config_.max_queries)));

  // Pick the set of domains: the primary plus (resolutions - 1) others,
  // mostly shared third parties (popular by Zipf), the rest being
  // page-specific subdomains (cdn.siteX, img.siteX, ...). Only a third
  // party can repeat, and two third parties are equal exactly when their
  // pool indices are, so a repeat draw is found by binary search in the
  // sorted indices drawn so far. Each subdomain takes a fresh counter, so
  // it never repeats.
  std::vector<dns::Name>& domains = draw.domains;
  domains.reserve(resolutions);
  domains.push_back(primary_domain(rank));
  std::vector<std::size_t> drawn;
  drawn.reserve(resolutions);
  int subdomain_counter = 0;
  while (domains.size() < resolutions) {
    if (rng.next_double() < config_.third_party_fraction) {
      const std::size_t index = popularity_->sample(rng) - 1;
      const auto at = std::lower_bound(drawn.begin(), drawn.end(), index);
      if (at != drawn.end() && *at == index) continue;
      drawn.insert(at, index);
      domains.push_back(third_party_domain(index));
    } else {
      domains.push_back(
          domains.front().child("cdn" + std::to_string(subdomain_counter++)));
    }
  }
  return draw;
}

Page AlexaPageModel::page(std::size_t rank) {
  DomainDraw draw = draw_domains(rank);
  stats::SplitMix64& rng = draw.rng;
  const std::vector<dns::Name>& domains = draw.domains;
  stats::LogNormalSampler object_size(config_.object_mu, config_.object_sigma,
                                      draw.object_size_seed);

  Page page;
  page.rank = rank;
  page.primary = domains.front();
  page.html_bytes =
      static_cast<std::size_t>(std::clamp(object_size.sample(), 2e3, 5e5));

  // Objects: at least one per non-primary domain (that is what forced the
  // resolution), plus extra objects on already-resolved origins.
  for (std::size_t i = 1; i < domains.size(); ++i) {
    PageObject obj;
    obj.domain = domains[i];
    obj.bytes = static_cast<std::size_t>(
        std::clamp(object_size.sample(), 200.0, 2e6));
    // Discovery depth: most objects are in the HTML, some come from
    // CSS/JS chains (depth 1-2).
    const double d = rng.next_double();
    obj.depth = d < 0.70 ? 0 : (d < 0.93 ? 1 : 2);
    page.objects.push_back(obj);
  }
  // Extra objects on existing origins (images, scripts...) — they add
  // fetch work but no DNS queries.
  const auto extra = static_cast<std::size_t>(
      static_cast<double>(domains.size()) * (0.5 + rng.next_double()));
  for (std::size_t i = 0; i < extra; ++i) {
    PageObject obj;
    obj.domain = domains[rng.next_below(domains.size())];
    obj.bytes = static_cast<std::size_t>(
        std::clamp(object_size.sample(), 200.0, 2e6));
    const double d = rng.next_double();
    obj.depth = d < 0.70 ? 0 : (d < 0.93 ? 1 : 2);
    page.objects.push_back(obj);
  }

  // Wire up parents: each depth-d object is discovered by a random
  // depth-(d-1) object; falls back to the HTML (-1) when none exists.
  // Depths settle first, so no object takes a parent that fell back.
  std::vector<int> by_depth[3];
  for (std::size_t i = 0; i < page.objects.size(); ++i) {
    const int d = page.objects[i].depth;
    by_depth[d].push_back(static_cast<int>(i));
  }
  for (int d = 1; d < 3; ++d) {
    if (!by_depth[d - 1].empty()) continue;
    for (const int i : by_depth[d]) {
      page.objects[static_cast<std::size_t>(i)].depth = 0;
    }
    by_depth[d].clear();
  }
  for (auto& obj : page.objects) {
    if (obj.depth == 0) continue;
    const auto& parents = by_depth[obj.depth - 1];
    obj.parent = parents[rng.next_below(parents.size())];
  }
  return page;
}

AlexaPageModel::CorpusShard AlexaPageModel::corpus_shard(std::size_t lo,
                                                         std::size_t hi) {
  CorpusShard shard;
  if (lo == 0) lo = 1;
  if (hi < lo) return shard;
  shard.queries_per_page.reserve(hi - lo + 1);
  // Each page's distinct domains, kept as drawn (each vector is exactly
  // full). Sorting (key, pointer) pairs for all of them puts a name's pages
  // next to each other, so one pass counts them; a pair moves in two words
  // where a Name moves in 48 bytes. Names are compared only when their
  // order keys tie, which orders the pairs exactly as the names.
  std::vector<std::vector<dns::Name>> pages;
  pages.reserve(hi - lo + 1);
  for (std::size_t rank = lo; rank <= hi; ++rank) {
    pages.push_back(draw_domains(rank).domains);
    shard.queries_per_page.push_back(pages.back().size());
    shard.total_queries += pages.back().size();
  }
  struct Keyed {
    std::uint64_t key;  ///< order key; a run's length once compacted
    const dns::Name* name;
  };
  std::vector<Keyed> order;
  order.reserve(shard.total_queries);
  for (const auto& domains : pages) {
    for (const dns::Name& name : domains) {
      order.push_back({name.order_key(), &name});
    }
  }
  std::sort(order.begin(), order.end(), [](const Keyed& a, const Keyed& b) {
    return a.key != b.key ? a.key < b.key : *a.name < *b.name;
  });
  // Compact the runs in place, comparing each adjacent pair once: order[w]
  // heads the current run, and once a run ends its key (no longer needed)
  // holds its length. query_counts is then sized exactly, as the counts
  // stay alive until the merge.
  std::size_t distinct = 0;
  if (!order.empty()) {
    std::size_t w = 0;
    std::uint64_t run = 1;
    for (std::size_t i = 1; i < order.size(); ++i) {
      if (order[i].key == order[w].key && *order[i].name == *order[w].name) {
        ++run;
        continue;
      }
      order[w].key = run;
      order[++w] = order[i];
      run = 1;
    }
    order[w].key = run;
    distinct = w + 1;
  }
  shard.query_counts.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    shard.query_counts.push_back({*order[i].name, order[i].key});
  }
  return shard;
}

AlexaPageModel::CorpusStats AlexaPageModel::merge_corpus_shards(
    std::vector<CorpusShard> shards) {
  CorpusStats stats;
  std::vector<std::vector<Tally>> runs;
  runs.reserve(shards.size());
  for (const auto& shard : shards) {
    stats.total_queries += shard.total_queries;
    stats.queries_per_page.insert(stats.queries_per_page.end(),
                                  shard.queries_per_page.begin(),
                                  shard.queries_per_page.end());
    std::vector<Tally>& run = runs.emplace_back();
    run.reserve(shard.query_counts.size());
    for (const auto& [name, count] : shard.query_counts) {
      run.push_back({&name, count});
    }
  }
  // Merge neighbouring runs pairwise until one is left, freeing each input
  // as soon as it is merged: a name is compared about log2(shards) times.
  while (runs.size() > 1) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < runs.size(); i += 2) {
      if (i + 1 == runs.size()) {
        runs[kept++] = std::move(runs[i]);
        break;
      }
      std::vector<Tally> merged = merge_runs(runs[i], runs[i + 1]);
      runs[i] = std::vector<Tally>();
      runs[i + 1] = std::vector<Tally>();
      runs[kept++] = std::move(merged);
    }
    runs.resize(kept);
  }
  if (runs.empty()) return stats;
  const std::vector<Tally>& all = runs.front();
  stats.unique_domains = all.size();

  std::vector<Tally> top(std::min<std::size_t>(15, all.size()));
  std::partial_sort_copy(
      all.begin(), all.end(), top.begin(), top.end(),
      [](const Tally& a, const Tally& b) { return a.count > b.count; });
  std::uint64_t top15 = 0;
  for (const Tally& t : top) top15 += t.count;
  stats.top15_query_share =
      stats.total_queries == 0
          ? 0.0
          : static_cast<double>(top15) /
                static_cast<double>(stats.total_queries);
  return stats;
}

AlexaPageModel::CorpusStats AlexaPageModel::corpus_stats(std::size_t n) {
  std::vector<CorpusShard> one;
  one.push_back(corpus_shard(1, n));
  return merge_corpus_shards(std::move(one));
}

}  // namespace dohperf::workload
