// Unit tests for production-rate observability: deterministic trace
// sampling (same-seed byte-identical exports, shard-partition invariance,
// kept-root subtree completeness), the pre-registered MetricId fast path
// (exports byte-identical to the name-keyed path, including merge_from
// over a mixed fleet), and the pooled span/attribute storage counters.
// EXPERIMENTS.md's "Metric-name contract" section points here for the
// MetricId-vs-name equivalence guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/sampling.hpp"
#include "obs/span.hpp"

namespace dohperf::obs {
namespace {

// One unit of instrumented work — a root span with the usual subtree and
// a couple of metrics, keyed by `key` so runs are comparable span-for-span.
void run_unit(SamplingTracer& sampler, Registry& registry,
              std::uint64_t key) {
  const SpanContext obs = sampler.root_context(key);
  const SpanId root = obs.begin("resolution");
  const std::string index = std::to_string(key);
  obs.set_attr(root, "query", "q" + index);
  const SpanContext in_root = obs.child(root);
  const SpanId connect = in_root.begin("connect");
  in_root.set_attr(connect, "transport", "doh-h2");
  in_root.end(connect);
  const SpanId request = in_root.begin("request");
  in_root.add_attr(request, "bytes.wire", std::int64_t(64 + key % 7));
  in_root.end(request);
  obs.end(root);
  registry.add("unit.queries");
  registry.observe("unit.latency_ms", 1.0 + double(key % 5));
}

// --- Sampling determinism ---------------------------------------------------

TEST(SamplingTracer, SameSeedRunsExportByteIdenticalTracesAndMetrics) {
  const SamplingConfig config{/*period=*/8, /*seed=*/1234};
  std::string trace[2], metrics[2];
  for (int run = 0; run < 2; ++run) {
    Tracer tracer;
    Registry registry;
    SamplingTracer sampler(tracer, &registry, config);
    for (std::uint64_t key = 0; key < 200; ++key) {
      run_unit(sampler, registry, key);
    }
    trace[run] = chrome_trace_json(tracer);
    metrics[run] = registry.to_json().dump();
  }
  EXPECT_EQ(trace[0], trace[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
}

TEST(SamplingTracer, SeedChangesTheKeptSubset) {
  const SamplingConfig a{/*period=*/8, /*seed=*/1};
  const SamplingConfig b{/*period=*/8, /*seed=*/2};
  std::set<std::uint64_t> kept_a, kept_b;
  for (std::uint64_t key = 0; key < 512; ++key) {
    if (SamplingTracer::keep(a, key)) kept_a.insert(key);
    if (SamplingTracer::keep(b, key)) kept_b.insert(key);
  }
  EXPECT_FALSE(kept_a.empty());
  EXPECT_FALSE(kept_b.empty());
  EXPECT_NE(kept_a, kept_b);
}

TEST(SamplingTracer, PeriodZeroAndOneKeepEveryRoot) {
  for (const std::uint64_t period : {std::uint64_t{0}, std::uint64_t{1}}) {
    const SamplingConfig config{period, /*seed=*/99};
    for (std::uint64_t key = 0; key < 64; ++key) {
      EXPECT_TRUE(SamplingTracer::keep(config, key));
    }
  }
}

// The decision is a pure function of (seed, key): however keys are split
// across shards — contiguous ranges, round-robin, any order — the union of
// per-shard kept sets equals the serial kept set. This is what makes the
// bench's sampled traces byte-identical at every --jobs value.
TEST(SamplingTracer, KeptSubsetIsInvariantUnderShardPartitions) {
  const SamplingConfig config{/*period=*/64, /*seed=*/42};
  const std::uint64_t total = 1000;
  std::set<std::uint64_t> serial;
  for (std::uint64_t key = 0; key < total; ++key) {
    if (SamplingTracer::keep(config, key)) serial.insert(key);
  }
  EXPECT_FALSE(serial.empty());

  std::set<std::uint64_t> contiguous, round_robin;
  const std::uint64_t shards = 4;
  for (std::uint64_t s = 0; s < shards; ++s) {
    const std::uint64_t lo = s * total / shards;
    const std::uint64_t hi = (s + 1) * total / shards;
    for (std::uint64_t key = lo; key < hi; ++key) {
      if (SamplingTracer::keep(config, key)) contiguous.insert(key);
    }
    for (std::uint64_t key = s; key < total; key += shards) {
      if (SamplingTracer::keep(config, key)) round_robin.insert(key);
    }
  }
  EXPECT_EQ(serial, contiguous);
  EXPECT_EQ(serial, round_robin);
}

// --- Root context semantics -------------------------------------------------

TEST(SamplingTracer, KeptRootRecordsItsFullSubtree) {
  const SamplingConfig config{/*period=*/64, /*seed=*/7};
  std::uint64_t kept_key = 0;
  while (!SamplingTracer::keep(config, kept_key)) ++kept_key;

  Tracer tracer;
  Registry registry;
  SamplingTracer sampler(tracer, &registry, config);
  run_unit(sampler, registry, kept_key);

  ASSERT_EQ(tracer.size(), 3u);  // resolution + connect + request
  EXPECT_EQ(tracer.open_spans(), 0u);
  const Span& root = tracer.span(1);
  EXPECT_EQ(root.parent, 0u);
  EXPECT_EQ(root.name, "resolution");
  EXPECT_NE(root.attr("query"), nullptr);
  for (SpanId id = 2; id <= 3; ++id) {
    EXPECT_EQ(tracer.span(id).parent, root.id);
  }
  EXPECT_NE(tracer.span(2).attr("transport"), nullptr);
  EXPECT_NE(tracer.span(3).attr("bytes.wire"), nullptr);
}

TEST(SamplingTracer, DroppedRootIsTheNullSinkButMetricsStillFlow) {
  const SamplingConfig config{/*period=*/64, /*seed=*/7};
  std::uint64_t dropped_key = 0;
  while (SamplingTracer::keep(config, dropped_key)) ++dropped_key;

  Tracer tracer;
  Registry registry;
  SamplingTracer sampler(tracer, &registry, config);
  const SpanContext obs = sampler.root_context(dropped_key);
  EXPECT_FALSE(static_cast<bool>(obs));
  EXPECT_EQ(obs.begin("resolution"), 0u);
  EXPECT_EQ(obs.metrics, &registry);  // metrics path unaffected by drop
  run_unit(sampler, registry, dropped_key);
  EXPECT_TRUE(tracer.empty());
  EXPECT_EQ(registry.counter("unit.queries"), 1u);
}

TEST(SamplingTracer, SelfMetricsPartitionTheRoots) {
  const SamplingConfig config{/*period=*/16, /*seed=*/5};
  Tracer tracer;
  Registry registry;
  SamplingTracer sampler(tracer, &registry, config);
  std::uint64_t expect_kept = 0;
  const std::uint64_t total = 400;
  for (std::uint64_t key = 0; key < total; ++key) {
    if (sampler.keep(key)) ++expect_kept;
    (void)sampler.root_context(key);
  }
  EXPECT_GT(expect_kept, 0u);
  EXPECT_EQ(registry.counter("obs.spans_sampled"), expect_kept);
  EXPECT_EQ(registry.counter("obs.spans_dropped"), total - expect_kept);
}

// --- MetricId fast path vs name-keyed slow path -----------------------------

TEST(Registry, MetricIdWritesExportByteIdenticalToNameKeyedWrites) {
  Registry by_name, by_id;
  const MetricId hits = by_id.register_counter("cache.hits");
  const MetricId depth = by_id.register_gauge("tier.queue_depth");
  const MetricId lat = by_id.register_histogram("tier.latency_ms");
  for (int i = 0; i < 100; ++i) {
    by_name.add("cache.hits", 3);
    by_id.add(hits, 3);
    by_name.set_gauge("tier.queue_depth", i);  // last write wins
    by_id.set_gauge(depth, i);
    by_name.observe("tier.latency_ms", 0.5 * i);
    by_id.observe(lat, 0.5 * i);
  }
  EXPECT_EQ(by_name.to_json().dump(), by_id.to_json().dump());
  EXPECT_EQ(by_name.render(), by_id.render());
  EXPECT_EQ(by_id.counter("cache.hits"), 300u);
  EXPECT_EQ(by_id.gauge("tier.queue_depth"), 99);
}

TEST(Registry, RegistrationAloneLeavesNoTraceInExports) {
  Registry registry;
  (void)registry.register_counter("cache.hits");
  (void)registry.register_gauge("tier.queue_depth");
  (void)registry.register_histogram("tier.latency_ms");
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.to_json().dump(), Registry{}.to_json().dump());
}

TEST(Registry, ReRegisteringANameReturnsAHandleForTheSameSlot) {
  Registry registry;
  const MetricId a = registry.register_counter("cache.hits");
  const MetricId b = registry.register_counter("cache.hits");
  registry.add(a, 2);
  registry.add(b, 5);
  EXPECT_EQ(registry.counter("cache.hits"), 7u);
}

// merge_from must not care which write path produced each shard: a fleet
// mixing handle-written and name-written registries merges to the same
// bytes as one registry doing all the work through names.
TEST(Registry, MergeFromMixesHandleAndNameWrittenShards) {
  Registry shard_ids;  // hot shard: MetricId writes only
  const MetricId hits = shard_ids.register_counter("cache.hits");
  const MetricId lat = shard_ids.register_histogram("tier.latency_ms");
  for (int i = 0; i < 40; ++i) {
    shard_ids.add(hits);
    shard_ids.observe(lat, 1.0 + i);
  }
  shard_ids.set_gauge(shard_ids.register_gauge("tier.inflight"), 4);

  Registry shard_names;  // cold shard: name-keyed writes only
  for (int i = 0; i < 10; ++i) {
    shard_names.add("cache.hits", 2);
    shard_names.observe("tier.latency_ms", 100.0 + i);
  }
  shard_names.set_gauge("tier.inflight", 9);

  Registry merged;
  merged.merge_from(shard_ids);
  merged.merge_from(shard_names);

  Registry reference;  // the same history, all through the slow path
  for (int i = 0; i < 40; ++i) {
    reference.add("cache.hits");
    reference.observe("tier.latency_ms", 1.0 + i);
  }
  reference.set_gauge("tier.inflight", 4);
  for (int i = 0; i < 10; ++i) {
    reference.add("cache.hits", 2);
    reference.observe("tier.latency_ms", 100.0 + i);
  }
  reference.set_gauge("tier.inflight", 9);

  EXPECT_EQ(merged.to_json().dump(), reference.to_json().dump());
  EXPECT_EQ(merged.counter("cache.hits"), 60u);
  EXPECT_EQ(merged.gauge("tier.inflight"), 9);  // later merge wins
}

TEST(Registry, ClearResetsValuesButHandlesStayValid) {
  Registry registry;
  const MetricId hits = registry.register_counter("cache.hits");
  registry.add(hits, 5);
  registry.clear();
  EXPECT_TRUE(registry.empty());
  registry.add(hits, 2);
  EXPECT_EQ(registry.counter("cache.hits"), 2u);
}

// --- Pooled span storage ----------------------------------------------------

TEST(TracerPool, NamesAreInternedOncePerDistinctString) {
  Tracer tracer;
  const SpanId a = tracer.begin(0, "resolution");
  const SpanId b = tracer.begin(0, std::string("resolution"));
  // Same interned storage: views share a data pointer, not just contents.
  EXPECT_EQ(tracer.span(a).name.data(), tracer.span(b).name.data());
  tracer.set_attr(a, "transport", "udp");
  tracer.set_attr(b, "transport", "doh-h2");
  const PoolStats stats = tracer.pool_stats();
  EXPECT_EQ(stats.interned_names, 2u);  // "resolution" + "transport"
  EXPECT_EQ(stats.spans, 2u);
  EXPECT_EQ(stats.attr_entries, 2u);
}

TEST(TracerPool, ArenaGrowthKeepsAttributesAndCountsWaste) {
  Tracer tracer;
  const SpanId span = tracer.begin(0, "resolution");
  for (int i = 0; i < 24; ++i) {  // force several slice doublings
    const std::string index = std::to_string(i);
    tracer.set_attr(span, "k" + index, std::int64_t(i));
  }
  const auto attrs = tracer.span(span).attrs();
  ASSERT_EQ(attrs.size(), 24u);
  for (int i = 0; i < 24; ++i) {  // insertion order, values intact
    const std::string index = std::to_string(i);
    EXPECT_EQ(attrs[std::size_t(i)].key, "k" + index);
    EXPECT_EQ(std::get<std::int64_t>(attrs[std::size_t(i)].value), i);
  }
  const PoolStats stats = tracer.pool_stats();
  EXPECT_EQ(stats.attr_entries, 24u);
  EXPECT_GE(stats.attr_capacity, stats.attr_entries);
  EXPECT_GT(stats.attr_wasted, 0u);  // abandoned pre-growth slices
}

TEST(TracerPool, PoolStatsAccountEverySpanAndAttribute) {
  Tracer tracer;
  std::size_t attr_total = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const SpanId span = tracer.begin(0, "request");
    tracer.set_attr(span, "bytes.wire", std::int64_t(i));
    tracer.add_attr(span, "retries", 1);
    attr_total += 2;
    tracer.end(span);
  }
  const PoolStats stats = tracer.pool_stats();
  EXPECT_EQ(stats.spans, 100u);
  EXPECT_GE(stats.span_capacity, stats.spans);
  EXPECT_EQ(stats.attr_entries, attr_total);
  EXPECT_GE(stats.attr_capacity, stats.attr_entries);
  EXPECT_EQ(stats.interned_names, 3u);  // request, bytes.wire, retries
}

}  // namespace
}  // namespace dohperf::obs
