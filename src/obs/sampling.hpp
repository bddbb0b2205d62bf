// Deterministic trace sampling — production-rate observability. A
// SamplingTracer fronts a Tracer with a keep/drop decision per *root* span:
// kept roots record their full subtree at full fidelity, dropped roots hand
// out a null-tracer SpanContext so the whole subtree reduces to the
// existing one-null-check fast path (metrics still flow).
//
// The decision is a pure function of (seed, sample key): a seeded
// SplitMix64 hash of the caller-supplied key (e.g. the query ordinal), so
// the sampled subset is byte-identical across runs, across `--jobs N` shard
// partitions, and independent of the order contexts are requested in.
//
// Self-metrics (metric-name contract, EXPERIMENTS.md):
//   obs.spans_sampled   root spans kept (full subtree recorded)
//   obs.spans_dropped   root spans dropped (null-sink fast path)
#pragma once

#include <cstdint>

#include "obs/metric.hpp"
#include "obs/span.hpp"
#include "stats/rng.hpp"

namespace dohperf::obs {

struct SamplingConfig {
  /// Keep 1 in `period` roots on average; 0 or 1 keeps every root.
  std::uint64_t period = 64;
  /// Folded into the per-key hash; two tracers with the same seed and
  /// period make identical decisions for every key.
  std::uint64_t seed = 0;
};

class SamplingTracer {
 public:
  /// `tracer` must outlive this object; `metrics` may be null (no
  /// self-metrics, sampling decisions unaffected).
  SamplingTracer(Tracer& tracer, Registry* metrics,
                 SamplingConfig config = {})
      : tracer_(tracer), metrics_(metrics), config_(config) {}

  /// The pure decision function: true iff a root with `key` is recorded.
  /// Static so tests (and shards) can evaluate it without a tracer.
  static bool keep(const SamplingConfig& config, std::uint64_t key) noexcept {
    if (config.period <= 1) return true;
    stats::SplitMix64 rng(config.seed ^ key);
    return rng.next_below(config.period) == 0;
  }
  bool keep(std::uint64_t key) const noexcept { return keep(config_, key); }

  /// The root context for one unit of work (query, page load, ...): a full
  /// tracing context when `key` is kept, the null-sink fast path when
  /// dropped. Counts obs.spans_sampled / obs.spans_dropped either way.
  SpanContext root_context(std::uint64_t key) {
    const bool kept = keep(config_, key);
    (kept ? sampled_ : dropped_).add(metrics_);
    return SpanContext{kept ? &tracer_ : nullptr, 0, metrics_};
  }

  const SamplingConfig& config() const noexcept { return config_; }
  Tracer& tracer() noexcept { return tracer_; }

 private:
  Tracer& tracer_;
  Registry* metrics_;
  SamplingConfig config_;
  CounterHandle sampled_{"obs.spans_sampled"};
  CounterHandle dropped_{"obs.spans_dropped"};
};

}  // namespace dohperf::obs
