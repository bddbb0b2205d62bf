// The metrics registry: named counters, gauges and histograms with
// deterministic iteration order (ordered maps only — DET003-clean), so a
// metrics snapshot serializes byte-identically across identically seeded
// runs. Metric names form a stable contract documented in EXPERIMENTS.md
// ("Observability" section); benches and tests key on them.
//
// Every write goes through a pre-registered MetricId handle
// (`register_counter` once, then `add(id)`): a dense-slot array write, for
// hot loops (tier dispatch, cache lookups, per-packet taps, shard inner
// loops). The name-keyed overloads (`add("cache.hits")`) are sugar for
// cold code: register, then write through the handle. Slot writes are
// folded lazily into the ordered maps on any read (sync-on-read).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dns/json_value.hpp"
#include "stats/cdf.hpp"

namespace dohperf::obs {

/// Histogram snapshot: fixed quantiles over a stats::Cdf sample, the same
/// presentation the paper's figures use.
struct HistogramSummary {
  std::size_t count = 0;
  double min = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

enum class MetricKind : std::uint8_t { kNone, kCounter, kGauge, kHistogram };

/// Opaque handle from Registry::register_*; default-constructed = invalid
/// (all operations through it are no-ops). Valid only for the registry that
/// issued it.
class MetricId {
 public:
  MetricId() = default;
  bool valid() const noexcept { return kind_ != MetricKind::kNone; }

 private:
  friend class Registry;
  MetricId(MetricKind kind, std::uint32_t index) noexcept
      : kind_(kind), index_(index) {}

  MetricKind kind_ = MetricKind::kNone;
  std::uint32_t index_ = 0;
};

class Registry {
 public:
  // ---- Pre-registered fast path -----------------------------------------
  // Registering the same name twice returns the same handle; registration
  // alone leaves no trace in exports (only touched metrics serialize).

  MetricId register_counter(const std::string& name);
  MetricId register_gauge(const std::string& name);
  MetricId register_histogram(const std::string& name);

  /// Increment a pre-registered counter: one dense-slot write, no lookup.
  void add(MetricId id, std::uint64_t delta = 1) {
    if (id.kind_ != MetricKind::kCounter) return;
    CounterSlot& slot = counter_slots_[id.index_];
    slot.pending += delta;
    slot.touched = true;
    slots_dirty_ = true;
  }

  /// Set a pre-registered gauge (last write wins).
  void set_gauge(MetricId id, std::int64_t value) {
    if (id.kind_ != MetricKind::kGauge) return;
    GaugeSlot& slot = gauge_slots_[id.index_];
    slot.value = value;
    slot.dirty = true;
    slots_dirty_ = true;
  }

  /// Record one observation against a pre-registered histogram.
  void observe(MetricId id, double value) {
    if (id.kind_ != MetricKind::kHistogram) return;
    hist_slots_[id.index_].pending.push_back(value);
    slots_dirty_ = true;
  }

  // ---- Name-keyed sugar: register, then write through the handle -------

  /// Increment a counter (created at 0 on first touch).
  void add(const std::string& name, std::uint64_t delta = 1) {
    add(register_counter(name), delta);
  }

  /// Set a gauge to an absolute value (e.g. circuit-breaker state).
  void set_gauge(const std::string& name, std::int64_t value) {
    set_gauge(register_gauge(name), value);
  }

  /// Record one histogram observation (fixed-quantile export).
  void observe(const std::string& name, double value) {
    observe(register_histogram(name), value);
  }

  // ---- Reads / exports (sync slot writes first) -------------------------

  /// Point reads; absent names read as 0 / empty.
  std::uint64_t counter(const std::string& name) const;
  std::int64_t gauge(const std::string& name) const;
  const stats::Cdf* histogram(const std::string& name) const;
  HistogramSummary histogram_summary(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    sync();
    return counters_;
  }
  const std::map<std::string, std::int64_t>& gauges() const {
    sync();
    return gauges_;
  }
  const std::map<std::string, stats::Cdf>& histograms() const {
    sync();
    return histograms_;
  }

  bool empty() const {
    sync();
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Reset all values; registrations (and their handles) stay valid.
  void clear();

  /// Fold another registry into this one: counters add, gauges take the
  /// other's (later) value, histogram samples concatenate. Sharded benches
  /// give every shard a private registry and merge them in shard-index
  /// order, so the combined registry is identical at any --jobs value.
  void merge_from(const Registry& other);

  /// Deterministic snapshot:
  ///   {"schema":"dohperf-metrics-v1","counters":{...},"gauges":{...},
  ///    "histograms":{name:{"count":..,"min":..,"p25":..,...}}}
  dns::JsonValue to_json() const;

  /// Human-readable listing, one `name value` row per line, sorted.
  std::string render() const;

 private:
  struct CounterSlot {
    std::string name;
    std::uint64_t pending = 0;
    bool touched = false;
  };
  struct GaugeSlot {
    std::string name;
    std::int64_t value = 0;
    bool dirty = false;
  };
  struct HistSlot {
    std::string name;
    std::vector<double> pending;
  };

  /// Fold pending slot writes into the ordered maps (no-op when clean).
  void sync() const;

  // Mutable: sync-on-read folds slot state into the maps from const reads.
  mutable std::map<std::string, std::uint64_t> counters_;
  mutable std::map<std::string, std::int64_t> gauges_;
  mutable std::map<std::string, stats::Cdf> histograms_;

  mutable std::vector<CounterSlot> counter_slots_;
  mutable std::vector<GaugeSlot> gauge_slots_;
  mutable std::vector<HistSlot> hist_slots_;
  mutable bool slots_dirty_ = false;

  std::map<std::string, std::uint32_t> counter_ids_;
  std::map<std::string, std::uint32_t> gauge_ids_;
  std::map<std::string, std::uint32_t> hist_ids_;
};

}  // namespace dohperf::obs
