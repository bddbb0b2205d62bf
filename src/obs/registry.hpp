// The metrics registry: named counters, gauges and histograms with
// deterministic iteration order (an ordered name index — DET003-clean), so
// a metrics snapshot serializes byte-identically across identically seeded
// runs. Metric names form a stable contract documented in EXPERIMENTS.md
// ("Observability" section); benches and tests key on them.
//
// Each registered name owns one slot, and the slot is the only copy of its
// value: a counter's total and touched flag, a gauge's value and set flag,
// a histogram's sample. `register_*` returns the slot's MetricId, and a
// write through it is one dense-slot store. Components write through the
// self-binding handles of obs/metric.hpp, which register their name in
// whichever registry they are handed. The name-keyed overloads
// (`add("cache.hits")`) are sugar for cold one-shot code: register, then
// write through the id. Reads and exports walk the name index in name
// order; a registered name nobody wrote leaves no trace in them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
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

/// Opaque slot id from Registry::register_*; default-constructed = invalid
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
  // ---- Slots ------------------------------------------------------------
  // Registering the same name twice returns the same id; registration
  // alone leaves no trace in exports (only written metrics serialize).

  MetricId register_counter(std::string_view name);
  MetricId register_gauge(std::string_view name);
  MetricId register_histogram(std::string_view name);

  /// Increment a counter: one dense-slot write, no lookup. A delta of 0
  /// still makes the counter export (as 0).
  void add(MetricId id, std::uint64_t delta = 1) {
    if (id.kind_ != MetricKind::kCounter) return;
    CounterSlot& slot = counters_[id.index_];
    slot.value += delta;
    slot.touched = true;
  }

  /// Set a gauge (last write wins).
  void set_gauge(MetricId id, std::int64_t value) {
    if (id.kind_ != MetricKind::kGauge) return;
    gauges_[id.index_] = GaugeSlot{value, true};
  }

  /// Record one histogram observation.
  void observe(MetricId id, double value) {
    if (id.kind_ != MetricKind::kHistogram) return;
    histograms_[id.index_].add(value);
  }

  // ---- Name-keyed sugar: register, then write through the id ------------

  void add(std::string_view name, std::uint64_t delta = 1) {
    add(register_counter(name), delta);
  }
  void set_gauge(std::string_view name, std::int64_t value) {
    set_gauge(register_gauge(name), value);
  }
  void observe(std::string_view name, double value) {
    observe(register_histogram(name), value);
  }

  // ---- Reads / exports --------------------------------------------------

  /// Point reads; absent or unwritten names read as 0 / null.
  std::uint64_t counter(std::string_view name) const;
  std::int64_t gauge(std::string_view name) const;
  const stats::Cdf* histogram(std::string_view name) const;
  HistogramSummary histogram_summary(std::string_view name) const;

  /// Visit every written counter / gauge / histogram in name order as
  /// f(const std::string& name, value).
  template <class F>
  void each_counter(F&& f) const {
    for (const auto& [name, index] : counter_ids_) {
      const CounterSlot& slot = counters_[index];
      if (slot.touched) f(name, slot.value);
    }
  }
  template <class F>
  void each_gauge(F&& f) const {
    for (const auto& [name, index] : gauge_ids_) {
      const GaugeSlot& slot = gauges_[index];
      if (slot.set) f(name, slot.value);
    }
  }
  template <class F>
  void each_histogram(F&& f) const {
    for (const auto& [name, index] : histogram_ids_) {
      const stats::Cdf& cdf = histograms_[index];
      if (!cdf.empty()) f(name, cdf);
    }
  }

  /// True when nothing has been written since construction or clear().
  bool empty() const;

  /// Reset all values; registrations (and their ids) stay valid.
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
    std::uint64_t value = 0;
    bool touched = false;
  };
  struct GaugeSlot {
    std::int64_t value = 0;
    bool set = false;
  };
  /// Name -> slot index; std::less<> lets string_view names look up
  /// without building a std::string.
  using Index = std::map<std::string, std::uint32_t, std::less<>>;

  Index counter_ids_;
  Index gauge_ids_;
  Index histogram_ids_;
  std::vector<CounterSlot> counters_;
  std::vector<GaugeSlot> gauges_;
  std::vector<stats::Cdf> histograms_;
};

}  // namespace dohperf::obs
