#include "obs/registry.hpp"

#include <sstream>

namespace dohperf::obs {

MetricId Registry::register_counter(const std::string& name) {
  const auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) {
    return MetricId(MetricKind::kCounter, it->second);
  }
  const auto index = static_cast<std::uint32_t>(counter_slots_.size());
  counter_slots_.push_back(CounterSlot{name, 0, false});
  counter_ids_.emplace(name, index);
  return MetricId(MetricKind::kCounter, index);
}

MetricId Registry::register_gauge(const std::string& name) {
  const auto it = gauge_ids_.find(name);
  if (it != gauge_ids_.end()) {
    return MetricId(MetricKind::kGauge, it->second);
  }
  const auto index = static_cast<std::uint32_t>(gauge_slots_.size());
  gauge_slots_.push_back(GaugeSlot{name, 0, false});
  gauge_ids_.emplace(name, index);
  return MetricId(MetricKind::kGauge, index);
}

MetricId Registry::register_histogram(const std::string& name) {
  const auto it = hist_ids_.find(name);
  if (it != hist_ids_.end()) {
    return MetricId(MetricKind::kHistogram, it->second);
  }
  const auto index = static_cast<std::uint32_t>(hist_slots_.size());
  hist_slots_.push_back(HistSlot{name, {}});
  hist_ids_.emplace(name, index);
  return MetricId(MetricKind::kHistogram, index);
}

void Registry::sync() const {
  if (!slots_dirty_) return;
  for (CounterSlot& slot : counter_slots_) {
    if (!slot.touched) continue;
    counters_[slot.name] += slot.pending;
    slot.pending = 0;
    slot.touched = false;
  }
  for (GaugeSlot& slot : gauge_slots_) {
    if (!slot.dirty) continue;
    gauges_[slot.name] = slot.value;
    slot.dirty = false;
  }
  for (HistSlot& slot : hist_slots_) {
    if (slot.pending.empty()) continue;
    histograms_[slot.name].add_all(slot.pending);
    slot.pending.clear();
  }
  slots_dirty_ = false;
}

std::uint64_t Registry::counter(const std::string& name) const {
  sync();
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t Registry::gauge(const std::string& name) const {
  sync();
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const stats::Cdf* Registry::histogram(const std::string& name) const {
  sync();
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

HistogramSummary Registry::histogram_summary(const std::string& name) const {
  HistogramSummary s;
  const stats::Cdf* cdf = histogram(name);
  if (cdf == nullptr || cdf->empty()) return s;
  s.count = cdf->count();
  s.min = cdf->sorted_values().front();
  s.p25 = cdf->quantile(0.25);
  s.p50 = cdf->quantile(0.50);
  s.p75 = cdf->quantile(0.75);
  s.p90 = cdf->quantile(0.90);
  s.p95 = cdf->quantile(0.95);
  s.p99 = cdf->quantile(0.99);
  s.max = cdf->quantile(1.0);
  return s;
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  for (CounterSlot& slot : counter_slots_) {
    slot.pending = 0;
    slot.touched = false;
  }
  for (GaugeSlot& slot : gauge_slots_) {
    slot.value = 0;
    slot.dirty = false;
  }
  for (HistSlot& slot : hist_slots_) slot.pending.clear();
  slots_dirty_ = false;
}

void Registry::merge_from(const Registry& other) {
  sync();
  other.sync();
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name] = value;
  }
  for (const auto& [name, cdf] : other.histograms_) {
    histograms_[name].add_all(cdf.sorted_values());
  }
}

dns::JsonValue Registry::to_json() const {
  sync();
  dns::JsonObject root;
  root["schema"] = dns::JsonValue("dohperf-metrics-v1");

  dns::JsonObject counters;
  for (const auto& [name, value] : counters_) {
    counters[name] = dns::JsonValue(static_cast<std::int64_t>(value));
  }
  root["counters"] = dns::JsonValue(std::move(counters));

  dns::JsonObject gauges;
  for (const auto& [name, value] : gauges_) {
    gauges[name] = dns::JsonValue(value);
  }
  root["gauges"] = dns::JsonValue(std::move(gauges));

  dns::JsonObject histograms;
  for (const auto& [name, cdf] : histograms_) {
    const HistogramSummary s = histogram_summary(name);
    dns::JsonObject h;
    h["count"] = dns::JsonValue(static_cast<std::int64_t>(s.count));
    h["min"] = dns::JsonValue(s.min);
    h["p25"] = dns::JsonValue(s.p25);
    h["p50"] = dns::JsonValue(s.p50);
    h["p75"] = dns::JsonValue(s.p75);
    h["p90"] = dns::JsonValue(s.p90);
    h["p95"] = dns::JsonValue(s.p95);
    h["p99"] = dns::JsonValue(s.p99);
    h["max"] = dns::JsonValue(s.max);
    histograms[name] = dns::JsonValue(std::move(h));
  }
  root["histograms"] = dns::JsonValue(std::move(histograms));
  return dns::JsonValue(std::move(root));
}

std::string Registry::render() const {
  sync();
  std::ostringstream os;
  for (const auto& [name, value] : counters_) {
    os << name << ' ' << value << '\n';
  }
  for (const auto& [name, value] : gauges_) {
    os << name << ' ' << value << '\n';
  }
  for (const auto& [name, cdf] : histograms_) {
    const HistogramSummary s = histogram_summary(name);
    os << name << " n=" << s.count << " p50=" << s.p50 << " p90=" << s.p90
       << " max=" << s.max << '\n';
  }
  return os.str();
}

}  // namespace dohperf::obs
