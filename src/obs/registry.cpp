#include "obs/registry.hpp"

#include <sstream>

namespace dohperf::obs {

namespace {

HistogramSummary summarize(const stats::Cdf& cdf) {
  HistogramSummary s;
  if (cdf.empty()) return s;
  s.count = cdf.count();
  s.min = cdf.sorted_values().front();
  s.p25 = cdf.quantile(0.25);
  s.p50 = cdf.quantile(0.50);
  s.p75 = cdf.quantile(0.75);
  s.p90 = cdf.quantile(0.90);
  s.p95 = cdf.quantile(0.95);
  s.p99 = cdf.quantile(0.99);
  s.max = cdf.quantile(1.0);
  return s;
}

/// The slot index of `name` in `ids`, appending a fresh slot on first use.
template <class Index, class Slot>
std::uint32_t slot_index(Index& ids, std::vector<Slot>& slots,
                         std::string_view name) {
  auto it = ids.find(name);
  if (it == ids.end()) {
    it = ids.emplace(std::string(name),
                     static_cast<std::uint32_t>(slots.size()))
             .first;
    slots.emplace_back();
  }
  return it->second;
}

}  // namespace

MetricId Registry::register_counter(std::string_view name) {
  return MetricId(MetricKind::kCounter,
                  slot_index(counter_ids_, counters_, name));
}

MetricId Registry::register_gauge(std::string_view name) {
  return MetricId(MetricKind::kGauge, slot_index(gauge_ids_, gauges_, name));
}

MetricId Registry::register_histogram(std::string_view name) {
  return MetricId(MetricKind::kHistogram,
                  slot_index(histogram_ids_, histograms_, name));
}

std::uint64_t Registry::counter(std::string_view name) const {
  const auto it = counter_ids_.find(name);
  return it == counter_ids_.end() ? 0 : counters_[it->second].value;
}

std::int64_t Registry::gauge(std::string_view name) const {
  const auto it = gauge_ids_.find(name);
  return it == gauge_ids_.end() ? 0 : gauges_[it->second].value;
}

const stats::Cdf* Registry::histogram(std::string_view name) const {
  const auto it = histogram_ids_.find(name);
  if (it == histogram_ids_.end()) return nullptr;
  const stats::Cdf& cdf = histograms_[it->second];
  return cdf.empty() ? nullptr : &cdf;
}

HistogramSummary Registry::histogram_summary(std::string_view name) const {
  const stats::Cdf* cdf = histogram(name);
  return cdf == nullptr ? HistogramSummary{} : summarize(*cdf);
}

bool Registry::empty() const {
  bool empty = true;
  const auto written = [&](const std::string&, const auto&) { empty = false; };
  each_counter(written);
  each_gauge(written);
  each_histogram(written);
  return empty;
}

void Registry::clear() {
  for (CounterSlot& slot : counters_) slot = CounterSlot{};
  for (GaugeSlot& slot : gauges_) slot = GaugeSlot{};
  for (stats::Cdf& cdf : histograms_) cdf = stats::Cdf{};
}

void Registry::merge_from(const Registry& other) {
  other.each_counter([&](const std::string& name, std::uint64_t value) {
    add(register_counter(name), value);
  });
  other.each_gauge([&](const std::string& name, std::int64_t value) {
    set_gauge(register_gauge(name), value);
  });
  other.each_histogram([&](const std::string& name, const stats::Cdf& cdf) {
    histograms_[register_histogram(name).index_].add_all(cdf.sorted_values());
  });
}

dns::JsonValue Registry::to_json() const {
  dns::JsonObject root;
  root["schema"] = dns::JsonValue("dohperf-metrics-v1");

  dns::JsonObject counters;
  each_counter([&](const std::string& name, std::uint64_t value) {
    counters[name] = dns::JsonValue(static_cast<std::int64_t>(value));
  });
  root["counters"] = dns::JsonValue(std::move(counters));

  dns::JsonObject gauges;
  each_gauge([&](const std::string& name, std::int64_t value) {
    gauges[name] = dns::JsonValue(value);
  });
  root["gauges"] = dns::JsonValue(std::move(gauges));

  dns::JsonObject histograms;
  each_histogram([&](const std::string& name, const stats::Cdf& cdf) {
    const HistogramSummary s = summarize(cdf);
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
  });
  root["histograms"] = dns::JsonValue(std::move(histograms));
  return dns::JsonValue(std::move(root));
}

std::string Registry::render() const {
  std::ostringstream os;
  each_counter([&](const std::string& name, std::uint64_t value) {
    os << name << ' ' << value << '\n';
  });
  each_gauge([&](const std::string& name, std::int64_t value) {
    os << name << ' ' << value << '\n';
  });
  each_histogram([&](const std::string& name, const stats::Cdf& cdf) {
    const HistogramSummary s = summarize(cdf);
    os << name << " n=" << s.count << " p50=" << s.p50 << " p90=" << s.p90
       << " max=" << s.max << '\n';
  });
  return os.str();
}

}  // namespace dohperf::obs
