// Shared observability glue for the resolver clients. The span and metric
// naming conventions live here so every transport reports the same way; the
// names are a stable contract documented in EXPERIMENTS.md ("Observability").
//
// All helpers are no-ops when the SpanContext carries no tracer/registry, so
// uninstrumented runs pay only a null-pointer check. Metric writes go through
// pre-registered handles: the per-query cost is a dense slot write once the
// first call has bound them.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/client.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace dohperf::core {

/// Pre-registered handles for one transport's client.* metric family.
/// Clients keep one of these per instance; bind() is idempotent and
/// re-binds automatically when the registry changes (set_obs rebinding),
/// so the per-query path is pure dense-slot writes.
struct TransportMetrics {
  obs::Registry* registry = nullptr;
  obs::MetricId queries;
  obs::MetricId success;
  obs::MetricId failures;
  obs::MetricId servfail;
  obs::MetricId resolution_ms;

  void bind(obs::Registry* r, const std::string& transport) {
    registry = r;
    if (r == nullptr) return;
    const std::string prefix = "client." + transport;
    queries = r->register_counter(prefix + ".queries");
    success = r->register_counter(prefix + ".success");
    failures = r->register_counter(prefix + ".failures");
    servfail = r->register_counter(prefix + ".servfail");
    resolution_ms = r->register_histogram(prefix + ".resolution_ms");
  }
};

/// Pre-registered handles for the global bytes.* counters (obs_count_cost).
struct CostMetrics {
  obs::Registry* registry = nullptr;
  obs::MetricId wire;
  obs::MetricId dns;
  obs::MetricId tcp;
  obs::MetricId tls;
  obs::MetricId http_hdr;
  obs::MetricId http_body;
  obs::MetricId http_mgmt;

  void bind(obs::Registry* r) {
    registry = r;
    if (r == nullptr) return;
    wire = r->register_counter("bytes.wire");
    dns = r->register_counter("bytes.dns");
    tcp = r->register_counter("bytes.tcp");
    tls = r->register_counter("bytes.tls");
    http_hdr = r->register_counter("bytes.http_hdr");
    http_body = r->register_counter("bytes.http_body");
    http_mgmt = r->register_counter("bytes.http_mgmt");
  }
};

/// Pre-registered handles for a connection-oriented transport's
/// connection-lifecycle counters, client.<t>.{conn_open,conn_reuse,
/// reconnects,retries,timeouts,migrations,migration_wasted_bytes,
/// resumed_handshakes}. Bound lazily like TransportMetrics: add() re-binds
/// whenever the context's registry differs from the bound one.
struct ConnectionMetrics {
  enum Counter : std::uint8_t {
    kConnOpen,
    kConnReuse,
    kReconnects,
    kRetries,
    kTimeouts,
    kMigrations,
    kMigrationWastedBytes,
    kResumedHandshakes,
    kCount,
  };

  /// `transport` is the <t> in client.<t>.*.
  explicit ConnectionMetrics(std::string transport)
      : transport_(std::move(transport)) {}

  /// Count `delta` on one counter of `obs`'s registry (no-op without one).
  void add(const obs::SpanContext& obs, Counter counter,
           std::uint64_t delta = 1) {
    if (obs.metrics == nullptr) return;
    if (registry_ != obs.metrics) bind(obs.metrics);
    obs.metrics->add(ids_[counter], delta);
  }

 private:
  void bind(obs::Registry* r) {
    static constexpr std::array<const char*, kCount> kNames = {
        "conn_open", "conn_reuse", "reconnects", "retries", "timeouts",
        "migrations", "migration_wasted_bytes", "resumed_handshakes"};
    registry_ = r;
    const std::string prefix = "client." + transport_ + ".";
    for (std::size_t i = 0; i < kCount; ++i) {
      ids_[i] = r->register_counter(prefix + kNames[i]);
    }
  }

  std::string transport_;
  obs::Registry* registry_ = nullptr;
  std::array<obs::MetricId, kCount> ids_;
};

/// Open the root `resolution` span for one query and count it under
/// `client.<transport>.queries`. Returns 0 when tracing is off.
inline obs::SpanId obs_begin_resolution(const obs::SpanContext& obs,
                                        TransportMetrics& m,
                                        const std::string& transport,
                                        const dns::Name& name,
                                        dns::RType type) {
  if (m.registry != obs.metrics) m.bind(obs.metrics, transport);
  if (obs.metrics != nullptr) obs.metrics->add(m.queries);
  const obs::SpanId span = obs.begin("resolution");
  if (span != 0) {
    obs.set_attr(span, "transport", transport);
    obs.set_attr(span, "query", name.to_string());
    obs.set_attr(span, "qtype", dns::to_string(type));
  }
  return span;
}

/// Copy a CostReport onto a span as the per-layer byte attributes behind the
/// fig5 breakdown. Safe on already-closed spans (attributes may arrive after
/// the span ends, e.g. when costs are finalized lazily at result() time).
inline void obs_span_cost(const obs::SpanContext& obs, obs::SpanId span,
                          const CostReport& cost) {
  if (span == 0) return;
  const auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  obs.set_attr(span, "bytes.wire", i64(cost.wire_bytes));
  obs.set_attr(span, "bytes.dns", i64(cost.dns_message_bytes));
  obs.set_attr(span, "bytes.tcp", i64(cost.tcp_overhead_bytes));
  obs.set_attr(span, "bytes.tls", i64(cost.tls_overhead_bytes));
  obs.set_attr(span, "bytes.http_hdr", i64(cost.http_header_bytes));
  obs.set_attr(span, "bytes.http_body", i64(cost.http_body_bytes));
  obs.set_attr(span, "bytes.http_mgmt", i64(cost.http_mgmt_bytes));
  obs.set_attr(span, "packets", i64(cost.packets));
}

/// Accumulate a CostReport into the global bytes.* counters.
inline void obs_count_cost(const obs::SpanContext& obs, CostMetrics& m,
                           const CostReport& cost) {
  if (obs.metrics == nullptr) return;
  if (m.registry != obs.metrics) m.bind(obs.metrics);
  auto& r = *obs.metrics;
  r.add(m.wire, cost.wire_bytes);
  r.add(m.dns, cost.dns_message_bytes);
  r.add(m.tcp, cost.tcp_overhead_bytes);
  r.add(m.tls, cost.tls_overhead_bytes);
  r.add(m.http_hdr, cost.http_header_bytes);
  r.add(m.http_body, cost.http_body_bytes);
  r.add(m.http_mgmt, cost.http_mgmt_bytes);
}

/// Close the `resolution` span with its outcome and record the
/// success/failure/servfail counters plus the resolution-time histogram.
/// Byte attributes are NOT set here — clients with lazily finalized costs
/// attach them later via obs_span_cost().
inline void obs_finish_resolution(const obs::SpanContext& obs,
                                  TransportMetrics& m, obs::SpanId span,
                                  const std::string& transport,
                                  const ResolutionResult& result) {
  if (obs.metrics != nullptr) {
    if (m.registry != obs.metrics) m.bind(obs.metrics, transport);
    auto& r = *obs.metrics;
    r.add(result.success ? m.success : m.failures);
    if (result.success &&
        result.response.flags.rcode == dns::Rcode::kServFail) {
      r.add(m.servfail);
    }
    r.observe(m.resolution_ms,
              static_cast<double>(result.resolution_time()) / 1000.0);
  }
  if (span != 0) {
    obs.set_attr(span, "success", result.success);
    obs.end(span);
  }
}

}  // namespace dohperf::core
