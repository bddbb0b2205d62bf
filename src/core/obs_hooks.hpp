// Shared observability glue for the resolver clients. The span and metric
// naming conventions live here so every transport reports the same way; the
// names are a stable contract documented in EXPERIMENTS.md ("Observability").
//
// All helpers are no-ops when the SpanContext carries no tracer/registry, so
// uninstrumented runs pay only a null-pointer check. Metric writes go through
// self-binding handles (obs/metric.hpp): a dense slot write in whichever
// registry the context carries.
#pragma once

#include <cstdint>
#include <string>

#include "core/client.hpp"
#include "obs/metric.hpp"
#include "obs/span.hpp"

namespace dohperf::core {

/// One client's client.<t>.* family: resolution counts and latency for
/// every transport, connection-lifecycle counters for the connection-
/// oriented ones (a handle never written leaves no trace in exports).
struct ClientMetrics {
  /// `transport` is the <t> in client.<t>.*, and the resolution span's
  /// `transport` attribute.
  explicit ClientMetrics(std::string transport)
      : transport(std::move(transport)),
        queries(name("queries")),
        success(name("success")),
        failures(name("failures")),
        servfail(name("servfail")),
        resolution_ms(name("resolution_ms")),
        conn_open(name("conn_open")),
        conn_reuse(name("conn_reuse")),
        reconnects(name("reconnects")),
        retries(name("retries")),
        timeouts(name("timeouts")),
        migrations(name("migrations")),
        migration_wasted_bytes(name("migration_wasted_bytes")),
        resumed_handshakes(name("resumed_handshakes")) {}

  std::string transport;
  obs::CounterHandle queries;
  obs::CounterHandle success;
  obs::CounterHandle failures;
  obs::CounterHandle servfail;
  obs::HistogramHandle resolution_ms;
  obs::CounterHandle conn_open;
  obs::CounterHandle conn_reuse;
  obs::CounterHandle reconnects;
  obs::CounterHandle retries;
  obs::CounterHandle timeouts;
  obs::CounterHandle migrations;
  obs::CounterHandle migration_wasted_bytes;
  obs::CounterHandle resumed_handshakes;

 private:
  std::string name(const char* leaf) const {
    return "client." + transport + "." + leaf;
  }
};

/// The global bytes.* counters (obs_count_cost).
struct CostMetrics {
  obs::CounterHandle wire{"bytes.wire"};
  obs::CounterHandle dns{"bytes.dns"};
  obs::CounterHandle tcp{"bytes.tcp"};
  obs::CounterHandle tls{"bytes.tls"};
  obs::CounterHandle http_hdr{"bytes.http_hdr"};
  obs::CounterHandle http_body{"bytes.http_body"};
  obs::CounterHandle http_mgmt{"bytes.http_mgmt"};
};

/// Open the root `resolution` span for one query and count it under
/// `client.<transport>.queries`. Returns 0 when tracing is off.
inline obs::SpanId obs_begin_resolution(const obs::SpanContext& obs,
                                        const ClientMetrics& m,
                                        const dns::Name& name,
                                        dns::RType type) {
  m.queries.add(obs);
  const obs::SpanId span = obs.begin("resolution");
  if (span != 0) {
    obs.set_attr(span, "transport", m.transport);
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
inline void obs_count_cost(const obs::SpanContext& obs, const CostMetrics& m,
                           const CostReport& cost) {
  m.wire.add(obs, cost.wire_bytes);
  m.dns.add(obs, cost.dns_message_bytes);
  m.tcp.add(obs, cost.tcp_overhead_bytes);
  m.tls.add(obs, cost.tls_overhead_bytes);
  m.http_hdr.add(obs, cost.http_header_bytes);
  m.http_body.add(obs, cost.http_body_bytes);
  m.http_mgmt.add(obs, cost.http_mgmt_bytes);
}

/// Close the `resolution` span with its outcome and record the
/// success/failure/servfail counters plus the resolution-time histogram.
/// Byte attributes are NOT set here — clients with lazily finalized costs
/// attach them later via obs_span_cost().
inline void obs_finish_resolution(const obs::SpanContext& obs,
                                  const ClientMetrics& m, obs::SpanId span,
                                  const ResolutionResult& result) {
  (result.success ? m.success : m.failures).add(obs);
  if (result.success &&
      result.response.flags.rcode == dns::Rcode::kServFail) {
    m.servfail.add(obs);
  }
  m.resolution_ms.observe(
      obs, static_cast<double>(result.resolution_time()) / 1000.0);
  if (span != 0) {
    obs.set_attr(span, "success", result.success);
    obs.end(span);
  }
}

}  // namespace dohperf::core
