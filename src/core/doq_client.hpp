// DNS-over-QUIC client (RFC 9250) — EXTENSION beyond the paper's
// transports. Each query travels on its own bidirectional QUIC stream
// (2-byte length prefix + DNS message, then FIN), so queries are as
// independent as DoH/2 streams but without TCP's loss-induced head-of-line
// blocking underneath.
//
// Resilience follows core::Recovery, but DoQ migrates the QUIC way: a
// PATH_CHALLENGE probes the (possibly re-addressed) path and, when the
// server permits migration, the connection survives without a new handshake.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/obs_hooks.hpp"
#include "core/recovery.hpp"
#include "obs/span.hpp"
#include "quicsim/endpoint.hpp"

namespace dohperf::core {

struct DoqClientConfig {
  std::string server_name = "doq.example";
  quicsim::QuicConnectionConfig quic;
  /// Reconnection + per-query retry behaviour; default is fail-fast.
  RetryPolicy retry;
  /// Network-churn handling: probe the path instead of reconnecting.
  MigrationConfig migration;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

class DoqClient final : public ResolverClient {
 public:
  DoqClient(simnet::Host& host, simnet::Address server,
            DoqClientConfig config = {});

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override;
  std::size_t completed() const override { return completed_; }
  const RetryStats& retry_stats() const noexcept {
    return recovery_.retry_stats();
  }
  const MigrationStats& migration_stats() const noexcept {
    return recovery_.migration_stats();
  }

  void disconnect();
  bool connected() const;
  const quicsim::QuicCounters* quic_counters() const;

 private:
  struct PendingQuery : Attempt {
    dns::Bytes rx;  ///< the response stream so far
  };

  void ensure_connection(obs::SpanId parent);
  void issue(PendingQuery pq);
  void on_stream_data(std::uint64_t stream_id,
                      std::span<const std::uint8_t> data, bool fin);
  void on_closed();
  void on_query_timeout(std::uint64_t stream_id);
  /// Fail or (budget permitting) re-issue every query in flight after the
  /// connection died or was condemned by a query timeout.
  void group_reissue();
  void fail_query(PendingQuery pq);
  /// QUIC migration: validate the current path with a PATH_CHALLENGE. The
  /// connection — handshake included — survives the address change.
  void begin_migration(const char* reason);

  simnet::Host& host_;
  TransportMetrics tmetrics_;
  CostMetrics cmetrics_;
  simnet::Address server_;
  DoqClientConfig config_;
  Recovery recovery_;
  std::unique_ptr<quicsim::QuicClientEndpoint> endpoint_;
  obs::SpanId connect_span_ = 0;
  obs::SpanId quic_hs_span_ = 0;

  std::map<std::uint64_t, PendingQuery> pending_;  ///< keyed by stream id
  std::uint64_t next_query_id_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<ResolutionResult> results_;
};

}  // namespace dohperf::core
