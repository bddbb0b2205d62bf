// DNS-over-QUIC client (RFC 9250) — EXTENSION beyond the paper's
// transports. Each query travels on its own bidirectional QUIC stream
// (2-byte length prefix + DNS message, then FIN), so queries are as
// independent as DoH/2 streams but without TCP's loss-induced head-of-line
// blocking underneath.
//
// Resilience: with a RetryPolicy the client replaces a dead connection and
// re-issues in-flight queries under their budgets. With MigrationConfig the
// client reacts to network churn the QUIC way — the connection itself
// migrates: a PATH_CHALLENGE probes the (possibly re-addressed) path and,
// when the server permits migration, the connection survives without a new
// handshake.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/migration.hpp"
#include "core/obs_hooks.hpp"
#include "core/retry.hpp"
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
  ~DoqClient() override;

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override;
  std::size_t completed() const override { return completed_; }
  const RetryStats& retry_stats() const noexcept { return retry_stats_; }
  const MigrationStats& migration_stats() const noexcept {
    return migration_stats_;
  }

  void disconnect();
  bool connected() const;
  const quicsim::QuicCounters* quic_counters() const;

 private:
  struct PendingQuery {
    std::uint64_t query_id = 0;
    ResolveCallback callback;
    dns::Bytes rx;
    dns::Name name;  ///< kept for re-issue
    dns::RType type = dns::RType::kA;
    int retries_left = 0;
    simnet::EventId timeout_timer;
    obs::SpanId span = 0;
    obs::SpanId request_span = 0;
    int attempt = 0;
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
  void account_established();
  void arm_stall_timer();
  void on_stall();
  /// QUIC migration: validate the current path with a PATH_CHALLENGE. The
  /// connection — handshake included — survives the address change.
  void begin_migration(const char* reason);

  simnet::Host& host_;
  TransportMetrics tmetrics_;
  CostMetrics cmetrics_;
  ConnectionMetrics conn_metrics_{"doq"};
  simnet::Address server_;
  DoqClientConfig config_;
  Backoff backoff_;
  RetryStats retry_stats_;
  MigrationStats migration_stats_;
  std::unique_ptr<quicsim::QuicClientEndpoint> endpoint_;
  obs::SpanId connect_span_ = 0;
  obs::SpanId quic_hs_span_ = 0;
  obs::SpanId migrate_span_ = 0;
  simnet::EventId stall_timer_;
  std::uint64_t listener_id_ = 0;
  /// Stream whose query timeout condemned the connection (re-issued last,
  /// sole budget charge of the teardown).
  std::uint64_t suspect_stream_id_ = 0;
  bool timeout_teardown_ = false;
  bool closing_ = false;  ///< disconnect() in progress: do not retry

  std::map<std::uint64_t, PendingQuery> pending_;  ///< keyed by stream id
  std::uint64_t next_query_id_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<ResolutionResult> results_;
};

}  // namespace dohperf::core
