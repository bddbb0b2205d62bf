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

#include <memory>

#include "core/client.hpp"
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

class DoqClient final : public ResolverClient, private Session {
 public:
  DoqClient(simnet::Host& host, simnet::Address server,
            DoqClientConfig config = {});

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override {
    return recovery_.accept(name, type, std::move(callback));
  }
  const ResolutionResult& result(std::uint64_t id) const override {
    return recovery_.result(id);
  }
  std::size_t completed() const override { return recovery_.completed(); }
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
  // Session: queries are keyed by stream id.
  void send(Attempt&& a) override;
  /// QUIC's PTO machinery already retries within the connection, so a
  /// query deadline means the path (or the server's view of our address)
  /// is dead: drop the endpoint and re-issue everything in flight.
  void abort(std::uint64_t key) override;
  /// QUIC migration: validate the current path with a PATH_CHALLENGE. The
  /// connection — handshake included — survives the address change.
  void migrate(const char* reason) override;

  void ensure_connection(obs::SpanId parent);
  void on_stream_data(std::uint64_t stream_id,
                      std::span<const std::uint8_t> data, bool fin);
  void on_closed();

  simnet::Host& host_;
  simnet::Address server_;
  DoqClientConfig config_;
  Recovery recovery_;
  std::unique_ptr<quicsim::QuicClientEndpoint> endpoint_;
  /// Responses that arrive in more than one STREAM frame, on the current
  /// endpoint.
  quicsim::StreamJoiner responses_;
  obs::SpanId connect_span_ = 0;
  obs::SpanId quic_hs_span_ = 0;
};

}  // namespace dohperf::core
