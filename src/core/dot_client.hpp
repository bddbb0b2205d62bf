// DNS-over-TLS client (RFC 7858): TLS to port 853, two-byte length framing,
// multiple outstanding queries matched by DNS message ID.
//
// With `plain_tcp` the same client speaks DNS-over-TCP (RFC 7766): the
// framed messages ride a bare TCP byte stream and there is no TLS layer.
// Everything else is shared, so the fig2 tcp/dot gap isolates TLS.
//
// Reconnects, re-issues, query timeouts and migration follow core::Recovery
// (config.retry, config.migration); a won migration race re-issues at once.
#pragma once

#include <memory>

#include "core/client.hpp"
#include "core/recovery.hpp"
#include "obs/span.hpp"
#include "simnet/host.hpp"
#include "simnet/stream.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::core {

struct DotClientConfig {
  std::string server_name = "dot.example";  ///< SNI
  /// DNS-over-TCP (RFC 7766): no TLS layer. Reports as transport "tcp".
  bool plain_tcp = false;
  tlssim::SessionCache* session_cache = nullptr;
  /// Reconnection + per-query retry behaviour; default is fail-fast.
  RetryPolicy retry;
  /// Network-churn handling (stall detection, connection racing).
  MigrationConfig migration;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

class DotClient final : public ResolverClient, private Session {
 public:
  DotClient(simnet::Host& host, simnet::Address server,
            DotClientConfig config = {});

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

  /// Close the connection (a new one is opened on the next resolve).
  /// Outstanding queries fail without retry — the close was deliberate.
  void disconnect();
  bool connected() const;

  /// Connection-level counters of the current connection (null when none;
  /// TLS counters are also null for plain TCP).
  const tlssim::TlsCounters* tls_counters() const;
  const simnet::TcpCounters* tcp_counters() const;

 private:
  /// One connection: TCP, plus a TLS session over it unless plain_tcp.
  struct Connection {
    std::shared_ptr<simnet::TcpConnection> tcp;  ///< kept for counters
    std::unique_ptr<simnet::ByteStream> stream;  ///< the TLS session or TCP
    tlssim::TlsConnection* tls = nullptr;        ///< stream, unless plain

    explicit operator bool() const noexcept { return stream != nullptr; }
    /// Open or still handshaking: worth sending on.
    bool usable() const;
    /// Every handshake (TCP, then TLS if any) has completed.
    bool established() const;
    /// RST the transport (no local callbacks fire) and drop the stream.
    void abort();
  };

  // Session: queries are keyed by DNS message ID.
  void send(Attempt&& a) override;
  void abort(std::uint64_t key) override;
  void migrate(const char* reason) override;
  bool keyed_by_dns_id() const override { return true; }

  Connection open_connection();
  void ensure_connection(obs::SpanId parent);
  void on_data(std::span<const std::uint8_t> data);
  void on_close();
  void install_handlers();
  void promote_racer();
  void teardown_racer();

  simnet::Host& host_;
  simnet::Address server_;
  DotClientConfig config_;
  Recovery recovery_;

  Connection conn_;
  dns::Bytes rx_;
  /// The fresh connection racing the stalled one during a migration.
  Connection racer_;
  obs::SpanId connect_span_ = 0;
  obs::SpanId tcp_hs_span_ = 0;
  obs::SpanId tls_hs_span_ = 0;
};

}  // namespace dohperf::core
