// DNS-over-TLS client (RFC 7858): TLS to port 853, two-byte length framing,
// multiple outstanding queries matched by DNS message ID.
//
// With `plain_tcp` the same client speaks DNS-over-TCP (RFC 7766): the
// framed messages ride a bare TCP byte stream and there is no TLS layer.
// Everything else is shared, so the fig2 tcp/dot gap isolates TLS.
//
// Reconnects, re-issues, query timeouts and migration follow core::Recovery
// (config.retry, config.migration), and the connection's life follows
// core::Connector; a won migration race re-issues at once.
#pragma once

#include <memory>

#include "core/client.hpp"
#include "core/connector.hpp"
#include "core/recovery.hpp"
#include "obs/span.hpp"
#include "simnet/buffer.hpp"
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

class DotClient final : public ResolverClient, private Session, private Layer {
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
  /// TCP counters of the current (or last) connection; null before any.
  const simnet::TcpCounters* tcp_counters() const;

 private:
  /// One connection: the stream the framed messages ride (the TLS session,
  /// or bare TCP) and what has arrived on it.
  struct Conn : Link {
    std::unique_ptr<simnet::ByteStream> stream;
    simnet::ByteQueue rx;
  };

  // Session: queries are keyed by DNS message ID.
  void send(Attempt&& a) override;
  void abort(std::uint64_t key) override;
  void migrate(const char* reason) override { connector_.migrate(reason); }
  void finishing(Attempt& /*a*/, bool success) override {
    if (success) connector_.answered();
  }
  bool keyed_by_dns_id() const override { return true; }

  // Layer: the length framing.
  std::shared_ptr<Link> attach(
      std::unique_ptr<simnet::ByteStream> stream) override;
  void lost(Link& /*link*/, bool migrated) override {
    recovery_.lose(migrated);  // everything in flight rides the connection
  }

  void on_data(Conn& conn, const simnet::BufferSlice& data);
  Conn* current() const { return static_cast<Conn*>(connector_.current()); }

  DotClientConfig config_;
  Recovery recovery_;
  Connector connector_;
};

}  // namespace dohperf::core
