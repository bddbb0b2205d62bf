// DNS-over-HTTPS client (RFC 8484).
//
// Supports the full configuration space the paper explores:
//   * HTTP/2 (recommended by the RFC) or HTTP/1.1 with pipelining (§3)
//   * persistent connections vs one fresh connection per query (§4, the
//     H vs HP scenarios of Figs 3-4)
//   * POST with application/dns-message, GET with ?dns=<base64url>, or the
//     JSON API (?name=&type= with application/dns-json)
//   * TLS version bounds and session resumption
//
// Cost accounting: every resolution records a CostReport. On persistent
// connections it is the counter delta while the query was outstanding, so
// the first resolution carries the TCP/TLS/SETTINGS setup, matching how
// the paper's whiskers show the one-off costs. On non-persistent
// connections the cost is the entire connection including teardown, and is
// finalized once the connection has fully closed (run the event loop to
// idle before reading it).
//
// Resilience follows core::Recovery, and the connections' life (racing
// included) core::Connector: a connection lost to a reset, server restart
// or GOAWAY is replaced and its queries re-issued within their budgets. For
// a retried query the recorded cost window covers its final attempt
// (dns_message_bytes accumulates: retransmissions cost bytes).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/connector.hpp"
#include "core/obs_hooks.hpp"
#include "core/recovery.hpp"
#include "http1/client.hpp"
#include "http2/connection.hpp"
#include "obs/span.hpp"
#include "simnet/fifo.hpp"
#include "simnet/host.hpp"
#include "simnet/stream.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::core {

enum class HttpVersion { kHttp1, kHttp2 };
enum class DohMethod {
  kPost,     ///< RFC 8484 POST, application/dns-message
  kGet,      ///< RFC 8484 GET, ?dns=<base64url>
  kJsonGet,  ///< JSON API, ?name=&type=, application/dns-json
};

struct DohClientConfig {
  std::string server_name = "doh.example";  ///< SNI, Host/:authority
  std::string path = "/dns-query";
  HttpVersion http_version = HttpVersion::kHttp2;
  DohMethod method = DohMethod::kPost;
  bool persistent = true;
  bool h1_pipelining = true;
  tlssim::TlsVersion max_tls = tlssim::TlsVersion::kTls13;
  tlssim::SessionCache* session_cache = nullptr;
  http2::Http2Config h2;  ///< HPACK table size etc. (fig5 ablation knob)
  /// EDNS0 padding block size for queries (RFC 8467 recommends 128 for
  /// clients; 0 disables). Uniform sizes close the length side channel.
  std::size_t pad_queries_to = 0;
  /// Reconnection + per-query retry behaviour; default is fail-fast.
  RetryPolicy retry;
  /// Network-churn handling (stall detection, connection racing). Only
  /// meaningful with persistent connections.
  MigrationConfig migration;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

class DohClient final : public ResolverClient, private Session, private Layer {
 public:
  DohClient(simnet::Host& host, simnet::Address server,
            DohClientConfig config = {});

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  /// Lazily finalizes the cost if the stack has quiesced.
  const ResolutionResult& result(std::uint64_t id) const override;
  std::size_t completed() const override { return recovery_.completed(); }
  std::uint64_t failures() const noexcept { return recovery_.failures(); }
  const RetryStats& retry_stats() const noexcept {
    return recovery_.retry_stats();
  }
  const MigrationStats& migration_stats() const noexcept {
    return recovery_.migration_stats();
  }

  /// Close the persistent connection (if any). Queries in flight on it
  /// fail at once without retry — the close was deliberate.
  void disconnect();

  /// Rebind the tracing/metrics sink (per-query sampling hands each query
  /// a different context; metric handles follow the registry it carries).
  void set_obs(const obs::SpanContext& obs) noexcept { config_.obs = obs; }

  /// TCP counters of the current (or last) persistent stack; null when
  /// none (and in fresh mode).
  const simnet::TcpCounters* tcp_counters() const;

 private:
  /// One TCP+TLS+HTTP pile. Kept alive after close so late counter reads
  /// (teardown packets) still work.
  struct Stack : Link {
    std::unique_ptr<http1::Http1Client> h1;
    std::unique_ptr<http2::Http2Connection> h2;
    /// Query ids in flight here, in issue order: the loss batch's order.
    std::vector<std::uint64_t> outstanding;

    // Observability state (all unused when tracing is off).
    /// Query ids whose h2 HEADERS has not left yet, in request() order —
    /// the stream observer pops these to learn each stream's query.
    simnet::Fifo<std::uint64_t> awaiting_stream;
    std::map<std::uint32_t, std::uint64_t> stream_to_query;
    std::uint64_t hpack_reported = 0;  ///< dyn-table hits already counted

    CostReport snapshot() const;
    /// Connecting or open, and not shut down by GOAWAY.
    bool usable() const override;
  };

  /// What DoH keeps per query beside Recovery's record: the stack its
  /// latest attempt rode on and the counter window its cost is read from.
  struct Exchange {
    std::shared_ptr<Stack> stack;
    CostReport start;  ///< stack snapshot when the latest attempt was sent
    CostReport end;    ///< snapshot one event after completion (persistent)
    /// Stack's TCP wire_bytes_received when the latest attempt was sent; if
    /// it has not advanced by the deadline, the connection (not just the
    /// stream) is stalled.
    std::uint64_t rx_at_issue = 0;
    obs::SpanId response_span = 0;  ///< h2: kResponseBegan..kStreamClosed
    bool have_end = false;
  };

  // Session: queries are keyed by query id.
  void send(Attempt&& a) override;
  void abort(std::uint64_t key) override;
  void migrate(const char* reason) override { connector_.migrate(reason); }
  /// HTTP/2 multiplexes streams independently: while the connection still
  /// receives bytes, only the late exchange is stalled.
  bool resend_alone(std::uint64_t key) const override;
  void finishing(Attempt& a, bool success) override;
  /// A cost is the stack's counter delta, settled in result().
  bool cost_final_at_finish() const override { return false; }

  // Layer: HTTP/1.1 or HTTP/2 over the TLS session.
  std::shared_ptr<Link> attach(
      std::unique_ptr<simnet::ByteStream> stream) override;
  /// Retry or fail every query that was in flight on the stack.
  void lost(Link& link, bool migrated) override;

  void on_stream_event(Stack& stack, std::uint32_t stream_id,
                       http2::StreamEvent event);
  Stack* current() const { return static_cast<Stack*>(connector_.current()); }

  DohClientConfig config_;
  obs::CounterHandle hpack_dyn_hits_{"client.doh.hpack_dyn_hits"};
  Recovery recovery_;  ///< transport "doh_h2" or "doh_h1"
  Connector connector_;
  std::vector<Exchange> exchanges_;  ///< by query id
};

}  // namespace dohperf::core
