// DNS-over-HTTPS front-end (RFC 8484): TLS with ALPN on port 443, serving
// both HTTP/2 and HTTP/1.1 sessions. Supports:
//   * POST with application/dns-message bodies (RFC-mandated)
//   * GET with ?dns=<base64url> (RFC 8484 §4.1)
//   * GET with ?name=&type= returning application/dns-json
//     (the Google /resolve API shape, probed in Table 2)
// Paths and content types are configurable because the surveyed providers
// disagree on them (Table 1: /, /resolve, /dns-query, /family-filter).
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "http1/server.hpp"
#include "http2/connection.hpp"
#include "resolver/query_handler.hpp"
#include "simnet/host.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::resolver {

struct DohServerConfig {
  std::set<std::string> paths = {"/dns-query"};
  bool support_dns_message = true;
  bool support_dns_json = false;
  std::string server_header = "dohperf-resolver";
  /// Extra per-request latency of the HTTPS front-end: real DoH services
  /// terminate TLS at an edge proxy and hop to the resolver backend, which
  /// is why DoH resolution runs measurably slower than UDP to the same
  /// provider (§5). Zero for a co-located front-end.
  simnet::TimeUs frontend_delay = 0;
  tlssim::ServerConfig tls;
  /// Connection cap (0 = unlimited): accepting past the cap evicts the
  /// oldest-idle live session (RST) first — the standard defence against
  /// DoH's per-client connection-state cost.
  std::size_t max_sessions = 0;
  /// Hardening: request bodies beyond this answer 413 without resolving.
  std::size_t max_body_bytes = 4096;
};

/// A parsed-out DoH exchange, transport-agnostic (shared by h1 and h2).
struct DohExchange {
  std::string method;
  std::string path;          ///< path only, query string split off
  std::string query_string;  ///< after '?', possibly empty
  std::string accept;
  std::string content_type;
  dns::Bytes body;
};

struct DohResult {
  int status = 200;
  std::string content_type;
  dns::Bytes body;
};

class DohServer {
 public:
  DohServer(simnet::Host& host, QueryHandler& handler, DohServerConfig config,
            std::uint16_t port = 443);
  ~DohServer();

  DohServer(const DohServer&) = delete;
  DohServer& operator=(const DohServer&) = delete;

  simnet::Address address() const { return {host_.id(), port_}; }
  std::size_t session_count() const noexcept { return sessions_.size(); }
  /// High-water mark of concurrent sessions (the DoH server-state story).
  std::size_t peak_sessions() const noexcept { return peak_sessions_; }
  /// Sessions RST to make room under `max_sessions`.
  std::uint64_t evicted_sessions() const noexcept { return evicted_; }
  /// Requests rejected with 413 for oversized bodies.
  std::uint64_t oversized_bodies() const noexcept { return oversized_; }
  /// Modeled resident memory of the live sessions: per-connection TLS +
  /// HTTP state object sizes. UDP's equivalent is zero — this is the
  /// number the DoH-vs-UDP server-cost comparison reports.
  std::size_t memory_estimate_bytes() const noexcept;
  const DohServerConfig& config() const noexcept { return config_; }

  /// Simulate a crash + restart: RST every live connection and stop
  /// listening; the listener comes back after `downtime`. Clients see
  /// connection resets while down, then refused/reset connects until the
  /// restart completes.
  void restart(simnet::TimeUs downtime);
  bool listening() const noexcept { return listening_; }
  std::uint64_t restarts() const noexcept { return restarts_; }

 private:
  struct Session {
    tlssim::TlsConnection* tls = nullptr;  ///< owned by the HTTP layer below
    std::unique_ptr<tlssim::TlsConnection> tls_holder;  ///< until HTTP attach
    std::unique_ptr<http1::Http1ServerConnection> h1;
    std::unique_ptr<http2::Http2Connection> h2;
    std::weak_ptr<simnet::TcpConnection> tcp;  ///< for abortive restart
    bool dead = false;
    simnet::NodeId peer = 0;           ///< requesting client node
    simnet::TimeUs last_active = 0;    ///< accept or last request time
    std::weak_ptr<Session> self;
  };

  void listen();
  void on_accept(std::shared_ptr<simnet::TcpConnection> conn);
  void attach_http(const std::shared_ptr<Session>& session);
  /// Evict the oldest-idle session to get under `max_sessions`.
  void evict_oldest_idle();
  /// Validate + resolve one exchange, completing asynchronously.
  void process(const DohExchange& exchange, simnet::NodeId peer,
               std::function<void(DohResult)> done);
  void prune();

  simnet::Host& host_;
  QueryHandler& handler_;
  DohServerConfig config_;
  std::uint16_t port_;
  bool listening_ = false;
  std::uint64_t restarts_ = 0;
  std::size_t peak_sessions_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t oversized_ = 0;
  simnet::EventId relisten_;  ///< the end of the downtime; cancelled with us
  std::vector<std::shared_ptr<Session>> sessions_;
};

/// Split "GET /dns-query?dns=..." style targets; exposed for tests.
std::pair<std::string, std::string> split_target(const std::string& target);

/// Parse "name=example.com&type=A" (returns empty name on failure).
std::pair<std::string, std::string> parse_json_query(
    const std::string& query_string);

}  // namespace dohperf::resolver
