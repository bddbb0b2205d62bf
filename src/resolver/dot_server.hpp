// DNS-over-TLS front-end (RFC 7858): TLS on port 853, DNS messages framed
// with a two-byte length prefix. With `plain_tcp` it is the DNS-over-TCP
// front-end (RFC 7766) instead: the same framing on bare TCP, usually port
// 53 — the classic truncation-fallback transport and the substrate of
// "connection-oriented DNS" (Zhu et al., the paper's reference [26]).
//
// The ordering policy models the finding in §3: out-of-order responses are
// permitted by the RFC but require per-request state; of the public DoT
// deployments the paper checked, only Cloudflare implemented them. The
// default (in-order) therefore serializes responses in arrival order —
// which is exactly what produces DoT's head-of-line blocking in Figure 2.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "resolver/query_handler.hpp"
#include "simnet/buffer.hpp"
#include "simnet/host.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::resolver {

struct DotServerConfig {
  tlssim::ServerConfig tls;
  /// DNS-over-TCP (RFC 7766): no TLS layer; queries reach the handler as
  /// Transport::kTcp instead of kDot.
  bool plain_tcp = false;
  /// false (default): responses serialized in query order, like most
  /// 2019-era servers. true: respond as soon as ready (Cloudflare-style).
  bool out_of_order = false;
  /// Hardening: a length prefix larger than this (or zero) is treated as a
  /// malformed peer and the connection is closed deterministically instead
  /// of buffering up to 64 KiB per frame. Queries never approach this.
  std::size_t max_message_bytes = 4096;
};

class DotServer {
 public:
  DotServer(simnet::Host& host, QueryHandler& handler, DotServerConfig config,
            std::uint16_t port = 853);
  ~DotServer();

  DotServer(const DotServer&) = delete;
  DotServer& operator=(const DotServer&) = delete;

  simnet::Address address() const { return {host_.id(), port_}; }
  std::size_t session_count() const noexcept { return sessions_.size(); }
  /// Connections dropped for unparseable or oversized frames.
  std::uint64_t malformed() const noexcept { return malformed_; }
  /// TLS handshakes completed, full or resumed (none with plain_tcp).
  std::uint64_t tls_handshakes() const noexcept { return tls_handshakes_; }

  /// Simulate a crash + restart: RST every live connection and stop
  /// listening; the listener comes back after `downtime`.
  void restart(simnet::TimeUs downtime);
  bool listening() const noexcept { return listening_; }
  std::uint64_t restarts() const noexcept { return restarts_; }

 private:
  struct Session {
    std::unique_ptr<simnet::ByteStream> stream;  ///< TLS, or bare TCP
    std::weak_ptr<simnet::TcpConnection> tcp;  ///< for abortive restart
    simnet::ByteQueue rx;
    std::uint64_t next_assigned = 0;
    std::uint64_t next_to_send = 0;
    std::map<std::uint64_t, dns::Bytes> ready;  ///< framed, in order
    bool dead = false;
    simnet::NodeId peer = 0;  ///< requesting client, for QueryContext
    std::weak_ptr<Session> self;  ///< for continuations that may outlive us
  };

  void listen();
  void on_accept(std::shared_ptr<simnet::TcpConnection> conn);
  void on_data(Session& session, const simnet::BufferSlice& data);
  /// Send the framed response to the `sequence`-th query.
  void answer(Session& session, std::uint64_t sequence, dns::Bytes frame);
  void prune();

  simnet::Host& host_;
  QueryHandler& handler_;
  DotServerConfig config_;
  std::uint16_t port_;
  std::uint64_t malformed_ = 0;
  std::uint64_t tls_handshakes_ = 0;
  bool listening_ = false;
  std::uint64_t restarts_ = 0;
  simnet::EventId relisten_;  ///< the end of the downtime; cancelled with us
  std::vector<std::shared_ptr<Session>> sessions_;
};

}  // namespace dohperf::resolver
