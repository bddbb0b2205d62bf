// UDP glue for QUIC: a client endpoint owning one socket/connection, and a
// server demultiplexing connections by connection id on a shared socket.
#pragma once

#include <map>
#include <memory>

#include "quicsim/connection.hpp"
#include "simnet/host.hpp"

namespace dohperf::quicsim {

/// Client side: one UDP socket, one connection.
class QuicClientEndpoint {
 public:
  QuicClientEndpoint(simnet::Host& host, simnet::Address server,
                     tlssim::ClientConfig tls,
                     QuicConnectionConfig config = {});
  ~QuicClientEndpoint();

  QuicClientEndpoint(const QuicClientEndpoint&) = delete;
  QuicClientEndpoint& operator=(const QuicClientEndpoint&) = delete;

  QuicConnection& connection() noexcept { return *connection_; }

 private:
  simnet::Host& host_;
  simnet::UdpSocket* socket_;
  std::unique_ptr<QuicConnection> connection_;
};

/// Server side: accepts any number of connections on one UDP port.
class QuicServer {
 public:
  using AcceptHandler = std::function<void(QuicConnection&)>;

  /// `tls` must outlive the server.
  QuicServer(simnet::Host& host, std::uint16_t port,
             const tlssim::ServerConfig* tls, AcceptHandler on_accept,
             QuicConnectionConfig config = {});
  ~QuicServer();

  QuicServer(const QuicServer&) = delete;
  QuicServer& operator=(const QuicServer&) = delete;

  std::size_t connection_count() const noexcept { return connections_.size(); }
  simnet::Address address() const { return socket_->local(); }

 private:
  void on_datagram(const Bytes& payload, simnet::Address from);

  simnet::Host& host_;
  simnet::UdpSocket* socket_;
  const tlssim::ServerConfig* tls_;
  AcceptHandler on_accept_;
  QuicConnectionConfig config_;
  std::map<std::uint64_t, std::unique_ptr<QuicConnection>> connections_;
  /// Last validated-or-initial peer address per connection id; only
  /// maintained when config_.allow_migration is set.
  std::map<std::uint64_t, simnet::Address> peer_addrs_;
};

}  // namespace dohperf::quicsim
