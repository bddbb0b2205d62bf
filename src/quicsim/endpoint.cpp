#include "quicsim/endpoint.hpp"

namespace dohperf::quicsim {

namespace {

/// Deterministic connection id from the client's address (unique per
/// socket, stable per run).
std::uint64_t make_connection_id(const simnet::Address& local) {
  return (static_cast<std::uint64_t>(local.node) << 32) | local.port;
}

}  // namespace

QuicClientEndpoint::QuicClientEndpoint(simnet::Host& host,
                                       simnet::Address server,
                                       tlssim::ClientConfig tls,
                                       QuicConnectionConfig config)
    : host_(host), socket_(&host.udp_open()) {
  auto sender = [this, server](Bytes payload) {
    socket_->send_to(server, std::move(payload));
  };
  connection_ = std::make_unique<QuicConnection>(
      host.loop(), std::move(sender), make_connection_id(socket_->local()),
      std::move(tls), config);
  socket_->set_receiver(
      [this](const Bytes& payload, simnet::Address /*from*/) {
        connection_->handle_datagram(payload);
      });
}

QuicClientEndpoint::~QuicClientEndpoint() { host_.udp_close(*socket_); }

QuicServer::QuicServer(simnet::Host& host, std::uint16_t port,
                       const tlssim::ServerConfig* tls,
                       AcceptHandler on_accept, QuicConnectionConfig config)
    : host_(host), socket_(&host.udp_open(port)), tls_(tls),
      on_accept_(std::move(on_accept)), config_(config) {
  socket_->set_receiver([this](const Bytes& payload, simnet::Address from) {
    on_datagram(payload, from);
  });
}

QuicServer::~QuicServer() { host_.udp_close(*socket_); }

void QuicServer::on_datagram(const Bytes& payload, simnet::Address from) {
  // Decoded once: the connection takes the packet, not the datagram.
  const auto decoded = Packet::try_decode(payload);
  if (!decoded) return;
  const Packet& packet = *decoded;
  auto it = connections_.find(packet.connection_id);
  if (it == connections_.end()) {
    // New connection: only a long-header (Initial) packet may open one.
    if (!packet.long_header) return;
    auto sender = [this, from](Bytes data) {
      socket_->send_to(from, std::move(data));
    };
    auto conn = std::make_unique<QuicConnection>(
        host_.loop(), std::move(sender), packet.connection_id, tls_,
        config_);
    it = connections_.emplace(packet.connection_id, std::move(conn)).first;
    if (config_.allow_migration) {
      peer_addrs_.insert_or_assign(packet.connection_id, from);
    }
    if (on_accept_) on_accept_(*it->second);
  } else if (config_.allow_migration) {
    // Connection migration (RFC 9000 §9): a known cid from a new address.
    // Switch the return path before processing, so the reply to whatever
    // this datagram carries — and every PTO retransmit in flight — already
    // travels the new path, then validate it with a PATH_CHALLENGE.
    const auto addr_it = peer_addrs_.find(packet.connection_id);
    if (addr_it != peer_addrs_.end() && !(addr_it->second == from)) {
      addr_it->second = from;
      it->second->set_sender([this, from](Bytes data) {
        socket_->send_to(from, std::move(data));
      });
      it->second->probe_path();
    }
  }
  it->second->handle_packet(packet);

  // Opportunistic cleanup of closed connections (not the one just touched).
  std::erase_if(connections_, [&](const auto& entry) {
    if (!entry.second->closed() || entry.first == packet.connection_id) {
      return false;
    }
    peer_addrs_.erase(entry.first);
    return true;
  });
}

}  // namespace dohperf::quicsim
