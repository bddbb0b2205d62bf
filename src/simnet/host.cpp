#include "simnet/host.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dohperf::simnet {

Host::Host(Network& net, std::string name) : net_(net) {
  id_ = net_.add_node(std::move(name));
  net_.set_handler(id_, [this](const Packet& p) { dispatch(p); });
}

Host::~Host() {
  net_.set_handler(id_, nullptr);
  // Disarmed here so a connection a caller keeps past its host never
  // touches this host or the event loop again.
  for (const TcpEntry& entry : tcp_conns_) entry.conn->disarm_timers();
}

const std::string& Host::name() const { return net_.node_name(id_); }

UdpSocket& Host::udp_open(std::uint16_t port) {
  if (port == 0) port = allocate_ephemeral();
  if (udp_ports_.count(port) != 0) {
    throw std::logic_error("UDP port already bound: " + std::to_string(port));
  }
  auto socket = std::make_unique<UdpSocket>(*this, port);
  auto& ref = *socket;
  udp_ports_.emplace(port, std::move(socket));
  return ref;
}

void Host::udp_close(UdpSocket& socket) {
  udp_ports_.erase(socket.local().port);
}

TcpListener& Host::tcp_listen(std::uint16_t port,
                              TcpListener::AcceptHandler on_accept,
                              TcpConfig config) {
  if (tcp_listeners_.count(port) != 0) {
    throw std::logic_error("TCP port already listening: " +
                           std::to_string(port));
  }
  auto listener =
      std::make_unique<TcpListener>(*this, port, config, std::move(on_accept));
  auto& ref = *listener;
  tcp_listeners_.emplace(port, std::move(listener));
  return ref;
}

void Host::tcp_stop_listening(std::uint16_t port) {
  tcp_listeners_.erase(port);
}

std::shared_ptr<TcpConnection> Host::tcp_connect(const Address& remote,
                                                 TcpConfig config) {
  const std::uint16_t local_port = allocate_ephemeral();
  auto conn = std::make_shared<TcpConnection>(*this, local_port, remote,
                                              config, /*is_server=*/false);
  tcp_register(tcp_key(local_port, remote.node, remote.port), conn);
  conn->start_connect();
  return conn;
}

std::uint16_t Host::allocate_ephemeral() {
  // One shared counter for both port spaces; wraps within the dynamic range.
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ >= 65535 ? 49152 : next_ephemeral_ + 1;
    if (udp_ports_.count(candidate) != 0) continue;
    if (tcp_listeners_.count(candidate) != 0) continue;
    // Connections on a port sort together, from key (port << 48) up.
    const auto it = tcp_lower_bound(tcp_key(candidate, 0, 0));
    if (it == tcp_conns_.end() || (it->key >> 48) != candidate) {
      return candidate;
    }
  }
  throw std::runtime_error("ephemeral port space exhausted");
}

void Host::rebind(bool rst_old_flows) {
  // Re-port every UDP socket in place: pointers held by clients stay valid
  // (the heap objects move maps, not memory), but the source port changes,
  // so replies in flight toward the old port find no socket and vanish.
  std::vector<std::unique_ptr<UdpSocket>> sockets;
  sockets.reserve(udp_ports_.size());
  for (auto& [port, socket] : udp_ports_) sockets.push_back(std::move(socket));
  udp_ports_.clear();
  for (auto& socket : sockets) {
    const std::uint16_t fresh = allocate_ephemeral();
    socket->port_ = fresh;
    udp_ports_.emplace(fresh, std::move(socket));
  }
  if (rst_old_flows) {
    // A RST-ing middlebox: each connection observes an immediate reset, in
    // key order. Unregistering happens inside on_segment, so snapshot
    // first; the scope keeps every victim alive until the loop is done.
    const CallScope scope(*this);
    std::vector<TcpConnection*> victims;
    victims.reserve(tcp_conns_.size());
    for (const TcpEntry& entry : tcp_conns_) victims.push_back(entry.conn.get());
    for (TcpConnection* conn : victims) {
      TcpSegment rst;
      rst.rst = true;
      rst.ack_flag = true;
      conn->on_segment(rst);
    }
  } else {
    // Silent NAT: the mapping is simply gone. Gate the flows both ways;
    // the client learns of it only through stalls and RTOs.
    for (const TcpEntry& entry : tcp_conns_) entry.conn->blackholed_ = true;
  }
}

void Host::interface_down() { if_up_ = false; }

void Host::interface_up() {
  if (if_up_) return;
  if_up_ = true;
  rebind(/*rst_old_flows=*/false);  // back with a fresh address
  notify_network_change(NetworkChangeKind::kFlap);
}

std::uint64_t Host::add_network_change_listener(
    NetworkChangeListener listener) {
  const std::uint64_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Host::remove_network_change_listener(std::uint64_t id) {
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == id) {
      listeners_.erase(it);
      return;
    }
  }
}

void Host::notify_network_change(NetworkChangeKind kind) {
  // Snapshot: a listener may (un)register listeners from its callback.
  std::vector<std::uint64_t> ids;
  ids.reserve(listeners_.size());
  for (const auto& [id, fn] : listeners_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    for (const auto& [lid, fn] : listeners_) {
      if (lid == id) {
        fn(kind);
        break;
      }
    }
  }
}

void Host::send_gated(Packet packet) {
  if (!if_up_) return;  // interface down: frames die at the NIC
  net_.send(std::move(packet));
}

void Host::dispatch(const Packet& packet) {
  if (!if_up_) return;  // interface down: nothing is delivered
  if (const auto* dgram = std::get_if<UdpDatagram>(&packet.body)) {
    const auto it = udp_ports_.find(dgram->dst_port);
    if (it != udp_ports_.end()) {
      it->second->deliver(*dgram, packet.src_node);
    }
    return;
  }
  dispatch_tcp(std::get<TcpSegment>(packet.body), packet.src_node);
}

void Host::dispatch_tcp(const TcpSegment& seg, NodeId from) {
  const std::uint64_t key = tcp_key(seg.dst_port, from, seg.src_port);
  const auto it = tcp_lower_bound(key);
  if (it != tcp_conns_.end() && it->key == key) {
    TcpConnection& conn = *it->conn;
    // Black-holed flows swallow ingress too — crucially before the RST
    // fall-through below, so a dead mapping never answers anything.
    if (conn.blackholed_) return;
    const CallScope scope(*this);  // the connection may unregister mid-call
    conn.on_segment(seg);
    return;
  }
  // New connection: a SYN to a listening port.
  if (seg.syn && !seg.ack_flag) {
    const auto lit = tcp_listeners_.find(seg.dst_port);
    if (lit != tcp_listeners_.end()) {
      auto conn = std::make_shared<TcpConnection>(
          *this, seg.dst_port, Address{from, seg.src_port},
          lit->second->config(), /*is_server=*/true);
      // Deliver the connection to the application once established.
      auto& listener = *lit->second;
      conn->set_callbacks({});  // application sets real callbacks on accept
      conn->accept_handler_ = listener.on_accept_;
      TcpConnection& raw = *conn;
      tcp_register(key, std::move(conn));
      raw.handle_syn(seg);
      return;
    }
  }
  if (!seg.rst) send_rst(seg, from);
}

void Host::send_rst(const TcpSegment& offending, NodeId to) {
  TcpSegment rst;
  rst.src_port = offending.dst_port;
  rst.dst_port = offending.src_port;
  rst.rst = true;
  rst.ack_flag = true;
  rst.seq = offending.ack;
  rst.ack = offending.seq + static_cast<std::uint32_t>(offending.payload.size()) +
            (offending.syn ? 1 : 0) + (offending.fin ? 1 : 0);
  Packet packet;
  packet.src_node = id_;
  packet.dst_node = to;
  packet.body = std::move(rst);
  send_gated(std::move(packet));
}

void Host::tcp_reset_port(std::uint16_t port) {
  // abort() unregisters the connection, so collect victims first (in key
  // order); the scope keeps them alive until the loop is done.
  const CallScope scope(*this);
  std::vector<TcpConnection*> victims;
  for (auto it = tcp_lower_bound(tcp_key(port, 0, 0));
       it != tcp_conns_.end() && (it->key >> 48) == port; ++it) {
    victims.push_back(it->conn.get());
  }
  for (TcpConnection* conn : victims) conn->abort();
}

std::vector<Host::TcpEntry>::iterator Host::tcp_lower_bound(
    std::uint64_t key) {
  return std::lower_bound(
      tcp_conns_.begin(), tcp_conns_.end(), key,
      [](const TcpEntry& entry, std::uint64_t k) { return entry.key < k; });
}

void Host::tcp_register(std::uint64_t key,
                        std::shared_ptr<TcpConnection> conn) {
  const auto it = tcp_lower_bound(key);
  if (it != tcp_conns_.end() && it->key == key) return;  // already taken
  tcp_conns_.insert(it, TcpEntry{key, std::move(conn)});
}

void Host::tcp_unregister(std::uint64_t key) {
  const auto it = tcp_lower_bound(key);
  if (it == tcp_conns_.end() || it->key != key) return;
  // The connection is running one of its own calls: park it until that
  // call has returned (see CallScope).
  parked_.push_back(std::move(it->conn));
  tcp_conns_.erase(it);
}

void Host::release_parked() {
  // Freeing a connection may free application objects that abort others,
  // which park again, behind everything parked so far. Each call releases
  // in parking order what was parked when it began, then what was parked
  // meanwhile and not yet released by a nested call (an abort's own scope
  // ending), until nothing is left. The outermost call empties the vector
  // and keeps its capacity for the next connections to close.
  const bool outermost = released_ == 0;
  while (released_ < parked_.size()) {
    const std::size_t end = parked_.size();
    const std::size_t begin = std::exchange(released_, end);
    for (std::size_t i = begin; i < end; ++i) {
      // Out of the vector first: freeing it may park more, which may move
      // the vector's elements.
      const std::shared_ptr<TcpConnection> done = std::move(parked_[i]);
    }
  }
  if (outermost) {
    parked_.clear();
    released_ = 0;
  }
}

}  // namespace dohperf::simnet
