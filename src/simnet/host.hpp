// A host: one node of the network with a port space for UDP sockets and
// TCP connections/listeners, plus the demultiplexing glue between them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "simnet/netchange.hpp"
#include "simnet/network.hpp"
#include "simnet/tcp.hpp"
#include "simnet/udp.hpp"

namespace dohperf::simnet {

class Host {
 public:
  Host(Network& net, std::string name);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  NodeId id() const noexcept { return id_; }
  Network& network() noexcept { return net_; }
  EventLoop& loop() noexcept { return net_.loop(); }
  const std::string& name() const;

  // --- UDP -------------------------------------------------------------------
  /// Open a UDP socket; port 0 picks an ephemeral port. Throws if the port
  /// is already bound.
  UdpSocket& udp_open(std::uint16_t port = 0);
  void udp_close(UdpSocket& socket);

  // --- TCP -------------------------------------------------------------------
  /// Start listening; incoming connections are delivered via `on_accept`
  /// once their handshake completes.
  TcpListener& tcp_listen(std::uint16_t port, TcpListener::AcceptHandler on_accept,
                          TcpConfig config = {});
  void tcp_stop_listening(std::uint16_t port);

  /// Open an active connection; callbacks may be set on the returned
  /// connection before any event fires (the SYN leaves on the next loop
  /// event).
  std::shared_ptr<TcpConnection> tcp_connect(const Address& remote,
                                             TcpConfig config = {});

  /// Abort (RST) every TCP connection whose local port is `port`,
  /// including half-open ones still completing their handshake. Models a
  /// server process crash, where the kernel resets all of its sockets.
  void tcp_reset_port(std::uint16_t port);

  /// Number of live TCP connections (for leak-checking in tests).
  std::size_t tcp_connection_count() const noexcept { return tcp_conns_.size(); }

  // --- Network changes (mobility) --------------------------------------------
  /// NAT re-addressing: every UDP socket is silently re-ported (the socket
  /// object survives; in-flight replies to the old port are dropped) and
  /// every established TCP 5-tuple dies — black-holed when `rst_old_flows`
  /// is false (silent NAT: packets vanish both ways), reset when true
  /// (RST-ing middlebox: each connection sees an immediate RST). The OS is
  /// not notified — rebinds are invisible until traffic stalls.
  void rebind(bool rst_old_flows = false);

  /// Hard interface flap. While down, nothing leaves or enters the host.
  /// Coming back up re-addresses (silent rebind) and notifies listeners
  /// with kFlap — the one churn event the OS *does* surface.
  void interface_down();
  void interface_up();

  /// OS-visible change notifications (kProfileSwap, kFlap). Silent NAT
  /// rebinds are deliberately NOT delivered — clients must detect those by
  /// stall + probe, like real ones do.
  using NetworkChangeListener = std::function<void(NetworkChangeKind)>;
  std::uint64_t add_network_change_listener(NetworkChangeListener listener);
  void remove_network_change_listener(std::uint64_t id);
  void notify_network_change(NetworkChangeKind kind);

 private:
  friend class TcpConnection;
  friend class UdpSocket;

  /// The part of a connection's 5-tuple that varies within this host,
  /// packed as (local_port << 48) | (remote_node << 16) | remote_port,
  /// which orders exactly as the (local_port, remote_node, remote_port)
  /// tuple does.
  static std::uint64_t tcp_key(std::uint16_t local_port, NodeId remote_node,
                               std::uint16_t remote_port) noexcept {
    return (std::uint64_t{local_port} << 48) |
           (std::uint64_t{remote_node} << 16) | remote_port;
  }

  struct TcpEntry {
    std::uint64_t key;
    std::shared_ptr<TcpConnection> conn;
  };

  /// Marks a call into connection code (a segment, a timer, an abort).
  /// A connection that unregisters during such a call is parked, not
  /// freed; the outermost scope's end releases everything parked, after
  /// every call that could still be using a parked connection returned.
  class CallScope {
   public:
    explicit CallScope(Host& host) noexcept : host_(host) { ++host_.depth_; }
    ~CallScope() {
      if (--host_.depth_ == 0 && !host_.parked_.empty()) host_.release_parked();
    }
    CallScope(const CallScope&) = delete;
    CallScope& operator=(const CallScope&) = delete;

   private:
    Host& host_;
  };

  void dispatch(const Packet& packet);
  void dispatch_tcp(const TcpSegment& seg, NodeId from);
  void send_rst(const TcpSegment& offending, NodeId to);
  std::uint16_t allocate_ephemeral();
  /// First entry whose key is not below `key`.
  std::vector<TcpEntry>::iterator tcp_lower_bound(std::uint64_t key);
  void tcp_register(std::uint64_t key, std::shared_ptr<TcpConnection> conn);
  void tcp_unregister(std::uint64_t key);
  void release_parked();

  /// The single egress point for this host's sockets: drops everything
  /// while the interface is down. Everything UdpSocket/TcpConnection emit
  /// funnels here (a connection drops its own segments while black-holed).
  void send_gated(Packet packet);

  Network& net_;
  NodeId id_;
  std::map<std::uint16_t, std::unique_ptr<UdpSocket>> udp_ports_;
  std::map<std::uint16_t, std::unique_ptr<TcpListener>> tcp_listeners_;
  /// Registered connections, sorted by key.
  std::vector<TcpEntry> tcp_conns_;
  /// Connections unregistered during a call still running (see CallScope).
  std::vector<std::shared_ptr<TcpConnection>> parked_;
  /// Prefix of parked_ that release_parked has taken on.
  std::size_t released_ = 0;
  int depth_ = 0;
  std::uint16_t next_ephemeral_ = 49152;
  bool if_up_ = true;
  std::vector<std::pair<std::uint64_t, NetworkChangeListener>> listeners_;
  std::uint64_t next_listener_id_ = 1;
};

}  // namespace dohperf::simnet
