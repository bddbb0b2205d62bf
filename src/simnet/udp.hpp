// UDP datagram sockets over the simulated network.
#pragma once

#include <cstdint>
#include <functional>

#include "simnet/network.hpp"
#include "simnet/packet.hpp"

namespace dohperf::simnet {

class Host;

struct UdpCounters {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t wire_bytes_sent = 0;      ///< incl. IP + UDP headers
  std::uint64_t wire_bytes_received = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t payload_bytes_received = 0;
};

/// An unconnected UDP socket bound to one port of its host.
/// Created and owned by Host; destroyed via Host::udp_close.
class UdpSocket {
 public:
  using Receiver = std::function<void(const Bytes& payload, Address from)>;

  UdpSocket(Host& host, std::uint16_t port);

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  Address local() const noexcept;

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Send a datagram. Payloads above 65507 bytes throw (UDP limit).
  void send_to(const Address& dst, Bytes payload);

  const UdpCounters& counters() const noexcept { return counters_; }

 private:
  friend class Host;
  void deliver(const UdpDatagram& dgram, NodeId from_node);

  Host& host_;
  std::uint16_t port_;
  Receiver receiver_;
  UdpCounters counters_;
};

}  // namespace dohperf::simnet
