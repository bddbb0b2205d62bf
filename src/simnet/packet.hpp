// Packets on the simulated wire. Header sizes follow IPv4 + UDP/TCP so that
// the byte and packet accounting in Figures 3-5 matches what tcpdump would
// report on a real link.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dns/wire.hpp"  // Bytes
#include "simnet/buffer.hpp"
#include "simnet/time.hpp"

namespace dohperf::simnet {

using dns::Bytes;

/// Node identifier inside a Network.
using NodeId = std::uint32_t;

/// Transport endpoint: a (node, port) pair — the simulator's "IP:port".
struct Address {
  NodeId node = 0;
  std::uint16_t port = 0;

  bool operator==(const Address&) const = default;
  bool operator<(const Address& o) const noexcept {
    return node != o.node ? node < o.node : port < o.port;
  }
  std::string to_string() const;
};

constexpr std::size_t kIpHeaderBytes = 20;
constexpr std::size_t kUdpHeaderBytes = 8;
constexpr std::size_t kTcpHeaderBytes = 20;

struct UdpDatagram {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Bytes payload;

  std::size_t wire_size() const noexcept {
    return kIpHeaderBytes + kUdpHeaderBytes + payload.size();
  }
};

struct TcpSegment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;
  std::uint32_t window = 0;
  /// TCP option bytes (MSS/SACK/wscale on SYN, timestamps on data segments).
  std::uint8_t options_len = 0;
  /// Zero-copy view of the sender's stream data: the same shared buffer the
  /// application materialized, never a per-segment copy.
  BufferSlice payload;

  std::size_t header_size() const noexcept {
    return kIpHeaderBytes + kTcpHeaderBytes + options_len;
  }
  std::size_t wire_size() const noexcept {
    return header_size() + payload.size();
  }
  bool is_pure_ack() const noexcept {
    return payload.empty() && !syn && !fin && !rst && ack_flag;
  }
  std::string flags_string() const;
};

struct Packet {
  NodeId src_node = 0;
  NodeId dst_node = 0;
  std::variant<UdpDatagram, TcpSegment> body;

  std::size_t wire_size() const;
  /// IP + transport header bytes only.
  std::size_t header_size() const;
  bool is_tcp() const noexcept {
    return std::holds_alternative<TcpSegment>(body);
  }
};

/// Observer interface for packet-level accounting (the simulator's
/// "tcpdump"). Taps see every packet put on a link, including ones that are
/// subsequently dropped by the loss model.
class PacketTap {
 public:
  virtual ~PacketTap() = default;
  /// `dropped` is true if the loss model discarded the packet.
  virtual void on_packet(TimeUs when, const Packet& packet, bool dropped) = 0;
};

/// A tap that counts packets and bytes, optionally filtered to one node pair.
class CountingTap : public PacketTap {
 public:
  CountingTap() = default;
  /// Count only packets between `a` and `b` (either direction).
  CountingTap(NodeId a, NodeId b) : filter_(true), a_(a), b_(b) {}

  void on_packet(TimeUs when, const Packet& packet, bool dropped) override;

  std::uint64_t packets() const noexcept { return packets_; }
  std::uint64_t bytes() const noexcept { return bytes_; }
  std::uint64_t header_bytes() const noexcept { return header_bytes_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  void reset() noexcept;

 private:
  bool filter_ = false;
  NodeId a_ = 0;
  NodeId b_ = 0;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t header_bytes_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace dohperf::simnet
