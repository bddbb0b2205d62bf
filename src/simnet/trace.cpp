#include "simnet/trace.hpp"

#include <sstream>

#include "dns/json_value.hpp"

namespace dohperf::simnet {

void RecordingTap::on_packet(TimeUs when, const Packet& packet,
                             bool dropped) {
  if (filtered_ && packet.src_node != node_ && packet.dst_node != node_) {
    return;
  }
  // Built in place: a moved TraceEntry temporary trips GCC 12's
  // -Wmaybe-uninitialized on the Packet variant.
  entries_.emplace_back(when, packet, dropped);
}

std::uint64_t RecordingTap::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    if (!e.dropped) total += e.packet.wire_size();
  }
  return total;
}

std::uint64_t RecordingTap::dropped_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    if (e.dropped) total += e.packet.wire_size();
  }
  return total;
}

std::string RecordingTap::to_json(const Network& net) const {
  dns::JsonArray entries;
  entries.reserve(entries_.size());
  for (const auto& e : entries_) {
    dns::JsonObject o;
    o["ts_us"] = dns::JsonValue(static_cast<std::int64_t>(e.when));
    o["src"] = dns::JsonValue(net.node_name(e.packet.src_node));
    o["dst"] = dns::JsonValue(net.node_name(e.packet.dst_node));
    if (const auto* seg = std::get_if<TcpSegment>(&e.packet.body)) {
      o["proto"] = dns::JsonValue("tcp");
      o["src_port"] = dns::JsonValue(std::int64_t{seg->src_port});
      o["dst_port"] = dns::JsonValue(std::int64_t{seg->dst_port});
      o["flags"] = dns::JsonValue(seg->flags_string());
      o["len"] = dns::JsonValue(static_cast<std::int64_t>(seg->payload.size()));
    } else {
      const auto& dgram = std::get<UdpDatagram>(e.packet.body);
      o["proto"] = dns::JsonValue("udp");
      o["src_port"] = dns::JsonValue(std::int64_t{dgram.src_port});
      o["dst_port"] = dns::JsonValue(std::int64_t{dgram.dst_port});
      o["len"] =
          dns::JsonValue(static_cast<std::int64_t>(dgram.payload.size()));
    }
    o["wire"] = dns::JsonValue(static_cast<std::int64_t>(e.packet.wire_size()));
    o["dropped"] = dns::JsonValue(e.dropped);
    entries.push_back(dns::JsonValue(std::move(o)));
  }
  return dns::JsonValue(std::move(entries)).dump();
}

std::string RecordingTap::render(const Network& net) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  for (const auto& e : entries_) {
    os << to_ms(e.when) << "ms ";
    if (const auto* seg = std::get_if<TcpSegment>(&e.packet.body)) {
      os << net.node_name(e.packet.src_node) << ':' << seg->src_port << " > "
         << net.node_name(e.packet.dst_node) << ':' << seg->dst_port
         << " TCP " << seg->flags_string() << " seq=" << seg->seq
         << " ack=" << seg->ack << " len=" << seg->payload.size();
    } else {
      const auto& dgram = std::get<UdpDatagram>(e.packet.body);
      os << net.node_name(e.packet.src_node) << ':' << dgram.src_port
         << " > " << net.node_name(e.packet.dst_node) << ':'
         << dgram.dst_port << " UDP len=" << dgram.payload.size();
    }
    os << " (" << e.packet.wire_size() << "B)";
    if (e.dropped) os << " [DROPPED]";
    os << '\n';
  }
  return os.str();
}

}  // namespace dohperf::simnet
