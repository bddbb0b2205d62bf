#include "simnet/packet.hpp"

#include <sstream>

namespace dohperf::simnet {

std::string Address::to_string() const {
  std::ostringstream os;
  os << "n" << node << ":" << port;
  return os.str();
}

std::string TcpSegment::flags_string() const {
  // Built in a char array: appending to a std::string trips a GCC 12
  // -Wrestrict false positive inside std::string.
  char flags[4];
  std::size_t n = 0;
  if (syn) flags[n++] = 'S';
  if (fin) flags[n++] = 'F';
  if (rst) flags[n++] = 'R';
  if (ack_flag) flags[n++] = 'A';
  return n == 0 ? std::string(".") : std::string(flags, n);
}

std::size_t Packet::wire_size() const {
  return std::visit([](const auto& b) { return b.wire_size(); }, body);
}

std::size_t Packet::header_size() const {
  if (const auto* seg = std::get_if<TcpSegment>(&body)) {
    return seg->header_size();
  }
  return kIpHeaderBytes + kUdpHeaderBytes;
}

void CountingTap::on_packet(TimeUs /*when*/, const Packet& packet,
                            bool dropped) {
  if (filter_) {
    const bool match = (packet.src_node == a_ && packet.dst_node == b_) ||
                       (packet.src_node == b_ && packet.dst_node == a_);
    if (!match) return;
  }
  if (dropped) {
    ++dropped_;
    return;
  }
  ++packets_;
  bytes_ += packet.wire_size();
  header_bytes_ += packet.header_size();
}

void CountingTap::reset() noexcept {
  packets_ = 0;
  bytes_ = 0;
  header_bytes_ = 0;
  dropped_ = 0;
}

}  // namespace dohperf::simnet
