#include "simnet/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace dohperf::simnet {

Network::Network(EventLoop& loop, std::uint64_t seed)
    : loop_(loop), rng_(seed) {}

NodeId Network::add_node(std::string name) {
  node_names_.push_back(std::move(name));
  handlers_.emplace_back();
  links_.emplace_back();
  return static_cast<NodeId>(node_names_.size() - 1);
}

const std::string& Network::node_name(NodeId id) const {
  return node_names_.at(id);
}

void Network::connect(NodeId a, NodeId b, const LinkConfig& config) {
  if (a >= node_names_.size() || b >= node_names_.size()) {
    throw std::logic_error("connect: unknown node");
  }
  if (a == b) throw std::logic_error("connect: self link");
  Channel fresh;
  fresh.config = config;
  if (Channel* ab = find_channel(a, b)) {
    // Connecting a linked pair again starts both directions afresh.
    *ab = fresh;
    *find_channel(b, a) = fresh;
    return;
  }
  const auto k = static_cast<std::uint32_t>(channels_.size());
  channels_.push_back(fresh);
  channels_.push_back(fresh);
  links_[a].push_back({b, k});
  links_[b].push_back({a, k + 1});
}

void Network::reconfigure(NodeId a, NodeId b, const LinkConfig& config) {
  auto* ab = find_channel(a, b);
  auto* ba = find_channel(b, a);
  if (ab == nullptr || ba == nullptr) {
    throw std::logic_error("reconfigure: no such link");
  }
  ab->config = config;
  ba->config = config;
}

void Network::inject_faults(NodeId a, NodeId b, FaultSchedule schedule) {
  auto* ab = find_channel(a, b);
  auto* ba = find_channel(b, a);
  if (ab == nullptr || ba == nullptr) {
    throw std::logic_error("inject_faults: no such link");
  }
  auto shared = schedule.empty()
                    ? nullptr
                    : std::make_shared<const FaultSchedule>(std::move(schedule));
  ab->faults = shared;
  ba->faults = shared;
}

void Network::set_handler(NodeId node, PacketHandler handler) {
  handlers_.at(node) = std::move(handler);
}

Network::Channel* Network::find_channel(NodeId from, NodeId to) {
  if (from >= links_.size() || to >= links_.size()) return nullptr;
  // Search from the endpoint with fewer links, so a hub with thousands of
  // spokes costs each packet one step from the spoke's side. The two
  // directions of a link sit at 2k and 2k + 1: flipping the low bit turns
  // a channel into its reverse.
  const bool from_side = links_[from].size() <= links_[to].size();
  const NodeId near = from_side ? from : to;
  const NodeId far = from_side ? to : from;
  for (const Link& link : links_[near]) {
    if (link.peer == far) {
      return &channels_[from_side ? link.channel : link.channel ^ 1u];
    }
  }
  return nullptr;
}

void Network::send(Packet packet) {
  Channel* ch = find_channel(packet.src_node, packet.dst_node);
  if (ch == nullptr) {
    throw std::logic_error("send: no link " +
                           node_name(packet.src_node) + " -> " +
                           node_name(packet.dst_node));
  }
  ++packets_sent_;

  // Scheduled outage: the link is dead, everything offered to it drops.
  bool dropped = ch->faults && ch->faults->in_outage(loop_.now());
  if (dropped) ++fault_drops_;

  // Loss model: Gilbert–Elliott bursts when enabled, else static Bernoulli.
  if (!dropped) {
    double loss = ch->config.loss_rate;
    const GilbertElliott& ge = ch->config.gilbert_elliott;
    if (ge.enabled) {
      const double flip = ch->ge_bad ? ge.p_bad_to_good : ge.p_good_to_bad;
      if (rng_.next_double() < flip) ch->ge_bad = !ch->ge_bad;
      loss = ch->ge_bad ? ge.loss_bad : ge.loss_good;
    }
    dropped = loss > 0.0 && rng_.next_double() < loss;
  }

  for (auto* tap : taps_) tap->on_packet(loop_.now(), packet, dropped);
  if (dropped) {
    ++packets_dropped_;
    return;
  }

  // FIFO serialization at the sender, then propagation. An active throttle
  // caps the configured bandwidth; a latency spike stretches propagation.
  double bandwidth = ch->config.bandwidth_bps;
  TimeUs latency = ch->config.latency;
  if (ch->faults) {
    const double cap = ch->faults->bandwidth_cap(loop_.now());
    if (cap > 0.0 && (bandwidth == 0.0 || cap < bandwidth)) bandwidth = cap;
    latency += ch->faults->extra_latency(loop_.now());
  }
  TimeUs tx_time = 0;
  if (bandwidth > 0.0) {
    const double bits = static_cast<double>(packet.wire_size()) * 8.0;
    tx_time = from_sec(bits / bandwidth);
  }
  const TimeUs departure = std::max(loop_.now(), ch->busy_until) + tx_time;
  ch->busy_until = departure;
  const TimeUs arrival = departure + latency;

  // The simulator's hottest event: one per packet on the wire. It must fit
  // SmallFn's inline storage, or every delivery costs a heap allocation.
  // A named type built in the call, not a local lambda moved into it: GCC
  // 12 reports the moved lambda's Packet variant as maybe-uninitialized.
  struct Deliver {
    Network* net;
    NodeId dst;
    Packet packet;
    void operator()() {
      auto& handler = net->handlers_.at(dst);
      if (handler) handler(packet);
      // Packets to nodes without a handler are silently discarded, like a
      // host with no listener (no ICMP in this simulator).
    }
  };
  static_assert(SmallFn::fits_inline<Deliver>(),
                "packet delivery closure must not spill to the heap");
  const NodeId dst = packet.dst_node;
  loop_.schedule_at(arrival, Deliver{this, dst, std::move(packet)});
}

void Network::add_tap(PacketTap* tap) { taps_.push_back(tap); }

void Network::remove_tap(PacketTap* tap) {
  taps_.erase(std::remove(taps_.begin(), taps_.end(), tap), taps_.end());
}

}  // namespace dohperf::simnet
