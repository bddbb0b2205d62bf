// The network fabric: nodes joined by point-to-point links with one-way
// latency, finite bandwidth (with FIFO queueing) and loss — static
// Bernoulli or bursty Gilbert–Elliott — plus scheduled impairments
// (outages, latency spikes, throttling) via an attached FaultSchedule.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simnet/event_loop.hpp"
#include "simnet/fault.hpp"
#include "simnet/packet.hpp"
#include "stats/rng.hpp"

namespace dohperf::simnet {

struct LinkConfig {
  TimeUs latency = ms(1);        ///< one-way propagation delay
  double bandwidth_bps = 0.0;    ///< bits per second; 0 = infinite
  double loss_rate = 0.0;        ///< per-packet Bernoulli drop probability
  /// Bursty loss; when enabled it replaces `loss_rate`.
  GilbertElliott gilbert_elliott;
};

/// Receives packets addressed to a node. Hosts register themselves here.
using PacketHandler = std::function<void(const Packet&)>;

class Network {
 public:
  Network(EventLoop& loop, std::uint64_t seed = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventLoop& loop() noexcept { return loop_; }

  /// Create a node; the returned id indexes all subsequent calls.
  NodeId add_node(std::string name);

  const std::string& node_name(NodeId id) const;
  std::size_t node_count() const noexcept { return node_names_.size(); }

  /// Create a bidirectional link between `a` and `b` (two independent
  /// unidirectional channels with the same configuration).
  void connect(NodeId a, NodeId b, const LinkConfig& config);

  /// Replace the config of an existing link (both directions).
  void reconfigure(NodeId a, NodeId b, const LinkConfig& config);

  /// Register the packet dispatcher for a node (done by Host).
  void set_handler(NodeId node, PacketHandler handler);

  /// Transmit a packet; throws std::logic_error if no link exists between
  /// the packet's endpoints.
  void send(Packet packet);

  /// Attach a fault schedule to the link between `a` and `b` (shared by
  /// both directions). Replaces any previously injected schedule; an empty
  /// schedule clears it. Throws std::logic_error if no link exists.
  void inject_faults(NodeId a, NodeId b, FaultSchedule schedule);

  /// Attach a tap observing every packet on every link. Not owned.
  void add_tap(PacketTap* tap);
  void remove_tap(PacketTap* tap);

  std::uint64_t packets_sent() const noexcept { return packets_sent_; }
  std::uint64_t packets_dropped() const noexcept { return packets_dropped_; }
  /// Subset of packets_dropped() caused by scheduled outage windows.
  std::uint64_t fault_drops() const noexcept { return fault_drops_; }

 private:
  struct Channel {
    LinkConfig config;
    TimeUs busy_until = 0;  ///< FIFO serialization point
    bool ge_bad = false;    ///< Gilbert–Elliott state, advanced per packet
    std::shared_ptr<const FaultSchedule> faults;  ///< may be null
  };

  /// A link as one endpoint sees it: the node at the other end and the
  /// index of the channel towards it.
  struct Link {
    NodeId peer;
    std::uint32_t channel;
  };

  Channel* find_channel(NodeId from, NodeId to);

  EventLoop& loop_;
  stats::SplitMix64 rng_;
  std::vector<std::string> node_names_;
  std::vector<PacketHandler> handlers_;
  /// Both directions of the k-th link: a -> b at 2k, b -> a at 2k + 1.
  std::vector<Channel> channels_;
  /// Per node, its links in connect() order.
  std::vector<std::vector<Link>> links_;
  std::vector<PacketTap*> taps_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t fault_drops_ = 0;
};

}  // namespace dohperf::simnet
