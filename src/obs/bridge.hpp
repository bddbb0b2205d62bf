// The simnet tap → metrics bridge: a PacketTap that folds every packet on
// the fabric into registry counters, giving any run wire-level totals
// (packets, bytes, drops by layer) next to its client-side accounting —
// the cross-check the paper performed between tcpdump captures and
// application logs.
//
// Counters written (see the metric-name contract in EXPERIMENTS.md):
//   net.packets        packets put on the wire (delivered)
//   net.bytes          wire bytes of delivered packets
//   net.header_bytes   IP+transport header share of delivered bytes
//   net.tcp_bytes      delivered bytes on TCP segments
//   net.udp_bytes      delivered bytes on UDP datagrams
//   net.dropped        packets discarded by the loss model
//   net.dropped_bytes  wire bytes of those discarded packets
#pragma once

#include "obs/metric.hpp"
#include "obs/registry.hpp"
#include "simnet/arena.hpp"
#include "simnet/packet.hpp"

namespace dohperf::obs {

/// Publish per-shard arena accounting (aggregated by the shard runner)
/// as the mem.* gauge family — see the metric-name contract in
/// EXPERIMENTS.md. In binaries without the allocator hooks every gauge is
/// legitimately zero.
void publish_arena_stats(Registry& registry,
                         const simnet::ShardMemoryStats& stats);

class NetMetricsBridge final : public simnet::PacketTap {
 public:
  /// `registry` must outlive the bridge; null disables (null-sink path).
  explicit NetMetricsBridge(Registry* registry) : registry_(registry) {}

  void on_packet(simnet::TimeUs when, const simnet::Packet& packet,
                 bool dropped) override;

 private:
  Registry* registry_;
  CounterHandle packets_{"net.packets"};
  CounterHandle bytes_{"net.bytes"};
  CounterHandle header_bytes_{"net.header_bytes"};
  CounterHandle tcp_bytes_{"net.tcp_bytes"};
  CounterHandle udp_bytes_{"net.udp_bytes"};
  CounterHandle dropped_{"net.dropped"};
  CounterHandle dropped_bytes_{"net.dropped_bytes"};
};

}  // namespace dohperf::obs
