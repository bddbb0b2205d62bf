#include "obs/bridge.hpp"

namespace dohperf::obs {

void NetMetricsBridge::on_packet(simnet::TimeUs /*when*/,
                                 const simnet::Packet& packet, bool dropped) {
  if (registry_ == nullptr) return;
  const std::uint64_t wire = packet.wire_size();
  if (dropped) {
    dropped_.add(registry_);
    dropped_bytes_.add(registry_, wire);
    return;
  }
  packets_.add(registry_);
  bytes_.add(registry_, wire);
  header_bytes_.add(registry_, packet.header_size());
  (packet.is_tcp() ? tcp_bytes_ : udp_bytes_).add(registry_, wire);
}

void publish_arena_stats(Registry& registry,
                         const simnet::ShardMemoryStats& stats) {
  registry.set_gauge("mem.arena_bytes",
                     static_cast<std::int64_t>(stats.arena_bytes));
  registry.set_gauge("mem.arena_chunks",
                     static_cast<std::int64_t>(stats.arena_chunks));
  registry.set_gauge("mem.arena_allocs",
                     static_cast<std::int64_t>(stats.arena_allocs));
  registry.set_gauge("mem.freelist_hits",
                     static_cast<std::int64_t>(stats.freelist_hits));
  registry.set_gauge("mem.huge_allocs",
                     static_cast<std::int64_t>(stats.huge_allocs));
  registry.set_gauge("mem.global_allocs",
                     static_cast<std::int64_t>(stats.global_allocs));
}

}  // namespace dohperf::obs
