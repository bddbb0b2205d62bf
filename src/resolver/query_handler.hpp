// The seam between transport front-ends and resolution back-ends: every
// server (UDP/TCP/DoT/DoH/DoQ) hands decoded queries to a QueryHandler and
// forwards whatever response comes back. resolver::Engine implements it
// directly; resolver::RecursiveTier wraps an Engine with a shared cache and
// overload control and implements the same interface, so front-ends are
// oblivious to whether they talk to a bare engine or the full tier.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "dns/message.hpp"

namespace dohperf::resolver {

/// Transport the query arrived over; the tier keys per-transport metrics
/// (and the DoH-vs-UDP server-cost comparison) off this tag.
enum class Transport : std::uint8_t { kUdp, kTcp, kDot, kDoh, kDoq, kCount };

inline constexpr std::array<const char*, 5> kTransportNames = {
    "udp", "tcp", "dot", "doh", "doq"};
static_assert(static_cast<std::size_t>(Transport::kCount) ==
                  kTransportNames.size(),
              "Enum values index kTransportNames");

inline const char* transport_name(Transport t) {
  const auto i = static_cast<std::size_t>(t);
  return i < kTransportNames.size() ? kTransportNames[i] : "unknown";
}

/// Per-query request context the front-end attaches: which simulated client
/// sent it (the peer node id) and over which transport. Overload control
/// uses `client` for fairness and retry-storm detection.
struct QueryContext {
  std::uint64_t client = 0;  ///< simnet::NodeId of the requesting peer
  Transport transport = Transport::kUdp;
};

class QueryHandler {
 public:
  using Continuation = std::function<void(dns::Message response)>;

  virtual ~QueryHandler() = default;

  /// Handle `query`; `done` fires later on the event loop with the
  /// response. Implementations may shed: the continuation then receives a
  /// REFUSED/SERVFAIL answer instead of a resolution.
  virtual void handle(const dns::Message& query, const QueryContext& context,
                      Continuation done) = 0;
};

}  // namespace dohperf::resolver
