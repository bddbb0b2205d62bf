// The common resolver-client interface: every secure-DNS transport in this
// library (UDP, DoT, DoH/h1, DoH/h2) resolves names through the same API,
// which is what lets the experiments and the browser model swap transports.
#pragma once

#include <cstdint>
#include <functional>

#include "core/cost.hpp"
#include "dns/message.hpp"
#include "simnet/time.hpp"

namespace dohperf::core {

struct ResolutionResult {
  bool success = false;
  dns::Message response;
  simnet::TimeUs sent_at = 0;       ///< when resolve() was called
  simnet::TimeUs completed_at = 0;  ///< when the reply was fully parsed
  CostReport cost;                  ///< finalized lazily; see each client

  /// "Resolution time is the time it takes the application to receive and
  /// fully parse a reply" (§3).
  simnet::TimeUs resolution_time() const noexcept {
    return completed_at - sent_at;
  }
};

using ResolveCallback = std::function<void(const ResolutionResult&)>;

class ResolverClient {
 public:
  virtual ~ResolverClient() = default;

  /// Resolve asynchronously; the callback fires when the reply has been
  /// received and parsed (or the query failed). Returns a query id usable
  /// with result().
  virtual std::uint64_t resolve(const dns::Name& name, dns::RType type,
                                ResolveCallback callback) = 0;

  /// The recorded result for a query id. Costs for connection-oriented
  /// transports are finalized once the event loop has drained (teardown
  /// packets included).
  virtual const ResolutionResult& result(std::uint64_t id) const = 0;

  virtual std::size_t completed() const = 0;
};

}  // namespace dohperf::core
