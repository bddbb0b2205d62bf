// Multi-resolver selector with per-resolver circuit breakers.
//
// Browsers shipping DoH configure several trusted resolvers and steer
// queries away from one that misbehaves rather than timing out on it
// repeatedly (Mozilla's TRR keeps a confirmation state machine; Chrome
// rotates within its list). This client reproduces that policy over any set
// of ResolverClients: each upstream carries a classic circuit breaker —
// closed while healthy, open for a cool-down after `failure_threshold`
// consecutive failures, half-open afterwards so a single probe query can
// close it again. Queries go to the first available resolver in preference
// order; a failure is retried on the next available one within the same
// resolve() call.
#pragma once

#include <vector>

#include "core/client.hpp"
#include "obs/metric.hpp"
#include "obs/span.hpp"
#include "simnet/event_loop.hpp"

namespace dohperf::core {

struct HealthConfig {
  /// Consecutive failures that trip a resolver's breaker.
  int failure_threshold = 3;
  /// How long a tripped breaker stays open before a probe is allowed.
  simnet::TimeUs open_duration = simnet::seconds(5);
  /// Treat SERVFAIL/REFUSED answers as failures for breaker accounting
  /// (the transport worked, the service did not).
  bool rcode_failures = true;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct ResolverHealth {
  BreakerState state = BreakerState::kClosed;
  int consecutive_failures = 0;
  simnet::TimeUs open_until = 0;
  std::uint64_t queries = 0;
  std::uint64_t failures = 0;
  std::uint64_t breaker_trips = 0;
};

class HealthTrackingClient final : public ResolverClient {
 public:
  /// Resolvers are tried in the given preference order; all must outlive
  /// this client.
  HealthTrackingClient(simnet::EventLoop& loop,
                       std::vector<ResolverClient*> resolvers,
                       HealthConfig config = {});

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override;
  std::size_t completed() const override { return completed_; }

  const ResolverHealth& health(std::size_t resolver) const {
    return health_.at(resolver);
  }
  std::uint64_t failovers() const noexcept { return failovers_; }
  /// Queries that failed on every available resolver.
  std::uint64_t exhausted() const noexcept { return exhausted_; }

 private:
  struct Pending {
    ResolveCallback callback;
    dns::Name name;
    dns::RType type = dns::RType::kA;
    std::vector<bool> tried;  ///< one flag per resolver
    bool done = false;
  };

  /// Preferred resolver currently willing to accept a query that has not
  /// yet tried it; -1 when none remain.
  int pick(const Pending& pending) const;
  void dispatch(std::uint64_t id, std::size_t resolver);
  void on_result(std::uint64_t id, std::size_t resolver,
                 const ResolutionResult& r);
  void record_success(std::size_t resolver);
  void record_failure(std::size_t resolver);
  /// Mirror a breaker's state into the `breaker.state.<i>` gauge
  /// (0 closed, 1 open, 2 half-open).
  void export_state(std::size_t resolver);

  simnet::EventLoop& loop_;
  std::vector<ResolverClient*> resolvers_;
  HealthConfig config_;
  std::vector<ResolverHealth> health_;
  std::uint64_t completed_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t exhausted_ = 0;
  struct Metrics {
    obs::CounterHandle failovers{"health.failovers"};
    obs::CounterHandle exhausted{"health.exhausted"};
    obs::CounterHandle probes{"breaker.probes"};
    obs::CounterHandle trips{"breaker.trips"};
    obs::CounterHandle closes{"breaker.closes"};
    std::vector<obs::GaugeHandle> breaker_state;  ///< breaker.state.<i>
  } metrics_;
  std::vector<ResolutionResult> results_;
  std::vector<Pending> pending_;
};

}  // namespace dohperf::core
