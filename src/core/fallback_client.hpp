// TRR-style fallback resolution: try the secure (DoH) resolver first and
// fall back to classic UDP when it fails or exceeds a deadline — the policy
// Firefox shipped for its DoH rollout ("TRR first" mode), referenced by the
// paper's related-work discussion of Mozilla's experiment. It bounds the
// user-visible cost of a misbehaving DoH service at the fallback deadline.
#pragma once

#include <map>
#include <vector>

#include "core/client.hpp"
#include "obs/metric.hpp"
#include "obs/span.hpp"
#include "simnet/event_loop.hpp"

namespace dohperf::core {

struct FallbackConfig {
  /// How long to wait for the primary before also asking the fallback.
  simnet::TimeUs primary_deadline = simnet::ms(1500);
  /// Treat a transport-successful primary answer carrying SERVFAIL/REFUSED
  /// as a failure: an overloaded tier sheds with REFUSED, and surfacing
  /// that as the resolution would turn server load-shedding into client
  /// outage. Matches HealthTrackingClient's rcode_failures semantics.
  bool rcode_failures = true;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

struct FallbackStats {
  std::uint64_t primary_wins = 0;    ///< primary answered in time
  std::uint64_t fallback_used = 0;   ///< deadline hit or primary failed
  std::uint64_t both_failed = 0;
  /// Primary answered with SERVFAIL/REFUSED (server-side shedding): the
  /// fallback was started instead of surfacing the shed answer.
  std::uint64_t primary_shed = 0;
  std::uint64_t fallback_started = 0;  ///< fallback launched (won or not)
  /// Primary reported failure only after the fallback was already racing —
  /// the slow-failure path where the deadline, not the error, decided.
  std::uint64_t primary_late_failures = 0;
  /// Primary answered successfully after the fallback had already won: the
  /// late resolution is torn down and accounted here (never surfaced), so
  /// wasted primary work is visible instead of silently dropped.
  std::uint64_t primary_wasted = 0;
  /// Time from resolve() to the decision to start the fallback, summed /
  /// maxed over fallback_started decisions. The mean bounds how much a
  /// misbehaving primary delays the user before the rescue begins.
  simnet::TimeUs decision_latency_total = 0;
  simnet::TimeUs decision_latency_max = 0;

  double mean_decision_latency_us() const {
    return fallback_started == 0
               ? 0.0
               : static_cast<double>(decision_latency_total) /
                     static_cast<double>(fallback_started);
  }
};

class FallbackResolverClient final : public ResolverClient {
 public:
  /// Both clients must outlive this one.
  FallbackResolverClient(simnet::EventLoop& loop, ResolverClient& primary,
                         ResolverClient& fallback,
                         FallbackConfig config = {});

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override;
  std::size_t completed() const override { return completed_; }

  const FallbackStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    ResolveCallback callback;
    dns::Name name;
    dns::RType type = dns::RType::kA;
    simnet::EventId deadline;
    bool fallback_started = false;
    bool done = false;
    bool primary_done = false;  ///< primary callback has fired
    obs::SpanId fallback_span = 0;  ///< open while the fallback races
  };

  void finish(std::uint64_t id, const ResolutionResult& r, bool from_primary);
  void start_fallback(std::uint64_t id, const char* reason);
  /// Transport success that isn't a shed rcode (see rcode_failures).
  bool usable(const ResolutionResult& r) const;
  /// Drop the pending entry once it is finished *and* the primary has
  /// reported — the retention that lets a late primary answer be charged
  /// to primary_wasted instead of vanishing.
  void maybe_erase(std::uint64_t id);

  simnet::EventLoop& loop_;
  ResolverClient& primary_;
  ResolverClient& fallback_;
  FallbackConfig config_;
  FallbackStats stats_;
  struct Metrics {
    obs::CounterHandle primary_wins{"fallback.primary_wins"};
    obs::CounterHandle primary_shed{"fallback.primary_shed"};
    obs::CounterHandle primary_wasted{"fallback.primary_wasted"};
    obs::CounterHandle used{"fallback.used"};
    obs::CounterHandle both_failed{"fallback.both_failed"};
  } metrics_;
  std::uint64_t completed_ = 0;
  std::vector<ResolutionResult> results_;
  std::map<std::uint64_t, Pending> pending_;
};

}  // namespace dohperf::core
