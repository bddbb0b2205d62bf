// Hedged resolution, tail-at-scale style (Dean & Barroso, CACM 2013):
// a query that has not been answered after `hedge_delay` is re-issued to a
// secondary resolver, and the first answer wins. Hounsel et al. and Kosek
// et al. both locate the encrypted-DNS cost in the tail — hedging converts
// a slow or dead primary's tail into one extra round trip to the backup.
//
// A hedge-rate budget bounds the extra load: hedges are only issued while
// hedged queries stay under `hedge_budget_permille` per-mille of all
// queries started, so a degraded primary cannot double the total upstream
// query volume. The losing resolution is torn down from this client's
// perspective — its late answer is dropped and its cost is charged to a
// separate `wasted` account rather than to the query. All bookkeeping is
// integer arithmetic on the virtual clock: seeded runs are byte-identical.
#pragma once

#include <map>
#include <vector>

#include "core/client.hpp"
#include "obs/metric.hpp"
#include "obs/span.hpp"
#include "simnet/event_loop.hpp"

namespace dohperf::core {

struct HedgeConfig {
  /// How long to wait for the primary before hedging to the secondary.
  /// Tail-at-scale practice pins this near the primary's p95 latency.
  simnet::TimeUs hedge_delay = simnet::ms(200);
  /// Budget: hedges are issued only while
  ///   (hedges_issued + 1) * 1000 <= queries_started * hedge_budget_permille
  /// holds. 100 caps the extra upstream load at 10%; 1000 allows hedging
  /// every query (at most doubling the load).
  std::uint32_t hedge_budget_permille = 100;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

struct HedgeStats {
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_suppressed = 0;  ///< delay hit, budget empty
  std::uint64_t primary_wins = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t both_failed = 0;
  /// The losing side answered successfully after the winner: torn down,
  /// never surfaced, its cost charged below instead of to the query.
  std::uint64_t wasted_answers = 0;
  std::uint64_t wasted_wire_bytes = 0;  ///< wire cost of those late answers
};

class HedgingResolverClient final : public ResolverClient {
 public:
  /// Both clients must outlive this one.
  HedgingResolverClient(simnet::EventLoop& loop, ResolverClient& primary,
                        ResolverClient& secondary, HedgeConfig config = {});

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override;
  std::size_t completed() const override { return completed_; }

  const HedgeStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    ResolveCallback callback;
    dns::Name name;
    dns::RType type = dns::RType::kA;
    simnet::EventId hedge_timer;
    bool hedged = false;        ///< secondary query issued
    bool done = false;          ///< a winner was surfaced
    bool primary_done = false;
    bool secondary_done = false;
    obs::SpanId hedge_span = 0;  ///< open while the hedge races
  };

  /// True for budget purposes and winner selection: transport success with
  /// a definitive rcode (NOERROR or NXDOMAIN).
  static bool usable(const ResolutionResult& r);

  void start_hedge(std::uint64_t id, const char* reason);
  void on_result(std::uint64_t id, bool from_primary,
                 const ResolutionResult& r);
  void finish(std::uint64_t id, const ResolutionResult& r,
              bool from_primary);
  /// Erase the pending entry once both sides have reported (or will never
  /// report), keeping late-loser accounting alive until then.
  void maybe_erase(std::uint64_t id);

  simnet::EventLoop& loop_;
  ResolverClient& primary_;
  ResolverClient& secondary_;
  HedgeConfig config_;
  HedgeStats stats_;
  struct Metrics {
    obs::CounterHandle issued{"hedge.issued"};
    obs::CounterHandle suppressed{"hedge.suppressed"};
    obs::CounterHandle primary_wins{"hedge.primary_wins"};
    obs::CounterHandle wins{"hedge.wins"};
    obs::CounterHandle both_failed{"hedge.both_failed"};
    obs::CounterHandle wasted_answers{"hedge.wasted_answers"};
    obs::CounterHandle wasted_wire_bytes{"hedge.wasted_wire_bytes"};
  } metrics_;
  std::uint64_t started_ = 0;  ///< resolve() calls, the budget denominator
  std::uint64_t completed_ = 0;
  std::vector<ResolutionResult> results_;
  std::map<std::uint64_t, Pending> pending_;
};

}  // namespace dohperf::core
