// The shared recursive tier: one resolver serving a whole simulated client
// population across every transport front-end. Wraps a back-end
// QueryHandler (normally resolver::Engine) with:
//
//   * a shared positive/negative cache with TTL-driven hit-rate dynamics
//     (cache hits still consume worker time — `hit_processing` — so the
//     tier saturates realistically under load);
//   * request coalescing: concurrent misses for one (name, type) join the
//     in-flight resolution instead of each occupying a worker;
//   * a bounded FIFO request queue in front of `workers` service slots,
//     with deadline-aware shedding at dequeue (a request whose remaining
//     client budget cannot cover the expected service time is answered
//     REFUSED instead of wasting a slot);
//   * a gradient/AIMD admission controller bounding outstanding work;
//   * per-client token-bucket fairness (one hot tenant cannot starve the
//     population);
//   * a server-side retry budget: retransmissions/re-issues detected by
//     (client, name, type) recurrence *among cache misses* within
//     `retry_window` withdraw from a Finagle-style budget and are shed once
//     it empties, breaking retry-storm metastability. (A repeat of an
//     answered query is a cache hit, so hot names do not false-positive
//     while retry_window stays below the TTL.)
//
// Shedding answers REFUSED by default (RFC 1035 "server refuses to
// perform"), which clients must not treat as a resolution — the resilience
// stack never caches it and the circuit breaker counts it as unhealthy.
//
// Metric-name contract (EXPERIMENTS.md "Observability"): tier.requests[.*],
// tier.cache_hits/misses, tier.coalesced, tier.served, tier.shed.*,
// tier.retries_detected, gauges tier.queue_depth / tier.inflight /
// tier.admission_limit, histograms tier.queue_wait_ms / tier.latency_ms,
// fairness.admitted / fairness.throttled; spans `admission_check` / `shed`.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "dns/message.hpp"
#include "obs/metric.hpp"
#include "obs/span.hpp"
#include "resolver/overload.hpp"
#include "resolver/query_handler.hpp"
#include "simnet/event_loop.hpp"
#include "simnet/fifo.hpp"

namespace dohperf::resolver {

struct TierConfig {
  std::size_t workers = 4;  ///< concurrent service slots

  // --- shared cache -------------------------------------------------------
  /// Evict the earliest-expiring entry beyond this many; 0 turns the cache
  /// off (nothing is stored, so nothing hits).
  std::size_t cache_entries = 65536;
  /// Worker time a cache hit costs (decode, lookup, encode). Non-zero so
  /// saturation physics include the hit path.
  simnet::TimeUs hit_processing = simnet::us(500);
  bool coalesce = true;  ///< join concurrent misses for one (name, type)

  // --- queue bounds + deadline shedding -----------------------------------
  bool bound_queue = false;
  std::size_t queue_capacity = 512;
  /// Assumed client patience. At dequeue, a request older than
  /// `deadline - expected_service` is shed (it cannot be answered in time).
  /// 0 disables deadline-aware shedding.
  simnet::TimeUs deadline = 0;
  simnet::TimeUs expected_service = simnet::ms(5);

  // --- admission control --------------------------------------------------
  bool admission_enabled = false;
  AdmissionConfig admission;

  // --- per-client fairness ------------------------------------------------
  bool fairness_enabled = false;
  FairnessConfig fairness;

  // --- server-side retry budget -------------------------------------------
  bool retry_budget_enabled = false;
  std::uint32_t retry_ratio_permille = 100;  ///< budget grows 10% of fresh
  std::uint64_t retry_reserve_milli = 10000;  ///< cold-start allowance
  std::uint64_t retry_cap_milli = 100000;
  simnet::TimeUs retry_window = simnet::seconds(2);

  /// Guard against a back-end that never answers (e.g. engine stall
  /// faults): after this long the slot is reclaimed and waiters get
  /// SERVFAIL. 0 disables.
  simnet::TimeUs service_timeout = 0;

  /// Shed with REFUSED (default) or SERVFAIL.
  bool shed_refused = true;

  obs::SpanContext obs;
};

struct TierClientStats {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
};

struct TierStats {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;  ///< answered by cache or back-end (not shed)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t retries_detected = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_admission = 0;
  std::uint64_t shed_fairness = 0;
  std::uint64_t shed_retry_budget = 0;
  std::uint64_t upstream_timeouts = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t inflight_peak = 0;
  std::map<std::uint64_t, TierClientStats> per_client;

  std::uint64_t sheds() const noexcept {
    return shed_queue_full + shed_deadline + shed_admission + shed_fairness +
           shed_retry_budget;
  }
};

class RecursiveTier final : public QueryHandler {
 public:
  /// `upstream` (normally an Engine) must outlive the tier.
  RecursiveTier(simnet::EventLoop& loop, QueryHandler& upstream,
                TierConfig config);

  void handle(const dns::Message& query, const QueryContext& context,
              Continuation done) override;

  const TierStats& stats() const noexcept { return stats_; }
  std::size_t queue_depth() const noexcept { return queue_.size(); }
  std::size_t inflight() const noexcept { return inflight_; }
  /// Current admission limit (config initial value when disabled).
  std::size_t admission_limit() const noexcept {
    return admission_ ? admission_->limit() : config_.admission.initial_limit;
  }
  const FairnessArbiter* fairness() const noexcept { return fairness_.get(); }
  const RetryBudget* retry_budget() const noexcept {
    return retry_budget_.get();
  }

  /// Rebind the tracing/metrics sink (per-request sampling hands the tier a
  /// different context per query; metric handles follow the registry it
  /// carries).
  void set_obs(const obs::SpanContext& obs) noexcept { config_.obs = obs; }

 private:
  using Key = std::pair<dns::Name, dns::RType>;
  /// One cached answer, shared by the cache entry and every hit in flight.
  using Answer = std::shared_ptr<const dns::Message>;

  enum class ShedReason : std::uint8_t {
    kQueueFull,
    kDeadline,
    kAdmission,
    kFairness,
    kRetryBudget,
    kCount,
  };
  static constexpr std::size_t kShedReasons =
      static_cast<std::size_t>(ShedReason::kCount);
  static constexpr std::size_t kTransports =
      static_cast<std::size_t>(Transport::kCount);

  struct Job {
    dns::Message query;
    QueryContext context;
    Continuation done;
    simnet::TimeUs arrived = 0;
    /// Cache hit captured at admission: answered after hit_processing
    /// without touching the back-end.
    Answer cached;
  };

  /// In-flight back-end resolution; `waiters` holds the dispatching job
  /// plus every coalesced joiner.
  struct Pending {
    std::vector<Job> waiters;
    std::shared_ptr<bool> settled;  ///< guards timeout vs completion race
  };

  void shed(const dns::Message& query, const QueryContext& context,
            Continuation done, ShedReason reason);
  void deliver(Job& job, const dns::Message& response);
  void pump();
  void dispatch(Job job);
  void complete(const Key& key, dns::Message response, bool timed_out);
  /// The live cached answer for `key`, or null.
  Answer cache_lookup(const Key& key) const;
  void cache_insert(const Key& key, Answer response);
  /// True when the request is a retry (same client/name/type seen within
  /// retry_window). Updates the seen map either way.
  bool detect_retry(const Key& key, const QueryContext& context);

  simnet::EventLoop& loop_;
  QueryHandler& upstream_;
  TierConfig config_;
  TierStats stats_;

  struct Metrics {
    obs::CounterHandle requests{"tier.requests"};
    /// tier.requests.<t>, indexed by Transport.
    std::array<obs::CounterHandle, kTransports> requests_by_transport{
        obs::CounterHandle("tier.requests.udp"),
        obs::CounterHandle("tier.requests.tcp"),
        obs::CounterHandle("tier.requests.dot"),
        obs::CounterHandle("tier.requests.doh"),
        obs::CounterHandle("tier.requests.doq")};
    obs::CounterHandle served{"tier.served"};
    obs::CounterHandle cache_hits{"tier.cache_hits"};
    obs::CounterHandle cache_misses{"tier.cache_misses"};
    obs::CounterHandle cache_evictions{"tier.cache_evictions"};
    obs::CounterHandle retries_detected{"tier.retries_detected"};
    obs::CounterHandle coalesced{"tier.coalesced"};
    obs::CounterHandle upstream_timeouts{"tier.upstream_timeouts"};
    obs::CounterHandle fairness_admitted{"fairness.admitted"};
    obs::CounterHandle fairness_throttled{"fairness.throttled"};
    /// tier.shed.<reason>, indexed by ShedReason.
    std::array<obs::CounterHandle, kShedReasons> shed{
        obs::CounterHandle("tier.shed.queue_full"),
        obs::CounterHandle("tier.shed.deadline"),
        obs::CounterHandle("tier.shed.admission"),
        obs::CounterHandle("tier.shed.fairness"),
        obs::CounterHandle("tier.shed.retry_budget")};
    obs::GaugeHandle queue_depth{"tier.queue_depth"};
    obs::GaugeHandle inflight{"tier.inflight"};
    obs::GaugeHandle admission_limit{"tier.admission_limit"};
    obs::HistogramHandle latency_ms{"tier.latency_ms"};
    obs::HistogramHandle queue_wait_ms{"tier.queue_wait_ms"};
  } metrics_;

  simnet::Fifo<Job> queue_;
  std::size_t inflight_ = 0;
  std::map<Key, Pending> pending_;  ///< in-flight back-end resolutions

  struct CacheEntry {
    Answer response;
    simnet::TimeUs expires = 0;
  };
  std::map<Key, CacheEntry> cache_;
  /// (expires, key) of every cache_ entry, kept in step with it: begin() is
  /// the eviction victim, the earliest expiry with ties on the smaller key.
  std::set<std::pair<simnet::TimeUs, Key>> expiry_;

  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<FairnessArbiter> fairness_;
  std::unique_ptr<RetryBudget> retry_budget_;
  /// Last time each (client, name, type) was seen, for retry detection.
  std::map<std::pair<std::uint64_t, Key>, simnet::TimeUs> seen_;
  std::uint64_t seen_prune_countdown_ = 256;
};

}  // namespace dohperf::resolver
