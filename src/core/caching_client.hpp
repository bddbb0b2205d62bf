// A graceful-degradation DNS cache, layered over any ResolverClient. Beyond
// the plain TTL cache the paper's methodology disables ("caches of both
// Firefox and the DNS stub resolver were emptied"), this is the resilience
// layer a real stub uses to keep answers flowing while its resolver is down:
//
//   * RFC 2308 negative caching — NXDOMAIN and NODATA responses are cached
//     with a TTL of min(SOA TTL, SOA MINIMUM) taken from the authority
//     section (responses without an SOA are not cached).
//   * RFC 8767 serve-stale — an expired entry stays usable for `max_stale`
//     past its TTL. A lookup that finds one launches an upstream refresh
//     and answers from the stale copy as soon as the refresh fails or
//     `stale_serve_delay` passes, whichever is first; the refresh keeps
//     running in the background and repairs the entry when the resolver
//     recovers (stale-while-revalidate).
//   * In-flight coalescing — concurrent resolves for the same (name, type)
//     share one upstream query, so an outage window closing does not turn
//     a pile of waiters into a thundering herd.
//   * Proactive refresh — a hit on an entry about to expire (within
//     `refresh_ahead` of its TTL) triggers a background refresh, keeping
//     hot names from ever going stale under active use.
//
// Eviction is by (expiry, least-recently-used): the entry closest to death
// goes first, LRU breaking ties. clear() also resets the internal use
// sequence, so a cleared cache behaves byte-identically to a fresh one in
// seeded runs. Everything runs on the virtual clock with no hidden
// randomness — same-seed simulations are byte-identical.
#pragma once

#include <map>
#include <vector>

#include "core/client.hpp"
#include "obs/metric.hpp"
#include "obs/span.hpp"
#include "simnet/event_loop.hpp"

namespace dohperf::core {

struct CacheConfig {
  std::size_t max_entries = 10000;
  simnet::TimeUs max_ttl = simnet::seconds(3600);  ///< positive TTL clamp
  simnet::TimeUs min_ttl = 0;
  /// RFC 2308 §5 cap on the SOA-derived negative TTL (the RFC recommends
  /// at most three hours).
  simnet::TimeUs max_negative_ttl = simnet::seconds(3 * 3600);
  /// RFC 8767 stale lifetime: how long past expiry an entry may still be
  /// served while revalidation fails. 0 disables serve-stale entirely.
  simnet::TimeUs max_stale = 0;
  /// How long a refresh may keep a waiter hanging before the stale answer
  /// is served anyway (RFC 8767's "client response timeout").
  simnet::TimeUs stale_serve_delay = simnet::ms(500);
  /// Proactive-refresh window: a hit on an entry expiring within this
  /// window starts a background refresh. 0 disables.
  simnet::TimeUs refresh_ahead = 0;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

struct CacheStats {
  std::uint64_t hits = 0;         ///< fresh answers (includes negative_hits)
  std::uint64_t misses = 0;       ///< lookups that needed the upstream
  std::uint64_t evictions = 0;    ///< capacity evictions
  std::uint64_t expirations = 0;  ///< entries dropped past TTL (+ stale window)
  std::uint64_t negative_entries = 0;  ///< RFC 2308 insertions
  std::uint64_t negative_hits = 0;     ///< fresh hits on negative entries
  std::uint64_t stale_serves = 0;      ///< RFC 8767 answers from expired data
  std::uint64_t coalesced = 0;         ///< resolves joined onto an in-flight query
  std::uint64_t proactive_refreshes = 0;  ///< refreshes started ahead of TTL
  std::uint64_t revalidations = 0;  ///< refreshes that repaired a stale-served entry
  std::uint64_t upstream_queries = 0;  ///< actual resolves sent upstream

  double hit_ratio() const noexcept {
    const auto total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

class CachingResolverClient final : public ResolverClient {
 public:
  /// `upstream` must outlive this client.
  CachingResolverClient(simnet::EventLoop& loop, ResolverClient& upstream,
                        CacheConfig config = {});

  /// Cache hits complete synchronously with zero resolution time and a
  /// zero-byte CostReport (nothing touched the network). Stale serves
  /// complete asynchronously once the refresh fails or the stale-serve
  /// delay passes.
  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        ResolveCallback callback) override;
  const ResolutionResult& result(std::uint64_t id) const override;
  std::size_t completed() const override { return completed_; }

  /// How far past its TTL the answer for `id` was when served; 0 for
  /// fresh hits and upstream answers (the per-answer staleness age).
  simnet::TimeUs staleness_age(std::uint64_t id) const {
    return staleness_.at(id);
  }

  const CacheStats& stats() const noexcept { return stats_; }
  /// Rebind the tracing/metrics sink (per-query sampling hands each query
  /// a different context; metric handles follow the registry it carries).
  void set_obs(const obs::SpanContext& obs) noexcept { config_.obs = obs; }

  std::size_t size() const noexcept { return entries_.size(); }
  /// Drop every entry and reset the LRU sequence: a cleared cache is
  /// byte-identical to a freshly constructed one in seeded runs.
  /// In-flight upstream queries are unaffected.
  void clear() {
    entries_.clear();
    next_seq_ = 0;
  }

 private:
  struct Key {
    dns::Name name;
    dns::RType type;
    bool operator<(const Key& o) const noexcept {
      if (name != o.name) return name < o.name;
      return type < o.type;
    }
  };
  struct Entry {
    dns::Message response;
    simnet::TimeUs expires_at = 0;
    bool negative = false;          ///< RFC 2308 NXDOMAIN/NODATA entry
    std::uint64_t last_used_seq = 0;  ///< LRU tie-break within equal expiry
  };
  /// One resolve() waiting on an in-flight upstream query.
  struct Waiter {
    std::uint64_t id = 0;
    ResolveCallback callback;
    simnet::TimeUs asked_at = 0;
    simnet::EventId stale_timer;  ///< pending stale-serve deadline
    bool answered = false;        ///< already served stale
  };
  struct InFlight {
    std::vector<Waiter> waiters;  ///< empty for background refreshes
  };

  /// True for answers worth acting on: transport success with NOERROR or
  /// NXDOMAIN. SERVFAIL/REFUSED count as resolver failure (and trigger
  /// serve-stale) per RFC 8767 §4.
  static bool usable(const ResolutionResult& r);

  void insert(const Key& key, const dns::Message& response);
  void evict_if_needed();
  void touch(Entry& entry) { entry.last_used_seq = next_seq_++; }
  void start_upstream(const Key& key);
  void maybe_refresh_ahead(const Key& key, const Entry& entry);
  void on_upstream_done(const Key& key, const ResolutionResult& r);
  void on_stale_deadline(const Key& key, std::uint64_t id);
  /// Serve `waiter` from the (expired) entry for `key`, if one is still
  /// within its stale window. Returns false when nothing stale remains.
  bool serve_stale(const Key& key, Waiter& waiter, const char* reason);
  void deliver(Waiter& waiter, const ResolutionResult& r);

  simnet::EventLoop& loop_;
  ResolverClient& upstream_;
  CacheConfig config_;
  CacheStats stats_;
  struct Metrics {
    obs::CounterHandle hits{"cache.hits"};
    obs::CounterHandle negative_hits{"cache.negative_hits"};
    obs::CounterHandle expirations{"cache.expirations"};
    obs::CounterHandle misses{"cache.misses"};
    obs::CounterHandle coalesced{"cache.coalesced"};
    obs::CounterHandle upstream_queries{"cache.upstream_queries"};
    obs::CounterHandle proactive_refreshes{"cache.proactive_refreshes"};
    obs::CounterHandle revalidations{"cache.revalidations"};
    obs::CounterHandle stale_serves{"cache.stale_serves"};
    obs::HistogramHandle staleness_age_ms{"cache.staleness_age_ms"};
    obs::CounterHandle negative_entries{"cache.negative_entries"};
    obs::CounterHandle evictions{"cache.evictions"};
  } metrics_;
  std::map<Key, Entry> entries_;
  std::map<Key, InFlight> inflight_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<ResolutionResult> results_;
  std::vector<simnet::TimeUs> staleness_;  ///< parallel to results_
};

}  // namespace dohperf::core
