// The resolver engine: answer policy shared by all server front-ends
// (UDP, DoT, DoH), mirroring the paper's CoreDNS configuration — a fixed
// answer for every name — plus injectable delays (the §3 experiment delays
// 1 in 25 queries by 1000 ms) and a cache/upstream model for §5.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "dns/message.hpp"
#include "obs/metric.hpp"
#include "obs/span.hpp"
#include "resolver/query_handler.hpp"
#include "simnet/event_loop.hpp"
#include "stats/rng.hpp"

namespace dohperf::resolver {

/// Delay every `every_n`-th query by `delay` (0 disables).
struct DelayPolicy {
  std::uint64_t every_n = 0;
  simnet::TimeUs delay = simnet::ms(1000);
};

/// Server-side fault injection, sampled per query from the engine's seeded
/// RNG: error rcodes model a broken recursive backend, a stall models the
/// worst failure a connection-oriented transport can see — the server
/// accepts the query and never answers, leaving the client to time out.
struct FaultPolicy {
  double servfail_rate = 0.0;  ///< P(answer SERVFAIL)
  double refused_rate = 0.0;   ///< P(answer REFUSED)
  double stall_rate = 0.0;     ///< P(accept, never answer)
};

/// Recursive-resolution model: each query hits the cache with probability
/// `cache_hit_ratio`; misses pay an upstream round trip sampled from a
/// log-normal distribution (heavy tail, like real recursive latency).
struct UpstreamModel {
  double cache_hit_ratio = 1.0;        ///< 1.0 = authoritative/fixed answer
  double upstream_mu_ms = 3.0;         ///< log-normal location (log of ms)
  double upstream_sigma = 0.8;
  simnet::TimeUs processing = simnet::us(100);  ///< per-query server work
};

struct EngineConfig {
  std::string fixed_address = "192.0.2.1";  ///< answer for every A query
  std::uint32_t ttl = 300;
  /// SOA MINIMUM advertised in negative responses (RFC 2308): clients
  /// derive their negative-cache TTL as min(SOA TTL, SOA MINIMUM).
  std::uint32_t soa_minimum = 60;
  /// Number of A records per answer. Google's resolver typically returns
  /// several addresses where Cloudflare returns fewer, which is part of
  /// why Google's DoH bodies run larger (§4).
  int answer_count = 1;
  /// Attach an EDNS Client Subnet option to responses (RFC 7871). Google
  /// supports ECS; Cloudflare deliberately does not.
  bool ecs_option = false;
  DelayPolicy delay_policy;
  FaultPolicy faults;
  UpstreamModel upstream;
  std::uint64_t seed = 42;
  obs::SpanContext obs;  ///< tracing/metrics sink (default: off)
};

struct EngineStats {
  std::uint64_t queries = 0;
  std::uint64_t delayed = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t injected_servfail = 0;
  std::uint64_t injected_refused = 0;
  std::uint64_t stalled = 0;
  std::uint64_t negative_answers = 0;  ///< NXDOMAIN/NODATA (SOA attached)
};

/// Asynchronous query handler; the continuation runs on the event loop
/// after the configured processing/delay time.
class Engine final : public QueryHandler {
 public:
  using Continuation = QueryHandler::Continuation;

  Engine(simnet::EventLoop& loop, EngineConfig config);

  /// Handle a query; `done` fires with the response after the simulated
  /// processing time (plus injected delay when the policy strikes).
  /// The engine ignores the request context — overload control lives in
  /// RecursiveTier, which consumes it before delegating here.
  void handle(const dns::Message& query, const QueryContext& context,
              Continuation done) override;

  /// Context-free convenience overload for callers that predate the tier.
  void handle(const dns::Message& query, Continuation done) {
    handle(query, QueryContext{}, std::move(done));
  }

  /// Zone override: answer `name` with a specific address instead of the
  /// fixed one (used by the browser experiments where each origin has a
  /// distinct server node).
  void add_record(const dns::Name& name, const std::string& address);

  /// Zone override: answer `name` with NXDOMAIN plus the SOA authority
  /// record negative caching derives its TTL from (RFC 2308).
  void add_nxdomain(const dns::Name& name);

  const EngineStats& stats() const noexcept { return stats_; }
  const EngineConfig& config() const noexcept { return config_; }

 private:
  dns::Message answer(const dns::Message& query) const;
  /// The SOA record negative responses carry (RFC 2308): owner is the
  /// query name's parent zone, MINIMUM comes from config.soa_minimum.
  dns::ResourceRecord soa_record(const dns::Name& qname) const;
  simnet::TimeUs next_service_time();

  simnet::EventLoop& loop_;
  EngineConfig config_;
  EngineStats stats_;
  struct Metrics {
    obs::CounterHandle queries{"engine.queries"};
    obs::CounterHandle delayed{"engine.delayed"};
    obs::CounterHandle cache_misses{"engine.cache_misses"};
    obs::CounterHandle stalled{"engine.stalled"};
    obs::CounterHandle servfail_injected{"engine.servfail_injected"};
    obs::CounterHandle refused_injected{"engine.refused_injected"};
    obs::CounterHandle negative_answers{"engine.negative_answers"};
  } metrics_;
  stats::LogNormalSampler upstream_latency_;
  stats::SplitMix64 cache_rng_;
  stats::SplitMix64 fault_rng_;
  std::map<dns::Name, std::string> zone_;
  std::map<dns::Name, bool> nxdomain_;  ///< names answered NXDOMAIN
};

}  // namespace dohperf::resolver
