// Client-side resolution policies: the TTL cache and TRR-style fallback.
#include <gtest/gtest.h>

#include "core/caching_client.hpp"
#include "core/doh_client.hpp"
#include "core/fallback_client.hpp"
#include "core/health_client.hpp"
#include "core/hedging_client.hpp"
#include "core/udp_client.hpp"
#include "obs/registry.hpp"
#include "registry_switch.hpp"
#include "resolver/engine.hpp"
#include "resolver/recursive_tier.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/udp_server.hpp"
#include "sim_fixture.hpp"

namespace dohperf::core {
namespace {

using dohperf::testing::TwoHostFixture;

class CacheTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;
  std::unique_ptr<resolver::UdpServer> udp_server;
  std::unique_ptr<UdpResolverClient> upstream;
  std::unique_ptr<CachingResolverClient> cache;

  void start(CacheConfig config = {}) {
    engine_config.ttl = 300;
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    udp_server = std::make_unique<resolver::UdpServer>(server, *engine, 53);
    upstream = std::make_unique<UdpResolverClient>(
        client, simnet::Address{server.id(), 53});
    cache = std::make_unique<CachingResolverClient>(loop, *upstream, config);
  }

  static dns::Name name(const std::string& n) { return dns::Name::parse(n); }
};

TEST_F(CacheTest, SecondLookupIsFreeAndInstant) {
  start();
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(cache->stats().misses, 1u);

  ResolutionResult hit;
  const auto id = cache->resolve(name("a.example.com"), dns::RType::kA,
                                 [&](const ResolutionResult& r) { hit = r; });
  // Synchronous: no loop.run() needed.
  EXPECT_TRUE(hit.success);
  EXPECT_EQ(hit.resolution_time(), 0);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->result(id).cost.wire_bytes, 0u);  // nothing on the wire
  EXPECT_EQ(std::get<dns::ARdata>(hit.response.answers.at(0).rdata)
                .to_string(),
            "192.0.2.1");
}

TEST_F(CacheTest, TtlExpiryForcesRefetch) {
  start();
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  // Advance virtual time past the 300s TTL.
  loop.schedule_in(simnet::seconds(301), []() {});
  loop.run();
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().expirations, 1u);
}

TEST_F(CacheTest, DistinctTypesAreDistinctEntries) {
  start();
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  cache->resolve(name("a.example.com"), dns::RType::kTXT, {});
  loop.run();
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->size(), 2u);
}

TEST_F(CacheTest, CapacityEvictsEarliestExpiry) {
  CacheConfig config;
  config.max_entries = 3;
  start(config);
  // Same TTL, strictly increasing insert times: the earliest-expiry victim
  // is the oldest entry.
  for (int i = 0; i < 4; ++i) {
    cache->resolve(name("n" + std::to_string(i) + ".example.com"),
                   dns::RType::kA, {});
    loop.run();
  }
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->size(), 3u);
  // n0 was evicted: looking it up again misses.
  cache->resolve(name("n0.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(cache->stats().misses, 5u);
  // n3 is still cached.
  cache->resolve(name("n3.example.com"), dns::RType::kA, {});
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST_F(CacheTest, EvictionLruBreaksExpiryTies) {
  CacheConfig config;
  config.max_entries = 3;
  start(config);
  // Issue n0..n2 back-to-back: all three complete at the same virtual
  // instant and share an expiry, so only recency can pick the victim.
  for (int i = 0; i < 3; ++i) {
    cache->resolve(name("n" + std::to_string(i) + ".example.com"),
                   dns::RType::kA, {});
  }
  loop.run();
  EXPECT_EQ(cache->size(), 3u);
  // Touch n0 (a fresh hit), leaving n1 the least recently used.
  cache->resolve(name("n0.example.com"), dns::RType::kA, {});
  EXPECT_EQ(cache->stats().hits, 1u);

  cache->resolve(name("n3.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(cache->stats().evictions, 1u);
  // n0 survived thanks to the touch; n1 was the tie-break victim.
  cache->resolve(name("n0.example.com"), dns::RType::kA, {});
  EXPECT_EQ(cache->stats().hits, 2u);
  const auto misses_before = cache->stats().misses;
  cache->resolve(name("n1.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(cache->stats().misses, misses_before + 1);
}

TEST_F(CacheTest, ClearResetsLruSequenceForIdenticalReplay) {
  CacheConfig config;
  config.max_entries = 2;
  start(config);
  // One workload phase: fill to capacity in a single instant, touch `a`,
  // then overflow — the tie-break must evict `b` both times, which only
  // happens if clear() also rewinds the LRU sequence.
  const auto phase = [&]() {
    cache->resolve(name("a.example.com"), dns::RType::kA, {});
    cache->resolve(name("b.example.com"), dns::RType::kA, {});
    loop.run();
    cache->resolve(name("a.example.com"), dns::RType::kA, {});  // touch
    cache->resolve(name("c.example.com"), dns::RType::kA, {});
    loop.run();
    // `a` must have survived the eviction.
    const auto hits = cache->stats().hits;
    cache->resolve(name("a.example.com"), dns::RType::kA, {});
    return cache->stats().hits - hits;
  };
  const auto first = phase();
  cache->clear();
  EXPECT_EQ(cache->size(), 0u);
  const auto second = phase();
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, first);  // cleared cache replays byte-identically
  EXPECT_EQ(cache->stats().evictions, 2u);
}

TEST_F(CacheTest, NegativeAnswerCachedWithSoaDerivedTtl) {
  start();  // engine ttl 300, soa_minimum 60 -> negative TTL min(300,60)=60
  engine->add_nxdomain(name("gone.example.com"));
  ResolutionResult observed;
  cache->resolve(name("gone.example.com"), dns::RType::kA,
                 [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(observed.response.flags.rcode, dns::Rcode::kNxDomain);
  EXPECT_EQ(cache->stats().negative_entries, 1u);

  // The NXDOMAIN is answered from cache: synchronous, nothing upstream.
  ResolutionResult hit;
  cache->resolve(name("gone.example.com"), dns::RType::kA,
                 [&](const ResolutionResult& r) { hit = r; });
  EXPECT_TRUE(hit.success);
  EXPECT_EQ(hit.response.flags.rcode, dns::Rcode::kNxDomain);
  EXPECT_EQ(hit.resolution_time(), 0);
  EXPECT_EQ(cache->stats().negative_hits, 1u);

  // ... but only for the SOA-derived 60s, not the record TTL of 300s.
  loop.schedule_in(simnet::seconds(61), []() {});
  loop.run();
  cache->resolve(name("gone.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(cache->stats().misses, 2u);
}

TEST_F(CacheTest, NodataCachedNegatively) {
  start();
  // Non-A queries answer NODATA (NOERROR, empty answer section) with an
  // SOA — cacheable per RFC 2308 just like NXDOMAIN.
  cache->resolve(name("a.example.com"), dns::RType::kTXT, {});
  loop.run();
  EXPECT_EQ(cache->stats().negative_entries, 1u);
  ResolutionResult hit;
  cache->resolve(name("a.example.com"), dns::RType::kTXT,
                 [&](const ResolutionResult& r) { hit = r; });
  EXPECT_TRUE(hit.success);
  EXPECT_TRUE(hit.response.answers.empty());
  EXPECT_EQ(cache->stats().negative_hits, 1u);
}

TEST_F(CacheTest, ServfailIsNeverCached) {
  engine_config.faults.servfail_rate = 1.0;
  start();
  cache->resolve(name("sick.example.com"), dns::RType::kA, {});
  loop.run();
  cache->resolve(name("sick.example.com"), dns::RType::kA, {});
  loop.run();
  // SERVFAIL is a resolver-health signal, not an answer: both lookups went
  // upstream and nothing was admitted.
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->stats().negative_entries, 0u);
}

TEST_F(CacheTest, ServeStaleOnUpstreamFailure) {
  CacheConfig config;
  config.max_stale = simnet::seconds(60);
  config.stale_serve_delay = simnet::seconds(10);  // failure path, not timer
  start(config);
  upstream = std::make_unique<UdpResolverClient>(
      client, simnet::Address{server.id(), 53},
      UdpClientConfig{.timeout = simnet::ms(300), .max_retries = 0});
  cache = std::make_unique<CachingResolverClient>(loop, *upstream, config);

  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  loop.schedule_in(simnet::seconds(301), []() {});  // past TTL, within stale
  loop.run();
  udp_server.reset();  // resolver goes dark

  ResolutionResult observed;
  const auto id = cache->resolve(name("a.example.com"), dns::RType::kA,
                                 [&](const ResolutionResult& r) {
                                   observed = r;
                                 });
  loop.run();
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(std::get<dns::ARdata>(observed.response.answers.at(0).rdata)
                .to_string(),
            "192.0.2.1");
  EXPECT_EQ(cache->stats().stale_serves, 1u);
  // Served when the refresh *failed* (the 300ms timeout), before the 10s
  // stale-serve delay.
  EXPECT_EQ(observed.resolution_time(), simnet::ms(300));
  EXPECT_GT(cache->staleness_age(id), 0u);
}

TEST_F(CacheTest, StaleServeDelayAnswersWhileRefreshStillRunning) {
  CacheConfig config;
  config.max_stale = simnet::seconds(60);
  config.stale_serve_delay = simnet::ms(100);
  start(config);
  upstream = std::make_unique<UdpResolverClient>(
      client, simnet::Address{server.id(), 53},
      UdpClientConfig{.timeout = simnet::seconds(2), .max_retries = 0});
  cache = std::make_unique<CachingResolverClient>(loop, *upstream, config);

  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  loop.schedule_in(simnet::seconds(301), []() {});
  loop.run();
  udp_server.reset();

  ResolutionResult observed;
  cache->resolve(name("a.example.com"), dns::RType::kA,
                 [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  // The waiter was rescued at the 100ms stale deadline — RFC 8767's client
  // response timeout — not at the 2s refresh timeout.
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(observed.resolution_time(), simnet::ms(100));
  EXPECT_EQ(cache->stats().stale_serves, 1u);
}

TEST_F(CacheTest, StaleWhileRevalidateRepairsEntry) {
  CacheConfig config;
  config.max_stale = simnet::seconds(60);
  config.stale_serve_delay = 0;  // serve stale instantly, refresh behind
  start(config);
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  loop.schedule_in(simnet::seconds(301), []() {});
  loop.run();

  // Resolver is healthy: the stale answer goes out first, the refresh then
  // repairs the entry in the background.
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(cache->stats().stale_serves, 1u);
  EXPECT_EQ(cache->stats().revalidations, 1u);
  // The repaired entry serves fresh hits again.
  const auto hits = cache->stats().hits;
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  EXPECT_EQ(cache->stats().hits, hits + 1);
}

TEST_F(CacheTest, ConcurrentLookupsCoalesceOntoOneUpstreamQuery) {
  start();
  int answered = 0;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(cache->resolve(name("hot.example.com"), dns::RType::kA,
                                 [&](const ResolutionResult& r) {
                                   if (r.success) ++answered;
                                 }));
  }
  loop.run();
  EXPECT_EQ(answered, 3);
  EXPECT_EQ(cache->stats().coalesced, 2u);
  EXPECT_EQ(cache->stats().upstream_queries, 1u);
  EXPECT_EQ(upstream->completed(), 1u);
  // The single upstream exchange is charged once: the first waiter carries
  // the wire bytes, the joiners ride free.
  EXPECT_GT(cache->result(ids[0]).cost.wire_bytes, 0u);
  EXPECT_EQ(cache->result(ids[1]).cost.wire_bytes, 0u);
  EXPECT_EQ(cache->result(ids[2]).cost.wire_bytes, 0u);
}

TEST_F(CacheTest, ProactiveRefreshKeepsHotEntryFresh) {
  CacheConfig config;
  config.refresh_ahead = simnet::seconds(20);
  start(config);
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  // A hit inside the refresh-ahead window answers fresh *and* starts a
  // background refresh.
  loop.schedule_in(simnet::seconds(290), []() {});
  loop.run();
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().proactive_refreshes, 1u);
  loop.run();
  EXPECT_EQ(cache->stats().upstream_queries, 2u);
  // Past the original 300s TTL the refreshed entry still hits.
  loop.schedule_in(simnet::seconds(20), []() {});
  loop.run();
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  EXPECT_EQ(cache->stats().hits, 2u);
  EXPECT_EQ(cache->stats().misses, 1u);
}

TEST_F(CacheTest, TtlClampObeyed) {
  CacheConfig config;
  config.max_ttl = simnet::seconds(10);
  start(config);
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  loop.schedule_in(simnet::seconds(11), []() {});
  loop.run();
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(cache->stats().misses, 2u);  // expired despite 300s record TTL
}

// An eviction and a stale serve that happen after set_obs() hands the
// cache another registry count there, under the cache's own names.
TEST_F(CacheTest, EvictionAndStaleServeAfterSetObsLandInTheNewRegistry) {
  obs::Registry a, b;
  testing::add_foreign_metrics(b);
  const auto b_foreign = testing::exported(b);
  CacheConfig config;
  config.max_entries = 1;
  config.max_stale = simnet::seconds(60);
  config.stale_serve_delay = simnet::ms(1);  // before the refresh answers
  config.obs.metrics = &a;
  start(config);
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  loop.schedule_in(simnet::seconds(301), []() {});  // past TTL, within stale
  loop.run();

  // a is served stale while its refresh runs; b's answer then evicts a.
  cache->resolve(name("a.example.com"), dns::RType::kA, {});
  cache->resolve(name("b.example.com"), dns::RType::kA, {});
  const auto a_at_switch = testing::exported(a);
  cache->set_obs(obs::SpanContext{nullptr, 0, &b});
  loop.run();
  EXPECT_EQ(a.counter("cache.misses"), 3u);  // a, stale a, b
  EXPECT_EQ(testing::exported(a), a_at_switch);
  testing::expect_only_added(b_foreign, b, {"cache."});
  EXPECT_EQ(b.counter("cache.stale_serves"), 1u);
  EXPECT_EQ(b.histogram_summary("cache.staleness_age_ms").count, 1u);
  EXPECT_EQ(b.counter("cache.evictions"), 1u);

  // Switched to a context without a registry mid-flight: nothing counts.
  cache->resolve(name("c.example.com"), dns::RType::kA, {});
  cache->set_obs(obs::SpanContext{});
  const auto a_before = testing::exported(a);
  const auto b_before = testing::exported(b);
  loop.run();
  EXPECT_EQ(cache->stats().evictions, 2u);
  EXPECT_EQ(testing::exported(a), a_before);
  EXPECT_EQ(testing::exported(b), b_before);
}

TEST_F(CacheTest, HitRatioOnZipfWorkload) {
  start();
  stats::ZipfSampler zipf(50, 1.2, 99);
  for (int i = 0; i < 500; ++i) {
    cache->resolve(name("tp" + std::to_string(zipf.sample()) + ".example"),
                   dns::RType::kA, {});
    loop.run();
  }
  // A hot-headed workload should mostly hit.
  EXPECT_GT(cache->stats().hit_ratio(), 0.8);
}

// --- fallback ---------------------------------------------------------------------

class FallbackTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;
  std::unique_ptr<resolver::UdpServer> udp_server;
  std::unique_ptr<resolver::DohServer> doh_server;
  std::unique_ptr<DohClient> doh;
  std::unique_ptr<UdpResolverClient> udp;
  std::unique_ptr<FallbackResolverClient> trr;

  void start(bool doh_server_up, FallbackConfig config = {},
             simnet::TimeUs doh_frontend_delay = 0) {
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    udp_server = std::make_unique<resolver::UdpServer>(server, *engine, 53);
    if (doh_server_up) {
      resolver::DohServerConfig doh_config;
      doh_config.tls.chain = tlssim::CertificateChain::cloudflare();
      doh_config.frontend_delay = doh_frontend_delay;
      doh_server = std::make_unique<resolver::DohServer>(server, *engine,
                                                         doh_config, 443);
    }
    DohClientConfig client_config;
    client_config.server_name = "cloudflare-dns.com";
    doh = std::make_unique<DohClient>(
        client, simnet::Address{server.id(), 443}, client_config);
    udp = std::make_unique<UdpResolverClient>(
        client, simnet::Address{server.id(), 53});
    trr = std::make_unique<FallbackResolverClient>(loop, *doh, *udp, config);
  }

  static dns::Name name(const std::string& n) { return dns::Name::parse(n); }
};

TEST_F(FallbackTest, HealthyPrimaryWins) {
  start(/*doh_server_up=*/true);
  ResolutionResult observed;
  trr->resolve(name("a.example.com"), dns::RType::kA,
               [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(trr->stats().primary_wins, 1u);
  EXPECT_EQ(trr->stats().fallback_used, 0u);
  // The UDP client was never touched.
  EXPECT_EQ(udp->completed(), 0u);
}

TEST_F(FallbackTest, DeadPrimaryFallsBackImmediately) {
  start(/*doh_server_up=*/false);  // nothing on 443 -> TCP RST
  ResolutionResult observed;
  trr->resolve(name("a.example.com"), dns::RType::kA,
               [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_TRUE(observed.success);  // answered by UDP
  EXPECT_EQ(trr->stats().fallback_used, 1u);
  // Far faster than the 1500ms deadline: the RST triggers fallback early.
  EXPECT_LT(observed.resolution_time(), simnet::ms(200));
}

TEST_F(FallbackTest, SlowPrimaryFallsBackAtDeadline) {
  // Only the DoH path is slow (a congested HTTPS front-end); UDP is fine.
  FallbackConfig config;
  config.primary_deadline = simnet::ms(500);
  start(/*doh_server_up=*/true, config,
        /*doh_frontend_delay=*/simnet::seconds(10));
  ResolutionResult observed;
  trr->resolve(name("a.example.com"), dns::RType::kA,
               [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(trr->stats().fallback_used, 1u);
  // Deadline (500ms) + one UDP round trip, far less than the DoH delay.
  EXPECT_GE(observed.resolution_time(), simnet::ms(500));
  EXPECT_LT(observed.resolution_time(), simnet::ms(700));
}

TEST_F(FallbackTest, BothDeadFails) {
  start(/*doh_server_up=*/false);
  udp_server.reset();  // kill UDP too
  UdpClientConfig udp_config;
  udp_config.timeout = simnet::ms(300);
  udp = std::make_unique<UdpResolverClient>(
      client, simnet::Address{server.id(), 53}, udp_config);
  trr = std::make_unique<FallbackResolverClient>(loop, *doh, *udp);
  ResolutionResult observed;
  observed.success = true;
  trr->resolve(name("a.example.com"), dns::RType::kA,
               [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_FALSE(observed.success);
  EXPECT_EQ(trr->stats().both_failed, 1u);
}

TEST_F(FallbackTest, ManyQueriesMixedHealth) {
  // Every 3rd query delayed past the deadline: those fall back, the rest
  // resolve via DoH.
  engine_config.delay_policy.every_n = 3;
  engine_config.delay_policy.delay = simnet::seconds(5);
  FallbackConfig config;
  config.primary_deadline = simnet::ms(400);
  start(/*doh_server_up=*/true, config);
  int succeeded = 0;
  for (int i = 0; i < 12; ++i) {
    const std::string index = std::to_string(i);
    trr->resolve(name("q" + index + ".example.com"),
                 dns::RType::kA, [&](const ResolutionResult& r) {
                   if (r.success) ++succeeded;
                 });
    loop.run();
  }
  EXPECT_EQ(succeeded, 12);
  EXPECT_GT(trr->stats().fallback_used, 0u);
  EXPECT_GT(trr->stats().primary_wins, 0u);
  EXPECT_EQ(trr->stats().primary_wins + trr->stats().fallback_used, 12u);
}

// --- hedging ----------------------------------------------------------------------

class HedgeTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig primary_config;
  resolver::EngineConfig secondary_config;
  std::unique_ptr<resolver::Engine> primary_engine;
  std::unique_ptr<resolver::Engine> secondary_engine;
  std::unique_ptr<resolver::UdpServer> primary_server;
  std::unique_ptr<resolver::UdpServer> secondary_server;
  std::unique_ptr<UdpResolverClient> primary;
  std::unique_ptr<UdpResolverClient> secondary;
  std::unique_ptr<HedgingResolverClient> hedged;

  void start(HedgeConfig config = {},
             UdpClientConfig primary_client_config = {}) {
    primary_engine = std::make_unique<resolver::Engine>(loop, primary_config);
    secondary_engine =
        std::make_unique<resolver::Engine>(loop, secondary_config);
    primary_server =
        std::make_unique<resolver::UdpServer>(server, *primary_engine, 53);
    secondary_server =
        std::make_unique<resolver::UdpServer>(server, *secondary_engine, 54);
    primary = std::make_unique<UdpResolverClient>(
        client, simnet::Address{server.id(), 53}, primary_client_config);
    secondary = std::make_unique<UdpResolverClient>(
        client, simnet::Address{server.id(), 54});
    hedged = std::make_unique<HedgingResolverClient>(loop, *primary,
                                                     *secondary, config);
  }

  static dns::Name name(const std::string& n) { return dns::Name::parse(n); }
};

TEST_F(HedgeTest, FastPrimaryWinsWithoutHedging) {
  HedgeConfig config;
  config.hedge_delay = simnet::ms(200);
  config.hedge_budget_permille = 1000;
  start(config);
  ResolutionResult observed;
  hedged->resolve(name("a.example.com"), dns::RType::kA,
                  [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(hedged->stats().primary_wins, 1u);
  EXPECT_EQ(hedged->stats().hedges_issued, 0u);
  EXPECT_EQ(secondary->completed(), 0u);  // secondary never queried
}

TEST_F(HedgeTest, HedgeFiresAfterDelayAndWins) {
  primary_config.faults.stall_rate = 1.0;  // primary accepts, never answers
  HedgeConfig config;
  config.hedge_delay = simnet::ms(200);
  config.hedge_budget_permille = 1000;
  start(config, UdpClientConfig{.timeout = simnet::seconds(5)});
  ResolutionResult observed;
  hedged->resolve(name("a.example.com"), dns::RType::kA,
                  [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(hedged->stats().hedges_issued, 1u);
  EXPECT_EQ(hedged->stats().hedge_wins, 1u);
  // Hedge delay plus one round trip to the secondary, far below the
  // primary's 5s timeout.
  EXPECT_GE(observed.resolution_time(), simnet::ms(200));
  EXPECT_LT(observed.resolution_time(), simnet::ms(300));
}

TEST_F(HedgeTest, LateLoserIsTornDownAndChargedAsWaste) {
  // Primary answers everything, but a second late: the hedge wins, and the
  // primary's eventual answer must neither surface nor double-complete —
  // it lands in the wasted account.
  primary_config.delay_policy.every_n = 1;
  primary_config.delay_policy.delay = simnet::seconds(1);
  HedgeConfig config;
  config.hedge_delay = simnet::ms(100);
  config.hedge_budget_permille = 1000;
  start(config);
  int callbacks = 0;
  ResolutionResult observed;
  hedged->resolve(name("a.example.com"), dns::RType::kA,
                  [&](const ResolutionResult& r) {
                    ++callbacks;
                    observed = r;
                  });
  loop.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(hedged->completed(), 1u);
  EXPECT_TRUE(observed.success);
  EXPECT_LT(observed.resolution_time(), simnet::ms(500));  // the hedge's
  EXPECT_EQ(hedged->stats().hedge_wins, 1u);
  EXPECT_EQ(hedged->stats().wasted_answers, 1u);
  EXPECT_GT(hedged->stats().wasted_wire_bytes, 0u);
}

TEST_F(HedgeTest, BudgetSuppressesExcessHedges) {
  primary_config.faults.stall_rate = 1.0;
  HedgeConfig config;
  config.hedge_delay = simnet::ms(100);
  config.hedge_budget_permille = 500;  // at most one hedge per two queries
  start(config, UdpClientConfig{.timeout = simnet::seconds(5)});
  int succeeded = 0;
  for (int i = 0; i < 10; ++i) {
    hedged->resolve(name("q" + std::to_string(i) + ".example.com"),
                    dns::RType::kA, [&](const ResolutionResult& r) {
                      if (r.success) ++succeeded;
                    });
    loop.run();
  }
  const auto& s = hedged->stats();
  EXPECT_EQ(s.hedges_issued, 5u);  // the per-mille cap, exactly
  EXPECT_GT(s.hedges_suppressed, 0u);
  EXPECT_EQ(succeeded, 5);  // suppressed queries died with the primary
  EXPECT_EQ(s.both_failed, 5u);
}

TEST_F(HedgeTest, PrimaryFailureHedgesImmediately) {
  primary_config.faults.stall_rate = 1.0;
  HedgeConfig config;
  config.hedge_delay = simnet::seconds(3);  // far beyond the failure
  config.hedge_budget_permille = 1000;
  start(config, UdpClientConfig{.timeout = simnet::ms(150)});
  ResolutionResult observed;
  hedged->resolve(name("a.example.com"), dns::RType::kA,
                  [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(hedged->stats().hedge_wins, 1u);
  // The primary's 150ms failure triggered the hedge, not the 3s delay.
  EXPECT_LT(observed.resolution_time(), simnet::ms(300));
}

TEST_F(FallbackTest, CacheOverFallbackComposes) {
  // The decorators stack: cache -> fallback -> (DoH | UDP).
  start(/*doh_server_up=*/true);
  CachingResolverClient cached(loop, *trr, {});
  cached.resolve(name("hot.example.com"), dns::RType::kA, {});
  loop.run();
  ResolutionResult hit;
  cached.resolve(name("hot.example.com"), dns::RType::kA,
                 [&](const ResolutionResult& r) { hit = r; });
  EXPECT_TRUE(hit.success);
  EXPECT_EQ(hit.resolution_time(), 0);
  EXPECT_EQ(cached.stats().hits, 1u);
}


// --- Server-side shedding vs the client resilience stack ---------------------
//
// An overloaded RecursiveTier answers REFUSED. The client stack must treat
// that as "this resolver is unhealthy", not as a resolution: the fallback
// rescues it, the circuit breaker counts it, and the cache never stores it.

class ShedInterplayTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;
  std::unique_ptr<resolver::RecursiveTier> tier;
  std::unique_ptr<resolver::DohServer> doh_server;
  std::unique_ptr<resolver::UdpServer> udp_server;
  std::unique_ptr<DohClient> doh;
  std::unique_ptr<UdpResolverClient> udp;

  /// DoH is fronted by a tier shedding every request (queue capacity 0);
  /// plain UDP bypasses the tier and stays healthy.
  void start() {
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    resolver::TierConfig tier_config;
    tier_config.bound_queue = true;
    tier_config.queue_capacity = 0;
    tier = std::make_unique<resolver::RecursiveTier>(loop, *engine,
                                                     tier_config);
    resolver::DohServerConfig doh_config;
    doh_config.tls.chain = tlssim::CertificateChain::cloudflare();
    doh_server = std::make_unique<resolver::DohServer>(server, *tier,
                                                       doh_config, 443);
    udp_server = std::make_unique<resolver::UdpServer>(server, *engine, 53);
    DohClientConfig doh_client_config;
    doh_client_config.server_name = "cloudflare-dns.com";
    doh = std::make_unique<DohClient>(
        client, simnet::Address{server.id(), 443}, doh_client_config);
    udp = std::make_unique<UdpResolverClient>(
        client, simnet::Address{server.id(), 53});
  }

  static dns::Name name(const std::string& n) { return dns::Name::parse(n); }
};

TEST_F(ShedInterplayTest, FallbackRescuesSheddingPrimary) {
  start();
  FallbackResolverClient trr(loop, *doh, *udp, {});
  ResolutionResult observed;
  trr.resolve(name("a.example.com"), dns::RType::kA,
              [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(observed.response.flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(trr.stats().primary_shed, 1u);
  EXPECT_EQ(trr.stats().fallback_used, 1u);
  EXPECT_EQ(trr.stats().primary_wins, 0u);
  // The REFUSED arrived quickly, so the rescue started long before the
  // 1500ms deadline would have.
  EXPECT_LT(observed.resolution_time(), simnet::ms(500));
}

TEST_F(ShedInterplayTest, RcodeFailuresOffSurfacesTheShed) {
  start();
  FallbackConfig config;
  config.rcode_failures = false;  // pre-fix behaviour, now opt-in
  FallbackResolverClient trr(loop, *doh, *udp, config);
  ResolutionResult observed;
  trr.resolve(name("a.example.com"), dns::RType::kA,
              [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_EQ(observed.response.flags.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(trr.stats().primary_shed, 0u);
  EXPECT_EQ(trr.stats().fallback_used, 0u);
}

TEST_F(ShedInterplayTest, ShedRefusedTripsTheBreaker) {
  start();
  HealthConfig config;
  config.failure_threshold = 2;
  HealthTrackingClient health(loop, {doh.get(), udp.get()}, config);
  for (int i = 0; i < 3; ++i) {
    ResolutionResult observed;
    health.resolve(name("q" + std::to_string(i) + ".example.com"),
                   dns::RType::kA,
                   [&](const ResolutionResult& r) { observed = r; });
    loop.run();
    EXPECT_TRUE(observed.success);
    EXPECT_EQ(observed.response.flags.rcode, dns::Rcode::kNoError);
  }
  // Two REFUSED answers tripped the DoH breaker; the third query skipped
  // straight to UDP without touching the shedding resolver.
  EXPECT_EQ(health.health(0).failures, 2u);
  EXPECT_EQ(health.health(0).breaker_trips, 1u);
  EXPECT_EQ(health.health(0).queries, 2u);
  EXPECT_EQ(health.health(0).state, BreakerState::kOpen);
  EXPECT_EQ(health.failovers(), 2u);
  EXPECT_EQ(health.exhausted(), 0u);
}

TEST_F(ShedInterplayTest, ShedRefusedIsNeverCached) {
  start();
  CachingResolverClient cached(loop, *doh, {});
  cached.resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  cached.resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  // Both lookups went upstream; the REFUSED was never admitted, not even
  // as a negative entry.
  EXPECT_EQ(cached.stats().misses, 2u);
  EXPECT_EQ(cached.size(), 0u);
  EXPECT_EQ(cached.stats().negative_entries, 0u);
}

}  // namespace
}  // namespace dohperf::core
