// Overload-control units and the RecursiveTier they compose into: exact
// trajectories for the deterministic primitives (token bucket, AIMD
// admission controller, retry budget, fairness arbiter) and event-loop
// tests for every tier decision path (cache hit, coalesce, queue bound,
// deadline shed, admission shed, fairness shed, retry-budget shed, upstream
// service timeout), plus the tier cache's eviction order, checked case by
// case and against a linear-scan reference model, and where the tier's
// metrics land after set_obs() switches registries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dns/message.hpp"
#include "obs/registry.hpp"
#include "registry_switch.hpp"
#include "resolver/overload.hpp"
#include "resolver/recursive_tier.hpp"
#include "simnet/event_loop.hpp"
#include "stats/rng.hpp"

namespace dohperf {
namespace {

dns::Name name(const char* n) { return dns::Name::parse(n); }

// --- TokenBucket -----------------------------------------------------------

TEST(TokenBucket, StartsFullAndRefillsExactly) {
  // 2 tokens/s, burst 2: the refill trajectory is exact integer arithmetic.
  resolver::TokenBucket bucket(2000, 2000);
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));  // burst drained
  // 250ms at 2000 milli/s = 500 milli: not yet a whole token.
  EXPECT_EQ(bucket.balance_milli(simnet::ms(250)), 500u);
  EXPECT_FALSE(bucket.try_take(simnet::ms(250)));
  // 500ms = exactly 1000 milli.
  EXPECT_TRUE(bucket.try_take(simnet::ms(500)));
  EXPECT_FALSE(bucket.try_take(simnet::ms(500)));
}

TEST(TokenBucket, FractionalRefillCarriesWithoutDrift) {
  // 1 milli-token/s: each microsecond contributes 1/1e6 of a milli-token.
  // After exactly 1e6 us the balance must be exactly 1 milli — no rounding
  // loss from intermediate reads.
  resolver::TokenBucket bucket(1, 1000);
  ASSERT_TRUE(bucket.try_take(0, 1000));  // drain the burst
  EXPECT_EQ(bucket.balance_milli(simnet::us(999'999)), 0u);
  EXPECT_EQ(bucket.balance_milli(simnet::us(1'000'000)), 1u);
  EXPECT_EQ(bucket.balance_milli(simnet::us(500'000'000)), 500u);
}

TEST(TokenBucket, BurstCapsAccumulation) {
  resolver::TokenBucket bucket(1000, 3000);
  EXPECT_EQ(bucket.balance_milli(simnet::seconds(100)), 3000u);
  EXPECT_TRUE(bucket.try_take(simnet::seconds(100)));
  EXPECT_TRUE(bucket.try_take(simnet::seconds(100)));
  EXPECT_TRUE(bucket.try_take(simnet::seconds(100)));
  EXPECT_FALSE(bucket.try_take(simnet::seconds(100)));
}

TEST(TokenBucket, CostParameterTakesMultipleTokens) {
  resolver::TokenBucket bucket(1000, 5000);
  EXPECT_TRUE(bucket.try_take(0, 4000));
  EXPECT_FALSE(bucket.try_take(0, 2000));
  EXPECT_TRUE(bucket.try_take(0, 1000));
}

// --- AdmissionController ---------------------------------------------------

resolver::AdmissionConfig admission_config() {
  resolver::AdmissionConfig config;
  config.min_limit = 2;
  config.max_limit = 100;
  config.initial_limit = 10;
  config.window = 4;
  config.inflate_permille = 2000;  // avg > 2x best => congested
  config.decrease_permille = 800;
  config.increase_step = 1;
  return config;
}

TEST(AdmissionController, HealthyWindowsClimbAdditively) {
  resolver::AdmissionController adm(admission_config());
  EXPECT_EQ(adm.limit(), 10u);
  // Four samples at the best latency: avg == best <= 2x best => +1.
  for (int i = 0; i < 4; ++i) adm.record(simnet::ms(10));
  EXPECT_EQ(adm.limit(), 11u);
  EXPECT_EQ(adm.increases(), 1u);
  EXPECT_EQ(adm.decreases(), 0u);
  EXPECT_EQ(adm.best_latency(), simnet::ms(10));
  for (int i = 0; i < 4; ++i) adm.record(simnet::ms(15));
  EXPECT_EQ(adm.limit(), 12u);  // 15ms <= 20ms threshold: still healthy
}

TEST(AdmissionController, InflatedWindowDecreasesMultiplicatively) {
  resolver::AdmissionController adm(admission_config());
  for (int i = 0; i < 4; ++i) adm.record(simnet::ms(10));  // best=10, limit=11
  for (int i = 0; i < 4; ++i) adm.record(simnet::ms(50));  // avg 50 > 20
  EXPECT_EQ(adm.limit(), 8u);  // 11 * 800 / 1000 = 8
  EXPECT_EQ(adm.decreases(), 1u);
  // Recovery: healthy windows climb back one step at a time.
  for (int i = 0; i < 4; ++i) adm.record(simnet::ms(12));
  EXPECT_EQ(adm.limit(), 9u);
}

TEST(AdmissionController, LimitStaysWithinBounds) {
  resolver::AdmissionController adm(admission_config());
  adm.record(simnet::ms(1));  // establish best = 1ms
  for (int w = 0; w < 20; ++w) {
    for (int i = 0; i < 4; ++i) adm.record(simnet::ms(100));
  }
  EXPECT_EQ(adm.limit(), 2u);  // clamped at min_limit
  for (int w = 0; w < 200; ++w) {
    for (int i = 0; i < 4; ++i) adm.record(simnet::ms(1));
  }
  EXPECT_EQ(adm.limit(), 100u);  // clamped at max_limit
}

TEST(AdmissionController, BestLatencyIsMinimumEverSeen) {
  resolver::AdmissionController adm(admission_config());
  adm.record(simnet::ms(30));
  EXPECT_EQ(adm.best_latency(), simnet::ms(30));
  adm.record(simnet::ms(5));
  EXPECT_EQ(adm.best_latency(), simnet::ms(5));
  adm.record(simnet::ms(40));
  EXPECT_EQ(adm.best_latency(), simnet::ms(5));
}

// --- RetryBudget -----------------------------------------------------------

TEST(RetryBudget, ReserveAllowsColdStartRetries) {
  resolver::RetryBudget budget(100, 2500, 10000);
  EXPECT_TRUE(budget.try_withdraw());   // 2500 -> 1500
  EXPECT_TRUE(budget.try_withdraw());   // 1500 -> 500
  EXPECT_FALSE(budget.try_withdraw());  // < 1000: shed
  EXPECT_EQ(budget.balance_milli(), 500u);
}

TEST(RetryBudget, DepositsGrowTenPercentOfFreshTraffic) {
  resolver::RetryBudget budget(100, 0, 10000);
  EXPECT_FALSE(budget.try_withdraw());
  for (int i = 0; i < 10; ++i) budget.deposit();  // 10 x 100 = 1000 milli
  EXPECT_TRUE(budget.try_withdraw());
  EXPECT_FALSE(budget.try_withdraw());
}

TEST(RetryBudget, CapBoundsTheBalance) {
  resolver::RetryBudget budget(100, 0, 1500);
  for (int i = 0; i < 100; ++i) budget.deposit();
  EXPECT_EQ(budget.balance_milli(), 1500u);
  EXPECT_TRUE(budget.try_withdraw());
  EXPECT_FALSE(budget.try_withdraw());  // 500 left
}

// --- FairnessArbiter -------------------------------------------------------

TEST(FairnessArbiter, PerClientBucketsAreIndependent) {
  resolver::FairnessConfig config;
  config.rate_milli = 1000;   // 1 q/s
  config.burst_milli = 2000;  // burst of 2
  resolver::FairnessArbiter fair(config);

  EXPECT_TRUE(fair.admit(1, 0));
  EXPECT_TRUE(fair.admit(1, 0));
  EXPECT_FALSE(fair.admit(1, 0));  // client 1 drained its burst
  EXPECT_TRUE(fair.admit(2, 0));   // client 2 unaffected
  // After 1s client 1 has exactly one token back.
  EXPECT_TRUE(fair.admit(1, simnet::seconds(1)));
  EXPECT_FALSE(fair.admit(1, simnet::seconds(1)));

  const auto& shares = fair.shares();
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_EQ(shares.at(1).admitted, 3u);
  EXPECT_EQ(shares.at(1).throttled, 2u);
  EXPECT_EQ(shares.at(2).admitted, 1u);
  EXPECT_EQ(shares.at(2).throttled, 0u);
}

// --- RecursiveTier ---------------------------------------------------------

/// Scriptable back-end: answers every query with one A record after
/// `delay`, unless `respond` is off (stall). The record's TTL is
/// `ttls[query id]` when set, else `ttl`.
class ScriptedUpstream final : public resolver::QueryHandler {
 public:
  explicit ScriptedUpstream(simnet::EventLoop& loop) : loop_(loop) {}

  simnet::TimeUs delay = simnet::ms(10);
  std::uint32_t ttl = 60;
  std::map<std::uint16_t, std::uint32_t> ttls;
  bool respond = true;
  int calls = 0;

  void handle(const dns::Message& query, const resolver::QueryContext&,
              Continuation done) override {
    ++calls;
    if (!respond) return;  // stall: accept, never answer
    const auto scripted = ttls.find(query.id);
    dns::Message response = dns::Message::make_response(
        query, {dns::ResourceRecord::a(
                   query.questions.front().qname, "192.0.2.1",
                   scripted == ttls.end() ? ttl : scripted->second)});
    loop_.schedule_in(delay, [response = std::move(response),
                              done = std::move(done)]() mutable {
      done(std::move(response));
    });
  }

 private:
  simnet::EventLoop& loop_;
};

class RecursiveTierTest : public ::testing::Test {
 protected:
  /// Issue a query through the tier at `at`, recording the response.
  /// Returns the query's id.
  std::uint16_t ask(resolver::RecursiveTier& tier, const char* qname,
                    std::uint64_t client, simnet::TimeUs at,
                    std::optional<dns::Message>* out) {
    const std::uint16_t id = next_id_++;
    loop.schedule_at(at, [this, &tier, qname, client, id, out]() {
      const dns::Message query = dns::Message::make_query(id, name(qname));
      resolver::QueryContext context;
      context.client = client;
      tier.handle(query, context,
                  [out](dns::Message response) { *out = std::move(response); });
    });
    return id;
  }

  /// ask() from client 1 whose upstream answer carries a TTL of `ttl`
  /// seconds; the response itself is dropped.
  void ask_ttl(resolver::RecursiveTier& tier, ScriptedUpstream& upstream,
               const char* qname, simnet::TimeUs at, std::uint32_t ttl) {
    upstream.ttls[ask(tier, qname, 1, at, &sink_)] = ttl;
  }

  simnet::EventLoop loop;
  std::uint16_t next_id_ = 1;
  std::optional<dns::Message> sink_;
};

TEST_F(RecursiveTierTest, CacheHitSkipsUpstreamAndKeepsQueryId) {
  ScriptedUpstream upstream(loop);
  resolver::RecursiveTier tier(loop, upstream, {});
  std::optional<dns::Message> first, second;
  ask(tier, "a.example.com", 1, 0, &first);
  ask(tier, "a.example.com", 2, simnet::ms(100), &second);
  loop.run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(upstream.calls, 1);
  EXPECT_EQ(second->id, 2);  // rewritten to the second query's id
  EXPECT_EQ(second->flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(tier.stats().cache_hits, 1u);
  EXPECT_EQ(tier.stats().cache_misses, 1u);
  EXPECT_EQ(tier.stats().served, 2u);
}

TEST_F(RecursiveTierTest, TtlExpiryMakesTheNextQueryAMiss) {
  ScriptedUpstream upstream(loop);
  upstream.ttl = 2;
  resolver::RecursiveTier tier(loop, upstream, {});
  std::optional<dns::Message> first, second;
  ask(tier, "a.example.com", 1, 0, &first);
  ask(tier, "a.example.com", 1, simnet::seconds(3), &second);
  loop.run();
  EXPECT_EQ(upstream.calls, 2);
  EXPECT_EQ(tier.stats().cache_misses, 2u);
}

TEST_F(RecursiveTierTest, ConcurrentMissesCoalesceOntoOneUpstreamCall) {
  ScriptedUpstream upstream(loop);
  upstream.delay = simnet::ms(50);
  resolver::TierConfig config;
  config.workers = 4;
  resolver::RecursiveTier tier(loop, upstream, config);
  std::optional<dns::Message> a, b, c;
  ask(tier, "a.example.com", 1, 0, &a);
  ask(tier, "a.example.com", 2, simnet::ms(10), &b);
  ask(tier, "a.example.com", 3, simnet::ms(20), &c);
  loop.run();
  EXPECT_EQ(upstream.calls, 1);
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(b->flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(tier.stats().coalesced, 2u);
  EXPECT_EQ(tier.stats().served, 3u);
}

TEST_F(RecursiveTierTest, BoundedQueueShedsRefusedWhenFull) {
  ScriptedUpstream upstream(loop);
  upstream.delay = simnet::ms(100);
  resolver::TierConfig config;
  config.workers = 1;
  config.bound_queue = true;
  config.queue_capacity = 1;
  resolver::RecursiveTier tier(loop, upstream, config);
  // Three distinct names at t=0: one dispatches, one queues, one sheds.
  std::optional<dns::Message> a, b, c;
  ask(tier, "a.example.com", 1, 0, &a);
  ask(tier, "b.example.com", 1, 0, &b);
  ask(tier, "c.example.com", 1, 0, &c);
  loop.run();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->flags.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(tier.stats().shed_queue_full, 1u);
  EXPECT_EQ(tier.stats().served, 2u);
  EXPECT_EQ(tier.stats().sheds(), 1u);
  EXPECT_EQ(tier.stats().per_client.at(1).shed, 1u);
}

TEST_F(RecursiveTierTest, DeadlineShedsStaleRequestsAtDequeue) {
  ScriptedUpstream upstream(loop);
  upstream.delay = simnet::ms(500);
  resolver::TierConfig config;
  config.workers = 1;
  config.deadline = simnet::ms(200);
  config.expected_service = simnet::ms(10);
  resolver::RecursiveTier tier(loop, upstream, config);
  // b waits 500ms behind a's slow resolution: 500 + 10 > 200 => shed.
  std::optional<dns::Message> a, b;
  ask(tier, "a.example.com", 1, 0, &a);
  ask(tier, "b.example.com", 1, 0, &b);
  loop.run();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->flags.rcode, dns::Rcode::kNoError);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->flags.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(tier.stats().shed_deadline, 1u);
}

TEST_F(RecursiveTierTest, AdmissionLimitBoundsOutstandingWork) {
  ScriptedUpstream upstream(loop);
  upstream.delay = simnet::ms(100);
  resolver::TierConfig config;
  config.workers = 1;
  config.admission_enabled = true;
  config.admission.min_limit = 2;
  config.admission.max_limit = 2;
  config.admission.initial_limit = 2;
  resolver::RecursiveTier tier(loop, upstream, config);
  std::optional<dns::Message> a, b, c;
  ask(tier, "a.example.com", 1, 0, &a);
  ask(tier, "b.example.com", 1, 0, &b);
  ask(tier, "c.example.com", 1, 0, &c);  // queued + inflight = 2 = limit
  loop.run();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->flags.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(tier.stats().shed_admission, 1u);
  EXPECT_EQ(tier.admission_limit(), 2u);
}

TEST_F(RecursiveTierTest, FairnessShedsOnlyTheGreedyClient) {
  ScriptedUpstream upstream(loop);
  resolver::TierConfig config;
  config.workers = 4;
  config.fairness_enabled = true;
  config.fairness.rate_milli = 1000;
  config.fairness.burst_milli = 1000;  // one query, then throttled
  resolver::RecursiveTier tier(loop, upstream, config);
  std::optional<dns::Message> a1, a2, b1;
  ask(tier, "a.example.com", 1, 0, &a1);
  ask(tier, "b.example.com", 1, 0, &a2);  // client 1 over budget
  ask(tier, "c.example.com", 2, 0, &b1);  // client 2 unaffected
  loop.run();
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a2->flags.rcode, dns::Rcode::kRefused);
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(tier.stats().shed_fairness, 1u);
  ASSERT_NE(tier.fairness(), nullptr);
  EXPECT_EQ(tier.fairness()->shares().at(1).throttled, 1u);
}

TEST_F(RecursiveTierTest, RetryBudgetShedsDetectedRetransmissions) {
  ScriptedUpstream upstream(loop);
  upstream.delay = simnet::ms(500);
  resolver::TierConfig config;
  config.workers = 1;
  config.coalesce = false;  // force the repeat to be its own job
  config.retry_budget_enabled = true;
  config.retry_ratio_permille = 100;
  config.retry_reserve_milli = 0;  // empty budget: first retry sheds
  config.retry_window = simnet::seconds(2);
  resolver::RecursiveTier tier(loop, upstream, config);
  // The client "retransmits" while the original is still in flight.
  std::optional<dns::Message> first, retry;
  ask(tier, "a.example.com", 1, 0, &first);
  ask(tier, "a.example.com", 1, simnet::ms(100), &retry);
  loop.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->flags.rcode, dns::Rcode::kNoError);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->flags.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(tier.stats().retries_detected, 1u);
  EXPECT_EQ(tier.stats().shed_retry_budget, 1u);
}

TEST_F(RecursiveTierTest, RetryBudgetAdmitsRetriesWhileFunded) {
  ScriptedUpstream upstream(loop);
  upstream.delay = simnet::ms(500);
  resolver::TierConfig config;
  config.workers = 2;
  config.coalesce = false;
  config.retry_budget_enabled = true;
  config.retry_reserve_milli = 1000;  // funds exactly one retry
  resolver::RecursiveTier tier(loop, upstream, config);
  std::optional<dns::Message> first, retry;
  ask(tier, "a.example.com", 1, 0, &first);
  ask(tier, "a.example.com", 1, simnet::ms(100), &retry);
  loop.run();
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(tier.stats().retries_detected, 1u);
  EXPECT_EQ(tier.stats().shed_retry_budget, 0u);
  ASSERT_NE(tier.retry_budget(), nullptr);
  // 1000 reserve - 1000 withdrawn + 1 fresh deposit of 100.
  EXPECT_EQ(tier.retry_budget()->balance_milli(), 100u);
}

TEST_F(RecursiveTierTest, ServiceTimeoutReclaimsStalledSlot) {
  ScriptedUpstream upstream(loop);
  upstream.respond = false;  // stall every query
  resolver::TierConfig config;
  config.workers = 1;
  config.service_timeout = simnet::ms(300);
  resolver::RecursiveTier tier(loop, upstream, config);
  std::optional<dns::Message> stalled, after;
  ask(tier, "a.example.com", 1, 0, &stalled);
  loop.schedule_at(simnet::ms(400), [&]() { upstream.respond = true; });
  ask(tier, "b.example.com", 1, simnet::ms(500), &after);
  loop.run();
  ASSERT_TRUE(stalled.has_value());
  EXPECT_EQ(stalled->flags.rcode, dns::Rcode::kServFail);
  EXPECT_EQ(tier.stats().upstream_timeouts, 1u);
  // The slot was reclaimed: the later query is served normally.
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(tier.inflight(), 0u);
}

TEST_F(RecursiveTierTest, ShedCanAnswerServfailInstead) {
  ScriptedUpstream upstream(loop);
  resolver::TierConfig config;
  config.workers = 1;
  config.bound_queue = true;
  config.queue_capacity = 0;
  config.shed_refused = false;
  resolver::RecursiveTier tier(loop, upstream, config);
  std::optional<dns::Message> a, b;
  ask(tier, "a.example.com", 1, 0, &a);
  ask(tier, "b.example.com", 1, 0, &b);
  loop.run();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->flags.rcode, dns::Rcode::kServFail);
}

TEST_F(RecursiveTierTest, EmptyQuestionAnswersFormErr) {
  ScriptedUpstream upstream(loop);
  resolver::RecursiveTier tier(loop, upstream, {});
  std::optional<dns::Message> out;
  loop.schedule_at(0, [&]() {
    dns::Message query;
    query.id = 9;
    tier.handle(query, {}, [&](dns::Message r) { out = std::move(r); });
  });
  loop.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->flags.rcode, dns::Rcode::kFormErr);
  EXPECT_EQ(out->id, 9);
  EXPECT_EQ(upstream.calls, 0);
}

TEST_F(RecursiveTierTest, ShedResponsesAreNeverCached) {
  ScriptedUpstream upstream(loop);
  upstream.delay = simnet::ms(100);
  resolver::TierConfig config;
  config.workers = 1;
  config.bound_queue = true;
  config.queue_capacity = 1;
  resolver::RecursiveTier tier(loop, upstream, config);
  std::optional<dns::Message> a, b, c, c_again;
  ask(tier, "a.example.com", 1, 0, &a);    // dispatches
  ask(tier, "b.example.com", 1, 0, &b);    // queued
  ask(tier, "c.example.com", 1, 0, &c);    // shed REFUSED
  // Later, with the tier idle, the shed name must go upstream (a cached
  // REFUSED would answer immediately with the wrong rcode).
  ask(tier, "c.example.com", 1, simnet::seconds(1), &c_again);
  loop.run();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->flags.rcode, dns::Rcode::kRefused);
  ASSERT_TRUE(c_again.has_value());
  EXPECT_EQ(c_again->flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(upstream.calls, 3);
}

// --- RecursiveTier cache eviction ---------------------------------------------

TEST_F(RecursiveTierTest, EvictionTakesTheEarliestExpiryFirst) {
  ScriptedUpstream upstream(loop);
  resolver::TierConfig config;
  config.cache_entries = 2;
  resolver::RecursiveTier tier(loop, upstream, config);
  // a is the smallest key and went in first; b expires first.
  ask_ttl(tier, upstream, "a.example.com", 0, 30);
  ask_ttl(tier, upstream, "b.example.com", simnet::ms(100), 10);
  ask_ttl(tier, upstream, "c.example.com", simnet::ms(200), 20);
  loop.run_until(simnet::ms(500));
  EXPECT_EQ(tier.stats().cache_evictions, 1u);

  ask_ttl(tier, upstream, "a.example.com", simnet::seconds(1), 30);
  ask_ttl(tier, upstream, "c.example.com", simnet::seconds(1), 20);
  loop.run_until(simnet::ms(1500));
  EXPECT_EQ(upstream.calls, 3) << "a and c stayed cached";
  EXPECT_EQ(tier.stats().cache_hits, 2u);

  ask_ttl(tier, upstream, "b.example.com", simnet::seconds(2), 10);
  loop.run();
  EXPECT_EQ(upstream.calls, 4) << "b was the one evicted";
  EXPECT_EQ(tier.stats().cache_evictions, 2u);
}

TEST_F(RecursiveTierTest, ExpiryTieEvictsTheSmallerKey) {
  ScriptedUpstream upstream(loop);
  resolver::TierConfig config;
  config.cache_entries = 2;
  resolver::RecursiveTier tier(loop, upstream, config);
  // Both answers land at 10 ms with one TTL, so they expire at one instant;
  // b goes into the cache first.
  ask_ttl(tier, upstream, "b.example.com", 0, 5);
  ask_ttl(tier, upstream, "a.example.com", 0, 5);
  ask_ttl(tier, upstream, "c.example.com", simnet::ms(100), 5);
  loop.run_until(simnet::ms(500));
  EXPECT_EQ(tier.stats().cache_evictions, 1u);

  ask_ttl(tier, upstream, "b.example.com", simnet::seconds(1), 5);
  loop.run_until(simnet::ms(1500));
  EXPECT_EQ(upstream.calls, 3) << "b stayed cached";
  EXPECT_EQ(tier.stats().cache_hits, 1u);

  ask_ttl(tier, upstream, "a.example.com", simnet::seconds(2), 5);
  loop.run();
  EXPECT_EQ(upstream.calls, 4) << "a was the one evicted";
}

TEST_F(RecursiveTierTest, CachingAnAlreadyCachedKeyEvictsNothing) {
  ScriptedUpstream upstream(loop);
  resolver::TierConfig config;
  config.cache_entries = 2;
  resolver::RecursiveTier tier(loop, upstream, config);
  ask_ttl(tier, upstream, "a.example.com", 0, 1);
  ask_ttl(tier, upstream, "b.example.com", 0, 60);
  // The cache is full, and a has expired but is still in it: a's refresh
  // replaces the entry in place.
  ask_ttl(tier, upstream, "a.example.com", simnet::seconds(2), 60);
  ask_ttl(tier, upstream, "a.example.com", simnet::seconds(3), 60);
  ask_ttl(tier, upstream, "b.example.com", simnet::seconds(3), 60);
  loop.run();
  EXPECT_EQ(upstream.calls, 3);
  EXPECT_EQ(tier.stats().cache_insertions, 3u);
  EXPECT_EQ(tier.stats().cache_hits, 2u);
  EXPECT_EQ(tier.stats().cache_evictions, 0u);
}

TEST_F(RecursiveTierTest, ExpiredEntryIsEvictedBeforeLiveOnes) {
  ScriptedUpstream upstream(loop);
  resolver::TierConfig config;
  config.cache_entries = 2;
  resolver::RecursiveTier tier(loop, upstream, config);
  ask_ttl(tier, upstream, "a.example.com", 0, 60);
  // z is the larger key and the last in, and it expires at 1.11 s.
  ask_ttl(tier, upstream, "z.example.com", simnet::ms(100), 1);
  ask_ttl(tier, upstream, "c.example.com", simnet::seconds(2), 60);
  ask_ttl(tier, upstream, "a.example.com", simnet::ms(2500), 60);
  ask_ttl(tier, upstream, "c.example.com", simnet::ms(2500), 60);
  loop.run();
  EXPECT_EQ(upstream.calls, 3) << "a and c stayed cached";
  EXPECT_EQ(tier.stats().cache_hits, 2u);
  EXPECT_EQ(tier.stats().cache_evictions, 1u);
}

TEST_F(RecursiveTierTest, ZeroCacheEntriesCachesNothing) {
  ScriptedUpstream upstream(loop);
  resolver::TierConfig config;
  config.cache_entries = 0;
  resolver::RecursiveTier tier(loop, upstream, config);
  ask_ttl(tier, upstream, "a.example.com", 0, 60);
  ask_ttl(tier, upstream, "a.example.com", simnet::seconds(1), 60);
  loop.run();
  EXPECT_EQ(upstream.calls, 2);
  EXPECT_EQ(tier.stats().cache_insertions, 0u);
  EXPECT_EQ(tier.stats().cache_evictions, 0u);
}

// A completion already in flight when set_obs() hands the tier another
// registry counts there, under the tier's own names.
TEST_F(RecursiveTierTest, AnswerAfterSetObsLandsInTheNewRegistry) {
  ScriptedUpstream upstream(loop);  // answers 10 ms after each miss
  obs::Registry a, b;
  testing::add_foreign_metrics(b);
  const auto b_foreign = testing::exported(b);
  resolver::TierConfig config;
  config.obs.metrics = &a;
  resolver::RecursiveTier tier(loop, upstream, config);
  std::optional<dns::Message> first, second;
  ask(tier, "a.example.com", 1, 0, &first);
  std::map<std::string, std::string> a_at_switch;
  loop.schedule_at(simnet::ms(1), [&]() {
    a_at_switch = testing::exported(a);
    tier.set_obs(obs::SpanContext{nullptr, 0, &b});
  });
  loop.run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(a.counter("tier.requests"), 1u);
  EXPECT_EQ(testing::exported(a), a_at_switch);
  testing::expect_only_added(b_foreign, b, {"tier."});
  EXPECT_EQ(b.counter("tier.served"), 1u);
  EXPECT_EQ(b.histogram_summary("tier.latency_ms").count, 1u);

  // Switched to a context without a registry mid-flight: nothing counts.
  ask(tier, "b.example.com", 1, loop.now(), &second);
  std::map<std::string, std::string> a_before, b_before;
  loop.schedule_at(loop.now() + simnet::ms(1), [&]() {
    a_before = testing::exported(a);
    b_before = testing::exported(b);
    tier.set_obs(obs::SpanContext{});
  });
  loop.run();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(testing::exported(a), a_before);
  EXPECT_EQ(testing::exported(b), b_before);
}

/// The tier cache's eviction rule as a linear scan: the entry with the
/// earliest expiry goes, the first in key order on a tie, and a key that is
/// already cached is replaced in place. The differential test below checks
/// the tier against it query by query.
class LinearScanCache {
 public:
  explicit LinearScanCache(std::size_t capacity) : capacity_(capacity) {}

  bool live(const dns::Name& key, simnet::TimeUs now) const {
    const auto it = entries_.find(key);
    return it != entries_.end() && it->second > now;
  }

  void insert(const dns::Name& key, simnet::TimeUs expires) {
    if (entries_.find(key) == entries_.end() &&
        entries_.size() >= capacity_) {
      auto victim = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second < victim->second) victim = it;
      }
      for (const auto& [other, other_expires] : entries_) {
        if (other_expires == victim->second && !(other == victim->first)) {
          ++tied_evictions;
          break;
        }
      }
      entries_.erase(victim);
      ++evictions;
    }
    entries_[key] = expires;
  }

  std::uint64_t evictions = 0;
  /// Evictions where another entry shared the victim's expiry.
  std::uint64_t tied_evictions = 0;

 private:
  std::size_t capacity_;
  std::map<dns::Name, simnet::TimeUs> entries_;
};

TEST_F(RecursiveTierTest, EvictionMatchesALinearScanQueryByQuery) {
  constexpr std::size_t kQueries = 6000;
  constexpr std::size_t kNames = 96;
  constexpr simnet::TimeUs kTick = simnet::ms(10);
  ScriptedUpstream upstream(loop);
  upstream.delay = simnet::ms(5);  // every burst's answers land together
  resolver::TierConfig config;
  config.workers = 1024;  // nothing queues: a miss dispatches at once
  config.cache_entries = 16;
  resolver::RecursiveTier tier(loop, upstream, config);

  std::vector<dns::Name> names;
  for (std::size_t i = 0; i < kNames; ++i) {
    const std::string index = std::to_string(i);
    names.push_back(name(("n" + index + ".example.com").c_str()));
  }
  // Seeded bursts of 1-4 queries, one per tick, names skewed towards low
  // indices, each answer's TTL drawn from {1, 2, 3} s.
  struct Query {
    std::size_t name = 0;
    std::uint32_t ttl = 0;
  };
  std::vector<std::vector<Query>> bursts;
  stats::SplitMix64 rng(1801);
  for (std::size_t issued = 0; issued < kQueries;) {
    std::vector<Query> burst;
    const std::uint64_t size = 1 + rng.next_below(4);
    for (std::uint64_t k = 0; k < size && issued < kQueries; ++k, ++issued) {
      Query q;
      q.name = rng.next_below(1 + rng.next_below(kNames));
      q.ttl = static_cast<std::uint32_t>(1 + rng.next_below(3));
      burst.push_back(q);
    }
    bursts.push_back(std::move(burst));
  }

  LinearScanCache model(config.cache_entries);
  int model_calls = 0;
  std::uint64_t model_hits = 0;
  std::uint16_t id = 0;
  std::string divergence;  // the first query or landing that differs
  for (std::size_t b = 0; b < bursts.size(); ++b) {
    loop.schedule_at(static_cast<simnet::TimeUs>(b) * kTick, [&, b]() {
      std::vector<Query> dispatched;  // misses that reach the upstream
      for (const Query& q : bursts[b]) {
        if (model.live(names[q.name], loop.now())) {
          ++model_hits;
        } else if (std::none_of(
                       dispatched.begin(), dispatched.end(),
                       [&](const Query& d) { return d.name == q.name; })) {
          ++model_calls;
          dispatched.push_back(q);
        }  // else coalesced onto this burst's miss
        upstream.ttls[++id] = q.ttl;
        tier.handle(dns::Message::make_query(id, names[q.name]), {},
                    [](dns::Message) {});
        if (divergence.empty() && (upstream.calls != model_calls ||
                                   tier.stats().cache_hits != model_hits)) {
          divergence = "query " + std::to_string(id);
        }
      }
      // Scheduled after the upstream's answers, so it runs after they land.
      loop.schedule_in(upstream.delay, [&, dispatched]() {
        for (const Query& q : dispatched) {
          model.insert(names[q.name], loop.now() + simnet::seconds(q.ttl));
        }
        if (divergence.empty() &&
            tier.stats().cache_evictions != model.evictions) {
          divergence = "landing at " + std::to_string(loop.now()) + " us";
        }
      });
    });
  }
  loop.run();

  EXPECT_EQ(divergence, "");
  EXPECT_EQ(upstream.calls, model_calls);
  EXPECT_EQ(tier.stats().cache_hits, model_hits);
  EXPECT_EQ(tier.stats().cache_evictions, model.evictions);
  EXPECT_EQ(tier.stats().served, kQueries);
  // The run exercises what it is for: a full cache and exact expiry ties.
  EXPECT_GT(model.evictions, 1000u);
  EXPECT_GT(model.tied_evictions, 100u);
}

}  // namespace
}  // namespace dohperf
