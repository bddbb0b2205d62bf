// Fault-injection fabric and resilient clients: scheduled link impairments
// (outage / latency spike / throttle), Gilbert–Elliott bursty loss,
// server-side fault policies (SERVFAIL/REFUSED/stall), server restarts, and
// the reconnect/retry behaviour of the DoH and DoT (and plain DNS-over-TCP)
// clients plus the circuit-breaker resolver selector.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/doh_client.hpp"
#include "core/dot_client.hpp"
#include "core/health_client.hpp"
#include "core/recovery.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/udp_server.hpp"
#include "sim_fixture.hpp"

namespace dohperf {
namespace {

using dohperf::testing::TwoHostFixture;

dns::Name name(const char* n) { return dns::Name::parse(n); }

// --- Link impairments ------------------------------------------------------------

class LinkFaultTest : public TwoHostFixture {
 protected:
  /// Raw one-datagram probe: returns the virtual arrival time, or -1 when
  /// the datagram was lost.
  simnet::TimeUs probe_at(simnet::TimeUs send_time,
                          std::size_t payload_bytes = 32) {
    auto& tx = client.udp_open(10000 + probes_);
    auto& rx = server.udp_open(20000 + probes_);
    ++probes_;
    simnet::TimeUs arrival = -1;
    rx.set_receiver([&arrival, this](const simnet::Bytes&, simnet::Address) {
      arrival = loop.now();
    });
    loop.schedule_at(send_time, [&tx, &rx, payload_bytes]() {
      tx.send_to(rx.local(), simnet::Bytes(payload_bytes, 0xab));
    });
    loop.run();
    return arrival;
  }

  int probes_ = 0;
};

TEST_F(LinkFaultTest, OutageWindowDropsPackets) {
  simnet::FaultSchedule schedule;
  schedule.add_outage(simnet::ms(10), simnet::ms(50));
  net.inject_faults(client.id(), server.id(), schedule);

  EXPECT_EQ(probe_at(simnet::ms(0)), simnet::ms(5));  // before: 5ms link
  EXPECT_EQ(probe_at(simnet::ms(20)), -1);            // inside: dropped
  EXPECT_EQ(probe_at(simnet::ms(59)), -1);            // [start, end) closed
  EXPECT_EQ(probe_at(simnet::ms(60)), simnet::ms(65));  // end is exclusive
  EXPECT_EQ(net.fault_drops(), 2u);
  EXPECT_EQ(net.packets_dropped(), 2u);
}

TEST_F(LinkFaultTest, LatencySpikeDelaysDelivery) {
  simnet::FaultSchedule schedule;
  schedule.add_latency_spike(simnet::ms(0), simnet::ms(100),
                             /*extra=*/simnet::ms(40));
  net.inject_faults(client.id(), server.id(), schedule);

  EXPECT_EQ(probe_at(simnet::ms(0)), simnet::ms(45));    // 5ms + 40ms spike
  EXPECT_EQ(probe_at(simnet::ms(200)), simnet::ms(205));  // back to normal
}

TEST_F(LinkFaultTest, ThrottleCapsBandwidth) {
  // 8000 bit/s cap: a 1000-byte datagram serializes in exactly one second.
  simnet::FaultSchedule schedule;
  schedule.add_throttle(simnet::ms(0), simnet::seconds(10), /*bps=*/8000.0);
  net.inject_faults(client.id(), server.id(), schedule);

  const simnet::TimeUs arrival = probe_at(simnet::ms(0), /*payload=*/1000);
  // Serialization includes UDP+IP framing overhead, so >= payload time.
  EXPECT_GE(arrival, simnet::seconds(1) + simnet::ms(5));
  EXPECT_LT(arrival, simnet::seconds(2));
}

TEST_F(LinkFaultTest, ClearingScheduleRestoresLink) {
  simnet::FaultSchedule schedule;
  schedule.add_outage(simnet::ms(0), simnet::seconds(10));
  net.inject_faults(client.id(), server.id(), schedule);
  net.inject_faults(client.id(), server.id(), simnet::FaultSchedule{});
  EXPECT_EQ(probe_at(simnet::ms(0)), simnet::ms(5));
  EXPECT_EQ(net.fault_drops(), 0u);
}

TEST_F(LinkFaultTest, GilbertElliottBadStateDropsBursts) {
  // Degenerate chain that enters (and never leaves) the bad state on the
  // first packet, with certain loss there: everything drops.
  simnet::LinkConfig link;
  link.latency = simnet::ms(5);
  link.gilbert_elliott.enabled = true;
  link.gilbert_elliott.p_good_to_bad = 1.0;
  link.gilbert_elliott.p_bad_to_good = 0.0;
  link.gilbert_elliott.loss_good = 0.0;
  link.gilbert_elliott.loss_bad = 1.0;
  net.reconfigure(client.id(), server.id(), link);

  EXPECT_EQ(probe_at(simnet::ms(0)), -1);
  EXPECT_EQ(probe_at(simnet::ms(10)), -1);
  EXPECT_EQ(net.packets_dropped(), 2u);
  EXPECT_EQ(net.fault_drops(), 0u);  // stochastic loss, not scheduled
}

TEST(FaultSchedule, RandomOutagesAreDeterministic) {
  const auto a = simnet::FaultSchedule::random_outages(
      /*seed=*/99, /*rate_per_sec=*/0.5, simnet::seconds(2),
      simnet::seconds(600));
  const auto b = simnet::FaultSchedule::random_outages(
      /*seed=*/99, /*rate_per_sec=*/0.5, simnet::seconds(2),
      simnet::seconds(600));
  ASSERT_EQ(a.faults().size(), b.faults().size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].start, b.faults()[i].start);
    EXPECT_EQ(a.faults()[i].end, b.faults()[i].end);
  }
  const auto c = simnet::FaultSchedule::random_outages(
      /*seed=*/100, /*rate_per_sec=*/0.5, simnet::seconds(2),
      simnet::seconds(600));
  ASSERT_FALSE(c.empty());
  EXPECT_NE(c.faults()[0].start, a.faults()[0].start);
}

// --- Engine fault policies -------------------------------------------------------

class EngineFaultTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;

  core::ResolutionResult resolve_udp(core::UdpClientConfig client_config) {
    resolver::Engine engine(loop, engine_config);
    resolver::UdpServer udp_server(server, engine, 53);
    core::UdpResolverClient stub(client, {server.id(), 53}, client_config);
    core::ResolutionResult observed;
    stub.resolve(name("a.example"), dns::RType::kA,
                 [&](const core::ResolutionResult& r) { observed = r; });
    loop.run();
    stats_ = engine.stats();
    return observed;
  }

  resolver::EngineStats stats_;
};

TEST_F(EngineFaultTest, ServfailInjection) {
  engine_config.faults.servfail_rate = 1.0;
  const auto r = resolve_udp({});
  ASSERT_TRUE(r.success);  // transport worked; the rcode carries the fault
  EXPECT_EQ(r.response.flags.rcode, dns::Rcode::kServFail);
  EXPECT_EQ(stats_.injected_servfail, 1u);
}

TEST_F(EngineFaultTest, RefusedInjection) {
  engine_config.faults.refused_rate = 1.0;
  const auto r = resolve_udp({});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.response.flags.rcode, dns::Rcode::kRefused);
  EXPECT_EQ(stats_.injected_refused, 1u);
}

TEST_F(EngineFaultTest, StallNeverAnswers) {
  engine_config.faults.stall_rate = 1.0;
  core::UdpClientConfig c;
  c.timeout = simnet::ms(500);
  const auto r = resolve_udp(c);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(stats_.stalled, 1u);
}

TEST_F(EngineFaultTest, RatesComposeExclusively) {
  // One uniform draw partitions [0,1): with rates summing to 1 every query
  // draws exactly one fault.
  engine_config.faults.stall_rate = 0.3;
  engine_config.faults.servfail_rate = 0.4;
  engine_config.faults.refused_rate = 0.3;
  resolver::Engine engine(loop, engine_config);
  for (int i = 0; i < 50; ++i) {
    engine.handle(dns::Message::make_query(0, name("x.example")),
                  [](dns::Message) {});
  }
  loop.run();
  const auto& s = engine.stats();
  EXPECT_EQ(s.stalled + s.injected_servfail + s.injected_refused, 50u);
  EXPECT_GT(s.stalled, 0u);
  EXPECT_GT(s.injected_servfail, 0u);
  EXPECT_GT(s.injected_refused, 0u);
}

// --- Server restart --------------------------------------------------------------

TEST_F(TwoHostFixture, UdpServerRestartDropsAndRecovers) {
  resolver::Engine engine(loop, {});
  resolver::UdpServer udp_server(server, engine, 53);
  core::UdpClientConfig config;
  config.timeout = simnet::ms(400);
  config.max_retries = 3;
  core::UdpResolverClient stub(client, {server.id(), 53}, config);

  udp_server.restart(simnet::ms(600));
  core::ResolutionResult observed;
  stub.resolve(name("a.example"), dns::RType::kA,
               [&](const core::ResolutionResult& r) { observed = r; });
  loop.run();

  // First datagram (t=0) and first retransmission (t=400ms) hit the dead
  // window; the second retransmission (t=800ms) lands after recovery.
  EXPECT_TRUE(observed.success);
  EXPECT_EQ(udp_server.dropped_while_down(), 2u);
  EXPECT_GE(observed.resolution_time(), simnet::ms(800));
}

// A server destroyed while it is down takes the end of its downtime with
// it: nothing is left on the loop to run the clock on to.
TEST_F(TwoHostFixture, ServersDestroyedMidDowntimeLeaveNoEvent) {
  resolver::Engine engine(loop, {});
  auto udp = std::make_unique<resolver::UdpServer>(server, engine, 53);
  auto dot = std::make_unique<resolver::DotServer>(
      server, engine, resolver::DotServerConfig{}, 853);
  auto doh = std::make_unique<resolver::DohServer>(
      server, engine, resolver::DohServerConfig{}, 443);
  udp->restart(simnet::seconds(60));
  dot->restart(simnet::seconds(60));
  doh->restart(simnet::seconds(60));
  EXPECT_EQ(loop.pending(), 3u);
  udp.reset();
  EXPECT_EQ(loop.pending(), 2u);
  dot.reset();
  EXPECT_EQ(loop.pending(), 1u);
  doh.reset();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.run(), 0);
}

// --- Reconnecting DoH client -----------------------------------------------------

class DohChaosTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;
  std::unique_ptr<resolver::DohServer> doh_server;

  void start_server() {
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    resolver::DohServerConfig config;
    config.tls.chain = tlssim::CertificateChain::cloudflare();
    doh_server =
        std::make_unique<resolver::DohServer>(server, *engine, config, 443);
  }

  core::DohClientConfig client_config(core::HttpVersion version) {
    core::DohClientConfig c;
    c.server_name = "cloudflare-dns.com";
    c.http_version = version;
    c.retry.max_retries = 8;
    c.retry.backoff_initial = simnet::ms(100);
    c.retry.backoff_max = simnet::seconds(1);
    c.retry.query_timeout = simnet::seconds(3);
    return c;
  }
};

TEST_F(DohChaosTest, SurvivesServerRestartMidQuery) {
  start_server();
  core::DohClient stub(client, {server.id(), 443},
                       client_config(core::HttpVersion::kHttp2));

  // Warm the connection, then crash the server for 2 seconds while queries
  // keep arriving every 100ms.
  std::vector<std::uint64_t> ids;
  loop.schedule_at(simnet::ms(500),
                   [&]() { doh_server->restart(simnet::seconds(2)); });
  for (int i = 0; i < 30; ++i) {
    loop.schedule_at(simnet::ms(100) * i, [&, i]() {
      ids.push_back(stub.resolve(name(("q" + std::to_string(i) + ".example")
                                          .c_str()),
                                 dns::RType::kA, {}));
    });
  }
  loop.run();

  std::size_t ok = 0;
  for (const auto id : ids) {
    if (stub.result(id).success) ++ok;
  }
  // >= 99% eventual success through the 2s outage, within the retry budget.
  EXPECT_EQ(ok, ids.size());
  EXPECT_EQ(stub.retry_stats().budget_exhausted, 0u);
  EXPECT_GE(stub.retry_stats().reconnects, 1u);
  EXPECT_GE(stub.retry_stats().retried_queries, 1u);
  EXPECT_EQ(doh_server->restarts(), 1u);
  EXPECT_TRUE(doh_server->listening());
}

TEST_F(DohChaosTest, QueryTimeoutRecoversFromStalledServer) {
  engine_config.faults.stall_rate = 0.5;  // every other query stalls
  start_server();
  auto config = client_config(core::HttpVersion::kHttp2);
  config.retry.query_timeout = simnet::ms(800);
  core::DohClient stub(client, {server.id(), 443}, config);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i) {
    const std::string index = std::to_string(i);
    ids.push_back(stub.resolve(
        name(("s" + index + ".example").c_str()),
        dns::RType::kA, {}));
  }
  loop.run();

  for (const auto id : ids) EXPECT_TRUE(stub.result(id).success);
  EXPECT_GT(stub.retry_stats().query_timeouts, 0u);
  EXPECT_EQ(stub.retry_stats().budget_exhausted, 0u);
}

TEST_F(DohChaosTest, BudgetBoundsRetries) {
  start_server();
  auto config = client_config(core::HttpVersion::kHttp2);
  config.retry.max_retries = 2;
  config.retry.query_timeout = 0;
  core::DohClient stub(client, {server.id(), 443}, config);

  // Crash while the first connection is still handshaking and never come
  // back: the query must fail after exactly its retry budget.
  loop.schedule_at(simnet::ms(10),
                   [&]() { doh_server->restart(simnet::seconds(3600)); });
  const auto id = stub.resolve(name("doomed.example"), dns::RType::kA, {});
  loop.run_until(simnet::seconds(60));

  EXPECT_FALSE(stub.result(id).success);
  EXPECT_EQ(stub.retry_stats().retried_queries, 2u);
  EXPECT_EQ(stub.retry_stats().budget_exhausted, 1u);
}

TEST_F(DohChaosTest, FailFastWithoutRetryPolicy) {
  start_server();
  core::DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  core::DohClient stub(client, {server.id(), 443}, config);

  // Crash mid-handshake (the SYN arrives after ~5ms) so the in-flight
  // query sees the reset before it can complete.
  loop.schedule_at(simnet::ms(8),
                   [&]() { doh_server->restart(simnet::seconds(1)); });
  const auto id = stub.resolve(name("a.example"), dns::RType::kA, {});
  loop.run();

  EXPECT_FALSE(stub.result(id).success);
  EXPECT_EQ(stub.retry_stats().retried_queries, 0u);
}

// disconnect() is deliberate: whatever is in flight on the persistent
// connection fails at once and is never re-issued, on either HTTP version
// and with or without a RetryPolicy.
TEST_F(DohChaosTest, DisconnectFailsOutstanding) {
  start_server();
  for (const auto version :
       {core::HttpVersion::kHttp1, core::HttpVersion::kHttp2}) {
    for (const bool with_retries : {false, true}) {
      SCOPED_TRACE(std::string(version == core::HttpVersion::kHttp2 ? "h2"
                                                                     : "h1") +
                   (with_retries ? " with retries" : " without retries"));
      auto config = client_config(version);
      if (!with_retries) config.retry = {};
      core::DohClient stub(client, {server.id(), 443}, config);
      const auto warm = stub.resolve(name("warm.example"), dns::RType::kA, {});
      loop.run();
      ASSERT_TRUE(stub.result(warm).success);

      bool done = false;
      core::ResolutionResult observed;
      const auto id = stub.resolve(name("cut.example"), dns::RType::kA,
                                   [&](const core::ResolutionResult& r) {
                                     done = true;
                                     observed = r;
                                   });
      const simnet::TimeUs cut_at = loop.now() + 1;  // request in flight
      loop.schedule_at(cut_at, [&]() { stub.disconnect(); });
      loop.run_until(loop.now() + simnet::seconds(60));

      ASSERT_TRUE(done);
      EXPECT_FALSE(observed.success);
      EXPECT_EQ(observed.completed_at, cut_at);
      EXPECT_FALSE(stub.result(id).success);
      EXPECT_EQ(stub.retry_stats().retried_queries, 0u);
      EXPECT_EQ(stub.retry_stats().budget_exhausted, 0u);
      EXPECT_EQ(stub.completed(), 2u);
    }
  }
}

TEST_F(DohChaosTest, RecoversFromLinkOutage) {
  start_server();
  auto config = client_config(core::HttpVersion::kHttp2);
  config.retry.query_timeout = simnet::seconds(2);
  core::DohClient stub(client, {server.id(), 443}, config);

  // Black-hole the link (no RSTs, pure silence) while queries keep coming.
  simnet::FaultSchedule schedule;
  schedule.add_outage(simnet::seconds(4), /*duration=*/simnet::seconds(2));
  net.inject_faults(client.id(), server.id(), schedule);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 40; ++i) {
    loop.schedule_at(simnet::ms(3000) + simnet::ms(100) * i, [&, i]() {
      ids.push_back(stub.resolve(
          name(("o" + std::to_string(i) + ".example").c_str()),
          dns::RType::kA, {}));
    });
  }
  loop.run();

  ASSERT_EQ(ids.size(), 40u);
  for (const auto id : ids) EXPECT_TRUE(stub.result(id).success);
  EXPECT_EQ(stub.retry_stats().budget_exhausted, 0u);
}

// --- Reconnecting DoT client, with and without TLS -------------------------------

// The DoT client/server pair and its plain DNS-over-TCP mode share one
// reconnect, retry and timeout path; both must recover alike.

std::uint16_t stream_port(bool plain_tcp) { return plain_tcp ? 53 : 853; }

resolver::DotServerConfig stream_server_config(bool plain_tcp) {
  resolver::DotServerConfig config;
  config.plain_tcp = plain_tcp;
  return config;
}

core::DotClientConfig stream_client_config(bool plain_tcp) {
  core::DotClientConfig config;
  config.plain_tcp = plain_tcp;
  config.retry.max_retries = 8;
  return config;
}

void expect_reconnects_through_restart(simnet::EventLoop& loop,
                                       simnet::Host& client,
                                       simnet::Host& server, bool plain_tcp) {
  resolver::Engine engine(loop, {});
  resolver::DotServer dot_server(server, engine,
                                 stream_server_config(plain_tcp),
                                 stream_port(plain_tcp));
  core::DotClientConfig config = stream_client_config(plain_tcp);
  config.retry.backoff_initial = simnet::ms(100);
  config.retry.backoff_max = simnet::seconds(1);
  core::DotClient stub(client, {server.id(), stream_port(plain_tcp)}, config);

  std::vector<std::uint64_t> ids;
  loop.schedule_at(simnet::ms(300),
                   [&]() { dot_server.restart(simnet::seconds(2)); });
  for (int i = 0; i < 20; ++i) {
    loop.schedule_at(simnet::ms(150) * i, [&, i]() {
      ids.push_back(stub.resolve(
          name(("d" + std::to_string(i) + ".example").c_str()),
          dns::RType::kA, {}));
    });
  }
  loop.run();

  for (const auto id : ids) EXPECT_TRUE(stub.result(id).success);
  EXPECT_EQ(stub.retry_stats().budget_exhausted, 0u);
  EXPECT_GE(stub.retry_stats().reconnects, 1u);
  EXPECT_EQ(dot_server.restarts(), 1u);
}

void expect_timeout_recovers_from_stall(simnet::EventLoop& loop,
                                        simnet::Host& client,
                                        simnet::Host& server, bool plain_tcp) {
  resolver::EngineConfig engine_config;
  engine_config.faults.stall_rate = 0.3;
  resolver::Engine engine(loop, engine_config);
  resolver::DotServer dot_server(server, engine,
                                 stream_server_config(plain_tcp),
                                 stream_port(plain_tcp));
  core::DotClientConfig config = stream_client_config(plain_tcp);
  config.retry.query_timeout = simnet::ms(800);
  core::DotClient stub(client, {server.id(), stream_port(plain_tcp)}, config);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 20; ++i) {
    loop.schedule_at(simnet::ms(100) * i, [&, i]() {
      ids.push_back(stub.resolve(
          name(("t" + std::to_string(i) + ".example").c_str()),
          dns::RType::kA, {}));
    });
  }
  loop.run();

  ASSERT_EQ(ids.size(), 20u);
  for (const auto id : ids) EXPECT_TRUE(stub.result(id).success);
  EXPECT_GT(stub.retry_stats().query_timeouts, 0u);
  EXPECT_EQ(stub.retry_stats().budget_exhausted, 0u);
}

TEST_F(TwoHostFixture, DotClientReconnectsThroughRestart) {
  expect_reconnects_through_restart(loop, client, server, /*plain_tcp=*/false);
}

TEST_F(TwoHostFixture, DotClientPlainTcpReconnectsThroughRestart) {
  expect_reconnects_through_restart(loop, client, server, /*plain_tcp=*/true);
}

TEST_F(TwoHostFixture, DotClientTimeoutRecoversFromStalledServer) {
  expect_timeout_recovers_from_stall(loop, client, server, /*plain_tcp=*/false);
}

TEST_F(TwoHostFixture, DotClientPlainTcpTimeoutRecoversFromStalledServer) {
  expect_timeout_recovers_from_stall(loop, client, server, /*plain_tcp=*/true);
}

// --- Circuit-breaker selector ----------------------------------------------------

class HealthTest : public TwoHostFixture {
 protected:
  void start(double primary_servfail_rate) {
    resolver::EngineConfig bad;
    bad.faults.servfail_rate = primary_servfail_rate;
    primary_engine = std::make_unique<resolver::Engine>(loop, bad);
    secondary_engine =
        std::make_unique<resolver::Engine>(loop, resolver::EngineConfig{});
    primary_server = std::make_unique<resolver::UdpServer>(
        server, *primary_engine, 53);
    secondary_server = std::make_unique<resolver::UdpServer>(
        server, *secondary_engine, 54);
    primary = std::make_unique<core::UdpResolverClient>(
        client, simnet::Address{server.id(), 53});
    secondary = std::make_unique<core::UdpResolverClient>(
        client, simnet::Address{server.id(), 54});
  }

  std::unique_ptr<resolver::Engine> primary_engine, secondary_engine;
  std::unique_ptr<resolver::UdpServer> primary_server, secondary_server;
  std::unique_ptr<core::UdpResolverClient> primary, secondary;
};

TEST_F(HealthTest, FailsOverOnServfailAndTripsBreaker) {
  start(/*primary_servfail_rate=*/1.0);
  core::HealthConfig config;
  config.failure_threshold = 3;
  config.open_duration = simnet::seconds(30);
  core::HealthTrackingClient selector(
      loop, {primary.get(), secondary.get()}, config);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    loop.schedule_at(simnet::ms(100) * i, [&, i]() {
      ids.push_back(selector.resolve(
          name(("h" + std::to_string(i) + ".example").c_str()),
          dns::RType::kA, {}));
    });
  }
  loop.run();

  for (const auto id : ids) EXPECT_TRUE(selector.result(id).success);
  // First three queries probe the primary, fail over, and trip its breaker;
  // later queries go straight to the secondary.
  EXPECT_EQ(selector.health(0).breaker_trips, 1u);
  EXPECT_EQ(selector.health(0).queries, 3u);
  EXPECT_EQ(selector.health(1).queries, 6u);
  EXPECT_EQ(selector.failovers(), 3u);
  EXPECT_EQ(selector.exhausted(), 0u);
}

TEST_F(HealthTest, HalfOpenProbeClosesBreakerAfterRecovery) {
  start(/*primary_servfail_rate=*/1.0);
  core::HealthConfig config;
  config.failure_threshold = 2;
  config.open_duration = simnet::seconds(5);
  core::HealthTrackingClient selector(
      loop, {primary.get(), secondary.get()}, config);

  // Trip the primary's breaker.
  for (int i = 0; i < 2; ++i) {
    loop.schedule_at(simnet::ms(100) * i, [&, i]() {
      selector.resolve(name(("t" + std::to_string(i) + ".example").c_str()),
                       dns::RType::kA, {});
    });
  }
  loop.run();
  EXPECT_EQ(selector.health(0).state, core::BreakerState::kOpen);

  // After the cool-down the next query is allowed through as a probe.
  std::uint64_t probe_id = 0;
  loop.schedule_at(simnet::seconds(10), [&]() {
    probe_id = selector.resolve(name("probe.example"), dns::RType::kA, {});
  });
  loop.run();
  EXPECT_TRUE(selector.result(probe_id).success);
  // The probe still hit the broken engine (SERVFAIL) and failed over, so
  // the breaker re-opened immediately — half-open behaviour.
  EXPECT_EQ(selector.health(0).breaker_trips, 2u);
  EXPECT_EQ(selector.health(0).state, core::BreakerState::kOpen);
}

// --- Backoff ---------------------------------------------------------------------

TEST(Backoff, GrowsGeometricallyWithinJitterAndResets) {
  core::RetryPolicy policy;
  policy.backoff_initial = simnet::ms(100);
  policy.backoff_max = simnet::seconds(2);
  core::Backoff backoff(policy);

  double expected_base = 100e3;
  for (int i = 0; i < 8; ++i) {
    const auto d = static_cast<double>(backoff.next());
    EXPECT_GE(d, expected_base * 0.8 - 1);
    EXPECT_LE(d, expected_base * 1.2 + 1);
    expected_base = std::min(expected_base * 2.0, 2e6);
  }
  backoff.reset();
  const auto again = static_cast<double>(backoff.next());
  EXPECT_GE(again, 100e3 * 0.8 - 1);
  EXPECT_LE(again, 100e3 * 1.2 + 1);
}

TEST(Backoff, DeterministicForSameSeed) {
  core::RetryPolicy policy;
  policy.seed = 1234;
  core::Backoff a(policy), b(policy);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace dohperf
