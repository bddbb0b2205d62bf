// Network-churn fabric and migration-aware clients: silent NAT rebinds
// black-hole old 5-tuples (both directions), flaps gate the interface, and
// the recovery machinery — session-cache resumption, ticket invalidation on
// server restart, real DoQ path migration — behaves deterministically.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/engine.hpp"
#include "resolver/udp_server.hpp"
#include "sim_fixture.hpp"
#include "simnet/netchange.hpp"

namespace dohperf {
namespace {

using dohperf::testing::TwoHostFixture;

class NetworkChangeTest : public TwoHostFixture {
 protected:
  static dns::Name name(const std::string& n) { return dns::Name::parse(n); }
};

// --- raw fabric -------------------------------------------------------------

TEST_F(NetworkChangeTest, SilentRebindBlackholesTcpBothWays) {
  std::size_t server_rx = 0;
  std::size_t client_rx = 0;
  bool client_reset = false;
  std::shared_ptr<simnet::TcpConnection> accepted;
  server.tcp_listen(9000, [&](std::shared_ptr<simnet::TcpConnection> conn) {
    accepted = conn;
    simnet::TcpCallbacks cbs;
    cbs.on_data = [&](const simnet::BufferSlice& d) {
      server_rx += d.size();
    };
    accepted->set_callbacks(std::move(cbs));
  });

  auto conn = client.tcp_connect({server.id(), 9000});
  simnet::TcpCallbacks cbs;
  cbs.on_connected = [&]() { conn->send(simnet::Bytes{1, 2, 3}); };
  cbs.on_data = [&](const simnet::BufferSlice& d) {
    client_rx += d.size();
  };
  cbs.on_reset = [&]() { client_reset = true; };
  conn->set_callbacks(std::move(cbs));

  loop.schedule_at(simnet::ms(100), [&]() {
    EXPECT_EQ(server_rx, 3u);  // pre-rebind bytes arrived
    client.rebind(/*rst_old_flows=*/false);
    conn->send(simnet::Bytes{4, 5, 6});      // egress: dies at the NAT
    accepted->send(simnet::Bytes{7, 8, 9});  // ingress: dies at the NAT
  });
  loop.run();

  // Nothing sent after the rebind got through, in either direction, and the
  // client connection eventually gave up (RTO cap) and errored out.
  EXPECT_EQ(server_rx, 3u);
  EXPECT_EQ(client_rx, 0u);
  EXPECT_TRUE(client_reset);
  EXPECT_EQ(client.tcp_connection_count(), 0u);
}

TEST_F(NetworkChangeTest, RstRebindResetsConnectionsImmediately) {
  server.tcp_listen(9000, [](std::shared_ptr<simnet::TcpConnection> conn) {
    conn->set_callbacks({});
  });
  auto conn = client.tcp_connect({server.id(), 9000});
  simnet::TimeUs reset_at = 0;
  simnet::TcpCallbacks cbs;
  cbs.on_reset = [&]() { reset_at = loop.now(); };
  conn->set_callbacks(std::move(cbs));

  loop.schedule_at(simnet::ms(100),
                   [&]() { client.rebind(/*rst_old_flows=*/true); });
  loop.run();

  // A RST-ing middlebox surfaces the death synchronously, not after RTOs.
  EXPECT_EQ(reset_at, simnet::ms(100));
}

TEST_F(NetworkChangeTest, RebindReportsUdpSocketInPlace) {
  auto& server_sock = server.udp_open(7777);
  server_sock.set_receiver(
      [&](const simnet::Bytes& payload, simnet::Address from) {
        server_sock.send_to(from, payload);  // echo to the source address
      });

  auto& sock = client.udp_open(0);
  const std::uint16_t old_port = sock.local().port;
  std::size_t echoes = 0;
  sock.set_receiver(
      [&](const simnet::Bytes&, simnet::Address) { ++echoes; });

  sock.send_to({server.id(), 7777}, simnet::Bytes{1});
  loop.schedule_at(simnet::ms(100), [&]() {
    EXPECT_EQ(echoes, 1u);
    client.rebind(/*rst_old_flows=*/false);
    // The socket object survives, silently re-ported.
    EXPECT_NE(sock.local().port, old_port);
    // A straggler reply to the old port finds no socket and vanishes...
    server_sock.send_to({client.id(), old_port}, simnet::Bytes{9});
    // ...while traffic from the new port round-trips normally.
    sock.send_to({server.id(), 7777}, simnet::Bytes{2});
  });
  loop.run();

  EXPECT_EQ(echoes, 2u);
}

TEST_F(NetworkChangeTest, ProfileSwapDoesNotCorruptRtoState) {
  std::size_t server_rx = 0;
  std::shared_ptr<simnet::TcpConnection> accepted;
  server.tcp_listen(9000, [&](std::shared_ptr<simnet::TcpConnection> conn) {
    accepted = conn;
    simnet::TcpCallbacks cbs;
    cbs.on_data = [&](const simnet::BufferSlice& d) {
      server_rx += d.size();
      accepted->send(simnet::Bytes(d.begin(), d.end()));  // echo
    };
    accepted->set_callbacks(std::move(cbs));
  });

  auto conn = client.tcp_connect({server.id(), 9000});
  std::size_t echoes = 0;
  bool reset = false;
  simnet::TcpCallbacks cbs;
  cbs.on_data = [&](const simnet::BufferSlice& d) { echoes += d.size(); };
  cbs.on_reset = [&]() { reset = true; };
  conn->set_callbacks(std::move(cbs));

  // One exchange every 200ms; the Wi-Fi -> LTE swap (RTT 10ms -> 80ms)
  // lands mid-stream. RFC 6298 keeps RTO >= 200ms (the rto_min clamp), so a
  // correctly maintained estimator never fires a spurious retransmission
  // for the suddenly-slower but intact path.
  constexpr int kExchanges = 20;
  for (int i = 0; i < kExchanges; ++i) {
    loop.schedule_at(simnet::ms(200) * (i + 1),
                     [&]() { conn->send(simnet::Bytes{42}); });
  }
  loop.schedule_at(simnet::ms(2100), [&]() {
    simnet::LinkConfig lte;
    lte.latency = simnet::ms(40);
    net.reconfigure(client.id(), server.id(), lte);
    client.notify_network_change(simnet::NetworkChangeKind::kProfileSwap);
  });
  loop.run();

  EXPECT_EQ(server_rx, static_cast<std::size_t>(kExchanges));
  EXPECT_EQ(echoes, static_cast<std::size_t>(kExchanges));
  EXPECT_FALSE(reset);
  EXPECT_EQ(conn->counters().retransmits, 0u);
  EXPECT_EQ(accepted->counters().retransmits, 0u);
}

TEST_F(NetworkChangeTest, ListenersNeverSeeSilentRebinds) {
  std::vector<simnet::NetworkChangeKind> seen;
  client.add_network_change_listener(
      [&](simnet::NetworkChangeKind kind) { seen.push_back(kind); });

  simnet::LinkConfig lte;
  lte.latency = simnet::ms(40);
  simnet::NetworkChangeSchedule schedule;
  schedule.add_rebind(simnet::ms(10), /*rst_old_flows=*/false);
  schedule.add_profile_swap(simnet::ms(20), lte);
  schedule.add_flap(simnet::ms(30), simnet::ms(5));
  simnet::apply_network_changes(client, server.id(), schedule);
  loop.run();

  // The silent rebind is invisible (clients must detect it by stall+probe);
  // the OS-visible events arrive in order.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], simnet::NetworkChangeKind::kProfileSwap);
  EXPECT_EQ(seen[1], simnet::NetworkChangeKind::kFlap);
}

// --- determinism ------------------------------------------------------------

namespace flap_digest {

/// A UDP query workload through an interface flap; returns a digest of every
/// per-query outcome and completion time.
std::string run(std::uint64_t seed) {
  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host client(net, "client");
  simnet::Host server(net, "server");
  simnet::LinkConfig link;
  link.latency = simnet::ms(5);
  net.connect(client.id(), server.id(), link);

  simnet::NetworkChangeSchedule schedule;
  schedule.add_flap(simnet::ms(500), simnet::ms(300));
  simnet::apply_network_changes(client, server.id(), schedule);

  resolver::EngineConfig engine_config;
  engine_config.seed = seed;
  resolver::Engine engine(loop, engine_config);
  resolver::UdpServer udp_server(server, engine, 53);

  core::UdpClientConfig config;
  config.timeout = simnet::ms(250);
  config.max_retries = 8;
  core::UdpResolverClient stub(client, {server.id(), 53}, config);

  constexpr std::size_t kQueries = 20;
  std::vector<std::uint64_t> ids(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    loop.schedule_at(simnet::ms(50) * (i + 1), [&, i]() {
      ids[i] = stub.resolve(
          dns::Name::parse("q" + std::to_string(i) + ".example.com"),
          dns::RType::kA, {});
    });
  }
  loop.run();

  std::string digest;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto& r = stub.result(ids[i]);
    digest += std::to_string(i) + ":" + (r.success ? "ok" : "fail") + ":" +
              std::to_string(r.completed_at) + ";";
  }
  return digest;
}

}  // namespace flap_digest

TEST(NetworkChangeDeterminism, FlapAndRecoverySameSeedByteIdentical) {
  const std::string first = flap_digest::run(42);
  const std::string second = flap_digest::run(42);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // And every query eventually succeeded through the 300ms flap.
  EXPECT_EQ(first.find("fail"), std::string::npos);
}

// --- migration-aware clients -------------------------------------------------

class MigrationClientTest : public NetworkChangeTest {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;

  resolver::Engine& make_engine() {
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    return *engine;
  }

  static core::RetryPolicy retry_policy() {
    core::RetryPolicy retry;
    retry.max_retries = 3;
    retry.backoff_initial = simnet::ms(50);
    retry.backoff_max = simnet::ms(200);
    retry.query_timeout = simnet::ms(500);
    retry.seed = 99;
    return retry;
  }
};

TEST_F(MigrationClientTest, DotReconnectResumesFromSessionCache) {
  resolver::DotServer dot_server(server, make_engine(), {}, 853);
  tlssim::SessionCache cache;
  core::DotClientConfig config;
  config.server_name = "local.resolver";
  config.session_cache = &cache;
  config.retry = retry_policy();
  core::DotClient stub(client, {server.id(), 853}, config);

  bool q1_ok = false;
  bool q2_ok = false;
  std::uint64_t full_hs_bytes = 0;
  stub.resolve(name("one.example.com"), dns::RType::kA,
               [&](const core::ResolutionResult& r) { q1_ok = r.success; });
  loop.schedule_at(simnet::ms(200), [&]() {
    full_hs_bytes = stub.migration_stats().handshake_bytes;
    // Silent NAT rebind: the established connection is black-holed; the
    // next query stalls, times out, and the reconnect must resume from the
    // cached session ticket.
    client.rebind(/*rst_old_flows=*/false);
    stub.resolve(name("two.example.com"), dns::RType::kA,
                 [&](const core::ResolutionResult& r) { q2_ok = r.success; });
  });
  loop.run();

  EXPECT_TRUE(q1_ok);
  EXPECT_TRUE(q2_ok);
  const auto& m = stub.migration_stats();
  EXPECT_EQ(m.full_handshakes, 1u);
  EXPECT_EQ(m.resumed_handshakes, 1u);
  // The resumed handshake skipped the certificate chain: strictly cheaper.
  EXPECT_LT(m.handshake_bytes - full_hs_bytes, full_hs_bytes);
}

TEST_F(MigrationClientTest, DotRaceWinAccountsEachHandshakeOnce) {
  resolver::DotServer dot_server(server, make_engine(), {}, 853);
  tlssim::SessionCache cache;
  core::DotClientConfig config;
  config.server_name = "local.resolver";
  config.session_cache = &cache;
  config.retry = retry_policy();
  config.migration.enabled = true;
  core::DotClient stub(client, {server.id(), 853}, config);

  bool q1_ok = false;
  bool q2_ok = false;
  stub.resolve(name("one.example.com"), dns::RType::kA,
               [&](const core::ResolutionResult& r) { q1_ok = r.success; });
  loop.schedule_at(simnet::ms(200), [&]() {
    // Silent NAT rebind: the next query stalls on the old connection, the
    // stall timer races a fresh connection against it, and the fresh one
    // wins with a resumed handshake.
    client.rebind(/*rst_old_flows=*/false);
    stub.resolve(name("two.example.com"), dns::RType::kA,
                 [&](const core::ResolutionResult& r) { q2_ok = r.success; });
  });
  loop.run();

  EXPECT_TRUE(q1_ok);
  EXPECT_TRUE(q2_ok);
  const auto& m = stub.migration_stats();
  EXPECT_EQ(m.migrations, 1u);
  EXPECT_EQ(m.full_handshakes, 1u);
  EXPECT_EQ(m.resumed_handshakes, 1u);
  EXPECT_EQ(m.full_handshakes + m.resumed_handshakes,
            dot_server.tls_handshakes());
}

TEST_F(MigrationClientTest, ServerRestartInvalidatesSessionTicket) {
  resolver::DotServer dot_server(server, make_engine(), {}, 853);
  tlssim::SessionCache cache;
  core::DotClientConfig config;
  config.server_name = "local.resolver";
  config.session_cache = &cache;
  config.retry = retry_policy();
  core::DotClient stub(client, {server.id(), 853}, config);

  bool q2_ok = false;
  stub.resolve(name("one.example.com"), dns::RType::kA, {});
  // The restart RSTs the connection and rolls the ticket key epoch: the
  // cached ticket is now stale and the reconnect must fall back to a full
  // handshake (not fail, not resume).
  loop.schedule_at(simnet::ms(200),
                   [&]() { dot_server.restart(simnet::ms(100)); });
  loop.schedule_at(simnet::ms(500), [&]() {
    stub.resolve(name("two.example.com"), dns::RType::kA,
                 [&](const core::ResolutionResult& r) { q2_ok = r.success; });
  });
  loop.run();

  EXPECT_TRUE(q2_ok);
  const auto& m = stub.migration_stats();
  EXPECT_EQ(m.full_handshakes, 2u);
  EXPECT_EQ(m.resumed_handshakes, 0u);
}

TEST_F(MigrationClientTest, DoqMigrationSurvivesRebindWithoutNewHandshake) {
  resolver::DoqServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::generic("local.resolver");
  server_config.quic.allow_migration = true;
  resolver::DoqServer doq_server(server, make_engine(), server_config, 8853);

  core::DoqClientConfig config;
  config.server_name = "local.resolver";
  config.retry = retry_policy();
  config.migration.enabled = true;
  core::DoqClient stub(client, {server.id(), 8853}, config);

  bool q1_ok = false;
  bool q2_ok = false;
  stub.resolve(name("one.example.com"), dns::RType::kA,
               [&](const core::ResolutionResult& r) { q1_ok = r.success; });
  // A handover: silent rebind plus the OS-visible profile-swap event. The
  // client probes the new path instead of reconnecting; the QUIC connection
  // survives re-addressing with zero new handshakes.
  simnet::LinkConfig lte;
  lte.latency = simnet::ms(40);
  simnet::NetworkChangeSchedule schedule;
  schedule.add_rebind(simnet::ms(200), /*rst_old_flows=*/false);
  schedule.add_profile_swap(simnet::ms(200), lte);
  simnet::apply_network_changes(client, server.id(), schedule);
  loop.schedule_at(simnet::ms(400), [&]() {
    stub.resolve(name("two.example.com"), dns::RType::kA,
                 [&](const core::ResolutionResult& r) { q2_ok = r.success; });
  });
  loop.run();

  EXPECT_TRUE(q1_ok);
  EXPECT_TRUE(q2_ok);
  const auto& m = stub.migration_stats();
  EXPECT_EQ(m.full_handshakes, 1u);
  EXPECT_EQ(m.resumed_handshakes, 0u);
  EXPECT_GE(m.migrations, 1u);
}

}  // namespace
}  // namespace dohperf
