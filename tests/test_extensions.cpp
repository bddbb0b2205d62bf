// Tests for the extensions beyond the paper's core experiments:
// DNS-over-TCP (RFC 7766: the DoT client and server with `plain_tcp`) and
// the packet-trace tooling.
#include <gtest/gtest.h>

#include "core/dot_client.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/engine.hpp"
#include "sim_fixture.hpp"
#include "simnet/trace.hpp"

namespace dohperf {
namespace {

using testing::TwoHostFixture;

/// Client and server configs for plain DNS-over-TCP.
core::DotClientConfig tcp_client_config() {
  core::DotClientConfig config;
  config.plain_tcp = true;
  return config;
}

resolver::DotServerConfig tcp_server_config() {
  resolver::DotServerConfig config;
  config.plain_tcp = true;
  return config;
}

class TcpDnsTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;

  resolver::Engine& make_engine() {
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    return *engine;
  }
};

TEST_F(TcpDnsTest, EndToEndResolution) {
  resolver::DotServer dns_server(server, make_engine(), tcp_server_config(),
                                 53);
  core::DotClient client_stub(client, {server.id(), 53},
                              tcp_client_config());

  core::ResolutionResult observed;
  client_stub.resolve(dns::Name::parse("abcde.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) { observed = r; });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(std::get<dns::ARdata>(observed.response.answers.at(0).rdata)
                .to_string(),
            "192.0.2.1");
  // TCP handshake (1 RTT) + query (1 RTT), no TLS.
  EXPECT_GE(observed.resolution_time(), simnet::ms(20));
  EXPECT_LT(observed.resolution_time(), simnet::ms(30));
}

TEST_F(TcpDnsTest, ConnectionReuseAcrossQueries) {
  resolver::DotServer dns_server(server, make_engine(), tcp_server_config(),
                                 53);
  core::DotClient client_stub(client, {server.id(), 53},
                              tcp_client_config());
  simnet::TimeUs first = 0, second = 0;
  client_stub.resolve(dns::Name::parse("a.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) {
                        first = r.resolution_time();
                      });
  loop.run();
  client_stub.resolve(dns::Name::parse("b.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) {
                        second = r.resolution_time();
                      });
  loop.run();
  EXPECT_LT(second, first);  // no handshake the second time
  EXPECT_EQ(dns_server.session_count(), 1u);
}

TEST_F(TcpDnsTest, InOrderServerExhibitsHolBlocking) {
  engine_config.delay_policy.every_n = 2;
  engine_config.delay_policy.delay = simnet::ms(300);
  resolver::DotServer dns_server(server, make_engine(), tcp_server_config(),
                                 53);
  core::DotClient client_stub(client, {server.id(), 53},
                              tcp_client_config());

  simnet::TimeUs slow = 0, fast = 0;
  client_stub.resolve(dns::Name::parse("one.example.com"), dns::RType::kA,
                      {});
  client_stub.resolve(dns::Name::parse("two.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) {
                        slow = r.completed_at;
                      });
  client_stub.resolve(dns::Name::parse("three.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) {
                        fast = r.completed_at;
                      });
  loop.run();
  EXPECT_GE(fast, slow);  // same blocking as in-order DoT, minus the TLS
}

TEST_F(TcpDnsTest, OutOfOrderServerDoesNot) {
  engine_config.delay_policy.every_n = 2;
  engine_config.delay_policy.delay = simnet::ms(300);
  resolver::DotServerConfig ooo = tcp_server_config();
  ooo.out_of_order = true;
  resolver::DotServer dns_server(server, make_engine(), ooo, 53);
  core::DotClient client_stub(client, {server.id(), 53},
                              tcp_client_config());

  simnet::TimeUs slow = 0, fast = 0;
  client_stub.resolve(dns::Name::parse("one.example.com"), dns::RType::kA,
                      {});
  client_stub.resolve(dns::Name::parse("two.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) {
                        slow = r.completed_at;
                      });
  client_stub.resolve(dns::Name::parse("three.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) {
                        fast = r.completed_at;
                      });
  loop.run();
  EXPECT_LT(fast, slow);
}

TEST_F(TcpDnsTest, ServerCloseFailsOutstanding) {
  engine_config.delay_policy.every_n = 1;
  engine_config.delay_policy.delay = simnet::seconds(10);
  auto server_holder = std::make_unique<resolver::DotServer>(
      server, make_engine(), tcp_server_config(), 53);
  core::DotClient client_stub(client, {server.id(), 53},
                              tcp_client_config());
  core::ResolutionResult observed;
  client_stub.resolve(dns::Name::parse("x.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) { observed = r; });
  loop.run_until(simnet::ms(100));
  client_stub.disconnect();  // client gives up
  loop.run_until(simnet::seconds(1));
  EXPECT_FALSE(observed.success);
  EXPECT_EQ(client_stub.completed(), 1u);
}

TEST_F(TcpDnsTest, CheaperThanDotButMoreThanUdp) {
  resolver::DotServer dns_server(server, make_engine(), tcp_server_config(),
                                 53);
  core::DotClient client_stub(client, {server.id(), 53},
                              tcp_client_config());
  client_stub.resolve(dns::Name::parse("a.example.com"), dns::RType::kA, {});
  loop.run();
  client_stub.disconnect();
  loop.run();
  const auto* counters = client_stub.tcp_counters();
  ASSERT_NE(counters, nullptr);
  const auto total = counters->total_wire_bytes();
  EXPECT_GT(total, 176u);   // more than the UDP exchange
  EXPECT_LT(total, 1200u);  // far less than any TLS-bearing transport
}

// --- packet traces ------------------------------------------------------------------

TEST_F(TcpDnsTest, RecordingTapCapturesExchange) {
  simnet::RecordingTap tap;
  net.add_tap(&tap);
  resolver::DotServer dns_server(server, make_engine(), tcp_server_config(),
                                 53);
  core::DotClient client_stub(client, {server.id(), 53},
                              tcp_client_config());
  client_stub.resolve(dns::Name::parse("traced.example.com"), dns::RType::kA,
                      {});
  loop.run();
  net.remove_tap(&tap);

  ASSERT_GE(tap.size(), 5u);  // SYN, SYN-ACK, ACK, query, response, ...
  // First three packets are the TCP handshake.
  const auto& syn = std::get<simnet::TcpSegment>(tap.entries()[0].packet.body);
  EXPECT_TRUE(syn.syn);
  EXPECT_FALSE(syn.ack_flag);
  const auto& synack =
      std::get<simnet::TcpSegment>(tap.entries()[1].packet.body);
  EXPECT_TRUE(synack.syn);
  EXPECT_TRUE(synack.ack_flag);

  const std::string text = tap.render(net);
  EXPECT_NE(text.find("client:"), std::string::npos);
  EXPECT_NE(text.find("> server:53 TCP"), std::string::npos);
  EXPECT_NE(text.find("S seq="), std::string::npos);
  EXPECT_GT(tap.total_bytes(), 0u);
}

TEST_F(TcpDnsTest, FilteredTapIgnoresOtherNodes) {
  simnet::Host bystander(net, "bystander");
  net.connect(client.id(), bystander.id(), {});
  simnet::RecordingTap tap(bystander.id());
  net.add_tap(&tap);

  resolver::DotServer dns_server(server, make_engine(), tcp_server_config(),
                                 53);
  core::DotClient client_stub(client, {server.id(), 53},
                              tcp_client_config());
  client_stub.resolve(dns::Name::parse("x.example.com"), dns::RType::kA, {});
  loop.run();
  EXPECT_EQ(tap.size(), 0u);  // nothing touched the bystander

  auto& sock = client.udp_open();
  bystander.udp_open(9).set_receiver([](const dns::Bytes&, simnet::Address) {});
  sock.send_to({bystander.id(), 9}, dns::Bytes{1});
  loop.run();
  EXPECT_EQ(tap.size(), 1u);
  net.remove_tap(&tap);
}

TEST_F(TcpDnsTest, TapRecordsDrops) {
  simnet::LinkConfig lossy;
  lossy.latency = simnet::ms(1);
  lossy.loss_rate = 1.0;  // everything dropped
  net.reconfigure(client.id(), server.id(), lossy);
  simnet::RecordingTap tap;
  net.add_tap(&tap);
  auto& sock = client.udp_open();
  sock.send_to({server.id(), 53}, dns::Bytes{1, 2, 3});
  loop.run();
  ASSERT_EQ(tap.size(), 1u);
  EXPECT_TRUE(tap.entries()[0].dropped);
  EXPECT_EQ(tap.total_bytes(), 0u);  // dropped packets excluded
  EXPECT_NE(tap.render(net).find("[DROPPED]"), std::string::npos);
  net.remove_tap(&tap);
}

}  // namespace
}  // namespace dohperf
