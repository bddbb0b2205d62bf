// End-to-end integration: core clients against resolver servers over the
// simulated network — the exact stacks the benchmark harnesses use.
#include <gtest/gtest.h>

#include "core/doh_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "obs/registry.hpp"
#include "registry_switch.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/udp_server.hpp"
#include "sim_fixture.hpp"
#include "simnet/packet.hpp"

namespace dohperf::core {
namespace {

using dohperf::testing::TwoHostFixture;

class ResolveTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;

  resolver::Engine& make_engine() {
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    return *engine;
  }

  static dns::Name name(const std::string& n) { return dns::Name::parse(n); }
};

// --- UDP --------------------------------------------------------------------------

TEST_F(ResolveTest, UdpEndToEnd) {
  resolver::UdpServer udp_server(server, make_engine(), 53);
  UdpResolverClient client_stub(client, {server.id(), 53});

  ResolutionResult observed;
  client_stub.resolve(name("abcde.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();

  ASSERT_TRUE(observed.success);
  ASSERT_EQ(observed.response.answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(observed.response.answers[0].rdata)
                .to_string(),
            "192.0.2.1");
  // RTT (10ms) + server processing (100us).
  EXPECT_EQ(observed.resolution_time(), simnet::ms(10) + simnet::us(100));
  // The paper's Fig 3/4 medians: a UDP exchange is ~182 B in 2 packets.
  EXPECT_EQ(observed.cost.packets, 2u);
  EXPECT_GT(observed.cost.wire_bytes, 120u);
  EXPECT_LT(observed.cost.wire_bytes, 260u);
}

TEST_F(ResolveTest, UdpZoneOverride) {
  auto& eng = make_engine();
  eng.add_record(name("special.example.com"), "203.0.113.77");
  resolver::UdpServer udp_server(server, eng, 53);
  UdpResolverClient client_stub(client, {server.id(), 53});

  dns::Message answer;
  client_stub.resolve(name("special.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { answer = r.response; });
  loop.run();
  EXPECT_EQ(std::get<dns::ARdata>(answer.answers.at(0).rdata).to_string(),
            "203.0.113.77");
}

TEST_F(ResolveTest, UdpTimeoutWithoutServer) {
  UdpClientConfig config;
  config.timeout = simnet::ms(300);
  UdpResolverClient client_stub(client, {server.id(), 53}, config);
  ResolutionResult observed;
  client_stub.resolve(name("x.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_FALSE(observed.success);
  EXPECT_EQ(client_stub.timeouts(), 1u);
  EXPECT_EQ(observed.resolution_time(), simnet::ms(300));
}

// A retransmission and a timeout that fire after set_obs() hands the
// client another registry count there, under the client's own names.
TEST_F(ResolveTest, UdpRetryAndTimeoutAfterSetObsLandInTheNewRegistry) {
  obs::Registry a, b;
  testing::add_foreign_metrics(b);
  const auto b_foreign = testing::exported(b);
  UdpClientConfig config;  // no server: every attempt times out
  config.timeout = simnet::ms(300);
  config.max_retries = 1;
  config.obs.metrics = &a;
  UdpResolverClient client_stub(client, {server.id(), 53}, config);
  client_stub.resolve(name("x.example.com"), dns::RType::kA, {});
  const auto a_at_switch = testing::exported(a);
  client_stub.set_obs(obs::SpanContext{nullptr, 0, &b});
  loop.run();
  EXPECT_EQ(client_stub.retransmissions(), 1u);
  EXPECT_EQ(client_stub.timeouts(), 1u);
  EXPECT_EQ(a.counter("client.udp.queries"), 1u);
  EXPECT_EQ(testing::exported(a), a_at_switch);
  testing::expect_only_added(b_foreign, b, {"client.udp.", "bytes."});
  EXPECT_EQ(b.counter("client.udp.retries"), 1u);
  // Every expired deadline: the re-sent first datagram's and the last one's.
  EXPECT_EQ(b.counter("client.udp.timeouts"), 2u);
  EXPECT_EQ(b.counter("client.udp.failures"), 1u);

  // Switched to a context without a registry mid-flight: nothing counts.
  client_stub.resolve(name("y.example.com"), dns::RType::kA, {});
  client_stub.set_obs(obs::SpanContext{});
  const auto a_before = testing::exported(a);
  const auto b_before = testing::exported(b);
  loop.run();
  EXPECT_EQ(client_stub.timeouts(), 2u);
  EXPECT_EQ(testing::exported(a), a_before);
  EXPECT_EQ(testing::exported(b), b_before);
}

TEST_F(ResolveTest, UdpRetryRecoversFromLoss) {
  simnet::LinkConfig lossy;
  lossy.latency = simnet::ms(5);
  lossy.loss_rate = 0.4;
  net.reconfigure(client.id(), server.id(), lossy);

  resolver::UdpServer udp_server(server, make_engine(), 53);
  UdpClientConfig config;
  config.timeout = simnet::ms(200);
  config.max_retries = 10;
  UdpResolverClient client_stub(client, {server.id(), 53}, config);
  int succeeded = 0;
  for (int i = 0; i < 20; ++i) {
    client_stub.resolve(name("q" + std::to_string(i) + ".example.com"),
                        dns::RType::kA, [&](const ResolutionResult& r) {
                          if (r.success) ++succeeded;
                        });
  }
  loop.run();
  EXPECT_EQ(succeeded, 20);
}

/// Every datagram on the wire, in send order.
class DatagramLog final : public simnet::PacketTap {
 public:
  struct Entry {
    simnet::NodeId from;
    std::uint16_t dns_id;
    std::size_t wire_bytes;
  };

  void on_packet(simnet::TimeUs /*when*/, const simnet::Packet& packet,
                 bool /*dropped*/) override {
    const auto& d = std::get<simnet::UdpDatagram>(packet.body);
    const auto id = static_cast<std::uint16_t>((d.payload[0] << 8) |
                                               d.payload[1]);
    entries.push_back({packet.src_node, id, d.wire_size()});
  }

  std::vector<Entry> entries;
};

// The server answers after the client re-sent: the re-send reused the
// query's DNS ID, so the answer to the first datagram completes the query,
// and the answer to the second finds nothing in flight.
TEST_F(ResolveTest, UdpLateAnswerToTheFirstDatagramCompletesTheQuery) {
  engine_config.upstream.processing = simnet::ms(500);
  resolver::UdpServer udp_server(server, make_engine(), 53);
  UdpClientConfig config;
  config.timeout = simnet::ms(300);
  config.max_retries = 1;
  UdpResolverClient client_stub(client, {server.id(), 53}, config);
  DatagramLog datagrams;
  net.add_tap(&datagrams);
  const auto id = client_stub.resolve(name("late.example.com"),
                                      dns::RType::kA, {});
  loop.run();
  net.remove_tap(&datagrams);

  // Sent at 0, re-sent at 300 ms, answered at 5 + 500 + 5 ms.
  const ResolutionResult& r = client_stub.result(id);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.completed_at, simnet::ms(510));
  EXPECT_EQ(client_stub.completed(), 1u);
  EXPECT_EQ(client_stub.retransmissions(), 1u);
  EXPECT_EQ(client_stub.timeouts(), 0u);

  // Query, re-send, first answer, second answer: one DNS ID throughout.
  const auto& log = datagrams.entries;
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].from, client.id());
  EXPECT_EQ(log[1].from, client.id());
  EXPECT_EQ(log[2].from, server.id());
  for (const auto& d : log) EXPECT_EQ(d.dns_id, r.response.id);

  // DNS bytes of one query and one answer; wire bytes and packets of the
  // three datagrams before completion.
  const std::uint64_t overhead =
      simnet::kIpHeaderBytes + simnet::kUdpHeaderBytes;
  const std::uint64_t query_bytes = log[0].wire_bytes - overhead;
  const std::uint64_t answer_bytes = log[2].wire_bytes - overhead;
  EXPECT_EQ(r.cost.dns_message_bytes, query_bytes + answer_bytes);
  EXPECT_EQ(r.cost.wire_bytes,
            log[0].wire_bytes + log[1].wire_bytes + log[2].wire_bytes);
  EXPECT_EQ(r.cost.packets, 3u);
}

// --- DoT --------------------------------------------------------------------------

TEST_F(ResolveTest, DotEndToEnd) {
  resolver::DotServerConfig server_config;
  resolver::DotServer dot_server(server, make_engine(), server_config, 853);
  DotClient client_stub(client, {server.id(), 853});

  ResolutionResult observed;
  client_stub.resolve(name("abcde.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(std::get<dns::ARdata>(observed.response.answers.at(0).rdata)
                .to_string(),
            "192.0.2.1");
  // TCP (1 RTT) + TLS 1.3 (1 RTT) + query (1 RTT) = 30ms + processing.
  EXPECT_GE(observed.resolution_time(), simnet::ms(30));
}

TEST_F(ResolveTest, DotReusesConnection) {
  resolver::DotServer dot_server(server, make_engine(), {}, 853);
  DotClient client_stub(client, {server.id(), 853});

  simnet::TimeUs first_time = 0;
  simnet::TimeUs second_time = 0;
  client_stub.resolve(name("a.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        first_time = r.resolution_time();
                      });
  loop.run();
  client_stub.resolve(name("b.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        second_time = r.resolution_time();
                      });
  loop.run();
  // Second query skips TCP+TLS setup: single RTT.
  EXPECT_LT(second_time, first_time / 2);
  EXPECT_EQ(dot_server.session_count(), 1u);
}

TEST_F(ResolveTest, DotInOrderServerBlocksBehindDelayedQuery) {
  engine_config.delay_policy.every_n = 2;  // warm=1, slow=2 (delayed), fast=3
  engine_config.delay_policy.delay = simnet::ms(400);
  auto& eng = make_engine();
  resolver::DotServerConfig in_order;
  in_order.out_of_order = false;
  resolver::DotServer dot_server(server, eng, in_order, 853);
  DotClient client_stub(client, {server.id(), 853});

  // Pre-establish the connection so both timed queries share it.
  client_stub.resolve(name("warm.example.com"), dns::RType::kA, {});
  loop.run();

  simnet::TimeUs slow_done = 0;
  simnet::TimeUs fast_done = 0;
  client_stub.resolve(name("slow.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        slow_done = r.completed_at;
                      });
  client_stub.resolve(name("fast.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        fast_done = r.completed_at;
                      });
  loop.run();
  // In-order DoT: the fast answer waits for the delayed one (Fig 2, TLS).
  EXPECT_GE(fast_done, slow_done);
}

TEST_F(ResolveTest, DotOutOfOrderServerDoesNotBlock) {
  engine_config.delay_policy.every_n = 2;  // every 2nd query delayed
  engine_config.delay_policy.delay = simnet::ms(400);
  resolver::DotServerConfig ooo;
  ooo.out_of_order = true;  // Cloudflare-style
  resolver::DotServer dot_server(server, make_engine(), ooo, 853);
  DotClient client_stub(client, {server.id(), 853});

  simnet::TimeUs slow_done = 0;
  simnet::TimeUs fast_done = 0;
  // Query 1 fast, query 2 delayed, query 3 fast.
  client_stub.resolve(name("one.example.com"), dns::RType::kA, {});
  client_stub.resolve(name("two.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        slow_done = r.completed_at;
                      });
  client_stub.resolve(name("three.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        fast_done = r.completed_at;
                      });
  loop.run();
  EXPECT_LT(fast_done, slow_done);  // overtakes the delayed query
}

// --- DoH --------------------------------------------------------------------------

class DohTest : public ResolveTest {
 protected:
  resolver::DohServerConfig server_config;
  std::unique_ptr<resolver::DohServer> doh_server;

  DohTest() {
    server_config.tls.chain = tlssim::CertificateChain::cloudflare();
    server_config.support_dns_json = true;  // tests may override
  }

  void start_server() {
    doh_server = std::make_unique<resolver::DohServer>(
        server, make_engine(), server_config, 443);
  }

  DohClientConfig base_config() {
    DohClientConfig c;
    c.server_name = "cloudflare-dns.com";
    return c;
  }
};

TEST_F(DohTest, PostOverH2EndToEnd) {
  start_server();
  DohClient client_stub(client, {server.id(), 443}, base_config());
  ResolutionResult observed;
  const auto id = client_stub.resolve(
      name("abcde.example.com"), dns::RType::kA,
      [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(std::get<dns::ARdata>(observed.response.answers.at(0).rdata)
                .to_string(),
            "192.0.2.1");
  // Cost finalized after drain.
  const auto& final = client_stub.result(id);
  EXPECT_GT(final.cost.wire_bytes, 3000u);       // handshake-dominated
  EXPECT_GT(final.cost.tls_overhead_bytes, 2000u);
  EXPECT_GT(final.cost.http_header_bytes, 0u);
  EXPECT_GT(final.cost.http_mgmt_bytes, 0u);
  EXPECT_GT(final.cost.packets, 10u);
}

TEST_F(DohTest, GetOverH2) {
  start_server();
  auto config = base_config();
  config.method = DohMethod::kGet;
  DohClient client_stub(client, {server.id(), 443}, config);
  ResolutionResult observed;
  client_stub.resolve(name("fghij.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(observed.response.answers.size(), 1u);
}

TEST_F(DohTest, JsonApi) {
  start_server();
  auto config = base_config();
  config.method = DohMethod::kJsonGet;
  DohClient client_stub(client, {server.id(), 443}, config);
  ResolutionResult observed;
  client_stub.resolve(name("klmno.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(std::get<dns::ARdata>(observed.response.answers.at(0).rdata)
                .to_string(),
            "192.0.2.1");
}

TEST_F(DohTest, JsonApiRejectedWhenUnsupported) {
  server_config.support_dns_json = false;
  start_server();
  auto config = base_config();
  config.method = DohMethod::kJsonGet;
  DohClient client_stub(client, {server.id(), 443}, config);
  ResolutionResult observed;
  client_stub.resolve(name("x.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_FALSE(observed.success);
  EXPECT_EQ(client_stub.failures(), 1u);
}

TEST_F(DohTest, WrongPathIs404) {
  server_config.paths = {"/resolve"};
  start_server();
  DohClient client_stub(client, {server.id(), 443}, base_config());
  ResolutionResult observed;
  client_stub.resolve(name("x.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  EXPECT_FALSE(observed.success);
}

TEST_F(DohTest, PostOverHttp11) {
  start_server();
  auto config = base_config();
  config.http_version = HttpVersion::kHttp1;
  DohClient client_stub(client, {server.id(), 443}, config);
  ResolutionResult observed;
  client_stub.resolve(name("abcde.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(observed.response.answers.size(), 1u);
}

TEST_F(DohTest, PersistentConnectionAmortizesSetup) {
  start_server();
  DohClient client_stub(client, {server.id(), 443}, base_config());
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(client_stub.resolve(
        name("q" + std::to_string(i) + ".example.com"), dns::RType::kA, {}));
    loop.run();
  }
  // First query pays the TCP+TLS+SETTINGS setup; the rest are cheap.
  const auto& first = client_stub.result(ids[0]);
  const auto& later = client_stub.result(ids[3]);
  EXPECT_GT(first.cost.wire_bytes, 4 * later.cost.wire_bytes);
  // HEADERS and DATA each travel in their own record (2019-era stacks):
  // two records per direction, no handshake bytes.
  EXPECT_EQ(later.cost.tls_overhead_bytes, 4 * 22u);
  EXPECT_EQ(doh_server->session_count(), 1u);
  // The paper: persistent-connection median ~864 B / 8 packets (CF).
  EXPECT_LT(later.cost.wire_bytes, 1500u);
  EXPECT_GE(later.cost.packets, 4u);
  EXPECT_LE(later.cost.packets, 12u);
}

// HPACK dynamic-table hits of a request on a reused h2 connection whose
// answer arrives after set_obs() hands the client another registry count
// there, under the client's own names.
TEST_F(DohTest, HpackHitsAfterSetObsLandInTheNewRegistry) {
  start_server();
  obs::Registry a, b;
  testing::add_foreign_metrics(b);
  const auto b_foreign = testing::exported(b);
  DohClientConfig config = base_config();
  config.obs.metrics = &a;
  DohClient client_stub(client, {server.id(), 443}, config);
  client_stub.resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  // The second request's headers hit HPACK's dynamic table.
  const auto id =
      client_stub.resolve(name("b.example.com"), dns::RType::kA, {});
  const auto a_at_switch = testing::exported(a);
  client_stub.set_obs(obs::SpanContext{nullptr, 0, &b});
  loop.run();
  EXPECT_TRUE(client_stub.result(id).success);  // settles bytes.* too
  EXPECT_EQ(a.counter("client.doh_h2.queries"), 2u);
  EXPECT_EQ(testing::exported(a), a_at_switch);
  testing::expect_only_added(b_foreign, b,
                             {"client.doh.", "client.doh_h2.", "bytes."});
  EXPECT_GT(b.counter("client.doh.hpack_dyn_hits"), 0u);
  EXPECT_EQ(b.counter("client.doh_h2.success"), 1u);

  // Switched to a context without a registry mid-flight: nothing counts.
  client_stub.resolve(name("c.example.com"), dns::RType::kA, {});
  client_stub.set_obs(obs::SpanContext{});
  const auto a_before = testing::exported(a);
  const auto b_before = testing::exported(b);
  loop.run();
  EXPECT_EQ(client_stub.completed(), 3u);
  EXPECT_EQ(testing::exported(a), a_before);
  EXPECT_EQ(testing::exported(b), b_before);
}

TEST_F(DohTest, FreshConnectionsPayFullPrice) {
  start_server();
  auto config = base_config();
  config.persistent = false;
  DohClient client_stub(client, {server.id(), 443}, config);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(client_stub.resolve(
        name("q" + std::to_string(i) + ".example.com"), dns::RType::kA, {}));
    loop.run();
  }
  // Every query pays the handshake (paper: ~5.7 KB / 27 packets for CF).
  for (const auto id : ids) {
    const auto& r = client_stub.result(id);
    EXPECT_GT(r.cost.wire_bytes, 3000u);
    EXPECT_GT(r.cost.packets, 12u);
  }
}

TEST_F(DohTest, GoogleCertCostsMoreThanCloudflare) {
  // The §4 finding: Google's larger certificate makes its fresh-connection
  // resolutions systematically bigger than Cloudflare's.
  start_server();  // Cloudflare chain
  auto config = base_config();
  config.persistent = false;
  DohClient cf_client(client, {server.id(), 443}, config);
  const auto cf_id =
      cf_client.resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();

  server_config.tls.chain = tlssim::CertificateChain::google();
  doh_server = std::make_unique<resolver::DohServer>(server, *engine,
                                                     server_config, 8443);
  config.server_name = "dns.google.com";
  DohClient go_client(client, {server.id(), 8443}, config);
  const auto go_id =
      go_client.resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();

  EXPECT_GT(go_client.result(go_id).cost.wire_bytes,
            cf_client.result(cf_id).cost.wire_bytes + 800);
}

TEST_F(DohTest, H2StreamsAvoidHolBlocking) {
  engine_config.delay_policy.every_n = 2;
  engine_config.delay_policy.delay = simnet::ms(500);
  start_server();
  DohClient client_stub(client, {server.id(), 443}, base_config());
  simnet::TimeUs slow_done = 0;
  simnet::TimeUs fast_done = 0;
  client_stub.resolve(name("one.example.com"), dns::RType::kA, {});
  client_stub.resolve(name("two.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        slow_done = r.completed_at;
                      });
  client_stub.resolve(name("three.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        fast_done = r.completed_at;
                      });
  loop.run();
  EXPECT_LT(fast_done, slow_done);
}

TEST_F(DohTest, H1PipeliningSuffersHolBlocking) {
  engine_config.delay_policy.every_n = 2;
  engine_config.delay_policy.delay = simnet::ms(500);
  start_server();
  auto config = base_config();
  config.http_version = HttpVersion::kHttp1;
  DohClient client_stub(client, {server.id(), 443}, config);
  simnet::TimeUs slow_done = 0;
  simnet::TimeUs fast_done = 0;
  client_stub.resolve(name("one.example.com"), dns::RType::kA, {});
  client_stub.resolve(name("two.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        slow_done = r.completed_at;
                      });
  client_stub.resolve(name("three.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) {
                        fast_done = r.completed_at;
                      });
  loop.run();
  EXPECT_GE(fast_done, slow_done);  // blocked, unlike HTTP/2
}

TEST_F(DohTest, SessionResumptionShrinksFreshConnections) {
  start_server();
  tlssim::SessionCache cache;
  auto config = base_config();
  config.persistent = false;
  config.session_cache = &cache;
  DohClient client_stub(client, {server.id(), 443}, config);
  const auto first =
      client_stub.resolve(name("a.example.com"), dns::RType::kA, {});
  loop.run();
  const auto second =
      client_stub.resolve(name("b.example.com"), dns::RType::kA, {});
  loop.run();
  // The resumed handshake omits the certificate.
  EXPECT_LT(client_stub.result(second).cost.wire_bytes + 1500,
            client_stub.result(first).cost.wire_bytes);
}

TEST_F(DohTest, DelayPolicyDelaysEveryNth) {
  engine_config.delay_policy.every_n = 25;
  engine_config.delay_policy.delay = simnet::ms(1000);
  start_server();
  DohClient client_stub(client, {server.id(), 443}, base_config());
  std::vector<simnet::TimeUs> times;
  for (int i = 0; i < 50; ++i) {
    const std::string index = std::to_string(i);
    client_stub.resolve(name("q" + index + ".example.com"),
                        dns::RType::kA, [&](const ResolutionResult& r) {
                          times.push_back(r.resolution_time());
                        });
    loop.run();
  }
  ASSERT_EQ(times.size(), 50u);
  int slow = 0;
  for (const auto t : times) {
    if (t >= simnet::ms(1000)) ++slow;
  }
  EXPECT_EQ(slow, 2);  // queries 25 and 50
}

}  // namespace
}  // namespace dohperf::core
