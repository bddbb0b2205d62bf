// Tests closing remaining coverage gaps: the resolver engine's
// cache/upstream model, HTTP/2 CONTINUATION (header blocks larger than one
// frame), DoH GET with long names, the 2018 survey snapshot, and the web
// farm's bandwidth model.
#include <gtest/gtest.h>

#include "browser/page_load.hpp"
#include "browser/web_farm.hpp"
#include "core/doh_client.hpp"
#include "core/udp_client.hpp"
#include "http2/connection.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/udp_server.hpp"
#include "sim_fixture.hpp"
#include "survey/providers.hpp"

namespace dohperf {
namespace {

using dohperf::testing::TwoHostFixture;
using simnet::Bytes;

// --- resolver engine upstream model ----------------------------------------------

class EngineModelTest : public TwoHostFixture {};

TEST_F(EngineModelTest, CacheMissesPayUpstreamLatency) {
  resolver::EngineConfig config;
  config.upstream.cache_hit_ratio = 0.5;
  config.upstream.upstream_mu_ms = 50.0;
  config.upstream.upstream_sigma = 0.3;
  resolver::Engine engine(loop, config);
  resolver::UdpServer udp_server(server, engine, 53);
  core::UdpResolverClient resolver_client(client, {server.id(), 53});

  std::size_t fast = 0;
  std::size_t slow = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string index = std::to_string(i);
    resolver_client.resolve(
        dns::Name::parse("q" + index + ".example.com"),
        dns::RType::kA, [&](const core::ResolutionResult& r) {
          // RTT is 10ms; upstream misses add tens of ms on top.
          if (r.resolution_time() > simnet::ms(20)) {
            ++slow;
          } else {
            ++fast;
          }
        });
    loop.run();
  }
  EXPECT_EQ(engine.stats().cache_misses, slow);
  // Roughly half hit, half miss.
  EXPECT_GT(fast, 60u);
  EXPECT_GT(slow, 60u);
}

TEST_F(EngineModelTest, NonAQueriesGetEmptyNoError) {
  resolver::Engine engine(loop, {});
  resolver::UdpServer udp_server(server, engine, 53);
  core::UdpResolverClient resolver_client(client, {server.id(), 53});
  core::ResolutionResult observed;
  resolver_client.resolve(dns::Name::parse("x.example.com"),
                          dns::RType::kTXT,
                          [&](const core::ResolutionResult& r) {
                            observed = r;
                          });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(observed.response.flags.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(observed.response.answers.empty());
}

TEST_F(EngineModelTest, EcsAndMultipleAnswersGrowResponses) {
  resolver::EngineConfig plain_config;
  resolver::EngineConfig rich_config;
  rich_config.answer_count = 4;
  rich_config.ecs_option = true;

  std::size_t plain_size = 0;
  std::size_t rich_size = 0;
  for (int rich = 0; rich < 2; ++rich) {
    resolver::Engine engine(loop, rich ? rich_config : plain_config);
    const auto query =
        dns::Message::make_query(1, dns::Name::parse("x.example.com"));
    engine.handle(query, [&](dns::Message response) {
      (rich ? rich_size : plain_size) = response.encode().size();
      if (rich) {
        EXPECT_EQ(response.answers.size(), 4u);
        ASSERT_NE(response.edns(), nullptr);
        const auto& opt = std::get<dns::OptRdata>(response.edns()->rdata);
        ASSERT_EQ(opt.options.size(), 1u);
        EXPECT_EQ(opt.options[0].code, 8u);  // CLIENT-SUBNET
      }
    });
    loop.run();
  }
  EXPECT_GT(rich_size, plain_size + 40);
}

// --- HTTP/2 CONTINUATION ------------------------------------------------------------

class ContinuationTest : public TwoHostFixture {};

TEST_F(ContinuationTest, GiantHeaderBlockSplitsAndReassembles) {
  std::unique_ptr<http2::Http2Connection> server_conn;
  std::vector<http2::HeaderField> seen;
  server.tcp_listen(443, [&](std::shared_ptr<simnet::TcpConnection> c) {
    server_conn = std::make_unique<http2::Http2Connection>(
        std::make_unique<simnet::TcpByteStream>(std::move(c)),
        http2::Http2Connection::Role::kServer);
    server_conn->set_request_handler(
        [&](const http2::H2Message& request,
            http2::Http2Connection::Responder respond) {
          seen = request.headers;
          http2::H2Message response;
          response.headers.push_back({":status", "200"});
          respond(std::move(response));
        });
  });

  http2::Http2Config config;
  config.max_frame_size = 256;  // force CONTINUATION frames
  http2::Http2Connection client_conn(
      std::make_unique<simnet::TcpByteStream>(
          client.tcp_connect({server.id(), 443})),
      http2::Http2Connection::Role::kClient, config);

  http2::H2Message request;
  request.headers = {{":method", "GET"},
                     {":scheme", "https"},
                     {":authority", "big.example"},
                     {":path", "/"},
                     // An incompressible 1.5 KB header value.
                     {"x-giant", std::string(1500, '~')}};
  bool answered = false;
  client_conn.request(std::move(request),
                      [&](const http2::H2Message&) { answered = true; });
  loop.run();
  EXPECT_TRUE(answered);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[4].value.size(), 1500u);
}

// --- DoH GET with long names ---------------------------------------------------------

class LongNameTest : public TwoHostFixture {};

TEST_F(LongNameTest, GetWithMaximalNameRoundTrips) {
  resolver::Engine engine(loop, {});
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(server, engine, server_config, 443);

  core::DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  config.method = core::DohMethod::kGet;
  core::DohClient resolver_client(client, {server.id(), 443}, config);

  // A name close to the 255-octet limit.
  std::string long_name;
  for (int i = 0; i < 11; ++i) {
    long_name += std::string(20, static_cast<char>('a' + i)) + ".";
  }
  long_name += "example.com";
  core::ResolutionResult observed;
  resolver_client.resolve(dns::Name::parse(long_name), dns::RType::kA,
                          [&](const core::ResolutionResult& r) {
                            observed = r;
                          });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(observed.response.questions.at(0).qname,
            dns::Name::parse(long_name));
}

// --- 2018 survey snapshot -------------------------------------------------------------

TEST(Survey2018, SnapshotMatchesPaperSection2) {
  const auto& p2018 = survey::paper_providers_2018();
  const auto& p2019 = survey::paper_providers();
  ASSERT_EQ(p2018.size(), p2019.size());

  std::set<std::string> paths_2018;
  std::size_t tls13 = 0;
  for (const auto& p : p2018) {
    for (const auto& e : p.endpoints) paths_2018.insert(e.url_path);
    if (p.tls_versions.count(tlssim::TlsVersion::kTls13)) {
      ++tls13;
      EXPECT_TRUE(p.marker == "CF" || p.marker == "SD") << p.marker;
    }
  }
  EXPECT_EQ(paths_2018.size(), 6u);  // paper: six base paths in Oct 2018
  EXPECT_EQ(tls13, 2u);              // paper: only CF and SecureDNS
  // Google's wire-format service was still /experimental.
  for (const auto& p : p2018) {
    if (p.marker == "G2") {
      EXPECT_EQ(p.endpoints.at(0).url_path, "/experimental");
    }
  }
}

// --- web farm bandwidth ---------------------------------------------------------------

TEST(WebFarm, BandwidthBoundsTransferTime) {
  simnet::EventLoop loop;
  simnet::Network net(loop, 8);
  simnet::Host browser_host(net, "browser");

  browser::WebFarmConfig farm_config;
  farm_config.base_latency = simnet::ms(5);
  farm_config.latency_jitter = 0;
  farm_config.bandwidth_bps = 8e6;  // 1 MB/s
  browser::WebFarm farm(net, browser_host, farm_config);
  const auto addr = farm.origin_for(dns::Name::parse("big.example"));

  tlssim::ClientConfig tls_config;
  tls_config.sni = "big.example";
  tls_config.alpn = {"http/1.1"};
  auto tls = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(
          browser_host.tcp_connect(addr)),
      std::move(tls_config));
  http1::Http1Client http(std::move(tls));
  http1::Request request;
  request.method = "GET";
  request.target = browser::WebFarm::object_target(1000000);  // 1 MB
  request.headers.add("Host", "big.example");
  simnet::TimeUs done_at = 0;
  http.request(std::move(request), [&](const http1::Response& r) {
    EXPECT_EQ(r.body.size(), 1000000u);
    done_at = loop.now();
  });
  loop.run();
  // 1 MB at 1 MB/s cannot complete in under a second.
  EXPECT_GE(done_at, simnet::seconds(1));
  EXPECT_LT(done_at, simnet::seconds(5));
}

}  // namespace
}  // namespace dohperf
