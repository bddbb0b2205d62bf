#include <gtest/gtest.h>

#include "browser/page_load.hpp"
#include "browser/vantage.hpp"
#include "browser/web_farm.hpp"
#include "core/doh_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/udp_server.hpp"
#include "resolver/doh_server.hpp"
#include "sim_fixture.hpp"
#include "workload/alexa.hpp"

namespace dohperf::browser {
namespace {

/// Browser host + resolver host + web farm, mirroring the fig6 topology.
class BrowserTest : public ::testing::Test {
 protected:
  BrowserTest()
      : net(loop, 11), browser_host(net, "browser"),
        resolver_host(net, "resolver"),
        engine(loop, resolver::EngineConfig{}),
        udp_server(resolver_host, engine, 53),
        farm(net, browser_host, farm_config()) {
    simnet::LinkConfig link;
    link.latency = simnet::ms(2);
    net.connect(browser_host.id(), resolver_host.id(), link);
  }

  static WebFarmConfig farm_config() {
    WebFarmConfig c;
    c.base_latency = simnet::ms(10);
    c.latency_jitter = simnet::ms(5);
    return c;
  }

  simnet::EventLoop loop;
  simnet::Network net;
  simnet::Host browser_host;
  simnet::Host resolver_host;
  resolver::Engine engine;
  resolver::UdpServer udp_server;
  WebFarm farm;
};

TEST_F(BrowserTest, WebFarmServesObjects) {
  const auto addr = farm.origin_for(dns::Name::parse("cdn.example"));
  // Fetch directly with an HTTP client over TLS.
  tlssim::ClientConfig tls_config;
  tls_config.sni = "cdn.example";
  tls_config.alpn = {"http/1.1"};
  auto tls = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(
          browser_host.tcp_connect(addr)),
      std::move(tls_config));
  http1::Http1Client http(std::move(tls));
  http1::Request req;
  req.method = "GET";
  req.target = WebFarm::object_target(12345);
  req.headers.add("Host", "cdn.example");
  std::size_t got = 0;
  http.request(std::move(req),
               [&](const http1::Response& r) { got = r.body.size(); });
  loop.run();
  EXPECT_EQ(got, 12345u);
  EXPECT_EQ(farm.objects_served(), 1u);
}

TEST_F(BrowserTest, OriginReusedForSameDomain) {
  const auto a = farm.origin_for(dns::Name::parse("x.example"));
  const auto b = farm.origin_for(dns::Name::parse("x.example"));
  const auto c = farm.origin_for(dns::Name::parse("y.example"));
  EXPECT_EQ(a.node, b.node);
  EXPECT_NE(a.node, c.node);
  EXPECT_EQ(farm.origin_count(), 2u);
}

// A closed session goes at the next accept of any origin: pages whose
// origins no later page revisits leave no closed session behind.
TEST_F(BrowserTest, FarmReleasesClosedSessionsOfOriginsNeverRevisited) {
  core::UdpResolverClient resolver(browser_host, udp_server.address());
  for (int p = 0; p < 4; ++p) {
    const std::string index = std::to_string(p);
    workload::Page page;  // its own HTML origin and object origin
    page.primary = dns::Name::parse("site" + index + ".example");
    page.html_bytes = 2000;
    workload::PageObject object;
    object.domain = dns::Name::parse("cdn" + index + ".example");
    object.bytes = 2000;
    object.depth = 0;
    page.objects.push_back(object);

    std::size_t held_at_onload = 0;
    PageLoadResult result;
    {
      PageLoader loader(browser_host, farm, resolver);
      loader.load(page, [&](const PageLoadResult& r) {
        result = r;
        held_at_onload = farm.session_count();
      });
      loop.run();
    }
    loop.run();  // the loader closed its connections
    ASSERT_TRUE(result.success);
    // This page's two open sessions; every earlier page's closed ones went
    // at this page's first accept.
    EXPECT_EQ(held_at_onload, 2u) << "page " << p;
  }
}

TEST_F(BrowserTest, LoadsASmallPage) {
  workload::AlexaPageModel model;
  const auto page = model.page(1);

  core::UdpResolverClient resolver(browser_host, udp_server.address());
  PageLoader loader(browser_host, farm, resolver);
  PageLoadResult result;
  bool done = false;
  loader.load(page, [&](const PageLoadResult& r) {
    result = r;
    done = true;
  });
  loop.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.objects_fetched, page.objects.size() + 1);  // + HTML
  EXPECT_EQ(result.dns_queries, page.unique_domains().size());
  EXPECT_GT(result.onload_time(), 0);
  EXPECT_GT(result.cumulative_dns, 0);
}

TEST_F(BrowserTest, OnloadFasterThanCumulativeDnsOnBigPages) {
  // The paper's Fig 6 note: onload can beat the *cumulative* DNS time
  // because the browser parallelises; verify parallelism exists by
  // checking onload < cumulative_dns + serial fetch estimate.
  workload::AlexaPageModel model;
  // Find a page with plenty of domains.
  workload::Page page;
  for (std::size_t rank = 1; rank < 200; ++rank) {
    page = model.page(rank);
    if (page.unique_domains().size() >= 30) break;
  }
  ASSERT_GE(page.unique_domains().size(), 30u);

  core::UdpResolverClient resolver(browser_host, udp_server.address());
  PageLoader loader(browser_host, farm, resolver);
  PageLoadResult result;
  loader.load(page, [&](const PageLoadResult& r) { result = r; });
  loop.run();
  ASSERT_TRUE(result.success);
  // ~30 resolutions at ~4ms each would serialize to 120ms+; the load
  // overlaps them with fetches.
  EXPECT_LT(result.onload_time(),
            result.cumulative_dns +
                static_cast<simnet::TimeUs>(page.objects.size()) *
                    simnet::ms(30));
}

TEST_F(BrowserTest, ConnectionLimitPerOriginRespected) {
  // A page with many objects on ONE origin must not open more than 6
  // connections to it.
  workload::Page page;
  page.rank = 1;
  page.primary = dns::Name::parse("single.example");
  page.html_bytes = 5000;
  for (int i = 0; i < 30; ++i) {
    workload::PageObject obj;
    obj.domain = page.primary;
    obj.bytes = 20000;
    obj.depth = 0;
    page.objects.push_back(obj);
  }

  core::UdpResolverClient resolver(browser_host, udp_server.address());
  PageLoader loader(browser_host, farm, resolver);
  PageLoadResult result;
  loader.load(page, [&](const PageLoadResult& r) { result = r; });
  loop.run();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.objects_fetched, 31u);
  EXPECT_EQ(result.dns_queries, 1u);  // one origin, one resolution
}

TEST_F(BrowserTest, DependentObjectsLoadAfterParents) {
  // depth-1 objects only start after their depth-0 parent: a page with a
  // single deep chain takes at least the sum of the chain's RTTs.
  // Two objects on two *different* origins. Flat: both discovered from the
  // HTML, so the second origin's DNS + connection setup overlaps the first
  // fetch. Chain: the second object is only discovered after the first
  // completes, so its whole DNS+TLS+fetch pipeline serializes behind it.
  // Both runs share the same farm (same per-origin links), so the
  // dependency structure is the only difference.
  workload::Page flat;
  flat.primary = dns::Name::parse("flat.example");
  flat.html_bytes = 2000;
  for (const char* d : {"alpha.example", "beta.example"}) {
    workload::PageObject obj;
    obj.domain = dns::Name::parse(d);
    obj.bytes = 2000;
    obj.depth = 0;
    flat.objects.push_back(obj);
  }
  workload::Page chain = flat;
  chain.objects[1].depth = 1;
  chain.objects[1].parent = 0;

  core::UdpResolverClient resolver(browser_host, udp_server.address());
  PageLoadResult flat_result;
  PageLoadResult chain_result;
  {
    PageLoader loader(browser_host, farm, resolver);
    loader.load(flat, [&](const PageLoadResult& r) { flat_result = r; });
    loop.run();
  }
  {
    PageLoader loader(browser_host, farm, resolver);
    loader.load(chain, [&](const PageLoadResult& r) { chain_result = r; });
    loop.run();
  }
  ASSERT_TRUE(flat_result.success);
  ASSERT_TRUE(chain_result.success);
  EXPECT_GT(chain_result.onload_time(), flat_result.onload_time());
}

TEST_F(BrowserTest, WorksWithDohResolver) {
  // Swap in a DoH resolver — the fig6 "H/" configurations.
  resolver::DohServerConfig doh_config;
  doh_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(resolver_host, engine, doh_config, 443);

  core::DohClientConfig client_config;
  client_config.server_name = "cloudflare-dns.com";
  core::DohClient resolver(browser_host, {resolver_host.id(), 443},
                           client_config);

  workload::AlexaPageModel model;
  const auto page = model.page(2);
  PageLoader loader(browser_host, farm, resolver);
  PageLoadResult result;
  loader.load(page, [&](const PageLoadResult& r) { result = r; });
  loop.run();
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.dns_queries, page.unique_domains().size());
}

TEST(Vantage, PlanetlabNodesAreHeterogeneousAndDeterministic) {
  const auto a = Vantage::planetlab(3);
  const auto b = Vantage::planetlab(3);
  const auto c = Vantage::planetlab(17);
  EXPECT_EQ(a.origin_base_latency, b.origin_base_latency);
  EXPECT_EQ(a.cloudflare_latency, b.cloudflare_latency);
  bool differs = a.origin_base_latency != c.origin_base_latency ||
                 a.cloudflare_latency != c.cloudflare_latency ||
                 a.access_bandwidth_bps != c.access_bandwidth_bps;
  EXPECT_TRUE(differs);
  // PlanetLab should generally be worse than campus.
  EXPECT_GE(a.origin_base_latency, Vantage::university().origin_base_latency);
}

}  // namespace
}  // namespace dohperf::browser
