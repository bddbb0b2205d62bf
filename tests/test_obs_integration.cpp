// Observability end to end: spans and metrics recorded by the real client /
// server stacks over the simulated network. Covers the ISSUE acceptance
// criteria — byte-identical exports across identically seeded runs, spans
// surviving teardown-on-timeout, retry spans under exhaustion, and the fig5
// invariant (span byte attributes == the CostReport the client returns).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/udp_client.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/udp_server.hpp"
#include "sim_fixture.hpp"

namespace dohperf::core {
namespace {

using dohperf::testing::TwoHostFixture;

dns::Name name(const std::string& n) { return dns::Name::parse(n); }

std::int64_t attr_int(const obs::Span& span, const std::string& key) {
  const obs::AttrValue* value = span.attr(key);
  return value ? std::get<std::int64_t>(*value) : -1;
}

// --- determinism -------------------------------------------------------------

struct Export {
  std::string trace;
  std::string metrics;
};

// One self-contained seeded DoH scenario: fresh loop/network/engine/server,
// three sequential resolutions, exports returned as strings.
Export run_seeded_doh_scenario() {
  obs::Tracer tracer;
  obs::Registry registry;
  simnet::EventLoop loop;
  tracer.bind(loop);
  simnet::Network net(loop, /*seed=*/7);
  simnet::Host client_host(net, "client");
  simnet::Host server_host(net, "resolver");
  simnet::LinkConfig link;
  link.latency = simnet::ms(5);
  net.connect(client_host.id(), server_host.id(), link);

  const obs::SpanContext obs_ctx{&tracer, 0, &registry};
  resolver::EngineConfig engine_config;
  engine_config.obs = obs_ctx;
  resolver::Engine engine(loop, engine_config);
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(server_host, engine, server_config, 443);

  DohClientConfig client_config;
  client_config.server_name = "cloudflare-dns.com";
  client_config.obs = obs_ctx;
  DohClient client(client_host, {server_host.id(), 443}, client_config);
  for (const char* n : {"a.example.com", "b.example.com", "c.example.com"}) {
    const auto id = client.resolve(name(n), dns::RType::kA, {});
    loop.run();
    (void)client.result(id);  // finalize lazy costs into span attributes
  }
  return {obs::chrome_trace_json(tracer), registry.to_json().dump()};
}

TEST(ObsDeterminism, SameSeedRunsExportByteIdenticalJson) {
  const Export first = run_seeded_doh_scenario();
  const Export second = run_seeded_doh_scenario();
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.metrics, second.metrics);
  // Sanity: the exports actually carry content, not two empty documents.
  EXPECT_NE(first.trace.find("\"tls_handshake\""), std::string::npos);
  EXPECT_NE(first.metrics.find("client.doh_h2.success"), std::string::npos);
}

// --- span lifecycle under failure -------------------------------------------

class ObsResolveTest : public TwoHostFixture {
 protected:
  obs::Tracer tracer;
  obs::Registry registry;

  ObsResolveTest() { tracer.bind(loop); }

  obs::SpanContext obs_ctx() { return {&tracer, 0, &registry}; }

  // Spans with this name, in begin order.
  std::vector<const obs::Span*> spans_named(const std::string& n) const {
    std::vector<const obs::Span*> out;
    for (const auto& span : tracer.spans()) {
      if (span.name == n) out.push_back(&span);
    }
    return out;
  }
};

// A server that accepts the connection and never answers forces the DoH
// client's query timeout to tear the stack down; every span opened on the
// way up must still close on the way down (no leaked-open spans).
TEST_F(ObsResolveTest, TimeoutTeardownClosesEverySpan) {
  resolver::EngineConfig engine_config;
  engine_config.faults.stall_rate = 1.0;  // accept, never answer
  resolver::Engine engine(loop, engine_config);
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(server, engine, server_config, 443);

  DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  config.retry.query_timeout = simnet::ms(400);
  config.obs = obs_ctx();
  DohClient client_stub(client, {server.id(), 443}, config);

  ResolutionResult observed;
  observed.success = true;
  client_stub.resolve(name("stalled.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();

  EXPECT_FALSE(observed.success);
  EXPECT_EQ(tracer.open_spans(), 0u);
  const auto resolutions = spans_named("resolution");
  ASSERT_EQ(resolutions.size(), 1u);
  const obs::AttrValue* success = resolutions[0]->attr("success");
  ASSERT_NE(success, nullptr);
  EXPECT_FALSE(std::get<bool>(*success));
  EXPECT_EQ(registry.counter("client.doh_h2.failures"), 1u);
}

// Retry exhaustion on UDP against a dead server: one request span per
// attempt, one retry span per retransmission (with reason/attempt attrs),
// and the retries/timeouts counters tally exactly.
TEST_F(ObsResolveTest, UdpRetryExhaustionRecordsEveryAttempt) {
  UdpClientConfig config;
  config.timeout = simnet::ms(200);
  config.max_retries = 2;  // 3 attempts total, all doomed (no server)
  config.obs = obs_ctx();
  UdpResolverClient client_stub(client, {server.id(), 53}, config);

  ResolutionResult observed;
  observed.success = true;
  client_stub.resolve(name("dead.example.com"), dns::RType::kA,
                      [&](const ResolutionResult& r) { observed = r; });
  loop.run();

  EXPECT_FALSE(observed.success);
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(spans_named("request").size(), 3u);
  const auto retries = spans_named("retry");
  ASSERT_EQ(retries.size(), 2u);
  for (std::size_t i = 0; i < retries.size(); ++i) {
    const obs::AttrValue* reason = retries[i]->attr("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_EQ(std::get<std::string>(*reason), "timeout");
    EXPECT_EQ(attr_int(*retries[i], "attempt"),
              static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(registry.counter("client.udp.retries"), 2u);
  // Every expired deadline counts, the two re-sent ones included.
  EXPECT_EQ(registry.counter("client.udp.timeouts"), 3u);
  EXPECT_EQ(registry.counter("client.udp.failures"), 1u);
}

// Successful UDP resolution for contrast: the span tree carries the
// transport/query attributes and the success histogram gets one sample.
TEST_F(ObsResolveTest, UdpSuccessRecordsResolutionSpanAndHistogram) {
  resolver::Engine engine(loop, {});
  resolver::UdpServer udp_server(server, engine, 53);
  UdpClientConfig config;
  config.obs = obs_ctx();
  UdpResolverClient client_stub(client, {server.id(), 53}, config);

  client_stub.resolve(name("ok.example.com"), dns::RType::kA, {});
  loop.run();

  const auto resolutions = spans_named("resolution");
  ASSERT_EQ(resolutions.size(), 1u);
  const obs::AttrValue* transport = resolutions[0]->attr("transport");
  const obs::AttrValue* query = resolutions[0]->attr("query");
  ASSERT_NE(transport, nullptr);
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(std::get<std::string>(*transport), "udp");
  EXPECT_EQ(std::get<std::string>(*query), "ok.example.com");
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(registry.counter("client.udp.success"), 1u);
  EXPECT_EQ(registry.histogram_summary("client.udp.resolution_ms").count, 1u);
}

// --- the fig5 invariant ------------------------------------------------------

// The per-layer byte attributes on the resolution span, the bytes.* counters
// in the registry, and the CostReport result() returns must all agree — the
// property fig5_overhead_breakdown's --trace output rests on.
TEST_F(ObsResolveTest, SpanByteAttributesMatchCostReport) {
  resolver::Engine engine(loop, {});
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh_server(server, engine, server_config, 443);

  DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  config.obs = obs_ctx();
  DohClient client_stub(client, {server.id(), 443}, config);

  const auto id =
      client_stub.resolve(name("abcde.example.com"), dns::RType::kA, {});
  loop.run();
  const CostReport& cost = client_stub.result(id).cost;

  const auto u64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const auto expect_span_matches = [&](const obs::Span& span,
                                       const CostReport& cost) {
    EXPECT_EQ(u64(attr_int(span, "bytes.wire")), cost.wire_bytes);
    EXPECT_EQ(u64(attr_int(span, "bytes.dns")), cost.dns_message_bytes);
    EXPECT_EQ(u64(attr_int(span, "bytes.tcp")), cost.tcp_overhead_bytes);
    EXPECT_EQ(u64(attr_int(span, "bytes.tls")), cost.tls_overhead_bytes);
    EXPECT_EQ(u64(attr_int(span, "bytes.http_hdr")), cost.http_header_bytes);
    EXPECT_EQ(u64(attr_int(span, "bytes.http_body")), cost.http_body_bytes);
    EXPECT_EQ(u64(attr_int(span, "bytes.http_mgmt")), cost.http_mgmt_bytes);
    EXPECT_EQ(u64(attr_int(span, "packets")), cost.packets);
  };
  const auto resolutions = spans_named("resolution");
  ASSERT_EQ(resolutions.size(), 1u);
  expect_span_matches(*resolutions[0], cost);
  // One resolution on a fresh registry: the global counters equal the report.
  EXPECT_EQ(registry.counter("bytes.wire"), cost.wire_bytes);
  EXPECT_EQ(registry.counter("bytes.tls"), cost.tls_overhead_bytes);
  EXPECT_EQ(registry.counter("bytes.http_hdr"), cost.http_header_bytes);
  // The handshake span tree the trace viewer shows is present and closed.
  EXPECT_EQ(spans_named("connect").size(), 1u);
  EXPECT_EQ(spans_named("tcp_handshake").size(), 1u);
  EXPECT_EQ(spans_named("tls_handshake").size(), 1u);
  EXPECT_EQ(tracer.open_spans(), 0u);

  // A failed resolution keeps the contract too: a DoQ query that times out
  // against a server that never answers still paid for its query bytes.
  obs::Tracer doq_tracer(loop);
  obs::Registry doq_registry;
  resolver::EngineConfig stalled;
  stalled.faults.stall_rate = 1.0;  // accept, never answer
  resolver::Engine stalled_engine(loop, stalled);
  resolver::DoqServerConfig doq_server_config;
  doq_server_config.tls.chain =
      tlssim::CertificateChain::generic("local.resolver");
  resolver::DoqServer doq_server(server, stalled_engine, doq_server_config,
                                 8853);
  DoqClientConfig doq_config;
  doq_config.server_name = "local.resolver";
  doq_config.retry.query_timeout = simnet::ms(400);
  doq_config.obs = {&doq_tracer, 0, &doq_registry};
  DoqClient doq_stub(client, {server.id(), 8853}, doq_config);

  const auto failed =
      doq_stub.resolve(name("abcde.example.com"), dns::RType::kA, {});
  loop.run();
  const ResolutionResult& doq_result = doq_stub.result(failed);
  ASSERT_FALSE(doq_result.success);
  EXPECT_GT(doq_result.cost.dns_message_bytes, 0u);
  ASSERT_EQ(doq_tracer.spans().front().name, "resolution");
  expect_span_matches(doq_tracer.spans().front(), doq_result.cost);
  EXPECT_EQ(doq_registry.counter("bytes.dns"),
            doq_result.cost.dns_message_bytes);
  EXPECT_EQ(doq_registry.counter("bytes.wire"), doq_result.cost.wire_bytes);
}

}  // namespace
}  // namespace dohperf::core
