// Figure 2: impact of head-of-line blocking on resolution times for DNS
// over UDP, TLS (DoT), HTTP/1.1 (pipelined) and HTTP/2.0.
//
// Setup per the paper's §3: 100 unique names (5-char random prefix + fixed
// base), Poisson arrivals at 10 queries/second, a local resolver answering
// every name with the same address. Two runs per transport: a baseline, and
// one where every 25th query is delayed by 1000 ms.
//
// Expected shape: UDP and DoH/h2 isolate the four delayed queries; DoT and
// DoH/h1 show knock-on blocking of subsequent queries.
#include <cstdio>
#include <functional>
#include <memory>

#include "bench_common.hpp"
#include "core/doh_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/udp_server.hpp"
#include "workload/names.hpp"

namespace {

using namespace dohperf;

struct Sample {
  double sent_sec;        ///< when the query was issued
  double resolution_sec;  ///< time to a fully parsed reply
};

struct RunResult {
  std::string transport;
  std::string scenario;
  std::vector<Sample> samples;
};

/// One experiment run: `transport` in {udp, tcp, dot, h1, h2}.
RunResult run(const std::string& transport, bool delayed,
              std::size_t queries, double rate_qps,
              obs::Tracer* tracer, obs::Registry* registry) {
  simnet::EventLoop loop;
  simnet::Network net(loop, /*seed=*/5);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");
  // "Local resolver": sub-millisecond path, like the paper's localhost
  // Docker setup.
  simnet::LinkConfig link;
  link.latency = simnet::us(150);
  net.connect(client.id(), server.id(), link);

  if (tracer != nullptr) tracer->bind(loop);
  const obs::SpanContext obs{tracer, 0, registry};

  resolver::EngineConfig engine_config;
  engine_config.obs = obs;
  engine_config.upstream.processing = simnet::us(50);
  if (delayed) {
    engine_config.delay_policy.every_n = 25;
    engine_config.delay_policy.delay = simnet::ms(1000);
  }
  resolver::Engine engine(loop, engine_config);

  // Servers for every front-end (only the probed one sees traffic).
  resolver::UdpServer udp_server(server, engine, 53);
  resolver::DotServerConfig tcp_config;
  tcp_config.plain_tcp = true;
  resolver::DotServer tcp_server(server, engine, tcp_config, 53);
  resolver::DotServer dot_server(server, engine, {}, 853);
  resolver::DohServerConfig doh_config;
  doh_config.tls.chain = tlssim::CertificateChain::generic("local.resolver");
  resolver::DohServer doh_server(server, engine, doh_config, 443);

  std::unique_ptr<core::ResolverClient> resolver_client;
  if (transport == "udp") {
    core::UdpClientConfig config;
    config.obs = obs;
    resolver_client = std::make_unique<core::UdpResolverClient>(
        client, simnet::Address{server.id(), 53}, config);
  } else if (transport == "tcp" || transport == "dot") {
    core::DotClientConfig config;
    config.server_name = "local.resolver";
    config.plain_tcp = transport == "tcp";
    config.obs = obs;
    const std::uint16_t port = config.plain_tcp ? 53 : 853;
    resolver_client = std::make_unique<core::DotClient>(
        client, simnet::Address{server.id(), port}, config);
  } else {
    core::DohClientConfig config;
    config.server_name = "local.resolver";
    config.http_version = transport == "h1" ? core::HttpVersion::kHttp1
                                            : core::HttpVersion::kHttp2;
    config.h1_pipelining = true;  // §3: unpipelined h1 would be unfair
    config.obs = obs;
    resolver_client = std::make_unique<core::DohClient>(
        client, simnet::Address{server.id(), 443}, config);
  }

  workload::UniqueNameGenerator names("example.com", /*seed=*/77);
  stats::PoissonArrivals arrivals(rate_qps, /*seed=*/13);
  const auto times = arrivals.arrival_times(queries);

  RunResult result;
  result.transport = transport;
  result.scenario = delayed ? "delayed" : "baseline";
  result.samples.resize(queries);

  for (std::size_t i = 0; i < queries; ++i) {
    const dns::Name name = names.next();
    const simnet::TimeUs at = simnet::from_sec(times[i]);
    loop.schedule_at(at, [&, i, name]() {
      result.samples[i].sent_sec = simnet::to_sec(loop.now());
      resolver_client->resolve(
          name, dns::RType::kA, [&, i](const core::ResolutionResult& r) {
            result.samples[i].resolution_sec =
                simnet::to_sec(r.resolution_time());
          });
    });
  }
  loop.run();
  return result;
}

void report(const RunResult& r, bool verbose, bench::BenchReport& out) {
  std::vector<double> res_ms;
  std::size_t over_100ms = 0;
  for (const auto& s : r.samples) {
    res_ms.push_back(s.resolution_sec * 1e3);
    if (s.resolution_sec > 0.1) ++over_100ms;
  }
  std::printf("%-10s %-9s", r.transport.c_str(), r.scenario.c_str());
  std::printf(" med=%8.3fms p90=%8.3fms max=%9.3fms  queries>100ms: %zu\n",
              stats::percentile(res_ms, 50), stats::percentile(res_ms, 90),
              stats::percentile(res_ms, 100), over_100ms);
  const std::string key = r.transport + "/" + r.scenario;
  out.set(key, "resolution_ms", bench::box_json(res_ms));
  out.set(key, "over_100ms", static_cast<std::int64_t>(over_100ms));
  if (verbose) {
    std::printf("# %s/%s: query-sent(s) resolution-time(s)\n",
                r.transport.c_str(), r.scenario.c_str());
    for (const auto& s : r.samples) {
      std::printf("%.4f %.6f\n", s.sent_sec, s.resolution_sec);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t queries = flags.num("queries", 100);
  const bool verbose = flags.on("series");
  const bench::Output output = flags.output();
  flags.reject_unknown();
  const bool want_trace = !output.trace.empty();

  std::printf("=== Figure 2: head-of-line blocking across DNS transports "
              "===\n");
  std::printf("(%zu unique names, Poisson 10 q/s, delayed run: 1 in 25 "
              "queries +1000ms)\n\n", queries);

  obs::Tracer tracer;
  obs::Registry registry;
  bench::BenchReport json_report("fig2_hol_blocking");
  json_report.params["queries"] = static_cast<std::int64_t>(queries);

  for (const bool delayed : {false, true}) {
    // "tcp" (RFC 7766, unencrypted) is an extension beyond the paper's four
    // transports; it isolates TCP's in-order delivery from TLS's.
    for (const char* transport : {"udp", "tcp", "dot", "h1", "h2"}) {
      report(run(transport, delayed, queries, 10.0,
                 want_trace ? &tracer : nullptr, &registry),
             verbose, json_report);
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shape (paper): in the delayed run, UDP and HTTP/2 show ~4 "
      "slow\nqueries (the delayed ones only); TLS (DoT) and HTTP/1.1 drag "
      "subsequent\nqueries past 100ms through in-order delivery.\n");
  bench::finish(output, json_report, &tracer, &registry);
  return 0;
}
