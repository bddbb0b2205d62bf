// Ablation: the two transport design choices §3 identifies as decisive —
//   * DoT out-of-order responses (Cloudflare-style) vs in-order (everyone
//     else in 2019): does OOO fix DoT's head-of-line blocking?
//   * HTTP/1.1 pipelining on vs off: what did pipelining actually buy?
// Same workload as Figure 2 (100 names, Poisson 10 q/s, 1-in-25 delayed).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/doh_client.hpp"
#include "core/dot_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/dot_server.hpp"
#include "workload/names.hpp"

namespace {

using namespace dohperf;

struct Outcome {
  double median_ms;
  double p90_ms;
  std::size_t over_100ms;
};

Outcome run(const std::string& variant, std::size_t queries,
            obs::Registry* registry) {
  simnet::EventLoop loop;
  simnet::Network net(loop, 5);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");
  simnet::LinkConfig link;
  link.latency = simnet::us(150);
  net.connect(client.id(), server.id(), link);

  const obs::SpanContext obs{nullptr, 0, registry};

  resolver::EngineConfig engine_config;
  engine_config.obs = obs;
  engine_config.upstream.processing = simnet::us(50);
  engine_config.delay_policy.every_n = 25;
  engine_config.delay_policy.delay = simnet::ms(1000);
  resolver::Engine engine(loop, engine_config);

  resolver::DotServerConfig dot_config;
  dot_config.out_of_order = variant == "dot-ooo";
  resolver::DotServer dot(server, engine, dot_config, 853);
  resolver::DohServerConfig doh_config;
  resolver::DohServer doh(server, engine, doh_config, 443);

  std::unique_ptr<core::ResolverClient> resolver_client;
  if (variant.rfind("dot", 0) == 0) {
    core::DotClientConfig config;
    config.obs = obs;
    resolver_client = std::make_unique<core::DotClient>(
        client, simnet::Address{server.id(), 853}, config);
  } else {
    core::DohClientConfig config;
    config.obs = obs;
    config.http_version = core::HttpVersion::kHttp1;
    config.h1_pipelining = variant == "h1-pipelined";
    resolver_client = std::make_unique<core::DohClient>(
        client, simnet::Address{server.id(), 443}, config);
  }

  workload::UniqueNameGenerator names("example.com", 77);
  stats::PoissonArrivals arrivals(10.0, 13);
  const auto times = arrivals.arrival_times(queries);
  std::vector<double> res_ms(queries, 0.0);
  for (std::size_t i = 0; i < queries; ++i) {
    loop.schedule_at(simnet::from_sec(times[i]), [&, i, name = names.next()]() {
      resolver_client->resolve(name, dns::RType::kA,
                               [&, i](const core::ResolutionResult& r) {
                                 res_ms[i] =
                                     simnet::to_ms(r.resolution_time());
                               });
    });
  }
  loop.run();

  Outcome out;
  out.median_ms = stats::percentile(res_ms, 50);
  out.p90_ms = stats::percentile(res_ms, 90);
  out.over_100ms = 0;
  for (const double t : res_ms) {
    if (t > 100.0) ++out.over_100ms;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t queries = flags.num("queries", 100);
  const bench::Output output = flags.output();
  flags.reject_unknown();
  std::printf("=== Ablation: transport design choices under delayed queries "
              "===\n");
  std::printf("(fig2 workload: %zu queries, 1 in 25 delayed by 1000ms)\n\n",
              queries);
  obs::Registry registry;
  bench::BenchReport report("ablation_transport");
  report.params["queries"] = static_cast<std::int64_t>(queries);

  std::printf("%-22s %10s %10s %14s\n", "variant", "median", "p90",
              "queries>100ms");
  for (const char* variant :
       {"dot-inorder", "dot-ooo", "h1-pipelined", "h1-serial"}) {
    const auto o = run(variant, queries, &registry);
    std::printf("%-22s %8.2fms %8.2fms %10zu\n", variant, o.median_ms,
                o.p90_ms, o.over_100ms);
    report.set(variant, "median_ms", o.median_ms);
    report.set(variant, "p90_ms", o.p90_ms);
    report.set(variant, "over_100ms",
               static_cast<std::int64_t>(o.over_100ms));
  }
  std::printf(
      "\nOut-of-order DoT (only Cloudflare implemented it in 2019) removes\n"
      "the blocking entirely — supporting the paper's argument that the\n"
      "complexity of reimplementing stream multiplexing inside DoT is why\n"
      "DoT lost to DoH/2. Serial (unpipelined) HTTP/1.1 avoids *response*\n"
      "blocking but pays queueing delay at 10 q/s instead.\n");
  bench::finish(output, report, nullptr, &registry);
  return 0;
}
