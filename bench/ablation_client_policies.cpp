// Ablation: client-side resolution policies.
//
//  * TTL cache on/off — the paper empties all caches by design; this
//    quantifies what that methodology removes: with a browser-style cache,
//    a Zipf-popular query stream stops touching the network at all for hot
//    names, collapsing DoH's per-query cost.
//  * TRR-style fallback — Firefox's DoH rollout answer to a degraded DoH
//    service: how much tail latency does the fallback deadline clip when a
//    fraction of DoH queries stall?
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/caching_client.hpp"
#include "core/doh_client.hpp"
#include "core/fallback_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/udp_server.hpp"
#include "workload/alexa.hpp"

namespace {

using namespace dohperf;

void cache_ablation(std::size_t queries, bench::BenchReport& report) {
  std::printf("--- TTL cache over DoH, Zipf query stream (%zu queries) "
              "---\n", queries);
  for (const bool cache_on : {false, true}) {
    simnet::EventLoop loop;
    simnet::Network net(loop, 4);
    simnet::Host client_host(net, "client");
    simnet::Host server_host(net, "resolver");
    simnet::LinkConfig link;
    link.latency = simnet::ms(8);
    net.connect(client_host.id(), server_host.id(), link);

    resolver::Engine engine(loop, {});
    resolver::DohServerConfig doh_config;
    doh_config.tls.chain = tlssim::CertificateChain::cloudflare();
    resolver::DohServer doh_server(server_host, engine, doh_config, 443);

    core::DohClientConfig client_config;
    client_config.server_name = "cloudflare-dns.com";
    core::DohClient doh(client_host, {server_host.id(), 443}, client_config);
    core::CachingResolverClient cache(loop, doh, {});
    core::ResolverClient& resolver_client =
        cache_on ? static_cast<core::ResolverClient&>(cache)
                 : static_cast<core::ResolverClient&>(doh);

    stats::ZipfSampler popularity(2000, 1.2, 77);
    std::vector<double> times_ms;
    for (std::size_t i = 0; i < queries; ++i) {
      const auto name = dns::Name::parse(
          "tp" + std::to_string(popularity.sample()) + ".example");
      resolver_client.resolve(name, dns::RType::kA,
                              [&](const core::ResolutionResult& r) {
                                times_ms.push_back(
                                    simnet::to_ms(r.resolution_time()));
                              });
      loop.run();
    }
    const auto* tcp = doh.tcp_counters();
    const double mean_ms = [&] {
      double total = 0;
      for (const auto t : times_ms) total += t;
      return total / static_cast<double>(times_ms.size());
    }();
    std::printf("cache %-3s med=%6.2fms mean=%6.2fms  wire=%s",
                cache_on ? "ON" : "OFF", stats::percentile(times_ms, 50),
                mean_ms,
                tcp ? stats::format_bytes(
                          static_cast<double>(tcp->total_wire_bytes()))
                          .c_str()
                    : "n/a");
    const std::string key = cache_on ? "cache_on" : "cache_off";
    report.set(key, "resolution_ms", bench::box_json(times_ms));
    report.set(key, "mean_ms", mean_ms);
    if (tcp != nullptr) {
      report.set(key, "wire_bytes",
                 static_cast<std::int64_t>(tcp->total_wire_bytes()));
    }
    if (cache_on) {
      std::printf("  hit-ratio=%.0f%%", cache.stats().hit_ratio() * 100.0);
      report.set(key, "hit_ratio", cache.stats().hit_ratio());
    }
    std::printf("\n");
  }
}

void fallback_ablation(std::size_t queries, bench::BenchReport& report) {
  std::printf("\n--- TRR fallback under a degraded DoH service "
              "(1 in 5 queries stalls 5s; %zu queries) ---\n", queries);
  for (const bool fallback_on : {false, true}) {
    simnet::EventLoop loop;
    simnet::Network net(loop, 4);
    simnet::Host client_host(net, "client");
    simnet::Host server_host(net, "resolver");
    simnet::LinkConfig link;
    link.latency = simnet::ms(8);
    net.connect(client_host.id(), server_host.id(), link);

    resolver::EngineConfig engine_config;
    engine_config.delay_policy.every_n = 5;
    engine_config.delay_policy.delay = simnet::seconds(5);
    resolver::Engine doh_engine(loop, engine_config);
    resolver::DohServerConfig doh_config;
    doh_config.tls.chain = tlssim::CertificateChain::cloudflare();
    resolver::DohServer doh_server(server_host, doh_engine, doh_config, 443);
    // The UDP path resolves from a separate healthy engine.
    resolver::Engine udp_engine(loop, {});
    resolver::UdpServer udp_server(server_host, udp_engine, 53);

    core::DohClientConfig client_config;
    client_config.server_name = "cloudflare-dns.com";
    core::DohClient doh(client_host, {server_host.id(), 443}, client_config);
    core::UdpResolverClient udp(client_host, {server_host.id(), 53});
    core::FallbackConfig fallback_config;
    fallback_config.primary_deadline = simnet::ms(300);
    core::FallbackResolverClient trr(loop, doh, udp, fallback_config);
    core::ResolverClient& resolver_client =
        fallback_on ? static_cast<core::ResolverClient&>(trr)
                    : static_cast<core::ResolverClient&>(doh);

    std::vector<double> times_ms;
    for (std::size_t i = 0; i < queries; ++i) {
      const std::string index = std::to_string(i);
      resolver_client.resolve(
          dns::Name::parse("q" + index + ".example.com"),
          dns::RType::kA, [&](const core::ResolutionResult& r) {
            times_ms.push_back(simnet::to_ms(r.resolution_time()));
          });
      loop.run();
    }
    std::printf("fallback %-3s med=%7.1fms p90=%8.1fms max=%8.1fms",
                fallback_on ? "ON" : "OFF", stats::percentile(times_ms, 50),
                stats::percentile(times_ms, 90),
                stats::percentile(times_ms, 100));
    const std::string key = fallback_on ? "fallback_on" : "fallback_off";
    report.set(key, "resolution_ms", bench::box_json(times_ms));
    if (fallback_on) {
      std::printf("  (fallbacks: %llu/%zu)",
                  static_cast<unsigned long long>(trr.stats().fallback_used),
                  queries);
      report.set(key, "fallbacks", static_cast<std::int64_t>(
                                       trr.stats().fallback_used));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t queries = flags.num("queries", 400);
  const bench::Output output = flags.output();
  flags.reject_unknown();
  std::printf("=== Ablation: client-side resolution policies ===\n\n");
  bench::BenchReport report("ablation_client_policies");
  report.params["queries"] = static_cast<std::int64_t>(queries);
  cache_ablation(queries, report);
  fallback_ablation(std::min<std::size_t>(queries, 200), report);
  std::printf(
      "\nCaching collapses most DoH queries to zero network cost (the\n"
      "paper's cache-emptying methodology measures the worst case); the\n"
      "TRR fallback bounds a degraded DoH service's tail at the deadline.\n");
  bench::finish(output, report);
  return 0;
}
