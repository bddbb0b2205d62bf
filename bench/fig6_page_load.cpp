// Figure 6: CDFs of per-page cumulative DNS resolution time and page load
// (onload) time for five resolver configurations —
//   U/LO  legacy DNS, local (university) resolver
//   U/CF  legacy DNS, Cloudflare        U/GO  legacy DNS, Google
//   H/CF  DoH (HTTP/2), Cloudflare      H/GO  DoH (HTTP/2), Google
// from the university vantage, and (reduced) from 39 PlanetLab-like nodes.
//
// Each page is loaded three times with caches purged (a fresh PageLoader);
// the DoH connection persists across loads, as it does in Firefox.
//
// Expected shape (paper): cloud UDP resolves faster than the local
// resolver; DoH resolves slower than UDP to the same cloud; onload times
// are nearly indistinguishable across all five configurations.
#include <array>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "shard_runner.hpp"
#include "browser/page_load.hpp"
#include "browser/vantage.hpp"
#include "browser/web_farm.hpp"
#include "core/doh_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/udp_server.hpp"
#include "workload/alexa.hpp"

namespace {

using namespace dohperf;

struct ConfigResult {
  stats::Cdf dns_ms;     ///< cumulative DNS time per load, ms
  stats::Cdf onload_ms;  ///< onload time per load, ms
  std::size_t failures = 0;
};

/// The five resolver configurations, in the paper's presentation order.
/// This is also the shard order within a vantage, so the merged registry
/// matches what the old serial config loop produced.
constexpr std::array<const char*, 5> kConfigs = {"U/LO", "U/CF", "U/GO",
                                                "H/CF", "H/GO"};

/// One shard's output: the per-config CDFs plus a private metrics registry
/// (merged into the global one by shard index — see Registry::merge_from).
// detlint: hot-slot
struct alignas(64) ConfigShard {
  ConfigResult result;
  obs::Registry registry;
};

/// Run ONE resolver configuration from one vantage. Each call builds a
/// fully independent simulation (own loop, network, hosts, RNG seeds), so
/// vantage x config cells can run as parallel shards; `seed` alone
/// determines every byte of the result.
ConfigShard run_config(const browser::Vantage& vantage,
                       const std::string& config_name, std::size_t pages,
                       int loads_per_page, std::uint64_t seed,
                       obs::Tracer* tracer = nullptr) {
  ConfigShard shard;
  {
    simnet::EventLoop loop;
    simnet::Network net(loop, seed);
    simnet::Host browser_host(net, "browser");
    simnet::Host resolver_host(net, "resolver");

    if (tracer != nullptr) tracer->bind(loop);
    const obs::SpanContext obs{tracer, 0, &shard.registry};

    const bool local = config_name == "U/LO";
    const bool cloudflare = config_name.find("CF") != std::string::npos;
    simnet::LinkConfig resolver_link;
    resolver_link.latency = local ? vantage.local_resolver_latency
                            : cloudflare ? vantage.cloudflare_latency
                                         : vantage.google_latency;
    net.connect(browser_host.id(), resolver_host.id(), resolver_link);

    resolver::EngineConfig engine_config;
    engine_config.obs = obs;
    engine_config.upstream =
        local ? vantage.local_resolver : vantage.cloud_resolver;
    engine_config.seed = seed ^ 0xabcd;
    resolver::Engine engine(loop, engine_config);
    resolver::UdpServer udp_server(resolver_host, engine, 53);
    resolver::DohServerConfig doh_config;
    doh_config.tls.chain = cloudflare ? tlssim::CertificateChain::cloudflare()
                                      : tlssim::CertificateChain::google();
    // HTTPS front-end -> resolver backend hop (see DohServerConfig).
    doh_config.frontend_delay = simnet::ms(4);
    resolver::DohServer doh_server(resolver_host, engine, doh_config, 443);

    std::unique_ptr<core::ResolverClient> resolver_client;
    if (config_name[0] == 'U') {
      core::UdpClientConfig client_config;
      client_config.obs = obs;
      resolver_client = std::make_unique<core::UdpResolverClient>(
          browser_host, simnet::Address{resolver_host.id(), 53},
          client_config);
    } else {
      core::DohClientConfig client_config;
      client_config.server_name =
          cloudflare ? "cloudflare-dns.com" : "dns.google.com";
      client_config.obs = obs;
      resolver_client = std::make_unique<core::DohClient>(
          browser_host, simnet::Address{resolver_host.id(), 443},
          client_config);
    }

    browser::WebFarmConfig farm_config;
    farm_config.base_latency = vantage.origin_base_latency;
    farm_config.latency_jitter = vantage.origin_latency_jitter;
    farm_config.bandwidth_bps = vantage.access_bandwidth_bps;
    farm_config.seed = seed;  // identical origin links across configs
    browser::WebFarm farm(net, browser_host, farm_config);

    workload::AlexaPageModel model;
    ConfigResult& result = shard.result;
    for (std::size_t rank = 1; rank <= pages; ++rank) {
      const auto page = model.page(rank);
      for (int load = 0; load < loads_per_page; ++load) {
        browser::PageLoadConfig loader_config;
        loader_config.obs = obs;
        browser::PageLoader loader(browser_host, farm, *resolver_client,
                                   loader_config);
        bool finished = false;
        browser::PageLoadResult page_result;
        loader.load(page, [&](const browser::PageLoadResult& r) {
          page_result = r;
          finished = true;
        });
        loop.run();
        if (!finished || !page_result.success) {
          ++result.failures;
          continue;
        }
        result.dns_ms.add(simnet::to_ms(page_result.cumulative_dns));
        result.onload_ms.add(simnet::to_ms(page_result.onload_time()));
      }
    }
  }
  return shard;
}

void report(const std::string& title, const std::string& key_prefix,
            const std::map<std::string, ConfigResult>& results,
            bench::BenchReport& out) {
  std::printf("--- %s: cumulative DNS resolution time per page ---\n",
              title.c_str());
  for (const auto& [name, r] : results) {
    dohperf::bench::print_cdf(name, r.dns_ms, "ms");
  }
  std::printf("\n--- %s: page load (onload) time ---\n", title.c_str());
  for (const auto& [name, r] : results) {
    dohperf::bench::print_cdf(name, r.onload_ms, "ms");
  }
  std::size_t failures = 0;
  for (const auto& [name, r] : results) {
    const std::string key = key_prefix + "/" + name;
    out.set(key, "dns_ms", bench::cdf_json(r.dns_ms));
    out.set(key, "onload_ms", bench::cdf_json(r.onload_ms));
    out.set(key, "failures", static_cast<std::int64_t>(r.failures));
    failures += r.failures;
  }
  std::printf("\nfailed loads: %zu\n\n", failures);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  // Paper-scale defaults (Böttger et al. §5: Alexa top-1000 from the
  // university vantage, 39 PlanetLab nodes): affordable since the per-shard
  // arena removed the allocator bottleneck and the benches went parallel by
  // default.
  const std::size_t pages = flags.num("pages", 1000);
  const std::size_t loads = flags.num("loads", 3);
  const std::size_t planetlab_nodes = flags.num("planetlab-nodes", 39);
  const std::size_t planetlab_pages = flags.num("planetlab-pages", 25);
  std::size_t jobs = flags.num("jobs", bench::default_jobs());
  const bench::Output output = flags.output();
  flags.reject_unknown();

  const bool want_trace = !output.trace.empty();
  if (want_trace && jobs > 1) {
    // The tracer binds to one shard's event loop; tracing forces serial so
    // the trace covers the same spans it always has.
    jobs = 1;
  }

  std::printf("=== Figure 6: DNS resolution & page load times by resolver "
              "configuration ===\n");
  std::printf("(university vantage: %zu pages x %zu loads; PlanetLab: %zu "
              "nodes x %zu pages; %zu jobs)\n\n",
              pages, loads, planetlab_nodes, planetlab_pages, jobs);

  obs::Tracer tracer;
  obs::Registry registry;
  bench::BenchReport json_report("fig6_page_load");
  json_report.params["pages"] = static_cast<std::int64_t>(pages);
  json_report.params["loads"] = static_cast<std::int64_t>(loads);
  json_report.params["planetlab_nodes"] =
      static_cast<std::int64_t>(planetlab_nodes);
  json_report.params["planetlab_pages"] =
      static_cast<std::int64_t>(planetlab_pages);

  // University vantage: one shard per resolver configuration, all seeded
  // identically (seed 1001) as the serial config loop was.
  auto university_shards = bench::run_sharded<ConfigShard>(
      kConfigs.size(), jobs, [&](std::size_t i) {
        return run_config(browser::Vantage::university(), kConfigs[i], pages,
                          static_cast<int>(loads), 1001,
                          // detlint: allow(CONC004) tracing forces jobs=1 above
                          want_trace ? &tracer : nullptr);
      });
  std::map<std::string, ConfigResult> university;
  for (std::size_t i = 0; i < university_shards.size(); ++i) {
    university[kConfigs[i]] = std::move(university_shards[i].result);
    registry.merge_from(university_shards[i].registry);
  }
  report("University vantage", "university", university, json_report);

  // PlanetLab: one shard per node x config cell (node-major, config-minor,
  // matching the old nested loops), aggregated across heterogeneous nodes.
  auto planetlab_shards = bench::run_sharded<ConfigShard>(
      planetlab_nodes * kConfigs.size(), jobs, [&](std::size_t i) {
        const std::size_t node = i / kConfigs.size();
        const std::size_t config = i % kConfigs.size();
        return run_config(browser::Vantage::planetlab(static_cast<int>(node)),
                          kConfigs[config], planetlab_pages, 1, 2000 + node);
      });
  std::map<std::string, ConfigResult> planetlab;
  for (std::size_t i = 0; i < planetlab_shards.size(); ++i) {
    auto& shard = planetlab_shards[i];
    auto& agg = planetlab[kConfigs[i % kConfigs.size()]];
    agg.dns_ms.add_all(shard.result.dns_ms.sorted_values());
    agg.onload_ms.add_all(shard.result.onload_ms.sorted_values());
    agg.failures += shard.result.failures;
    registry.merge_from(shard.registry);
  }
  report("PlanetLab vantage (39 nodes)", "planetlab", planetlab, json_report);

  std::printf(
      "Expected shape (paper): cloud UDP < local resolver on DNS time;\n"
      "DoH slower than UDP to the same provider (CF < GO in both); onload\n"
      "times nearly identical across all five configurations.\n");
  bench::finish(output, json_report, &tracer, &registry);
  return 0;
}
