// Table 2: DoH resolver feature matrix, obtained by actively probing the
// simulated deployments (content-type negotiation, TLS version walk,
// certificate inspection, CAA lookup, QUIC probe, DoT attempt) — the §2
// methodology end to end.
#include <cstdio>
#include <set>

#include "bench_common.hpp"
#include "survey/deployment.hpp"
#include "survey/prober.hpp"
#include "survey/report.hpp"

int main(int argc, char** argv) {
  using namespace dohperf;
  bench::Flags flags(argc, argv);
  const bench::Output output = flags.output();
  flags.reject_unknown();

  simnet::EventLoop loop;
  simnet::Network net(loop, /*seed=*/2);
  simnet::Host prober_host(net, "prober");
  survey::ProviderDeployment deployment(net, prober_host,
                                        survey::paper_providers());
  survey::Prober prober(prober_host, deployment);

  for (const auto& spec : survey::paper_providers()) {
    prober.probe(spec);
  }
  loop.run();

  std::printf("=== Table 2: DoH resolver features (actively probed) ===\n\n");
  std::printf("%s\n",
              survey::render_table2(survey::paper_providers(), prober.results())
                  .c_str());
  std::printf("Legend: Y = supported, - = not supported;\n"
              "        steering: DL = DNS load balancing, AC = anycast, "
              "UC = unicast\n"
              "Probes run: %zu TLS handshakes + per-provider content-type, "
              "CAA, QUIC and DoT checks\n",
              5 * survey::paper_providers().size());

  // --- the October 2018 -> September 2019 delta the paper reports (§2) ----
  std::set<std::string> paths_2018;
  std::set<std::string> paths_2019;
  std::size_t tls13_2018 = 0;
  std::size_t tls13_2019 = 0;
  for (const auto& p : survey::paper_providers_2018()) {
    for (const auto& e : p.endpoints) paths_2018.insert(e.url_path);
    tls13_2018 += p.tls_versions.count(tlssim::TlsVersion::kTls13);
  }
  for (const auto& p : survey::paper_providers()) {
    for (const auto& e : p.endpoints) paths_2019.insert(e.url_path);
    tls13_2019 += p.tls_versions.count(tlssim::TlsVersion::kTls13);
  }
  std::printf("\nLandscape drift, Oct 2018 -> Sep 2019 (as reported in "
              "the paper):\n");
  std::printf("  distinct URL paths : %zu -> %zu  (paper: 6 -> 4)\n",
              paths_2018.size(), paths_2019.size());
  std::printf("  services with TLS 1.3 : %zu -> %zu  (paper: only CF+SD -> "
              "all but CB and RF)\n",
              tls13_2018, tls13_2019);

  bench::BenchReport report("table2_features");
  report.set("2018", "distinct_url_paths",
             static_cast<std::int64_t>(paths_2018.size()));
  report.set("2018", "tls13_services",
             static_cast<std::int64_t>(tls13_2018));
  report.set("2019", "distinct_url_paths",
             static_cast<std::int64_t>(paths_2019.size()));
  report.set("2019", "tls13_services",
             static_cast<std::int64_t>(tls13_2019));
  bench::finish(output, report);
  return 0;
}
