// Figure 5: per-layer overhead breakdown for DNS-over-HTTPS/2 resolutions —
// HTTP body, HTTP headers, HTTP/2 management frames, TLS, TCP — for
// Cloudflare and Google, non-persistent and persistent.
//
// Paper findings: persistent connections shrink Hdr (HPACK differential
// headers) and Mgmt (SETTINGS/WINDOW_UPDATE amortized); non-persistent TLS
// is dominated by the certificate; even persistent TLS and TCP overheads
// each rival the size of the DNS payload itself.
#include <cstdio>

#include "bench_common.hpp"
#include "resolution_cost.hpp"

namespace {

using namespace dohperf;

void breakdown(const bench::ScenarioCosts& scenario,
               bench::BenchReport& report) {
  std::printf("--- %s ---\n", scenario.label.c_str());
  const auto layer = [&](const char* name, const char* metric, auto getter) {
    std::vector<double> xs;
    for (const auto& c : scenario.costs) {
      xs.push_back(static_cast<double>(getter(c)));
    }
    bench::print_box(name, xs, "B");
    report.set(scenario.label, metric, bench::box_json(xs));
  };
  layer("Body (DNS payload)", "http_body_bytes",
        [](const core::CostReport& c) { return c.http_body_bytes; });
  layer("Hdr  (HTTP headers)", "http_header_bytes",
        [](const core::CostReport& c) { return c.http_header_bytes; });
  layer("Mgmt (h2 frames)", "http_mgmt_bytes",
        [](const core::CostReport& c) { return c.http_mgmt_bytes; });
  layer("TLS", "tls_overhead_bytes",
        [](const core::CostReport& c) { return c.tls_overhead_bytes; });
  layer("TCP", "tcp_overhead_bytes",
        [](const core::CostReport& c) { return c.tcp_overhead_bytes; });
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t names = flags.num("names", 1500);
  const bench::Output output = flags.output();
  flags.reject_unknown();
  const bool want_trace = !output.trace.empty();
  const auto corpus = bench::corpus_names(names);

  std::printf("=== Figure 5: DoH/2 per-layer overhead per resolution (%zu "
              "names) ===\n\n", names);

  obs::Tracer tracer;
  obs::Registry registry;
  obs::Tracer* tp = want_trace ? &tracer : nullptr;
  bench::BenchReport report("fig5_overhead_breakdown");
  report.params["names"] = static_cast<std::int64_t>(names);

  breakdown(bench::run_scenario("Cloudflare (fresh conn)", "H", "CF", corpus,
                                tp, &registry), report);
  breakdown(bench::run_scenario("Cloudflare (persistent)", "HP", "CF", corpus,
                                tp, &registry), report);
  breakdown(bench::run_scenario("Google (fresh conn)", "H", "GO", corpus,
                                tp, &registry), report);
  breakdown(bench::run_scenario("Google (persistent)", "HP", "GO", corpus,
                                tp, &registry), report);

  std::printf(
      "Expected shape (paper): persistent runs shrink Hdr (differential\n"
      "headers) and Mgmt; non-persistent TLS is certificate-dominated\n"
      "(Google > Cloudflare); persistent-median TLS and TCP each remain\n"
      "comparable to the DNS payload itself.\n");
  bench::finish(output, report, &tracer, &registry);
  return 0;
}
