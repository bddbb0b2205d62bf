// Figure 3: total bytes per resolution across the six §4 scenarios.
//
// Paper medians: UDP 182 B; fresh-connection DoH 5,737 B (Cloudflare) and
// 6,941 B (Google) — >30x UDP; persistent DoH 864 B (CF) / 1,203 B (GO) —
// still >4x UDP. Google exceeds Cloudflare because its certificate chain is
// larger (3,101 B vs 1,960 B). Whiskers span the full range.
#include <cstdio>

#include "bench_common.hpp"
#include "resolution_cost.hpp"

int main(int argc, char** argv) {
  using namespace dohperf;
  bench::Flags flags(argc, argv);
  const std::size_t names = flags.num("names", 2000);
  const bench::Output output = flags.output();
  flags.reject_unknown();
  const bool want_trace = !output.trace.empty();

  std::printf("=== Figure 3: total bytes per DNS resolution (%zu names) "
              "===\n\n", names);

  obs::Tracer tracer;
  obs::Registry registry;
  const auto scenarios = bench::run_all_scenarios(
      names, want_trace ? &tracer : nullptr, &registry);
  bench::BenchReport report("fig3_bytes_per_resolution");
  report.params["names"] = static_cast<std::int64_t>(names);

  double udp_median = 0.0;
  for (const auto& scenario : scenarios) {
    std::vector<double> bytes;
    for (const auto& c : scenario.costs) {
      bytes.push_back(static_cast<double>(c.wire_bytes));
    }
    bench::print_box(scenario.label, bytes, "bytes");
    report.set(scenario.label, "wire_bytes", bench::box_json(bytes));
    if (scenario.label == "U/CF" && !bytes.empty()) {
      udp_median = stats::median(bytes);
    }
  }

  std::printf("\nRatios vs UDP median (%0.0f B):\n", udp_median);
  for (const auto& scenario : scenarios) {
    std::vector<double> bytes;
    for (const auto& c : scenario.costs) {
      bytes.push_back(static_cast<double>(c.wire_bytes));
    }
    if (bytes.empty()) {
      std::printf("  %-8s (no samples)\n", scenario.label.c_str());
      continue;
    }
    std::printf("  %-8s %.1fx\n", scenario.label.c_str(),
                stats::median(bytes) / udp_median);
  }
  std::printf("\nPaper reference medians: U=182B  H/CF=5737B  H/GO=6941B  "
              "HP/CF=864B  HP/GO=1203B\n");
  bench::finish(output, report, &tracer, &registry);
  return 0;
}
