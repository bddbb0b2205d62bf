// Figure 4: total packets per resolution across the six §4 scenarios.
//
// Paper medians: UDP 2 packets; fresh-connection DoH 27 (Cloudflare) and
// 31 (Google) — ~15x UDP; persistent DoH 8 (CF) / 11 (GO).
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

  std::printf("=== Figure 4: total packets per DNS resolution (%zu names) "
              "===\n\n", names);

  obs::Tracer tracer;
  obs::Registry registry;
  const auto scenarios = bench::run_all_scenarios(
      names, want_trace ? &tracer : nullptr, &registry);
  bench::BenchReport report("fig4_packets_per_resolution");
  report.params["names"] = static_cast<std::int64_t>(names);

  double udp_median = 0.0;
  for (const auto& scenario : scenarios) {
    std::vector<double> packets;
    for (const auto& c : scenario.costs) {
      packets.push_back(static_cast<double>(c.packets));
    }
    bench::print_box(scenario.label, packets, "packets");
    report.set(scenario.label, "packets", bench::box_json(packets));
    if (scenario.label == "U/CF") udp_median = stats::median(packets);
  }

  std::printf("\nRatios vs UDP median (%0.0f packets):\n", udp_median);
  for (const auto& scenario : scenarios) {
    std::vector<double> packets;
    for (const auto& c : scenario.costs) {
      packets.push_back(static_cast<double>(c.packets));
    }
    std::printf("  %-8s %.1fx\n", scenario.label.c_str(),
                stats::median(packets) / udp_median);
  }
  std::printf("\nPaper reference medians: U=2  H/CF=27  H/GO=31  HP/CF=8  "
              "HP/GO=11\n");
  bench::finish(output, report, &tracer, &registry);
  return 0;
}
