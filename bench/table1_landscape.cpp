// Table 1: the DoH resolver landscape — providers, service URLs, markers.
// Also reports the path-diversity observation of §2 (four distinct URL
// paths across nine providers).
#include <cstdio>
#include <set>

#include "bench_common.hpp"
#include "survey/report.hpp"

int main(int argc, char** argv) {
  using namespace dohperf;
  bench::Flags flags(argc, argv);
  const bench::Output output = flags.output();
  flags.reject_unknown();
  std::printf("=== Table 1: Compared DoH resolvers ===\n\n");
  const auto& providers = survey::paper_providers();
  std::printf("%s\n", survey::render_table1(providers).c_str());

  std::set<std::string> paths;
  for (const auto& p : providers) {
    for (const auto& e : p.endpoints) paths.insert(e.url_path);
  }
  std::printf("Distinct URL paths in use: %zu (paper: 4 — /, /resolve, "
              "/dns-query, /family-filter)\n",
              paths.size());
  for (const auto& path : paths) std::printf("  %s\n", path.c_str());

  bench::BenchReport report("table1_landscape");
  report.set("landscape", "providers",
             static_cast<std::int64_t>(providers.size()));
  report.set("landscape", "distinct_url_paths",
             static_cast<std::int64_t>(paths.size()));
  bench::finish(output, report);
  return 0;
}
