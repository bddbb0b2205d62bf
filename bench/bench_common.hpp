// Helpers shared by the figure/table harnesses: flag parsing, the
// CDF/box-whisker printers that emit the same rows/series the paper plots,
// and the deterministic JSON/trace export every bench supports:
//   --json=<path>   machine-readable results ("dohperf-bench-v1" schema)
//   --trace=<path>  Chrome trace_event document (chrome://tracing, Perfetto)
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <system_error>
#include <string>
#include <vector>

#include "dns/json_value.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "stats/cdf.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace dohperf::bench {

/// Parse an integer flag given as "--key=value" or "--key value"; returns
/// `fallback` if absent. A missing value, or one that is not a whole
/// decimal number, ends the program with status 2 and names the flag.
inline std::size_t flag(int argc, char** argv, const std::string& key,
                        std::size_t fallback) {
  const std::string bare = "--" + key;
  const std::string prefix = bare + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
    } else if (arg == bare) {
      if (i + 1 < argc) value = argv[i + 1];
    } else {
      continue;
    }
    std::size_t n = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, n);
    if (value.empty() || ec != std::errc() || ptr != end) {
      std::fprintf(stderr,
                   "error: %s needs a whole decimal number, got \"%s\"\n",
                   bare.c_str(), value.c_str());
      std::exit(2);
    }
    return n;
  }
  return fallback;
}

inline bool flag_set(int argc, char** argv, const std::string& key) {
  const std::string want = "--" + key;
  for (int i = 1; i < argc; ++i) {
    if (want == argv[i]) return true;
  }
  return false;
}

/// Parse "--key=value" or "--key value" string flags; `fallback` if absent.
inline std::string flag_str(int argc, char** argv, const std::string& key,
                            const std::string& fallback = "") {
  const std::string bare = "--" + key;
  const std::string prefix = bare + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == bare && i + 1 < argc) return argv[i + 1];
  }
  return fallback;
}

/// Print a CDF as quantile rows plus a terminal sparkline.
inline void print_cdf(const std::string& label, const stats::Cdf& cdf,
                      const std::string& unit) {
  if (cdf.empty()) {
    std::printf("%-28s (no samples)\n", label.c_str());
    return;
  }
  std::printf("%-28s n=%-6zu p10=%-9.1f p25=%-9.1f p50=%-9.1f p75=%-9.1f "
              "p90=%-9.1f max=%-9.1f %s\n",
              label.c_str(), cdf.count(), cdf.quantile(0.10),
              cdf.quantile(0.25), cdf.quantile(0.50), cdf.quantile(0.75),
              cdf.quantile(0.90), cdf.quantile(1.0), unit.c_str());
}

/// Print a box-whisker row (the paper's Figs 3-5 presentation).
inline void print_box(const std::string& label,
                      const std::vector<double>& xs,
                      const std::string& unit) {
  if (xs.empty()) {
    std::printf("%-22s (no samples)\n", label.c_str());
    return;
  }
  const auto bw = stats::BoxWhisker::from(xs);
  std::printf("%-22s min=%-9.0f q1=%-9.0f med=%-9.0f q3=%-9.0f max=%-9.0f %s\n",
              label.c_str(), bw.min, bw.q1, bw.median, bw.q3, bw.max,
              unit.c_str());
}

/// Quantile summary of a sample as a JSON object (Fig 3-5 presentation).
inline dns::JsonValue box_json(const std::vector<double>& xs) {
  dns::JsonObject o;
  o["n"] = static_cast<std::int64_t>(xs.size());
  if (xs.empty()) return dns::JsonValue(std::move(o));
  const auto bw = stats::BoxWhisker::from(xs);
  o["min"] = bw.min;
  o["q1"] = bw.q1;
  o["med"] = bw.median;
  o["q3"] = bw.q3;
  o["max"] = bw.max;
  return dns::JsonValue(std::move(o));
}

/// Quantile summary of a CDF as a JSON object (Fig 2 presentation).
inline dns::JsonValue cdf_json(const stats::Cdf& cdf) {
  dns::JsonObject o;
  o["n"] = static_cast<std::int64_t>(cdf.count());
  if (!cdf.empty()) {
    o["p10"] = cdf.quantile(0.10);
    o["p25"] = cdf.quantile(0.25);
    o["p50"] = cdf.quantile(0.50);
    o["p75"] = cdf.quantile(0.75);
    o["p90"] = cdf.quantile(0.90);
    o["max"] = cdf.quantile(1.0);
  }
  return dns::JsonValue(std::move(o));
}

/// Machine-readable bench results, exported by finish() when the harness
/// is run with --json=<path>:
///   {"schema":"dohperf-bench-v1","bench":<name>,
///    "params":{...},"scenarios":{<label>:{<metric>:<value>,...},...},
///    "metrics":{...}}            // registry snapshot, when one is wired
/// Scenario and metric keys iterate in sorted (map) order, and all values
/// are virtual-clock or byte-count derived, so two identically seeded runs
/// dump byte-identical documents.
struct BenchReport {
  std::string bench;
  dns::JsonObject params;
  dns::JsonObject scenarios;

  explicit BenchReport(std::string name) : bench(std::move(name)) {}

  /// Record one scenario metric (creates the scenario on first touch).
  void set(const std::string& scenario, const std::string& metric,
           dns::JsonValue value) {
    if (scenarios.find(scenario) == scenarios.end()) {
      scenarios[scenario] = dns::JsonValue(dns::JsonObject{});
    }
    scenarios[scenario].as_object()[metric] = std::move(value);
  }

  dns::JsonValue to_json(const obs::Registry* registry = nullptr) const {
    dns::JsonObject doc;
    doc["schema"] = "dohperf-bench-v1";
    doc["bench"] = bench;
    doc["params"] = dns::JsonValue(params);
    doc["scenarios"] = dns::JsonValue(scenarios);
    if (registry != nullptr) doc["metrics"] = registry->to_json();
    return dns::JsonValue(std::move(doc));
  }
};

/// Write `text` to `path`; dies loudly (benches are CI plumbing — a silent
/// write failure would surface as a missing artifact much later).
inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  out << text;
  if (!out) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    std::exit(1);
  }
}

/// Common bench epilogue: honour --json=<path> and --trace=<path>.
/// `tracer`/`registry` may be null — the bench still emits a valid (empty)
/// trace document and a report without a "metrics" section.
inline void finish(int argc, char** argv, const BenchReport& report,
                   const obs::Tracer* tracer = nullptr,
                   const obs::Registry* registry = nullptr) {
  const std::string json_path = flag_str(argc, argv, "json");
  if (!json_path.empty()) {
    write_file(json_path, report.to_json(registry).dump() + "\n");
    std::printf("wrote %s\n", json_path.c_str());
  }
  const std::string trace_path = flag_str(argc, argv, "trace");
  if (!trace_path.empty()) {
    std::string doc;
    if (tracer != nullptr) {
      doc = obs::chrome_trace_json(*tracer);
    } else {
      static const obs::Tracer kEmpty;
      doc = obs::chrome_trace_json(kEmpty);
    }
    write_file(trace_path, doc + "\n");
    std::printf("wrote %s\n", trace_path.c_str());
  }
}

}  // namespace dohperf::bench
