// Helpers shared by the figure/table harnesses: the flag parser, the
// CDF/box-whisker printers that emit the same rows/series the paper plots,
// and the deterministic JSON/trace export every bench supports:
//   --json=<path>   machine-readable results ("dohperf-bench-v1" schema)
//   --trace=<path>  Chrome trace_event document (chrome://tracing, Perfetto)
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
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

/// Paths of the two documents every bench can write; empty when not asked.
struct Output {
  std::string json;   ///< --json=<path>: the BenchReport
  std::string trace;  ///< --trace=<path>: the Chrome trace_event document
};

/// A bench's command line. The bench asks for every flag it reads by name,
/// --json and --trace included (output()), then calls reject_unknown()
/// before any simulation runs, so a misspelled or foreign flag stops the
/// program instead of silently leaving a default in place. A value takes
/// the "--key=value" or the "--key value" form; the first occurrence wins.
class Flags {
 public:
  Flags(int argc, char** argv)
      : args_(argv + std::min(argc, 1), argv + argc),
        asked_(args_.size(), false) {}

  /// A whole decimal number; `fallback` when absent. A missing value, or
  /// one that is not a whole decimal number, ends the program with status 2
  /// and names the flag.
  std::size_t num(const std::string& key, std::size_t fallback) {
    const std::optional<std::string> value = take(key);
    if (!value) return fallback;
    std::size_t n = 0;
    const char* end = value->data() + value->size();
    const auto [ptr, ec] = std::from_chars(value->data(), end, n);
    if (value->empty() || ec != std::errc() || ptr != end) {
      std::fprintf(stderr,
                   "error: --%s needs a whole decimal number, got \"%s\"\n",
                   key.c_str(), value->c_str());
      std::exit(2);
    }
    return n;
  }

  /// A string value; empty when absent.
  std::string str(const std::string& key) {
    return take(key).value_or("");
  }

  /// A switch: true when "--key" is given.
  bool on(const std::string& key) {
    bool found = false;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] != "--" + key) continue;
      asked_[i] = true;
      found = true;
    }
    return found;
  }

  /// The --json and --trace paths finish() writes to.
  Output output() { return {str("json"), str("trace")}; }

  /// Ends the program with status 2, naming each argument that no ask
  /// consumed.
  void reject_unknown() const {
    bool unknown = false;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (asked_[i]) continue;
      std::fprintf(stderr, "error: unknown argument %s\n", args_[i].c_str());
      unknown = true;
    }
    if (unknown) std::exit(2);
  }

 private:
  /// Marks every occurrence of --key (and the value token after a bare
  /// --key) as asked, and returns the first occurrence's value. A bare
  /// --key at the end of the line has the empty value.
  std::optional<std::string> take(const std::string& key) {
    const std::string bare = "--" + key;
    const std::string prefix = bare + "=";
    std::optional<std::string> value;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      std::string found;
      if (args_[i].rfind(prefix, 0) == 0) {
        found = args_[i].substr(prefix.size());
      } else if (args_[i] == bare) {
        if (i + 1 < args_.size()) {
          found = args_[i + 1];
          asked_[i + 1] = true;
        }
      } else {
        continue;
      }
      asked_[i] = true;
      if (!value) value = std::move(found);
    }
    return value;
  }

  std::vector<std::string> args_;
  std::vector<bool> asked_;
};

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

/// `part` as a percentage of `whole`; 0 when `whole` is 0.
inline double pct(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

/// Percentile `p` of `xs`, divided by `unit`, as a one-decimal table cell;
/// "-" for an empty sample, which has no percentiles.
inline std::string pctl(const std::vector<double>& xs, double p,
                        double unit = 1.0) {
  return xs.empty()
             ? std::string("-")
             : stats::format_double(stats::percentile(xs, p) / unit, 1);
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

/// Common bench epilogue: write the --json and --trace documents `output`
/// names. `tracer`/`registry` may be null — the bench still emits a valid
/// (empty) trace document and a report without a "metrics" section.
inline void finish(const Output& output, const BenchReport& report,
                   const obs::Tracer* tracer = nullptr,
                   const obs::Registry* registry = nullptr) {
  if (!output.json.empty()) {
    write_file(output.json, report.to_json(registry).dump() + "\n");
    std::printf("wrote %s\n", output.json.c_str());
  }
  if (!output.trace.empty()) {
    std::string doc;
    if (tracer != nullptr) {
      doc = obs::chrome_trace_json(*tracer);
    } else {
      static const obs::Tracer kEmpty;
      doc = obs::chrome_trace_json(kEmpty);
    }
    write_file(output.trace, doc + "\n");
    std::printf("wrote %s\n", output.trace.c_str());
  }
}

}  // namespace dohperf::bench
