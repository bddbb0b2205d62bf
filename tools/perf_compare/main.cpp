// perf_compare — diff two dohperf-bench-v1 JSON reports.
//
// Usage:
//   perf_compare BASELINE.json CANDIDATE.json
//       [--require=scenarios.event_loop.schedule_fire_events_per_sec>=2.0]
//       [--require-abs-max=scenarios.tier.sampled64.overhead_ratio<=1.02]
//       [--warn=PATH>=RATIO] [--warn-abs=PATH>=VALUE] ...
//
// Prints every numeric leaf the two reports share (dotted path, baseline,
// candidate, candidate/baseline ratio) plus any leaves present on only one
// side. Each --require asserts a minimum candidate/baseline ratio at one
// dotted path; the tool exits 1 if any gate fails (or the files are not
// bench reports), 0 otherwise. CI's perf-smoke job uses the gates to catch
// large regressions while tolerating machine noise.
//
// --warn is the informational twin of --require: same PATH>=RATIO syntax,
// prints GATE WARN instead of GATE FAIL, never affects the exit code.
// --warn-abs checks the *candidate's absolute value* at PATH (no baseline
// needed — the path may not exist in older baselines), also informational.
// Both exist for metrics that are machine-dependent (jobs-scaling speedups
// on CI runners with unknown core counts) but still worth eyeballing.
//
// --require-abs-max=PATH<=VALUE is the hard ceiling twin: the candidate's
// absolute value at PATH must not exceed VALUE (exit 1 otherwise). CI uses
// it to pin the obs_overhead sampling tax independent of any baseline.
// --require-abs-min=PATH>=VALUE is the hard floor: the candidate's absolute
// value at PATH must reach VALUE (exit 1 otherwise). CI uses it for the
// shard-scaling gates (speedup/efficiency floors and the mem.* accounting
// mirror), which are absolute properties of the candidate, not ratios.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dns/json_value.hpp"

namespace {

using dohperf::dns::JsonValue;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Collect `path -> value` for every numeric leaf under `node`.
void flatten(const JsonValue& node, const std::string& path,
             std::map<std::string, double>& out) {
  if (node.is_number()) {
    out[path] = node.as_double();
    return;
  }
  if (node.is_object()) {
    for (const auto& [key, child] : node.as_object()) {
      flatten(child, path.empty() ? key : path + "." + key, out);
    }
  } else if (node.is_array()) {
    const auto& items = node.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      flatten(items[i], path + "[" + std::to_string(i) + "]", out);
    }
  }
}

struct Gate {
  std::string path;
  double min_ratio = 0.0;
  bool warn_only = false;      // --warn / --warn-abs: report, never fail
  bool absolute = false;       // --warn-abs: compare the candidate value
  bool max_bound = false;      // --require-abs-max: candidate value <= bound
  bool min_bound = false;      // --require-abs-min: candidate value >= bound
};

bool parse_gate(const std::string& spec, Gate& gate) {
  const char* op = gate.max_bound ? "<=" : ">=";
  const auto pos = spec.find(op);
  if (pos == std::string::npos || pos == 0) return false;
  gate.path = spec.substr(0, pos);
  char* end = nullptr;
  gate.min_ratio = std::strtod(spec.c_str() + pos + 2, &end);
  return end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<Gate> gates;
  const std::string require_prefix = "--require=";
  const std::string warn_prefix = "--warn=";
  const std::string warn_abs_prefix = "--warn-abs=";
  const std::string abs_max_prefix = "--require-abs-max=";
  const std::string abs_min_prefix = "--require-abs-min=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string spec;
    Gate gate;
    if (arg.rfind(require_prefix, 0) == 0) {
      spec = arg.substr(require_prefix.size());
    } else if (arg.rfind(abs_max_prefix, 0) == 0) {
      spec = arg.substr(abs_max_prefix.size());
      gate.absolute = true;
      gate.max_bound = true;
    } else if (arg.rfind(abs_min_prefix, 0) == 0) {
      spec = arg.substr(abs_min_prefix.size());
      gate.absolute = true;
      gate.min_bound = true;
    } else if (arg.rfind(warn_prefix, 0) == 0) {
      spec = arg.substr(warn_prefix.size());
      gate.warn_only = true;
    } else if (arg.rfind(warn_abs_prefix, 0) == 0) {
      spec = arg.substr(warn_abs_prefix.size());
      gate.warn_only = true;
      gate.absolute = true;
    } else {
      files.push_back(arg);
      continue;
    }
    if (!parse_gate(spec, gate)) {
      std::fprintf(stderr,
                   "perf_compare: bad gate %s (want PATH%sTHRESHOLD)\n",
                   arg.c_str(), gate.max_bound ? "<=" : ">=");
      return 1;
    }
    gates.push_back(std::move(gate));
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: perf_compare BASELINE.json CANDIDATE.json "
                 "[--require=PATH>=RATIO]...\n");
    return 1;
  }

  JsonValue docs[2];
  for (int i = 0; i < 2; ++i) {
    std::string text;
    if (!read_file(files[i], text)) {
      std::fprintf(stderr, "perf_compare: cannot read %s\n",
                   files[i].c_str());
      return 1;
    }
    try {
      docs[i] = JsonValue::parse(text);
    } catch (const dohperf::dns::JsonError& e) {
      std::fprintf(stderr, "perf_compare: %s: %s\n", files[i].c_str(),
                   e.what());
      return 1;
    }
    if (!docs[i].is_object() || !docs[i].contains("schema") ||
        docs[i].at("schema").as_string() != "dohperf-bench-v1") {
      std::fprintf(stderr, "perf_compare: %s is not a dohperf-bench-v1 report\n",
                   files[i].c_str());
      return 1;
    }
  }
  if (docs[0].at("bench").as_string() != docs[1].at("bench").as_string()) {
    std::fprintf(stderr, "perf_compare: different benches: %s vs %s\n",
                 docs[0].at("bench").as_string().c_str(),
                 docs[1].at("bench").as_string().c_str());
    return 1;
  }

  std::map<std::string, double> base, cand;
  if (docs[0].contains("scenarios")) {
    flatten(docs[0].at("scenarios"), "scenarios", base);
  }
  if (docs[1].contains("scenarios")) {
    flatten(docs[1].at("scenarios"), "scenarios", cand);
  }

  std::printf("%-64s %14s %14s %8s\n", "path", "baseline", "candidate",
              "ratio");
  std::map<std::string, double> ratios;
  for (const auto& [path, b] : base) {
    const auto it = cand.find(path);
    if (it == cand.end()) {
      std::printf("%-64s %14.6g %14s %8s\n", path.c_str(), b, "-", "gone");
      continue;
    }
    if (b == 0.0) {
      std::printf("%-64s %14.6g %14.6g %8s\n", path.c_str(), b, it->second,
                  it->second == 0.0 ? "=" : "n/a");
      if (it->second == 0.0) ratios[path] = 1.0;
      continue;
    }
    const double ratio = it->second / b;
    ratios[path] = ratio;
    std::printf("%-64s %14.6g %14.6g %8.3f\n", path.c_str(), b, it->second,
                ratio);
  }
  for (const auto& [path, c] : cand) {
    if (base.find(path) == base.end()) {
      std::printf("%-64s %14s %14.6g %8s\n", path.c_str(), "-", c, "new");
    }
  }

  bool ok = true;
  for (const auto& gate : gates) {
    const char* miss_label = gate.warn_only ? "WARN" : "FAIL";
    if (gate.absolute) {
      const auto it = cand.find(gate.path);
      if (it == cand.end()) {
        std::printf("GATE %s %s: path missing from candidate report\n",
                    miss_label, gate.path.c_str());
        ok = ok && gate.warn_only;
        continue;
      }
      if (gate.max_bound) {
        const bool pass = it->second <= gate.min_ratio;
        std::printf("GATE %s %s: value %.3f (need <= %.3f)\n",
                    pass ? "PASS" : "FAIL", gate.path.c_str(), it->second,
                    gate.min_ratio);
        ok = ok && pass;
        continue;
      }
      const bool pass = it->second >= gate.min_ratio;
      if (gate.min_bound) {
        std::printf("GATE %s %s: value %.3f (need >= %.3f)\n",
                    pass ? "PASS" : "FAIL", gate.path.c_str(), it->second,
                    gate.min_ratio);
        ok = ok && pass;
      } else {
        std::printf("GATE %s %s: value %.3f (want >= %.3f, informational)\n",
                    pass ? "PASS" : "WARN", gate.path.c_str(), it->second,
                    gate.min_ratio);
      }
      continue;
    }
    const auto it = ratios.find(gate.path);
    if (it == ratios.end()) {
      std::printf("GATE %s %s: path missing from one report\n", miss_label,
                  gate.path.c_str());
      ok = ok && gate.warn_only;
      continue;
    }
    const bool pass = it->second >= gate.min_ratio;
    if (gate.warn_only) {
      std::printf("GATE %s %s: ratio %.3f (want >= %.3f, informational)\n",
                  pass ? "PASS" : "WARN", gate.path.c_str(), it->second,
                  gate.min_ratio);
    } else {
      std::printf("GATE %s %s: ratio %.3f (need >= %.3f)\n",
                  pass ? "PASS" : "FAIL", gate.path.c_str(), it->second,
                  gate.min_ratio);
      ok = ok && pass;
    }
  }
  return ok ? 0 : 1;
}
