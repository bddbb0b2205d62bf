// perfbench: the repository benchmark. Runs one named workload against the
// simulator's public APIs and prints, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload pageload|resolve|corpus --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// twice on smaller inputs (untraced, then traced with the program's
// obs::Tracer, a packet capture and benchmark-side spans) and reports the
// per-layer ledger. See perfbench/README.md for every metric.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

std::int64_t thread_cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[index];
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  bool first = true;
  for (const auto& s : spans_) {
    out << (first ? "\n" : ",\n") << R"({"name":")" << s.name
        << R"(","ph":"X","pid":1,"tid":)" << s.tid << R"(,"ts":)"
        << static_cast<double>(s.start_ns) / 1e3 << R"(,"dur":)"
        << static_cast<double>(s.dur_ns) / 1e3 << "}";
    first = false;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, in output order (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"op_us_p50", "us"},   {"op_us_p99", "us"},
    {"cpu_us_per_op", "us"},    {"peak_rss_mib", "MiB"},
    {"allocs_per_op", "count"}, {"completed_op_share", "share"},
};

/// Per-layer metrics (BENCHMARK.json "per_layer"), reported by the traced
/// run. A layer that does no work on a workload reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"simnet.events_per_op", "count"},
    {"simnet.event_ns", "ns"},
    {"simnet.packets_per_op", "count"},
    {"simnet.wire_bytes_per_op", "B"},
    {"simnet.send_ns_per_packet", "ns"},
    {"simnet.tcp_retransmits_per_op", "count"},
    {"simnet.arena_allocs_per_op", "count"},
    {"simnet.freelist_hit_ratio", "ratio"},
    {"simnet.shard_idle_share", "share"},
    {"simnet.send_wall_share", "share"},
    {"simnet.wall_share", "share"},
    {"dns.msgs_per_op", "count"},
    {"dns.decode_ns", "ns"},
    {"dns.encode_ns", "ns"},
    {"dns.allocs_per_decode", "count"},
    {"dns.name_parse_ns", "ns"},
    {"dns.name_less_ns", "ns"},
    {"dns.name_map_insert_ns", "ns"},
    {"dns.wall_share", "share"},
    {"dns.name_wall_share", "share"},
    {"http1.messages_per_op", "count"},
    {"http1.body_bytes_per_op", "B"},
    {"http1.parse_ns_per_kib", "ns/KiB"},
    {"http1.alloc_bytes_per_body_byte", "B/B"},
    {"http1.wall_share", "share"},
    {"http2.frames_per_op", "count"},
    {"http2.frame_decode_ns", "ns"},
    {"http2.hpack_decode_ns", "ns"},
    {"http2.hpack_encode_ns", "ns"},
    {"http2.wall_share", "share"},
    {"tlssim.full_handshakes_per_op", "count"},
    {"tlssim.resumed_share", "share"},
    {"tlssim.handshake_encode_us", "us"},
    {"tlssim.records_per_op", "count"},
    {"tlssim.record_ns_per_kib", "ns/KiB"},
    {"tlssim.handshake_wall_share", "share"},
    {"tlssim.wall_share", "share"},
    {"quicsim.packets_per_op", "count"},
    {"quicsim.packet_decode_ns", "ns"},
    {"quicsim.wall_share", "share"},
    {"resolver.handle_us", "us"},
    {"resolver.hit_ratio", "ratio"},
    {"resolver.insertions_per_kq", "count"},
    {"resolver.evictions_per_kq", "count"},
    {"resolver.shed_share", "share"},
    {"core.resolve_us.udp", "us"},
    {"core.resolve_us.dot", "us"},
    {"core.resolve_us.doh", "us"},
    {"core.resolve_us.doq", "us"},
    {"core.retries_per_kq", "count"},
    {"browser.page_load_us", "us"},
    {"browser.objects_per_page", "count"},
    {"browser.origins_per_page", "count"},
    {"workload.page_gen_us", "us"},
    {"workload.corpus_us_per_page", "us"},
    {"obs.spans_per_op", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return (args.workload == "pageload" || args.workload == "resolve" ||
          args.workload == "corpus") &&
         args.seconds > 0 && (args.trace == 0 || args.trace == 1);
}

WorkloadRun run_named(const std::string& workload, const RunConfig& config) {
  if (workload == "pageload") return run_pageload(config);
  if (workload == "resolve") return run_resolve(config);
  return run_corpus(config);
}

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricSpec, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name,
                finite(metrics[i].second), metrics[i].first.unit);
  }
  std::printf("}}\n");
}

void report_checks(const char* phase, const WorkloadRun& run) {
  std::printf("%s: %llu ops attempted, %llu failed, digest %016llx\n", phase,
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.digest));
  for (const auto& note : run.check_notes) {
    std::printf("%s: check failed: %s\n", phase, note.c_str());
  }
}

/// Percentile `p` of the op time samples: the median of the per-round
/// percentiles when every round has at least 1000 samples (ten beyond p99),
/// else the percentile of all samples.
double op_percentile(const WorkloadRun& run, double p) {
  constexpr std::size_t kMinRoundSamples = 1000;
  bool per_round = !run.rounds.empty();
  for (const auto& round : run.rounds) {
    if (round.samples < kMinRoundSamples) per_round = false;
  }
  if (!per_round) return percentile(run.op_us, p);
  std::vector<double> values;
  auto first = run.op_us.begin();
  for (const auto& round : run.rounds) {
    const auto last = first + static_cast<std::ptrdiff_t>(round.samples);
    values.push_back(percentile(std::vector<double>(first, last), p));
    first = last;
  }
  return median(values);
}

int run_end_to_end(const Args& args, const RunConfig& config) {
  const WorkloadRun run = run_named(args.workload, config);
  report_checks(args.workload.c_str(), run);
  const double ops = static_cast<double>(std::max<std::uint64_t>(run.attempted, 1));
  const double allocs = static_cast<double>(
      run.mem.arena_allocs + run.mem.huge_allocs + run.mem.global_allocs);
  std::vector<double> rates;
  std::vector<double> cpu_per_op;
  for (const auto& round : run.rounds) {
    rates.push_back(round.ops / round.wall_s);
    cpu_per_op.push_back(round.cpu_s * 1e6 / round.ops);
  }
  std::printf("process start to first timed op: %.4f s; setup repetitions: "
              "%zu; rounds: %zu (ops/s min %.1f, max %.1f); op samples: %zu "
              "(%zu beyond p99)\n",
              run.first_op_s, run.setup_s.size(), run.rounds.size(),
              percentile(rates, 0), percentile(rates, 100), run.op_us.size(),
              run.op_us.size() / 100);
  const std::vector<std::pair<MetricSpec, double>> metrics = {
      {kEndToEnd[0], median(run.setup_s)},
      {kEndToEnd[1], median(rates)},
      {kEndToEnd[2], op_percentile(run, 50)},
      {kEndToEnd[3], op_percentile(run, 99)},
      {kEndToEnd[4], median(cpu_per_op)},
      {kEndToEnd[5], peak_rss_mib()},
      {kEndToEnd[6], allocs / ops},
      {kEndToEnd[7], 1.0 - static_cast<double>(run.failed) / ops},
  };
  print_result(run.checks_ok && run.failed == 0, run.attempted, run.failed,
               metrics);
  return 0;
}

int run_traced(const Args& args, RunConfig config) {
  // The ledger runs one second's worth of end-to-end work twice: untraced
  // for the overhead baseline, then with every probe armed. The page-load
  // capture holds every object body, so that workload traces a fifth.
  config.scale = (args.workload == "pageload" ? 0.2 : 1.0) / config.seconds;
  run_named(args.workload, config);  // warm the allocator and caches
  const WorkloadRun untraced = run_named(args.workload, config);
  report_checks("untraced", untraced);
  config.traced = true;
  const WorkloadRun traced = run_named(args.workload, config);
  report_checks("traced", traced);
  const Ledger ledger = build_ledger(args.workload, config, traced, untraced);
  for (const auto& failure : ledger.failures) {
    std::printf("ledger: check failed: %s\n", failure.c_str());
  }

  if (!args.trace_out.empty()) {
    if (traced.spans.write_chrome_trace(args.trace_out)) {
      std::printf("wrote %zu benchmark spans to %s\n",
                  traced.spans.spans().size(), args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }
  std::vector<std::pair<MetricSpec, double>> metrics;
  for (const auto& spec : kPerLayer) {
    const auto it = ledger.values.find(spec.name);
    metrics.emplace_back(spec, it == ledger.values.end() ? 0.0 : it->second);
  }
  const bool correct = untraced.checks_ok && traced.checks_ok &&
                       untraced.failed == 0 && traced.failed == 0 &&
                       ledger.failures.empty();
  print_result(correct, untraced.attempted + traced.attempted,
               untraced.failed + traced.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  now_ns();  // pin the epoch at process start
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload pageload|resolve|corpus "
                 "--seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  const unsigned hw = std::thread::hardware_concurrency();
  config.jobs = std::clamp<std::size_t>(hw, 1, 4);
  try {
    return args.trace == 1 ? run_traced(args, config)
                           : run_end_to_end(args, config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
