// Shared pieces of the repository benchmark: wall/CPU clocks, percentiles,
// the benchmark-side span log, and the per-run records the workloads hand
// to the ledger.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "simnet/arena.hpp"
#include "simnet/trace.hpp"
#include "workload/alexa.hpp"

namespace perfbench {

using namespace dohperf;

// ---------------------------------------------------------------- clocks ---

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();
inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Process user + system CPU seconds (all threads).
double cpu_seconds();
/// CPU nanoseconds the calling thread has run. Unlike wall time, it leaves
/// out time the thread was not running, such as a host taking its vCPU.
std::int64_t thread_cpu_ns();
/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// FNV-1a accumulator for the virtual-clock result digests.
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      value ^= (x >> (8 * i)) & 0xff;
      value *= 0x100000001b3ULL;
    }
  }
};

// ----------------------------------------------------------- span log ---

/// One wall-clock span the benchmark recorded around a public call.
struct BenchSpan {
  const char* name;  ///< string literal
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint32_t tid;  ///< shard index (Chrome trace thread lane)
};

class SpanLog {
 public:
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint32_t tid) {
    spans_.push_back(BenchSpan{name, start_ns, end_ns - start_ns, tid});
  }
  const std::vector<BenchSpan>& spans() const noexcept { return spans_; }
  void append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// Write the spans as a Chrome trace_event JSON array.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<BenchSpan> spans_;
};

/// What a traced simulation (one shard) hands to the ledger.
struct ShardTrace {
  std::vector<simnet::TraceEntry> packets;  ///< a RecordingTap's capture
  std::size_t nodes = 0;  ///< node count of the shard's network
  /// Virtual time at which the shard's warm-up ended (resolve only).
  std::optional<simnet::TimeUs> warmup_end;
  /// DNS messages crossing the resolver's QueryHandler seam, in order.
  std::vector<dns::Message> seam_messages;
  std::vector<double> handle_us;  ///< wall through the seam, per query
  std::uint64_t obs_spans = 0;    ///< spans the program's tracer recorded
};

// ------------------------------------------------------------- results ---

/// One workload run: the end-to-end record plus, when traced, the raw
/// material for the per-layer ledger.
struct WorkloadRun {
  /// One round of the timed phase. ops_per_s and cpu_us_per_op are medians
  /// over rounds, and so are the op wall percentiles when every round holds
  /// enough samples, so a transient stall on the host moves one round
  /// rather than the whole run's figure.
  struct Round {
    double wall_s = 0;
    double cpu_s = 0;
    double ops = 0;
    std::size_t samples = 0;  ///< op_us entries appended by the round
  };

  /// Close a round; call after appending the round's op_us samples.
  void add_round(double wall, double cpu, double ops) {
    std::size_t earlier = 0;
    for (const auto& r : rounds) earlier += r.samples;
    rounds.push_back(Round{wall, cpu, ops, op_us.size() - earlier});
    timed_wall_s += wall;
    cpu_s += cpu;
  }

  std::vector<double> setup_s;  ///< one entry per set-up repetition
  /// Seconds from process start to the first timed op (first set-up cold).
  double first_op_s = 0;
  std::vector<Round> rounds;
  double timed_wall_s = 0;      ///< summed over rounds
  double cpu_s = 0;             ///< summed over rounds
  /// Per-op time samples: wall on resolve, worker-thread CPU elsewhere.
  std::vector<double> op_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  simnet::ShardMemoryStats mem;  ///< summed over run_sharded's workers
  double busy_s = 0;             ///< summed shard wall inside workers
  double shard_wall_s = 0;       ///< wall of the run_sharded calls
  std::size_t jobs = 1;
  std::uint64_t events = 0;      ///< event-loop executions (timed phase)
  std::uint64_t digest = 0;
  bool checks_ok = true;
  std::vector<std::string> check_notes;

  // Traced runs only.
  std::vector<ShardTrace> traces;
  SpanLog spans;
  /// Workload-specific per-layer values measured during the run.
  std::map<std::string, double> layer;
  /// Corpus: the first scanned pages, and how many pages share one
  /// query_counts map (one shard).
  std::vector<workload::Page> sampled_pages;
  std::size_t pages_per_map = 0;
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  std::size_t jobs = 4;
  bool traced = false;
  double scale = 1.0;  ///< multiplies the run's op count
};

WorkloadRun run_pageload(const RunConfig& config);
WorkloadRun run_resolve(const RunConfig& config);
WorkloadRun run_corpus(const RunConfig& config);

struct Ledger {
  std::map<std::string, double> values;
  /// Replays whose codec threw or whose output failed its check, and
  /// expected traffic contrasts that did not hold.
  std::vector<std::string> failures;
};

/// Build the per-layer ledger of a traced run. `untraced` ran the same
/// inputs without tracing (for op_us_p50 and the overhead ratio).
Ledger build_ledger(const std::string& workload, const RunConfig& config,
                    const WorkloadRun& traced, const WorkloadRun& untraced);

}  // namespace perfbench
