// Diagnostic codes enforced by detlint.
//
// DET* codes guard the repo's core scientific invariant: every experiment
// (the §3 transport comparison, the §4 overhead accounting, the chaos
// matrix) is a pure function of its seed, byte-identical across runs.
// HYG* codes are hygiene rules that keep the codebase uniform enough for
// the DET* rules to stay checkable.
// CONC* codes guard the parallel posture: shard functors handed to
// bench::run_sharded (and everything they reach) must share no mutable
// state, so `--jobs N` can only ever change wall-clock, never results.
#pragma once

#include <array>
#include <string>
#include <string_view>

namespace detlint {

enum class Code {
  DET001,   // wall-clock / real time source
  DET002,   // unseeded or global randomness
  DET003,   // unordered associative container
  DET004,   // real concurrency / blocking primitive
  DET005,   // pointer identity flowing into hashes, logs, or stats
  HYG001,   // header missing #pragma once
  HYG002,   // raw owning new / delete
  HYG003,   // float arithmetic in byte/packet accounting
  CONC001,  // mutable static state reached from parallel code
  CONC002,  // shard lambda writes through an escaping capture
  CONC003,  // per-shard result slot without alignas(64) (false sharing)
  CONC004,  // shared RNG/Registry/Tracer/slice object used across shards
  CONC005,  // synchronization primitive inside parallel-reachable sim code
  CONC006,  // global-heap allocation inside a `// detlint: hot-loop` body
};

inline constexpr std::array<Code, 14> kAllCodes = {
    Code::DET001,  Code::DET002,  Code::DET003,  Code::DET004,
    Code::DET005,  Code::HYG001,  Code::HYG002,  Code::HYG003,
    Code::CONC001, Code::CONC002, Code::CONC003, Code::CONC004,
    Code::CONC005, Code::CONC006,
};

std::string_view code_name(Code code);
std::string_view code_summary(Code code);

/// Parses "DET001" etc.  Returns false if the name is unknown.
bool parse_code(std::string_view name, Code& out);

struct Diagnostic {
  std::string file;  // path as scanned (relative to the scan root)
  int line;
  Code code;
  std::string message;
  bool suppressed = false;        // by a justified allow-pragma
  bool baselined = false;         // by a --baseline entry
  std::string suppress_reason{};  // pragma justification, if any
};

/// "file:line: CODE message" — the grep/compiler-friendly format.
std::string format_diagnostic(const Diagnostic& d);

}  // namespace detlint
