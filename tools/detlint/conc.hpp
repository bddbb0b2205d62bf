// The CONC diagnostic family: concurrency-safety analysis for the shard
// fan-out introduced with bench::run_sharded.
//
// Unlike the DET/HYG checks (pure per-file functions), the CONC pass is a
// lightweight *cross-file* analysis built on the same lexer: it extracts a
// per-file model (function definitions, the calls they make, shard sites —
// run_sharded and bench::Matrix::run_grid calls — with their shard
// lambdas, struct definitions, mutable static state, synchronization
// tokens), links the models into a name-based call graph, and marks
// everything reachable from a shard functor as *parallel-reachable*.
// Lambda bodies are attributed to the function that textually contains
// them, so server/tier callbacks registered inside a reachable function are
// covered without tracking std::function values.
//
// Diagnostics (all suppressible with `// detlint: allow(CONC00x) reason`):
//   CONC001  mutable static state (function-local static or namespace-scope
//            static variable) reached from parallel-reachable code; a
//            `const` static of a reference-counted type (BufferSlice,
//            shared_ptr, weak_ptr) counts, since a copy writes its count
//   CONC002  a shard lambda writes through a reference capture — per-shard
//            results must live in the shard's own slot, not escape
//   CONC003  a per-shard result type stored in adjacent array slots by
//            run_sharded (or any struct annotated `// detlint: hot-slot`)
//            lacks alignas(64), a false-sharing candidate
//   CONC004  a shared RNG/Registry/Tracer/Cdf/BufferSlice instance declared
//            outside the shard lambda is used inside it (shards need their
//            own, merged by shard index; a slice's count is not atomic)
//   CONC005  synchronization primitives (atomics, mutexes, memory orders)
//            inside parallel-reachable simulation code — each shard is
//            single-threaded by design, so synchronization there signals
//            accidental cross-shard sharing
//   CONC006  global-heap allocation (`new`, make_unique/make_shared,
//            std::to_string, or container growth from a non-reserved base)
//            inside a function annotated `// detlint: hot-loop` — the
//            per-shard arena keeps the steady-state hot path allocation-
//            free, and this check polices the annotated kernels statically.
//            A `base.reserve(...)` call in the same function body absolves
//            that base's growth calls (amortised into warm-up).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "diagnostics.hpp"
#include "lexer.hpp"

namespace detlint {

class ConcAnalyzer {
 public:
  /// Registers one lexed translation unit.  `path` should be repo-relative
  /// with '/' separators (it becomes Diagnostic::file).
  void add_file(const std::string& path, const LexedFile& lexed);

  /// Runs the reachability pass over every added file and returns all CONC
  /// diagnostics, with allow-pragmas already applied and findings sorted by
  /// (file, line, code).
  std::vector<Diagnostic> finish();

 private:
  struct AllocFact {
    int line = 0;
    std::string what;  // "new", "make_unique", "push_back", ...
    std::string base;  // member-chain base for growth calls, else ""
  };

  struct Region {
    std::string name;  // unqualified function name ("" for a shard lambda)
    int line = 0;
    bool hot_loop = false;  // `// detlint: hot-loop` annotation
    std::set<std::string> calls;          // callee names (incl. members)
    std::map<std::string, int> refs;      // identifier -> first ref line
    std::vector<std::pair<int, std::string>> mutable_statics;  // line,name
    std::vector<std::pair<int, std::string>> sync_tokens;      // line,name
    std::vector<AllocFact> allocs;        // CONC006 candidates
    std::set<std::string> reserved;       // bases with a reserve() call
  };

  struct ShardLambda {
    Region region;                       // body facts, like a function
    bool capture_default_ref = false;
    std::set<std::string> ref_captures;
    std::set<std::string> value_captures;
    std::set<std::string> locals;        // params + body declarations
    std::vector<std::pair<int, std::string>> writes;  // line, chain base
  };

  struct ShardSite {
    int line = 0;
    std::string result_type;  // last identifier of the explicit template arg
    std::vector<ShardLambda> lambdas;
  };

  struct StructDef {
    std::string name;
    int line = 0;
    bool has_alignas = false;
    bool hot_slot = false;  // `// detlint: hot-slot` annotation
  };

  struct SharedDecl {
    std::string type;  // SplitMix64 / Registry / Tracer / Cdf
    int line = 0;
  };

  struct FileModel {
    std::string path;
    std::vector<Comment> comments;  // for pragma application in finish()
    std::vector<Region> functions;
    std::vector<ShardSite> shard_sites;
    std::vector<StructDef> structs;
    std::vector<std::pair<int, std::string>> global_statics;  // line, name
    std::map<std::string, SharedDecl> shared_decls;  // name -> type/line
  };

  std::vector<FileModel> files_;
};

}  // namespace detlint
