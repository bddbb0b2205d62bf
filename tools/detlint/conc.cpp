#include "conc.hpp"

#include <algorithm>
#include <deque>

#include "checks.hpp"

namespace detlint {
namespace {

// Keywords that look like `name (` but never are a function definition or a
// call worth an edge.
const std::set<std::string_view> kNotACall = {
    "if",       "for",      "while",     "switch",     "catch",
    "return",   "sizeof",   "alignof",   "alignas",    "decltype",
    "noexcept", "throw",    "co_await",  "co_return",  "co_yield",
    "and",      "or",       "not",       "defined",    "static_assert",
    "assert",   "typeid",   "requires",  "new",        "delete",
};

// Type qualifiers that make a `static` declaration immutable, i.e. safe to
// reach from parallel code unless its type is reference-counted.
const std::set<std::string_view> kImmutableQualifiers = {
    "const", "constexpr", "constinit",
};

// Reference-counted types: copying even a `const` instance writes the
// shared count, so a `static` of one is shared mutable state (CONC001).
const std::set<std::string_view> kRefcountedTypes = {
    "BufferSlice", "shared_ptr", "weak_ptr",
};

// Synchronization / shared-memory primitives that have no business inside a
// shard: each shard runs single-threaded over virtual time, so their
// presence signals state shared across shards (CONC005).  DET004 already
// bans std::thread/std::mutex repo-wide; this list focuses on the atomics
// and lock helpers a pragma'd DET004 spot could still smuggle in.
const std::set<std::string_view> kSyncIdents = {
    "atomic",          "atomic_flag",      "atomic_ref",
    "atomic_bool",     "atomic_int",       "atomic_uint",
    "atomic_size_t",   "atomic_uint64_t",  "atomic_thread_fence",
    "mutex",           "recursive_mutex",  "timed_mutex",
    "shared_mutex",    "lock_guard",       "unique_lock",
    "scoped_lock",     "shared_lock",      "condition_variable",
    "memory_order",    "memory_order_relaxed", "memory_order_consume",
    "memory_order_acquire", "memory_order_release",
    "memory_order_acq_rel", "memory_order_seq_cst",
    "fetch_add",       "fetch_sub",        "fetch_and",
    "fetch_or",        "fetch_xor",        "compare_exchange_weak",
    "compare_exchange_strong",
};

// Types whose instances must be per-shard (CONC004): sharing one across
// shard functors either races (RNG state, registry counters, span storage,
// a BufferSlice's plain non-atomic count) or makes results depend on shard
// completion order.
const std::set<std::string_view> kPerShardTypes = {
    "SplitMix64", "Registry", "Tracer", "Cdf", "BufferSlice",
};

// Allocation-by-name calls for CONC006: constructions that always hit
// operator new (or malloc, for to_string's result string when it exceeds
// SSO) regardless of receiver state.
const std::set<std::string_view> kAllocCalls = {
    "make_unique", "make_shared", "to_string",
};

// Member calls that may grow their receiver's heap storage (CONC006).
// Growth from a base that also has a `reserve()` call in the same body is
// amortised into warm-up and not reported.
const std::set<std::string_view> kGrowthMembers = {
    "push_back", "emplace_back", "emplace", "append", "insert", "resize",
};

// Member calls that mutate their receiver — used by the CONC002 write
// detector so `captured.push_back(...)` counts as a write.
const std::set<std::string_view> kMutatingMembers = {
    "push_back", "pop_back", "emplace_back", "emplace", "insert", "erase",
    "clear",     "resize",   "assign",       "append",  "add",    "add_all",
    "observe",   "set_gauge", "merge_from",  "bind",
};

bool is_ident(const std::vector<Token>& t, std::size_t i,
              std::string_view text) {
  return i < t.size() && t[i].kind == TokenKind::Identifier &&
         t[i].text == text;
}

bool is_punct(const std::vector<Token>& t, std::size_t i, char c) {
  return i < t.size() && t[i].kind == TokenKind::Punct && t[i].text[0] == c;
}

bool any_ident(const std::vector<Token>& t, std::size_t i) {
  return i < t.size() && t[i].kind == TokenKind::Identifier;
}

/// Index just past the matching close for the open punct at `i` ('(' or
/// '{'), or t.size() when unbalanced.
std::size_t skip_balanced(const std::vector<Token>& t, std::size_t i,
                          char open, char close) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (is_punct(t, j, open)) ++depth;
    else if (is_punct(t, j, close) && --depth == 0) return j + 1;
  }
  return t.size();
}

/// For an identifier at `i` possibly followed by template args, the index
/// of a call's '(' — i+1 for `name(...)`, past the balanced `<...>` for
/// `name<T>(...)`.  Returns 0 when tokens[i] does not start a call.
std::size_t call_open_paren(const std::vector<Token>& t, std::size_t i) {
  if (is_punct(t, i + 1, '(')) return i + 1;
  if (!is_punct(t, i + 1, '<')) return 0;
  // Bounded template-argument scan; a stray `a < b` comparison will fail to
  // close before hitting a statement boundary and is rejected.
  int depth = 0;
  for (std::size_t j = i + 1; j < t.size() && j < i + 41; ++j) {
    if (is_punct(t, j, '<')) ++depth;
    else if (is_punct(t, j, '>')) {
      if (--depth == 0) return is_punct(t, j + 1, '(') ? j + 1 : 0;
    } else if (is_punct(t, j, ';') || is_punct(t, j, '{')) {
      return 0;
    }
  }
  return 0;
}

/// Walk back over a `base.member1.member2` chain from the identifier at
/// `i` to the chain's base identifier index.
std::size_t member_chain_base(const std::vector<Token>& t, std::size_t i) {
  while (i >= 2) {
    if (is_punct(t, i - 1, '.') && any_ident(t, i - 2)) {
      i -= 2;
    } else if (i >= 3 && is_punct(t, i - 1, '>') && is_punct(t, i - 2, '-') &&
               any_ident(t, i - 3)) {
      i -= 3;
    } else {
      break;
    }
  }
  return i;
}

}  // namespace

void ConcAnalyzer::add_file(const std::string& path, const LexedFile& lexed) {
  FileModel model;
  model.path = path;
  model.comments = lexed.comments;
  const std::vector<Token>& t = lexed.tokens;

  // --- struct/class definitions (for CONC003) ---------------------------
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!(is_ident(t, i, "struct") || is_ident(t, i, "class"))) continue;
    StructDef def;
    def.line = t[i].line;
    std::size_t j = i + 1;
    if (is_ident(t, j, "alignas") && is_punct(t, j + 1, '(')) {
      def.has_alignas = true;
      j = skip_balanced(t, j + 1, '(', ')');
    }
    if (!any_ident(t, j)) continue;  // anonymous or `struct {`
    def.name = t[j].text;
    // Definition (not a forward declaration / elaborated type): the name
    // must be followed by `{`, `final`, or a base-clause `:`.
    std::size_t k = j + 1;
    if (is_ident(t, k, "final")) ++k;
    if (!(is_punct(t, k, '{') || is_punct(t, k, ':'))) continue;
    for (const Comment& c : lexed.comments) {
      if (c.text.find("detlint: hot-slot") == std::string::npos) continue;
      if (def.line == c.first_line || def.line == c.last_line ||
          def.line == c.last_line + 1) {
        def.hot_slot = true;
      }
    }
    model.structs.push_back(std::move(def));
  }

  // --- shared-type declarations (for CONC004) ---------------------------
  // `stats::SplitMix64 rng(seed);`, `obs::Tracer tracer;`, ... anywhere in
  // the file; uses inside a shard lambda are checked against this map
  // unless the lambda declares its own instance.
  // A function returning one of these types (`BufferSlice tag() {`,
  // `BufferSlice take(std::size_t n) const;`) declares no instance.
  const auto declares_function = [&](std::size_t open) {
    const std::size_t after = skip_balanced(t, open, '(', ')');
    if (is_punct(t, after, '{') || is_ident(t, after, "const") ||
        is_ident(t, after, "noexcept") || is_ident(t, after, "override")) {
      return true;
    }
    return after == open + 2 && is_punct(t, after, ';');  // `T f();`
  };
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::Identifier) continue;
    if (!kPerShardTypes.count(t[i - 1].text)) continue;
    if (t[i - 1].kind != TokenKind::Identifier) continue;
    if (is_punct(t, i + 1, '(') && declares_function(i + 1)) continue;
    if (is_punct(t, i + 1, ';') || is_punct(t, i + 1, '=') ||
        is_punct(t, i + 1, '{') || is_punct(t, i + 1, '(')) {
      model.shared_decls.emplace(
          t[i].text, SharedDecl{t[i - 1].text, t[i].line});
    }
  }

  // --- function definitions + their bodies ------------------------------
  std::vector<std::pair<std::size_t, std::size_t>> body_ranges;

  // Classifies the `static` at token index s (inside or outside a body).
  // Returns true and fills (line, name) when it declares a mutable
  // variable; static functions, thread_local data and const/constexpr data
  // of a type without a reference count are not hazards.
  const auto classify_static = [&](std::size_t s,
                                   std::pair<int, std::string>& out) {
    std::string last_ident;
    bool immutable = false;
    bool refcounted = false;
    for (std::size_t j = s + 1; j < t.size() && j < s + 40; ++j) {
      if (t[j].kind == TokenKind::Identifier) {
        if (t[j].text == "thread_local") return false;
        if (kImmutableQualifiers.count(t[j].text)) {
          immutable = true;
          continue;
        }
        // The type names come before the variable's own (last) name.
        if (kRefcountedTypes.count(last_ident)) refcounted = true;
        last_ident = t[j].text;
        continue;
      }
      if (is_punct(t, j, '<')) {  // template args in the type
        j = skip_balanced(t, j, '<', '>') - 1;
        continue;
      }
      if (is_punct(t, j, '(')) return false;  // static function
      if (is_punct(t, j, '=') || is_punct(t, j, ';') ||
          is_punct(t, j, '{')) {
        if (last_ident.empty() || (immutable && !refcounted)) return false;
        out = {t[s].line, last_ident};
        return true;
      }
      if (is_punct(t, j, ':') || is_punct(t, j, '*') ||
          is_punct(t, j, '&') || is_punct(t, j, ',')) {
        continue;
      }
      return false;  // anything else: not a variable declaration
    }
    return false;
  };

  // Collects call/ref/static/sync facts from a token range into a Region,
  // and records shard sites (whose lambda bodies re-enter the same
  // analysis) — a struct so it can recurse. A shard site is a call to
  // run_sharded, or to bench::Matrix::run_grid, which runs its cell functor
  // as one run_sharded shard per cell from inside the harness header.
  struct BodyAnalyzer {
    const std::vector<Token>& t;
    FileModel& model;
    const decltype(classify_static)& classify;

    void run(std::size_t from, std::size_t to, Region& region,
             bool collect_sites) {
      for (std::size_t i = from; i < to; ++i) {
        if (t[i].kind != TokenKind::Identifier) continue;
        const std::string& text = t[i].text;
        if (text == "static") {
          std::pair<int, std::string> found;
          if (classify(i, found)) region.mutable_statics.push_back(found);
          continue;
        }
        if (kSyncIdents.count(text)) {
          region.sync_tokens.push_back({t[i].line, text});
        }
        // CONC006 fact collection (reported only for hot-loop regions).
        if (text == "new") {
          if (!(i > 0 && is_ident(t, i - 1, "operator"))) {
            region.allocs.push_back({t[i].line, "new", ""});
          }
        } else if (kAllocCalls.count(text) && call_open_paren(t, i) != 0) {
          region.allocs.push_back({t[i].line, text, ""});
        } else if (i >= 2 && is_punct(t, i + 1, '(') &&
                   (is_punct(t, i - 1, '.') ||
                    (is_punct(t, i - 1, '>') && is_punct(t, i - 2, '-')))) {
          if (text == "reserve") {
            const std::size_t base = member_chain_base(t, i);
            if (base != i && any_ident(t, base)) {
              region.reserved.insert(t[base].text);
            }
          } else if (kGrowthMembers.count(text)) {
            const std::size_t base = member_chain_base(t, i);
            if (base != i && any_ident(t, base)) {
              region.allocs.push_back({t[i].line, text, t[base].text});
            }
          }
        }
        if (!region.refs.count(text) && !is_punct(t, i - 1, '.') &&
            !(i >= 2 && is_punct(t, i - 1, '>') && is_punct(t, i - 2, '-'))) {
          region.refs.emplace(text, t[i].line);
        }
        if (kNotACall.count(text)) continue;
        const std::size_t open = call_open_paren(t, i);
        if (open == 0) continue;
        region.calls.insert(text);
        if (collect_sites &&
            (text == "run_sharded" || text == "run_grid")) {
          collect_shard_site(i, open, region);
        }
      }
    }

    void collect_shard_site(std::size_t name_idx, std::size_t open,
                            Region& enclosing) {
      ShardSite site;
      site.line = t[name_idx].line;
      // Explicit template argument: last identifier inside `<...>`.
      if (is_punct(t, name_idx + 1, '<')) {
        for (std::size_t j = name_idx + 2; j < open; ++j) {
          if (any_ident(t, j)) site.result_type = t[j].text;
        }
      }
      const std::size_t close = skip_balanced(t, open, '(', ')');
      for (std::size_t j = open + 1; j + 1 < close; ++j) {
        if (!is_punct(t, j, '[')) continue;
        // Candidate lambda introducer: `[caps] (params) ... {`.
        const std::size_t cap_end = skip_balanced(t, j, '[', ']');
        if (cap_end >= close) break;
        ShardLambda lambda;
        for (std::size_t c = j + 1; c + 1 < cap_end; ++c) {
          if (is_punct(t, c, '&')) {
            if (any_ident(t, c + 1)) {
              lambda.ref_captures.insert(t[c + 1].text);
              ++c;
            } else {
              lambda.capture_default_ref = true;
            }
          } else if (is_ident(t, c, "this")) {
            lambda.capture_default_ref = true;  // members are shared state
          } else if (any_ident(t, c)) {
            lambda.value_captures.insert(t[c].text);
          }
        }
        std::size_t k = cap_end;
        if (is_punct(t, k, '(')) {  // parameter list: names are locals
          const std::size_t params_end = skip_balanced(t, k, '(', ')');
          for (std::size_t p = k + 1; p + 1 < params_end; ++p) {
            if (any_ident(t, p) && (is_punct(t, p + 1, ',') ||
                                    is_punct(t, p + 1, ')'))) {
              lambda.locals.insert(t[p].text);
            }
          }
          k = params_end;
        }
        while (k < close && (is_ident(t, k, "mutable") ||
                             is_ident(t, k, "noexcept") ||
                             is_punct(t, k, '-') || is_punct(t, k, '>') ||
                             any_ident(t, k) || is_punct(t, k, ':')))
          ++k;
        if (!is_punct(t, k, '{')) {  // not a lambda after all (e.g. index)
          j = cap_end - 1;
          continue;
        }
        const std::size_t body_end = skip_balanced(t, k, '{', '}');
        lambda.region.line = t[k].line;
        run(k + 1, body_end - 1, lambda.region, /*collect_sites=*/false);
        analyze_lambda_locals_and_writes(k + 1, body_end - 1, lambda);
        site.lambdas.push_back(std::move(lambda));
        j = body_end - 1;
      }
      (void)enclosing;
      model.shard_sites.push_back(std::move(site));
    }

    void analyze_lambda_locals_and_writes(std::size_t from, std::size_t to,
                                          ShardLambda& lambda) {
      // Pass 1 — declarations: `Type name ...`, `auto& name = ...`.
      for (std::size_t i = from; i < to; ++i) {
        if (!any_ident(t, i) || i == 0) continue;
        const Token& prev = t[i - 1];
        bool type_before = prev.kind == TokenKind::Identifier &&
                           !kNotACall.count(prev.text);
        if (!type_before && prev.kind == TokenKind::Punct &&
            (prev.text[0] == '&' || prev.text[0] == '*' ||
             prev.text[0] == '>')) {
          // `Type& name` / `Type* name` / `vector<T> name` — but only when
          // a type actually precedes the sigil (`? &tracer :` does not).
          type_before = i >= 2 && (any_ident(t, i - 2) ||
                                   is_punct(t, i - 2, '>'));
        }
        if (!type_before) continue;
        if (is_punct(t, i + 1, '=') || is_punct(t, i + 1, ';') ||
            is_punct(t, i + 1, '{') || is_punct(t, i + 1, '(') ||
            is_punct(t, i + 1, ':') || is_punct(t, i + 1, ')') ||
            is_punct(t, i + 1, ',')) {
          lambda.locals.insert(t[i].text);
        }
      }
      // Pass 2 — writes: assignment, compound assignment, ++/--, mutating
      // member calls.  The written name is the base of the member chain.
      for (std::size_t i = from; i < to; ++i) {
        if (!any_ident(t, i)) continue;
        bool write = false;
        if (is_punct(t, i + 1, '=') && !is_punct(t, i + 2, '=') &&
            !(i > from && (is_punct(t, i - 1, '=') || is_punct(t, i - 1, '!') ||
                           is_punct(t, i - 1, '<') || is_punct(t, i - 1, '>'))))
          write = true;
        if (!write && i + 2 < to && is_punct(t, i + 2, '=') &&
            t[i + 1].kind == TokenKind::Punct) {
          const char op = t[i + 1].text[0];
          if (op == '+' || op == '-' || op == '*' || op == '/' ||
              op == '%' || op == '|' || op == '&' || op == '^')
            write = true;
        }
        if (!write &&
            ((is_punct(t, i + 1, '+') && is_punct(t, i + 2, '+')) ||
             (is_punct(t, i + 1, '-') && is_punct(t, i + 2, '-')) ||
             (i >= from + 2 && is_punct(t, i - 1, '+') &&
              is_punct(t, i - 2, '+')) ||
             (i >= from + 2 && is_punct(t, i - 1, '-') &&
              is_punct(t, i - 2, '-'))))
          write = true;
        if (!write && is_punct(t, i + 1, '(') &&
            kMutatingMembers.count(t[i].text) && i >= 2 &&
            (is_punct(t, i - 1, '.') ||
             (is_punct(t, i - 1, '>') && is_punct(t, i - 2, '-')))) {
          const std::size_t base = member_chain_base(t, i);
          if (base != i && any_ident(t, base)) {
            lambda.writes.push_back({t[base].line, t[base].text});
          }
          continue;
        }
        if (!write) continue;
        const std::size_t base = member_chain_base(t, i);
        if (!any_ident(t, base)) continue;
        lambda.writes.push_back({t[base].line, t[base].text});
      }
    }
  } analyzer{t, model, classify_static};

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::Identifier) continue;
    if (kNotACall.count(t[i].text)) continue;
    if (!is_punct(t, i + 1, '(')) continue;
    if (i > 0 && is_ident(t, i - 1, "operator")) continue;
    // Skip if inside an already-recorded body (linear scan keeps ranges
    // ordered, so only the last range can contain i).
    if (!body_ranges.empty() && i < body_ranges.back().second) continue;
    const std::size_t params_end = skip_balanced(t, i + 1, '(', ')');
    if (params_end >= t.size()) continue;
    // Find the body '{', skipping cv/ref/noexcept, trailing return types
    // and constructor member-initializer lists.
    std::size_t k = params_end;
    bool in_init_list = false;
    bool is_definition = false;
    while (k < t.size()) {
      if (is_punct(t, k, '{')) {
        if (in_init_list && k > 0 && any_ident(t, k - 1)) {
          k = skip_balanced(t, k, '{', '}');  // member brace-init
          continue;
        }
        is_definition = true;
        break;
      }
      if (is_punct(t, k, ';') || is_punct(t, k, '=')) break;
      if (is_punct(t, k, ':')) {
        in_init_list = true;
        ++k;
        continue;
      }
      if (is_punct(t, k, '(')) {
        k = skip_balanced(t, k, '(', ')');
        continue;
      }
      if (is_punct(t, k, '<')) {
        k = skip_balanced(t, k, '<', '>');
        continue;
      }
      if (any_ident(t, k) || is_punct(t, k, ',') || is_punct(t, k, '&') ||
          is_punct(t, k, '*') || is_punct(t, k, '-') ||
          is_punct(t, k, '>') || is_punct(t, k, '[') ||
          is_punct(t, k, ']')) {
        ++k;
        continue;
      }
      break;
    }
    if (!is_definition) continue;
    const std::size_t body_end = skip_balanced(t, k, '{', '}');
    Region region;
    region.name = t[i].text;
    region.line = t[i].line;
    analyzer.run(k + 1, body_end - 1, region, /*collect_sites=*/true);
    model.functions.push_back(std::move(region));
    body_ranges.push_back({k, body_end});
  }

  // --- hot-loop annotations (for CONC006) -------------------------------
  // `// detlint: hot-loop` on the definition line or the line(s) above
  // marks a function whose body must stay free of global-heap allocation.
  for (const Comment& c : lexed.comments) {
    if (c.text.find("detlint: hot-loop") == std::string::npos) continue;
    for (Region& fn : model.functions) {
      if (fn.line == c.first_line || fn.line == c.last_line ||
          fn.line == c.last_line + 1) {
        fn.hot_loop = true;
      }
    }
  }

  // --- namespace-scope mutable statics (outside every body) -------------
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "static")) continue;
    bool inside = false;
    for (const auto& [b, e] : body_ranges) {
      if (i > b && i < e) {
        inside = true;
        break;
      }
    }
    if (inside) continue;  // function-local statics handled per region
    std::pair<int, std::string> found;
    if (classify_static(i, found)) model.global_statics.push_back(found);
  }

  files_.push_back(std::move(model));
}

std::vector<Diagnostic> ConcAnalyzer::finish() {
  // --- name-based reachability from shard functors ----------------------
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      by_name;  // function name -> (file idx, fn idx)
  for (std::size_t f = 0; f < files_.size(); ++f) {
    for (std::size_t g = 0; g < files_[f].functions.size(); ++g) {
      by_name[files_[f].functions[g].name].push_back({f, g});
    }
  }

  std::map<std::pair<std::size_t, std::size_t>, std::string> reached;
  std::deque<std::pair<std::pair<std::size_t, std::size_t>, std::string>>
      worklist;
  const auto enqueue = [&](const std::string& callee,
                           const std::string& root) {
    const auto it = by_name.find(callee);
    if (it == by_name.end()) return;
    for (const auto& key : it->second) {
      if (reached.emplace(key, root).second) worklist.push_back({key, root});
    }
  };

  for (const FileModel& file : files_) {
    for (const ShardSite& site : file.shard_sites) {
      const std::string root =
          file.path + ":" + std::to_string(site.line);
      for (const ShardLambda& lambda : site.lambdas) {
        for (const std::string& callee : lambda.region.calls) {
          enqueue(callee, root);
        }
      }
    }
  }
  while (!worklist.empty()) {
    auto [key, root] = worklist.front();
    worklist.pop_front();
    for (const std::string& callee :
         files_[key.first].functions[key.second].calls) {
      enqueue(callee, root);
    }
  }

  // --- emit diagnostics per file ----------------------------------------
  std::vector<Diagnostic> all;
  for (std::size_t f = 0; f < files_.size(); ++f) {
    const FileModel& file = files_[f];
    std::vector<Diagnostic> diags;
    const auto report = [&](int line, Code code, std::string message) {
      diags.push_back({file.path, line, code, std::move(message)});
    };

    // Checks shared by reachable functions and shard lambda bodies.
    const auto check_region = [&](const Region& region,
                                  const std::string& who,
                                  const std::string& root) {
      for (const auto& [line, name] : region.mutable_statics) {
        report(line, Code::CONC001,
               "mutable static '" + name + "' in " + who +
                   " is reachable from parallel shard code (via " + root +
                   "); shards must not share mutable state");
      }
      for (const auto& [line, name] : region.sync_tokens) {
        report(line, Code::CONC005,
               "'" + name + "' in parallel-reachable " + who +
                   " (via " + root +
                   "); each shard is single-threaded by design — "
                   "synchronization signals accidental cross-shard sharing");
      }
      for (const auto& [gline, gname] : file.global_statics) {
        const auto ref = region.refs.find(gname);
        if (ref == region.refs.end()) continue;
        report(ref->second, Code::CONC001,
               "namespace-scope mutable static '" + gname + "' (declared line " +
                   std::to_string(gline) + ") referenced from " + who +
                   ", which is reachable from parallel shard code (via " +
                   root + ")");
      }
    };

    for (std::size_t g = 0; g < file.functions.size(); ++g) {
      const auto it = reached.find({f, g});
      if (it == reached.end()) continue;
      const Region& fn = file.functions[g];
      check_region(fn, "'" + fn.name + "()'", it->second);
    }

    std::set<std::string> conc003_reported;
    for (const ShardSite& site : file.shard_sites) {
      const std::string root =
          file.path + ":" + std::to_string(site.line);
      // CONC003 — result slots live adjacent in run_sharded's result
      // vector; the type needs alignas(64) so worker threads writing
      // neighbouring slots do not share a cache line.
      if (!site.result_type.empty() &&
          !conc003_reported.count(site.result_type)) {
        for (const StructDef& def : file.structs) {
          if (def.name != site.result_type || def.has_alignas) continue;
          conc003_reported.insert(site.result_type);
          report(def.line, Code::CONC003,
                 "per-shard result type '" + def.name +
                     "' is written into adjacent array slots by run_sharded "
                     "(line " + std::to_string(site.line) +
                     ") but lacks alignas(64); neighbouring shards will "
                     "false-share its cache line");
          break;
        }
      }
      for (const ShardLambda& lambda : site.lambdas) {
        check_region(lambda.region, "a shard lambda", root);
        // CONC002 — writes through captured references escape the shard.
        for (const auto& [line, name] : lambda.writes) {
          if (lambda.locals.count(name)) continue;
          if (lambda.value_captures.count(name)) continue;
          const bool captured_by_ref = lambda.ref_captures.count(name) > 0 ||
                                       lambda.capture_default_ref;
          if (!captured_by_ref) continue;
          report(line, Code::CONC002,
                 "shard lambda writes '" + name +
                     "' captured by reference; per-shard output must be "
                     "returned through the shard's own result slot");
        }
        // CONC004 — shared RNG/Registry/Tracer/Cdf/BufferSlice instances.
        for (const auto& [name, decl] : file.shared_decls) {
          if (lambda.locals.count(name)) continue;  // shard-local instance
          const auto ref = lambda.region.refs.find(name);
          if (ref == lambda.region.refs.end()) continue;
          report(ref->second, Code::CONC004,
                 "'" + name + "' (" + decl.type + ", declared line " +
                     std::to_string(decl.line) +
                     ") is shared across shard functors; give each shard "
                     "its own instance and merge by shard index");
        }
      }
    }

    // CONC006 — hot-loop annotated functions must not allocate from the
    // global heap. Opt-in and body-local (textually nested lambdas are
    // attributed to the containing function, like every CONC check);
    // growth calls on a base that is reserve()d in the same body are
    // amortised warm-up and stay silent.
    for (const Region& fn : file.functions) {
      if (!fn.hot_loop) continue;
      for (const AllocFact& a : fn.allocs) {
        if (!a.base.empty() && fn.reserved.count(a.base)) continue;
        if (a.base.empty()) {
          report(a.line, Code::CONC006,
                 "'" + a.what + "' allocates from the global heap inside "
                     "hot-loop function '" + fn.name +
                     "()'; the shard steady-state path must be "
                     "allocation-free (reserve, pool, or arena)");
        } else {
          report(a.line, Code::CONC006,
                 "'" + a.base + "." + a.what + "(...)' may grow heap "
                     "storage inside hot-loop function '" + fn.name +
                     "()' without a matching '" + a.base +
                     ".reserve(...)'; pre-size it or pool the storage");
        }
      }
    }

    // Hot-slot annotated structs must be alignas(64) wherever they live.
    for (const StructDef& def : file.structs) {
      if (!def.hot_slot || def.has_alignas) continue;
      report(def.line, Code::CONC003,
             "struct '" + def.name +
                 "' is annotated '// detlint: hot-slot' but lacks "
                 "alignas(64)");
    }

    apply_allow_pragmas(diags, file.comments);
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                if (a.line != b.line) return a.line < b.line;
                return code_name(a.code) < code_name(b.code);
              });
    for (Diagnostic& d : diags) all.push_back(std::move(d));
  }
  return all;
}

}  // namespace detlint
