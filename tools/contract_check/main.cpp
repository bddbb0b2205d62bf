// contract_check — statically verifies that the observability contract in
// EXPERIMENTS.md matches what the code actually emits.
//
// Two inventories are extracted with detlint's lexer (no execution, no
// libclang):
//
//   * metric names: every string literal in src/ matching a documented
//     metric family (kFamilies: client.* / cache.* / tier.* / net.* ...).
//     A literal ending in '.' that is concatenated with `+` (e.g.
//     "breaker.state." + index) becomes the prefix pattern
//     "breaker.state.*". A documented name with a leaf after the dynamic
//     part ("client.<t>.queries") must find that leaf as a string literal
//     in a file that composes the prefix (ClientMetrics's name("queries")).
//   * span names: the last string-literal argument of every `begin(...)`
//     call (covers `obs.begin("shed")` and `tracer->begin(parent, "retry")`).
//
// The doc side parses EXPERIMENTS.md: backtick chunks under
// "### Metric-name contract" (brace sets expanded, `<t>`/`<i>` placeholders
// become wildcards) and the fenced tree under "### Span taxonomy".
//
// Drift in either direction — emitted but undocumented, or documented but
// never emitted — is printed one line per name and fails the run (exit 1).
// Exit 2 on I/O or parse trouble.  CI runs this under the lint label, so a
// rename that forgets to update EXPERIMENTS.md breaks the build.
//
// Usage: contract_check [--root DIR]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine.hpp"  // detlint::scannable_file
#include "lexer.hpp"

namespace fs = std::filesystem;

namespace {

using detlint::Token;
using detlint::TokenKind;

// Every metric family the contract in EXPERIMENTS.md documents: the
// client, decorator, resolver, browser, wire and self-observability
// families this tool enforces.
const char* kFamilies[] = {"client.",   "cache.",   "fallback.", "hedge.",
                           "breaker.",  "health.",  "tier.",     "fairness.",
                           "engine.",   "browser.", "obs.",      "net.",
                           "bytes.",    "mem."};

bool in_family(const std::string& name) {
  for (const char* f : kFamilies)
    if (name.rfind(f, 0) == 0) return true;
  return false;
}

bool metric_chars_only(const std::string& s, bool allow_star) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.' || (allow_star && c == '*');
    if (!ok) return false;
  }
  return true;
}

/// Glob match where '*' matches any (possibly empty) run of characters.
bool glob_match(const std::string& pattern, const std::string& name,
                std::size_t p = 0, std::size_t n = 0) {
  while (p < pattern.size() && pattern[p] != '*') {
    if (n >= name.size() || pattern[p] != name[n]) return false;
    ++p;
    ++n;
  }
  if (p == pattern.size()) return n == name.size();
  for (std::size_t skip = n; skip <= name.size(); ++skip)
    if (glob_match(pattern, name, p + 1, skip)) return true;
  return false;
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// ---------------------------------------------------------------- code --

struct CodeInventory {
  std::set<std::string> metrics;  // exact names, family-filtered
  /// "tier.requests." style prefixes, each with every string literal of
  /// the files that compose it: the leaves a composed name may end in.
  std::map<std::string, std::set<std::string>> metric_prefixes;
  std::set<std::string> spans;
};

/// Whether `pattern` is a name `prefix` composes: the dynamic part ends it
/// ("breaker.state.*"), or the leaf after it is one of `leaves`
/// ("client.*.queries").
bool composes(const std::string& prefix, const std::set<std::string>& leaves,
              const std::string& pattern) {
  if (pattern.rfind(prefix, 0) != 0) return false;
  const std::size_t dot = pattern.rfind('.');
  return dot + 1 == prefix.size() ||
         leaves.count(pattern.substr(dot + 1)) != 0;
}

void scan_tokens(const std::vector<Token>& toks, CodeInventory& inv) {
  std::set<std::string> prefixes;  // composed in this file
  std::set<std::string> literals;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokenKind::String) literals.insert(t.text);
    if (t.kind == TokenKind::String && in_family(t.text)) {
      if (t.text.back() == '.') {
        // Concatenated dynamic suffix: "tier.requests." + transport, also
        // wrapped as std::string("tier.requests.") + transport.
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].kind == TokenKind::Punct &&
            toks[j].text == ")")
          ++j;
        const bool concat = j < toks.size() &&
                            toks[j].kind == TokenKind::Punct &&
                            toks[j].text == "+";
        if (concat && metric_chars_only(t.text, false)) {
          prefixes.insert(t.text);
        }
      } else if (metric_chars_only(t.text, false)) {
        inv.metrics.insert(t.text);
      }
      continue;
    }
    // Span names: last string argument of a begin(...) call.
    if (t.kind != TokenKind::Identifier || t.text != "begin") continue;
    if (i + 1 >= toks.size() || toks[i + 1].kind != TokenKind::Punct ||
        toks[i + 1].text != "(")
      continue;
    int depth = 0;
    std::string last;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind == TokenKind::Punct) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) break;
      } else if (toks[j].kind == TokenKind::String && depth == 1) {
        last = toks[j].text;
      }
    }
    if (!last.empty() && metric_chars_only(last, false)) {
      inv.spans.insert(last);
    }
  }
  for (const std::string& prefix : prefixes)
    inv.metric_prefixes[prefix].insert(literals.begin(), literals.end());
}

bool scan_src(const fs::path& src_dir, CodeInventory& inv) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(src_dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      std::fprintf(stderr, "contract_check: walk error: %s\n",
                   ec.message().c_str());
      return false;
    }
    if (!it->is_regular_file(ec)) continue;
    if (detlint::scannable_file(it->path().generic_string()))
      files.push_back(it->path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::string source;
    if (!read_file(file, source)) {
      std::fprintf(stderr, "contract_check: unreadable: %s\n",
                   file.generic_string().c_str());
      return false;
    }
    scan_tokens(detlint::lex(source).tokens, inv);
  }
  return true;
}

// ----------------------------------------------------------------- doc --

struct DocInventory {
  std::set<std::string> metric_patterns;  // family-filtered; may contain '*'
  std::set<std::string> spans;
};

/// The section starting at `heading` up to the next "### " heading.
std::string doc_section(const std::string& doc, const std::string& heading,
                        bool& found) {
  const std::size_t at = doc.find(heading);
  found = at != std::string::npos;
  if (!found) return "";
  std::size_t end = doc.find("\n### ", at + heading.size());
  if (end == std::string::npos) end = doc.size();
  return doc.substr(at, end - at);
}

void expand_braces(const std::string& name, std::set<std::string>& out) {
  const std::size_t open = name.find('{');
  if (open == std::string::npos) {
    out.insert(name);
    return;
  }
  const std::size_t close = name.find('}', open);
  if (close == std::string::npos) return;  // malformed; drop
  const std::string head = name.substr(0, open);
  const std::string tail = name.substr(close + 1);
  std::stringstream alts(name.substr(open + 1, close - open - 1));
  std::string alt;
  while (std::getline(alts, alt, ','))
    expand_braces(head + alt + tail, out);
}

/// `<t>` / `<i>` placeholders and `.*` shorthand both become glob stars.
/// Returns "" for an unclosed placeholder. Appends rather than calling
/// std::string::replace, which trips a GCC 12 -Wrestrict false positive.
std::string to_pattern(const std::string& name) {
  std::string pattern;
  std::size_t from = 0;
  for (std::size_t at = name.find('<'); at != std::string::npos;
       at = name.find('<', from)) {
    const std::size_t close = name.find('>', at);
    if (close == std::string::npos) return "";
    pattern.append(name, from, at - from).push_back('*');
    from = close + 1;
  }
  return pattern.append(name, from);
}

void parse_metric_contract(const std::string& section, DocInventory& inv) {
  // Backtick chunks may wrap across source lines; newlines inside a chunk
  // are insignificant.
  for (std::size_t i = 0; i < section.size(); ++i) {
    if (section[i] != '`') continue;
    const std::size_t close = section.find('`', i + 1);
    if (close == std::string::npos) break;
    std::string chunk;
    for (std::size_t j = i + 1; j < close; ++j) {
      const char c = section[j];
      if (c != '\n' && c != ' ') chunk.push_back(c);
    }
    i = close;
    const std::string pattern = to_pattern(chunk);
    if (pattern.empty()) continue;
    std::set<std::string> names;
    expand_braces(pattern, names);
    for (const std::string& n : names) {
      if (metric_chars_only(n, true) && in_family(n))
        inv.metric_patterns.insert(n);
    }
  }
}

void parse_span_taxonomy(const std::string& section, DocInventory& inv) {
  std::stringstream lines(section);
  std::string line;
  bool in_fence = false;
  while (std::getline(lines, line)) {
    if (line.rfind("```", 0) == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (!in_fence) continue;
    // Strip the tree-drawing prefix (UTF-8 box characters, dashes, blanks)
    // down to the first [a-z_] run; that run must end at a word boundary.
    std::size_t start = 0;
    while (start < line.size() &&
           !((line[start] >= 'a' && line[start] <= 'z') ||
             line[start] == '_'))
      ++start;
    std::size_t end = start;
    while (end < line.size() &&
           ((line[end] >= 'a' && line[end] <= 'z') || line[end] == '_'))
      ++end;
    if (end == start) continue;
    if (end < line.size() && line[end] != ' ') continue;  // e.g. "foo)" / "x="
    inv.spans.insert(line.substr(start, end - start));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      std::printf(
          "usage: contract_check [--root DIR]\n"
          "Diffs the metric names (every documented family) and span names\n"
          "emitted by src/ against the contract in EXPERIMENTS.md.\n");
      return 0;
    } else {
      std::fprintf(stderr, "contract_check: unknown argument %s\n",
                   arg.c_str());
      return 2;
    }
  }

  CodeInventory code;
  if (!scan_src(fs::path(root) / "src", code)) return 2;

  std::string doc;
  if (!read_file(fs::path(root) / "EXPERIMENTS.md", doc)) {
    std::fprintf(stderr, "contract_check: cannot read EXPERIMENTS.md\n");
    return 2;
  }
  DocInventory documented;
  bool have_metrics = false, have_spans = false;
  parse_metric_contract(
      doc_section(doc, "### Metric-name contract", have_metrics), documented);
  parse_span_taxonomy(doc_section(doc, "### Span taxonomy", have_spans),
                      documented);
  if (!have_metrics || !have_spans || documented.metric_patterns.empty() ||
      documented.spans.empty()) {
    std::fprintf(stderr,
                 "contract_check: EXPERIMENTS.md contract sections missing "
                 "or empty\n");
    return 2;
  }

  int drift = 0;
  const auto complain = [&](const char* what, const std::string& name) {
    std::printf("contract_check: %s: %s\n", what, name.c_str());
    ++drift;
  };

  // Code -> doc: everything emitted must be documented.
  for (const std::string& name : code.metrics) {
    bool ok = false;
    for (const std::string& p : documented.metric_patterns)
      if (glob_match(p, name)) {
        ok = true;
        break;
      }
    if (!ok) complain("emitted metric missing from EXPERIMENTS.md", name);
  }
  for (const auto& composed : code.metric_prefixes) {
    const std::string& prefix = composed.first;
    bool ok = false;
    for (const std::string& p : documented.metric_patterns)
      if (p.rfind(prefix, 0) == 0) {
        ok = true;
        break;
      }
    if (!ok)
      complain("emitted metric prefix missing from EXPERIMENTS.md",
               prefix + "*");
  }
  for (const std::string& span : code.spans) {
    if (!documented.spans.count(span))
      complain("emitted span missing from span taxonomy", span);
  }

  // Doc -> code: everything documented must still be emitted.
  for (const std::string& p : documented.metric_patterns) {
    bool ok = false;
    for (const std::string& name : code.metrics)
      if (glob_match(p, name)) {
        ok = true;
        break;
      }
    if (!ok) {
      for (const auto& [prefix, leaves] : code.metric_prefixes)
        if (composes(prefix, leaves, p)) {
          ok = true;
          break;
        }
    }
    if (!ok) complain("documented metric never emitted by src/", p);
  }
  for (const std::string& span : documented.spans) {
    if (!code.spans.count(span))
      complain("documented span never begun by src/", span);
  }

  if (drift == 0) {
    std::printf(
        "contract_check: %zu metrics (%zu dynamic prefixes) and %zu spans "
        "match EXPERIMENTS.md\n",
        code.metrics.size(), code.metric_prefixes.size(), code.spans.size());
    return 0;
  }
  std::printf("contract_check: %d drift finding(s)\n", drift);
  return 1;
}
