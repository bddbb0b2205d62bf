// Tests for the detlint determinism lint itself: the lexer, every DET/HYG
// diagnostic against its fixture file, the allow-pragma path, and the
// baseline path. The fixtures live in tests/detlint_fixtures/ and are
// excluded from the repo-wide detlint_repo_clean scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baseline.hpp"
#include "checks.hpp"
#include "conc.hpp"
#include "engine.hpp"
#include "lexer.hpp"

namespace {

using detlint::Code;
using detlint::Diagnostic;

std::string fixture_path(const std::string& name) {
  return std::string(DETLINT_FIXTURE_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Diagnostic> lint_fixture(const std::string& name) {
  return detlint::run_checks(name, detlint::lex(read_file(fixture_path(name))));
}

std::map<Code, int> live_counts(const std::vector<Diagnostic>& diags) {
  std::map<Code, int> counts;
  for (const Diagnostic& d : diags)
    if (!d.suppressed) counts[d.code]++;
  return counts;
}

/// Runs the cross-file CONC pass over the named fixtures (in order).
std::vector<Diagnostic> conc_fixtures(const std::vector<std::string>& names) {
  detlint::ConcAnalyzer conc;
  for (const std::string& name : names)
    conc.add_file(name, detlint::lex(read_file(fixture_path(name))));
  return conc.finish();
}

// ---------------------------------------------------------------- lexer --

TEST(DetlintLexer, CommentsAndStringsProduceNoIdentifierTokens) {
  auto lexed = detlint::lex(
      "// rand() in a comment\n"
      "/* time(nullptr) in a block\n   spanning lines */\n"
      "const char* s = \"rand() time() unordered_map\";\n"
      "int x = 1;\n");
  for (const auto& t : lexed.tokens) {
    if (t.kind == detlint::TokenKind::Identifier) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "time");
      EXPECT_NE(t.text, "unordered_map");
    }
  }
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].first_line, 1);
  EXPECT_EQ(lexed.comments[1].first_line, 2);
  EXPECT_EQ(lexed.comments[1].last_line, 3);
}

TEST(DetlintLexer, TracksLineNumbersAcrossLiteralsAndComments) {
  auto lexed = detlint::lex(
      "int a;\n"
      "/* two\nline comment */ int b;\n"
      "int c;\n");
  std::map<std::string, int> lines;
  for (const auto& t : lexed.tokens)
    if (t.kind == detlint::TokenKind::Identifier && t.text.size() == 1)
      lines[t.text] = t.line;
  EXPECT_EQ(lines["a"], 1);
  EXPECT_EQ(lines["b"], 3);
  EXPECT_EQ(lines["c"], 4);
}

TEST(DetlintLexer, RawStringsAreOneToken) {
  auto lexed = detlint::lex("auto s = R\"(rand() // not a comment)\";\n");
  int strings = 0;
  for (const auto& t : lexed.tokens)
    if (t.kind == detlint::TokenKind::String) ++strings;
  EXPECT_EQ(strings, 1);
  EXPECT_TRUE(lexed.comments.empty());
}

TEST(DetlintLexer, CollectsPreprocessorDirectives) {
  auto lexed = detlint::lex("#pragma once\n#include <map>\nint x;\n");
  ASSERT_EQ(lexed.directives.size(), 2u);
  EXPECT_EQ(lexed.directives[0].text, "pragma once");
  EXPECT_EQ(lexed.directives[1].text, "include <map>");
}

// ---------------------------------------------------- diagnostic checks --

TEST(DetlintChecks, Det001WallClockSources) {
  auto counts = live_counts(lint_fixture("det001_wall_clock.cpp"));
  EXPECT_EQ(counts[Code::DET001], 6);  // system, steady, time, std::time,
                                       // clock, gettimeofday
  EXPECT_EQ(counts.size(), 1u) << "only DET001 expected in this fixture";
}

TEST(DetlintChecks, Det002Randomness) {
  auto diags = lint_fixture("det002_randomness.cpp");
  auto counts = live_counts(diags);
  // rand, srand, random_device, default_random_engine, two unseeded
  // mt19937_64 declarations; the two seeded declarations are fine.
  EXPECT_EQ(counts[Code::DET002], 6);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintChecks, Det002ExemptsTheRngModule) {
  std::string source = read_file(fixture_path("det002_randomness.cpp"));
  auto diags = detlint::run_checks("src/stats/rng.cpp", detlint::lex(source));
  EXPECT_EQ(live_counts(diags)[Code::DET002], 0);
}

TEST(DetlintChecks, Det003UnorderedContainers) {
  auto counts = live_counts(lint_fixture("det003_unordered.cpp"));
  EXPECT_EQ(counts[Code::DET003], 2);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintChecks, Det004Concurrency) {
  auto counts = live_counts(lint_fixture("det004_concurrency.cpp"));
  // std::thread, std::mutex, std::async, sleep(), this_thread + sleep_for.
  EXPECT_EQ(counts[Code::DET004], 6);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintChecks, Det005PointerIdentity) {
  auto counts = live_counts(lint_fixture("det005_pointer_identity.cpp"));
  // format-string pointer + C cast on the same line, hash<T*>,
  // reinterpret_cast<uintptr_t>, static_cast<const void*>.
  EXPECT_EQ(counts[Code::DET005], 5);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintChecks, Hyg001PragmaOnce) {
  auto missing = live_counts(lint_fixture("hyg001_missing_pragma.hpp"));
  EXPECT_EQ(missing[Code::HYG001], 1);
  auto present = live_counts(lint_fixture("hyg001_has_pragma.hpp"));
  EXPECT_EQ(present[Code::HYG001], 0);
}

TEST(DetlintChecks, Hyg001DoesNotApplyToSourceFiles) {
  auto diags = detlint::run_checks("src/foo.cpp", detlint::lex("int x;\n"));
  EXPECT_EQ(live_counts(diags)[Code::HYG001], 0);
}

TEST(DetlintChecks, Hyg002RawNewDelete) {
  auto counts = live_counts(lint_fixture("hyg002_raw_new.cpp"));
  // new Widget, delete w, new int[], delete[]; `= delete` members exempt.
  EXPECT_EQ(counts[Code::HYG002], 4);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintChecks, Hyg003FloatAccounting) {
  auto counts = live_counts(lint_fixture("hyg003_float.cpp"));
  EXPECT_EQ(counts[Code::HYG003], 2);  // float type + 0.5f literal
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintChecks, CleanFixtureHasZeroFindings) {
  auto diags = lint_fixture("clean.cpp");
  EXPECT_TRUE(diags.empty())
      << "unexpected: " << detlint::format_diagnostic(diags.front());
}

TEST(DetlintChecks, EveryCodeHasANameAndSummary) {
  for (Code c : detlint::kAllCodes) {
    EXPECT_FALSE(detlint::code_name(c).empty());
    EXPECT_FALSE(detlint::code_summary(c).empty());
    Code parsed;
    ASSERT_TRUE(detlint::parse_code(detlint::code_name(c), parsed));
    EXPECT_EQ(parsed, c);
  }
  Code ignored;
  EXPECT_FALSE(detlint::parse_code("DET999", ignored));
}

// ------------------------------------------------- CONC (parallelism) --

TEST(DetlintConc, Conc001MutableStaticState) {
  auto diags = conc_fixtures({"conc001_static_state.cpp"});
  auto counts = live_counts(diags);
  // The function-local static in helper() plus the reference to the
  // namespace-scope static g_counter from the same reachable function.
  EXPECT_EQ(counts[Code::CONC001], 2);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintConc, Conc001CountsRefcountedConstStatics) {
  auto counts = live_counts(conc_fixtures({"conc001_refcounted_static.cpp"}));
  // The const BufferSlice and the const shared_ptr, plus the reference to
  // the namespace-scope const weak_ptr: copying any of them writes a count
  // every shard shares. The thread_local and the const int stay exempt.
  EXPECT_EQ(counts[Code::CONC001], 3);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintConc, Conc001ThroughAMatrixCellFunctor) {
  auto counts = live_counts(conc_fixtures({"conc001_matrix_cell.cpp"}));
  // The cell functor handed to run_grid() is a shard root, so the static
  // in the per-cell function it calls is parallel-reachable.
  EXPECT_EQ(counts[Code::CONC001], 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintConc, Conc002EscapingCaptureWrites) {
  auto diags = conc_fixtures({"conc002_escaping_capture.cpp"});
  auto counts = live_counts(diags);
  // `total += ...` and `partials.push_back(...)` escape the shard; the
  // writes to the shard-local `s` do not.
  EXPECT_EQ(counts[Code::CONC002], 2);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintConc, Conc003FalseSharingSlots) {
  auto diags = conc_fixtures({"conc003_false_sharing.cpp"});
  auto counts = live_counts(diags);
  // The unaligned run_sharded result type + the unaligned hot-slot
  // annotated struct; the aligned one is clean.
  EXPECT_EQ(counts[Code::CONC003], 2);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintConc, Conc004SharedRng) {
  auto diags = conc_fixtures({"conc004_shared_rng.cpp"});
  auto counts = live_counts(diags);
  // Only the lambda drawing from the outer `rng`; the per-shard SplitMix64
  // in the second lambda is fine.
  EXPECT_EQ(counts[Code::CONC004], 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintConc, Conc004SharedSlice) {
  auto diags = conc_fixtures({"conc004_shared_slice.cpp"});
  auto counts = live_counts(diags);
  // A slice's count is a plain integer: the lambda copying the outer
  // `body` is a finding, the one building its own slice is not.
  EXPECT_EQ(counts[Code::CONC004], 1);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintConc, Conc005SyncInParallelReachableCode) {
  auto diags = conc_fixtures({"conc005_sync_in_sim.cpp"});
  auto counts = live_counts(diags);
  // fetch_add + memory_order_relaxed inside the reachable count_hit(); the
  // namespace-scope atomic declaration itself is not inside a function.
  EXPECT_EQ(counts[Code::CONC005], 2);
  EXPECT_EQ(counts.size(), 1u);
}

TEST(DetlintConc, Conc006HotLoopAllocations) {
  auto diags = conc_fixtures({"conc006_hot_loop_alloc.cpp"});
  auto counts = live_counts(diags);
  // new + make_unique + to_string in hot_fire(), the non-reserved push_back
  // in hot_append(); the pragma'd push_back in hot_amortized() is suppressed
  // and the un-annotated slow_path() is never scanned.
  EXPECT_EQ(counts[Code::CONC006], 4);
  EXPECT_EQ(counts.size(), 1u);
  int suppressed = 0;
  for (const Diagnostic& d : diags) {
    if (d.suppressed) {
      ++suppressed;
      EXPECT_EQ(d.code, Code::CONC006);
      EXPECT_FALSE(d.suppress_reason.empty());
    }
  }
  EXPECT_EQ(suppressed, 1);
}

TEST(DetlintConc, Conc006ReservedGrowthStaysSilent) {
  auto diags = conc_fixtures({"conc006_clean.cpp"});
  ASSERT_TRUE(diags.empty()) << detlint::format_diagnostic(diags.front());
}

TEST(DetlintConc, JustifiedPragmaSuppressesConcFindings) {
  auto diags = conc_fixtures({"conc_allow_pragma.cpp"});
  int suppressed = 0, live = 0;
  for (const Diagnostic& d : diags) {
    ASSERT_EQ(d.code, Code::CONC001);
    if (d.suppressed) {
      ++suppressed;
      EXPECT_FALSE(d.suppress_reason.empty());
    } else {
      ++live;
    }
  }
  EXPECT_EQ(suppressed, 1);
  EXPECT_EQ(live, 1);
}

TEST(DetlintConc, CleanParallelPostureHasZeroFindings) {
  auto diags = conc_fixtures({"conc_clean.cpp"});
  EXPECT_TRUE(diags.empty())
      << "unexpected: " << detlint::format_diagnostic(diags.front());
}

TEST(DetlintConc, ReachabilityCrossesFileBoundaries) {
  // The hazard file alone is clean — no shard site reaches its static.
  EXPECT_TRUE(conc_fixtures({"conc_xfile_lib.cpp"}).empty());

  // Linked with the file holding the shard site, the static is reachable
  // and the finding lands in the *defining* file.
  auto diags =
      conc_fixtures({"conc_xfile_main.cpp", "conc_xfile_lib.cpp"});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, Code::CONC001);
  EXPECT_EQ(diags[0].file, "conc_xfile_lib.cpp");
}

TEST(DetlintConc, EngineRunsConcPassUnlessDisabled) {
  detlint::ScanOptions options;
  options.root = DETLINT_FIXTURE_DIR;
  options.paths = {fixture_path("conc001_static_state.cpp")};
  auto with_conc = detlint::scan(options);
  EXPECT_EQ(live_counts(with_conc.diagnostics)[Code::CONC001], 2);

  options.conc = false;
  auto without = detlint::scan(options);
  EXPECT_EQ(live_counts(without.diagnostics)[Code::CONC001], 0);
}

TEST(DetlintConc, BaselineEntriesApplyToConcFindings) {
  detlint::ScanOptions options;
  options.root = DETLINT_FIXTURE_DIR;
  options.paths = {fixture_path("conc001_static_state.cpp")};
  std::vector<std::string> errors;
  options.baseline = detlint::parse_baseline(
      "conc001_static_state.cpp:*:CONC001\n", errors);
  ASSERT_TRUE(errors.empty());
  auto result = detlint::scan(options);
  EXPECT_EQ(result.live_count(/*strict=*/false), 0u);
  EXPECT_EQ(result.live_count(/*strict=*/true), 2u);
}

// ------------------------------------------------------- allow pragmas --

TEST(DetlintPragmas, JustifiedAllowSuppresses) {
  auto diags = lint_fixture("allow_pragma.cpp");
  int suppressed = 0, live = 0;
  for (const Diagnostic& d : diags) {
    ASSERT_EQ(d.code, Code::DET003);
    if (d.suppressed) {
      ++suppressed;
      EXPECT_FALSE(d.suppress_reason.empty());
    } else {
      ++live;
    }
  }
  // Same-line and previous-line pragmas suppress; the reason-less pragma
  // and the wrong-code pragma do not.
  EXPECT_EQ(suppressed, 2);
  EXPECT_EQ(live, 2);
}

// ------------------------------------------------------------ baseline --

TEST(DetlintBaseline, ParsesEntriesAndRejectsGarbage) {
  std::vector<std::string> errors;
  auto b = detlint::parse_baseline(
      "# comment\n"
      "\n"
      "src/a.cpp:10:DET001\n"
      "src/b.cpp:*:HYG002\n"
      "nonsense\n"
      "src/c.cpp:xx:DET001\n"
      "src/d.cpp:5:NOPE01\n",
      errors);
  EXPECT_EQ(b.entries.size(), 2u);
  EXPECT_EQ(errors.size(), 3u);
  Diagnostic hit{"src/a.cpp", 10, Code::DET001, "m"};
  Diagnostic miss_line{"src/a.cpp", 11, Code::DET001, "m"};
  Diagnostic wildcard{"src/b.cpp", 999, Code::HYG002, "m"};
  EXPECT_TRUE(b.matches(hit));
  EXPECT_FALSE(b.matches(miss_line));
  EXPECT_TRUE(b.matches(wildcard));
}

TEST(DetlintBaseline, SuppressesInNormalModeButNotStrict) {
  std::vector<std::string> errors;
  detlint::ScanOptions options;
  options.root = DETLINT_FIXTURE_DIR;
  options.paths = {fixture_path("baseline_target.cpp")};
  options.baseline =
      detlint::parse_baseline(read_file(fixture_path("fixtures.baseline")),
                              errors);
  ASSERT_TRUE(errors.empty());

  auto result = detlint::scan(options);
  ASSERT_EQ(result.files_scanned, 1u);
  ASSERT_EQ(result.diagnostics.size(), 2u);
  for (const Diagnostic& d : result.diagnostics) EXPECT_TRUE(d.baselined);
  EXPECT_EQ(result.live_count(/*strict=*/false), 0u);
  EXPECT_EQ(result.live_count(/*strict=*/true), 2u);
}

TEST(DetlintBaseline, RenderRoundTrips) {
  std::vector<Diagnostic> diags = {
      {"src/a.cpp", 3, Code::DET002, "m"},
      {"src/b.hpp", 1, Code::HYG001, "m"},
  };
  std::string text = detlint::render_baseline(diags);
  std::vector<std::string> errors;
  auto b = detlint::parse_baseline(text, errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(b.entries.size(), 2u);
  EXPECT_TRUE(b.matches(diags[0]));
  EXPECT_TRUE(b.matches(diags[1]));
}

// -------------------------------------------------------------- engine --

TEST(DetlintEngine, FixtureDirectoryIsExcludedFromDirectoryWalks) {
  detlint::ScanOptions options;
  options.root = DETLINT_TESTS_DIR;  // tests/ — contains detlint_fixtures
  options.paths = {"detlint_fixtures"};
  auto result = detlint::scan(options);
  EXPECT_EQ(result.files_scanned, 0u)
      << "fixture snippets must never be scanned via a directory walk";
}

TEST(DetlintEngine, ScannableExtensions) {
  EXPECT_TRUE(detlint::scannable_file("src/a.cpp"));
  EXPECT_TRUE(detlint::scannable_file("src/a.hpp"));
  EXPECT_TRUE(detlint::scannable_file("src/a.h"));
  EXPECT_TRUE(detlint::scannable_file("src/a.cc"));
  EXPECT_FALSE(detlint::scannable_file("src/a.py"));
  EXPECT_FALSE(detlint::scannable_file("CMakeLists.txt"));
}

TEST(DetlintEngine, SummaryRendersPerCodeCounts) {
  detlint::ScanOptions options;
  options.root = DETLINT_FIXTURE_DIR;
  options.paths = {fixture_path("det003_unordered.cpp")};
  auto result = detlint::scan(options);
  std::string summary = detlint::render_summary(result, /*strict=*/true);
  EXPECT_NE(summary.find("DET003"), std::string::npos);
  EXPECT_NE(summary.find("scanned 1 files"), std::string::npos);
  EXPECT_NE(summary.find("2 finding(s)"), std::string::npos);
  EXPECT_NE(summary.find("[strict]"), std::string::npos);
}

}  // namespace
