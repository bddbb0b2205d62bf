// The helpers every bench harness shares. The flag parser
// (bench/bench_common.hpp) reads integer flags in the "--key=value" and the
// "--key value" form, and exits with status 2 on a missing or non-decimal
// value or on any argument nothing asked for. The box-whisker printers
// handle an empty sample. The bench::Matrix harness (bench/matrix.hpp)
// runs, merges, renders and gates a toy grid.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/matrix.hpp"

namespace dohperf {
namespace {

/// A command line "bench <args...>" that outlives the argv it hands out.
struct CommandLine {
  explicit CommandLine(std::vector<std::string> args)
      : storage(std::move(args)) {
    storage.insert(storage.begin(), "bench");
    for (auto& arg : storage) argv.push_back(arg.data());
  }
  bench::Flags flags() {
    return bench::Flags(static_cast<int>(argv.size()), argv.data());
  }
  std::vector<std::string> storage;
  std::vector<char*> argv;
};

/// flags.num("pages", fallback 7) over a command line of `args`.
std::size_t pages(std::vector<std::string> args) {
  return CommandLine(std::move(args)).flags().num("pages", 7);
}

/// Asks for the flags a typical bench reads, then rejects the rest.
void parse_bench_flags(std::vector<std::string> args) {
  CommandLine line(std::move(args));
  bench::Flags flags = line.flags();
  flags.num("queries", 100);
  flags.on("no-gate");
  flags.output();
  flags.reject_unknown();
}

TEST(BenchFlag, AcceptsTheEqualsAndTheSpaceForm) {
  EXPECT_EQ(pages({"--pages=12"}), 12u);
  EXPECT_EQ(pages({"--pages", "12"}), 12u);
  EXPECT_EQ(pages({"--seed=3", "--pages", "0"}), 0u);
  EXPECT_EQ(pages({"--pages=18446744073709551615"}), 18446744073709551615u);
}

TEST(BenchFlag, AbsentFlagKeepsTheFallback) {
  EXPECT_EQ(pages({}), 7u);
  EXPECT_EQ(pages({"--planetlab-pages=5", "--planetlab-pages", "5"}), 7u);
}

TEST(BenchFlagDeathTest, RejectsMissingAndMalformedValues) {
  const auto rejected = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(pages({"--pages=abc"}), rejected, "--pages");
  EXPECT_EXIT(pages({"--pages=2OO"}), rejected, "--pages .*\"2OO\"");
  EXPECT_EXIT(pages({"--pages=-1"}), rejected, "--pages");
  EXPECT_EXIT(pages({"--pages= 5"}), rejected, "--pages");
  EXPECT_EXIT(pages({"--pages=18446744073709551616"}), rejected, "--pages");
  EXPECT_EXIT(pages({"--pages="}), rejected, "--pages");
  EXPECT_EXIT(pages({"--pages"}), rejected, "--pages");
  EXPECT_EXIT(pages({"--pages", "--seed=3"}), rejected, "--pages");
}

TEST(BenchFlag, KnownFlagsInEitherFormPassTheUnknownCheck) {
  parse_bench_flags({});
  parse_bench_flags({"--queries=5", "--no-gate", "--json", "out.json"});
  parse_bench_flags({"--queries", "5", "--trace=t.json", "--queries=6"});
}

TEST(BenchFlag, SwitchesAndStringsReadTheirValues) {
  CommandLine line({"--no-gate", "--json", "a.json", "--trace=b.json"});
  bench::Flags flags = line.flags();
  EXPECT_TRUE(flags.on("no-gate"));
  EXPECT_FALSE(flags.on("series"));
  const bench::Output output = flags.output();
  EXPECT_EQ(output.json, "a.json");
  EXPECT_EQ(output.trace, "b.json");
  EXPECT_EQ(flags.str("digest"), "");
}

TEST(BenchFlagDeathTest, RejectsFlagsNothingAskedFor) {
  const auto rejected = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse_bench_flags({"--querys=5"}), rejected,
              "unknown argument --querys=5");
  EXPECT_EXIT(parse_bench_flags({"--queries=5", "--name", "5"}), rejected,
              "unknown argument --name\n.*unknown argument 5");
  // A switch takes no value, so "--no-gate=1" is not the switch.
  EXPECT_EXIT(parse_bench_flags({"--no-gate=1"}), rejected,
              "unknown argument --no-gate=1");
}

TEST(BenchBox, EmptySampleHasNoQuantiles) {
  ::testing::internal::CaptureStdout();
  bench::print_box("U/CF", {}, "bytes");
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "U/CF                   (no samples)\n");
  EXPECT_EQ(bench::box_json({}).dump(), "{\"n\":0}");
  EXPECT_EQ(bench::box_json({2.0}).dump(),
            "{\"max\":2,\"med\":2,\"min\":2,\"n\":1,\"q1\":2,\"q3\":2}");
}

/// A toy grid cell: where it ran, and whether it got a registry.
struct ToyMetrics {
  std::size_t row = 0;
  std::size_t col = 0;
  bool had_registry = false;
};

ToyMetrics toy_cell(std::size_t row, std::size_t col,
                    obs::Registry* registry) {
  return ToyMetrics{row, col, registry != nullptr};
}

/// Prints the grid with one JSON metric per cell; `show_registry` makes the
/// rendering depend on whether the cell got a registry.
void print_toy(bench::Matrix<ToyMetrics>& matrix, bool show_registry) {
  matrix.print({"row", "col", "registry"},
               [&](std::size_t, std::size_t, const ToyMetrics& m,
                   bench::CellJson& json) -> std::vector<std::string> {
                 json.set("row", static_cast<std::int64_t>(m.row));
                 return {std::to_string(m.row), std::to_string(m.col),
                         show_registry && m.had_registry ? "yes" : "-"};
               });
}

std::string check(bench::Matrix<ToyMetrics>& matrix, const std::string& name) {
  return matrix.report().scenarios["checks"].as_object()[name].as_string();
}

TEST(BenchMatrix, AtReturnsTheCellThatRanForThoseCoordinates) {
  for (const std::size_t jobs : {1u, 4u}) {
    bench::Matrix<ToyMetrics> matrix("toy", {"a", "b", "c"}, {"x", "y"},
                                     jobs);
    matrix.run_grid(
        [](std::size_t row, std::size_t col, obs::Registry* registry) {
          return toy_cell(row, col, registry);
        });
    for (std::size_t row = 0; row < 3; ++row) {
      for (std::size_t col = 0; col < 2; ++col) {
        EXPECT_EQ(matrix.at(row, col).row, row) << "jobs " << jobs;
        EXPECT_EQ(matrix.at(row, col).col, col) << "jobs " << jobs;
        EXPECT_TRUE(matrix.at(row, col).had_registry);
      }
    }
  }
}

TEST(BenchMatrix, MergesCellRegistriesInCellOrder) {
  bench::Matrix<ToyMetrics> matrix("toy", {"a", "b"}, {"x", "y", "z"},
                                   /*jobs=*/4);
  matrix.run_grid(
      [](std::size_t row, std::size_t col, obs::Registry* registry) {
        if (registry != nullptr) {
          registry->set_gauge("cell.index",
                              static_cast<std::int64_t>(row * 3 + col));
          registry->add("cells");
        }
        return toy_cell(row, col, registry);
      });
  EXPECT_EQ(matrix.registry().gauge("cell.index"), 5);
  EXPECT_EQ(matrix.registry().counter("cells"), 6u);
}

TEST(BenchMatrix, PrintsTheTableAndKeysCellJsonByRowAndColumn) {
  bench::Matrix<ToyMetrics> matrix("toy", {"a", "b"}, {"x"}, /*jobs=*/1);
  matrix.run_grid(toy_cell);
  ::testing::internal::CaptureStdout();
  print_toy(matrix, /*show_registry=*/false);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "row  col  registry\n---  ---  --------\n"
            "0    0    -       \n1    0    -       \n"
            "\ndeterminism check (two full grid runs, same seed): PASS - "
            "byte-identical\n");
  const dns::JsonObject& scenarios = matrix.report().scenarios;
  EXPECT_EQ(scenarios.at("a/x").dump(), "{\"row\":0}");
  EXPECT_EQ(scenarios.at("b/x").dump(), "{\"row\":1}");
  EXPECT_EQ(matrix.finish({}, /*enforce=*/true), 0);
  EXPECT_EQ(check(matrix, "determinism"), "PASS");
}

TEST(BenchMatrix, ARegistryDependentCellFailsTheDeterminismCheck) {
  bench::Matrix<ToyMetrics> matrix("toy", {"a"}, {"x", "y"}, /*jobs=*/1);
  matrix.run_grid(toy_cell);
  ::testing::internal::CaptureStdout();
  print_toy(matrix, /*show_registry=*/true);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("0    0    yes"), std::string::npos) << out;
  EXPECT_NE(
      out.find("\ndeterminism check (two full grid runs, same seed): FAIL\n"),
      std::string::npos)
      << out;
  // Gates not enforced: the determinism check still fails the run.
  EXPECT_EQ(matrix.finish({}, /*enforce=*/false), 1);
  EXPECT_EQ(check(matrix, "determinism"), "FAIL");
}

TEST(BenchMatrix, AFailingGateFailsTheRunOnlyWhenEnforced) {
  for (const bool enforce : {true, false}) {
    bench::Matrix<ToyMetrics> matrix("toy", {"a"}, {"x"}, /*jobs=*/1);
    matrix.run_grid(toy_cell);
    ::testing::internal::CaptureStdout();
    print_toy(matrix, /*show_registry=*/false);
    ::testing::internal::GetCapturedStdout();
    ::testing::internal::CaptureStdout();
    matrix.gate("holds", "holds check (x >= 0)", true);
    matrix.gate("breaks", "breaks check (x < 0)", false, " (x=1)");
    EXPECT_EQ(::testing::internal::GetCapturedStdout(),
              "holds check (x >= 0): PASS\nbreaks check (x < 0): FAIL (x=1)\n");
    EXPECT_EQ(matrix.finish({}, enforce), enforce ? 1 : 0);
    EXPECT_EQ(check(matrix, "holds"), "PASS");
    EXPECT_EQ(check(matrix, "breaks"), "FAIL");
    EXPECT_EQ(check(matrix, "determinism"), "PASS");
  }
}

}  // namespace
}  // namespace dohperf
