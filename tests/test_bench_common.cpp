// The helpers every bench harness shares (bench/bench_common.hpp): integer
// flags in both the "--key=value" and the "--key value" form, rejected with
// exit status 2 when the value is missing or not a whole decimal number,
// and box-whisker output for an empty sample.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace dohperf {
namespace {

/// bench::flag("pages", fallback 7) over a command line of `args`.
std::size_t pages(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  return bench::flag(static_cast<int>(argv.size()), argv.data(), "pages", 7);
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

TEST(BenchBox, EmptySampleHasNoQuantiles) {
  ::testing::internal::CaptureStdout();
  bench::print_box("U/CF", {}, "bytes");
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "U/CF                   (no samples)\n");
  EXPECT_EQ(bench::box_json({}).dump(), "{\"n\":0}");
  EXPECT_EQ(bench::box_json({2.0}).dump(),
            "{\"max\":2,\"med\":2,\"min\":2,\"n\":1,\"q1\":2,\"q3\":2}");
}

}  // namespace
}  // namespace dohperf
