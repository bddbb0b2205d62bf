// Microbenchmarks (google-benchmark) for the protocol codecs: DNS wire
// format, HPACK, Huffman, HTTP/2 frames, base64url, dns-json, and the
// discrete-event core. These guard against performance regressions in the
// machinery every experiment is built on.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "dns/base64url.hpp"
#include "dns/json.hpp"
#include "dns/message.hpp"
#include "http2/frame.hpp"
#include "http2/hpack.hpp"
#include "simnet/event_loop.hpp"

namespace {

using namespace dohperf;

dns::Message sample_response() {
  const auto query =
      dns::Message::make_query(0, dns::Name::parse("www.example.com"));
  return dns::Message::make_response(
      query,
      {dns::ResourceRecord::a(dns::Name::parse("www.example.com"),
                              "93.184.216.34"),
       dns::ResourceRecord::a(dns::Name::parse("www.example.com"),
                              "93.184.216.35"),
       dns::ResourceRecord::cname(dns::Name::parse("alias.example.com"),
                                  dns::Name::parse("www.example.com"))});
}

void BM_DnsEncode(benchmark::State& state) {
  const auto message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(message.encode());
  }
}
BENCHMARK(BM_DnsEncode);

void BM_DnsDecode(benchmark::State& state) {
  const auto wire = sample_response().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Message::decode(wire));
  }
}
BENCHMARK(BM_DnsDecode);

void BM_DnsJsonEncode(benchmark::State& state) {
  const auto message = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::to_dns_json(message));
  }
}
BENCHMARK(BM_DnsJsonEncode);

void BM_DnsJsonDecode(benchmark::State& state) {
  const auto json = dns::to_dns_json(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::from_dns_json(json));
  }
}
BENCHMARK(BM_DnsJsonDecode);

void BM_Base64UrlRoundTrip(benchmark::State& state) {
  const auto wire = sample_response().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dns::base64url_decode(dns::base64url_encode(wire)));
  }
}
BENCHMARK(BM_Base64UrlRoundTrip);

std::vector<http2::HeaderField> doh_headers() {
  return {
      {":method", "POST"},
      {":scheme", "https"},
      {":authority", "cloudflare-dns.com"},
      {":path", "/dns-query"},
      {"accept", "application/dns-message"},
      {"content-type", "application/dns-message"},
      {"content-length", "47"},
      {"user-agent",
       "Mozilla/5.0 (X11; Linux x86_64; rv:66.0) Gecko/20100101 Firefox/66.0"},
  };
}

void BM_HpackEncodeFirstBlock(benchmark::State& state) {
  const auto headers = doh_headers();
  for (auto _ : state) {
    http2::HpackEncoder encoder;  // cold dynamic table every time
    benchmark::DoNotOptimize(encoder.encode(headers));
  }
}
BENCHMARK(BM_HpackEncodeFirstBlock);

void BM_HpackEncodeRepeatBlock(benchmark::State& state) {
  const auto headers = doh_headers();
  http2::HpackEncoder encoder;
  encoder.encode(headers);  // warm the dynamic table
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(headers));
  }
}
BENCHMARK(BM_HpackEncodeRepeatBlock);

void BM_HpackDecode(benchmark::State& state) {
  http2::HpackEncoder encoder;
  encoder.disable_dynamic_table();  // stateless block, decodable repeatedly
  const auto block = encoder.encode(doh_headers());
  for (auto _ : state) {
    http2::HpackDecoder decoder;
    benchmark::DoNotOptimize(decoder.decode(block));
  }
}
BENCHMARK(BM_HpackDecode);

void BM_HuffmanEncode(benchmark::State& state) {
  const std::string text =
      "dns-query?dns=AAABAAABAAAAAAAAA3d3dwdleGFtcGxlA2NvbQAAAQAB";
  for (auto _ : state) {
    benchmark::DoNotOptimize(http2::huffman_encode(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  const std::string text =
      "dns-query?dns=AAABAAABAAAAAAAAA3d3dwdleGFtcGxlA2NvbQAAAQAB";
  const auto encoded = http2::huffman_encode(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(http2::huffman_decode(encoded));
  }
}
BENCHMARK(BM_HuffmanDecode);

void BM_H2FrameRoundTrip(benchmark::State& state) {
  http2::Frame frame;
  frame.type = http2::FrameType::kData;
  frame.stream_id = 1;
  frame.payload = dohperf::http2::Bytes(128, 7);
  for (auto _ : state) {
    http2::FrameReader reader;
    reader.feed(http2::encode_frame(frame));
    benchmark::DoNotOptimize(reader.next());
  }
}
BENCHMARK(BM_H2FrameRoundTrip);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    simnet::EventLoop loop;
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
      loop.schedule_in(i, [&fired]() { ++fired; });
    }
    loop.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_NameCompressionEncode(benchmark::State& state) {
  dns::Message m;
  const auto owner = dns::Name::parse("a.b.c.d.example.com");
  for (int i = 0; i < 10; ++i) {
    m.answers.push_back(dns::ResourceRecord::a(owner, "192.0.2.1"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.encode(true));
  }
}
BENCHMARK(BM_NameCompressionEncode);

/// Console reporter that also captures per-benchmark timings, so the repo's
/// --json convention ("dohperf-bench-v1") works here too. Microbenchmark
/// timings are wall-clock, not virtual-clock — this is the one bench whose
/// JSON is NOT byte-identical across runs.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(dohperf::bench::BenchReport& report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      report_.set(run.benchmark_name(), "real_time",
                  run.GetAdjustedRealTime());
      report_.set(run.benchmark_name(), "cpu_time",
                  run.GetAdjustedCPUTime());
      report_.set(run.benchmark_name(), "time_unit",
                  std::string(benchmark::GetTimeUnitString(run.time_unit)));
      report_.set(run.benchmark_name(), "iterations",
                  static_cast<std::int64_t>(run.iterations));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  dohperf::bench::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  // Strip the repo-wide --json/--trace flags before google-benchmark sees
  // (and rejects) them; everything else passes through to the library,
  // which rejects what it does not know.
  const dohperf::bench::Output output =
      dohperf::bench::Flags(argc, argv).output();
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0 || arg.rfind("--trace=", 0) == 0) {
      continue;
    }
    if (arg == "--json" || arg == "--trace") {
      ++i;  // skip the separate value token too
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());

  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_argv.data())) {
    return 1;
  }
  dohperf::bench::BenchReport report("micro_codecs");
  RecordingReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  dohperf::bench::finish(output, report);
  return 0;
}
