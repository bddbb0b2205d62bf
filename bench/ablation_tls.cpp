// Ablation: TLS design choices and connection-setup cost.
//   * TLS 1.2 vs TLS 1.3 (round trips + handshake bytes)
//   * session resumption on/off
//   * certificate size (Cloudflare vs Google chains)
//   * EDNS0 padding (RFC 7830/8467) on message sizes
#include <cstdio>

#include "bench_common.hpp"
#include "core/doh_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "workload/names.hpp"

namespace {

using namespace dohperf;

struct SetupCost {
  double time_ms;
  double wire_bytes;
};

SetupCost fresh_resolution(tlssim::TlsVersion version, bool resume,
                           const tlssim::CertificateChain& chain) {
  simnet::EventLoop loop;
  simnet::Network net(loop);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");
  simnet::LinkConfig link;
  link.latency = simnet::ms(10);
  net.connect(client.id(), server.id(), link);

  resolver::Engine engine(loop, {});
  resolver::DohServerConfig server_config;
  server_config.tls.versions = {tlssim::TlsVersion::kTls12,
                                tlssim::TlsVersion::kTls13};
  server_config.tls.chain = chain;
  resolver::DohServer doh(server, engine, server_config, 443);

  tlssim::SessionCache cache;
  core::DohClientConfig config;
  config.server_name = chain.subject;
  config.persistent = false;
  config.max_tls = version;
  config.session_cache = resume ? &cache : nullptr;

  core::DohClient resolver(client, {server.id(), 443}, config);
  if (resume) {
    // Prime the session cache with one throwaway connection.
    resolver.resolve(dns::Name::parse("warmup.example.com"),
                     dns::RType::kA, {});
    loop.run();
  }
  const auto id = resolver.resolve(dns::Name::parse("query.example.com"),
                                   dns::RType::kA, {});
  loop.run();
  const auto& result = resolver.result(id);
  return {simnet::to_ms(result.resolution_time()),
          static_cast<double>(result.cost.wire_bytes)};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bench::Output output = flags.output();
  flags.reject_unknown();
  using tlssim::TlsVersion;
  std::printf("=== Ablation: TLS version / resumption / certificate size "
              "===\n");
  std::printf("(fresh DoH connection per query, 10ms one-way link)\n\n");
  std::printf("%-34s %10s %12s\n", "configuration", "time", "wire bytes");

  bench::BenchReport report("ablation_tls");

  const auto cf = tlssim::CertificateChain::cloudflare();
  const auto go = tlssim::CertificateChain::google();
  const auto row = [&report](const char* label, SetupCost c) {
    std::printf("%-34s %8.1fms %10.0f B\n", label, c.time_ms, c.wire_bytes);
    report.set(label, "time_ms", c.time_ms);
    report.set(label, "wire_bytes", c.wire_bytes);
  };
  row("TLS 1.2, full, CF cert",
      fresh_resolution(TlsVersion::kTls12, false, cf));
  row("TLS 1.3, full, CF cert",
      fresh_resolution(TlsVersion::kTls13, false, cf));
  row("TLS 1.2, resumed, CF cert",
      fresh_resolution(TlsVersion::kTls12, true, cf));
  row("TLS 1.3, resumed (PSK), CF cert",
      fresh_resolution(TlsVersion::kTls13, true, cf));
  row("TLS 1.3, full, GO cert",
      fresh_resolution(TlsVersion::kTls13, false, go));
  row("TLS 1.3, resumed (PSK), GO cert",
      fresh_resolution(TlsVersion::kTls13, true, go));

  // --- EDNS0 padding (RFC 7830; RFC 8467 recommends 128-byte blocks for
  // queries). Padding trades bytes for uniformity: all queries look alike.
  std::printf("\n=== Ablation: EDNS0 padding of DoH queries (RFC 8467) "
              "===\n\n");
  // Mixed-length names, like a real browsing corpus (the size side channel
  // only matters when sizes vary).
  std::vector<workload::UniqueNameGenerator> generators;
  for (std::size_t len = 3; len <= 22; ++len) {
    generators.emplace_back("example.com", 9 + len, len);
  }
  std::vector<double> unpadded;
  std::vector<double> padded;
  std::set<std::size_t> unpadded_sizes;
  std::set<std::size_t> padded_sizes;
  for (int i = 0; i < 500; ++i) {
    auto query = dns::Message::make_query(
        0, generators[static_cast<std::size_t>(i) % generators.size()].next());
    unpadded.push_back(static_cast<double>(query.encode().size()));
    unpadded_sizes.insert(query.encode().size());
    query.pad_to_multiple(128);
    padded.push_back(static_cast<double>(query.encode().size()));
    padded_sizes.insert(query.encode().size());
  }
  dohperf::bench::print_box("query size, no padding", unpadded, "B");
  dohperf::bench::print_box("query size, 128B blocks", padded, "B");
  std::printf("\ndistinct sizes observable on the wire: %zu -> %zu "
              "(padding collapses the size side channel)\n",
              unpadded_sizes.size(), padded_sizes.size());
  report.set("padding", "unpadded_bytes", bench::box_json(unpadded));
  report.set("padding", "padded_bytes", bench::box_json(padded));
  report.set("padding", "unpadded_distinct_sizes",
             static_cast<std::int64_t>(unpadded_sizes.size()));
  report.set("padding", "padded_distinct_sizes",
             static_cast<std::int64_t>(padded_sizes.size()));
  bench::finish(output, report);
  return 0;
}
