// Ablation: how much of the persistent-connection header savings in Fig 5
// comes from HPACK's *dynamic table* (the "differential headers" feature)?
// Runs the HP/CF scenario with the dynamic table enabled and disabled and
// compares per-resolution HTTP header bytes.
#include <cstdio>

#include "bench_common.hpp"
#include "core/doh_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "workload/alexa.hpp"

namespace {

using namespace dohperf;

std::vector<double> run(bool dynamic_table, const std::vector<dns::Name>& names) {
  simnet::EventLoop loop;
  simnet::Network net(loop);
  simnet::Host client(net, "client");
  simnet::Host server(net, "CF");
  simnet::LinkConfig link;
  link.latency = simnet::ms(4);
  net.connect(client.id(), server.id(), link);

  resolver::Engine engine(loop, {});
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh(server, engine, server_config, 443);

  core::DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  config.h2.enable_hpack_dynamic_table = dynamic_table;
  core::DohClient resolver(client, {server.id(), 443}, config);

  std::vector<double> header_bytes;
  for (const auto& name : names) {
    const auto id = resolver.resolve(name, dns::RType::kA, {});
    loop.run();
    header_bytes.push_back(
        static_cast<double>(resolver.result(id).cost.http_header_bytes));
  }
  return header_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t count = flags.num("names", 500);
  const bench::Output output = flags.output();
  flags.reject_unknown();
  workload::AlexaPageModel model;
  std::vector<dns::Name> names;
  for (std::size_t rank = 1; names.size() < count; ++rank) {
    for (const auto& d : model.page(rank).unique_domains()) {
      names.push_back(d);
      if (names.size() >= count) break;
    }
  }

  std::printf("=== Ablation: HPACK dynamic table (persistent DoH/2, "
              "Cloudflare, %zu names) ===\n\n", count);
  const auto with_table = run(true, names);
  const auto without_table = run(false, names);
  bench::print_box("dynamic table ON", with_table, "B hdr/resolution");
  bench::print_box("dynamic table OFF", without_table, "B hdr/resolution");
  std::printf("\nmedian savings from differential headers: %.0f B per "
              "resolution (%.0f%%)\n",
              stats::median(without_table) - stats::median(with_table),
              100.0 * (1.0 - stats::median(with_table) /
                                 stats::median(without_table)));

  bench::BenchReport report("ablation_hpack");
  report.params["names"] = static_cast<std::int64_t>(count);
  report.set("dynamic_table_on", "http_header_bytes",
             bench::box_json(with_table));
  report.set("dynamic_table_off", "http_header_bytes",
             bench::box_json(without_table));
  bench::finish(output, report);
  return 0;
}
