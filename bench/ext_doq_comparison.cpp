// EXTENSION bench: DNS-over-QUIC (RFC 9250) against the paper's transports.
//
// The paper ends at 2019, probing which providers answer QUIC on UDP 443
// (only Google did). This bench asks the question the paper sets up: what
// does QUIC buy secure DNS? Three comparisons:
//
//  1. Connection-setup latency: QUIC's combined transport+crypto handshake
//     is one RTT vs TCP+TLS1.3's two (and TCP+TLS1.2's three).
//  2. Bytes/packets per resolution, fresh and warm, vs DoT and DoH/2.
//  3. Head-of-line blocking *under packet loss*: with a delayed-query
//     workload all multiplexed transports look alike, but with loss the
//     TCP-based ones serialize recovery across all streams while QUIC
//     retransmits per packet and delivers unaffected streams immediately.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "workload/names.hpp"

namespace {

using namespace dohperf;

struct Rig {
  simnet::EventLoop loop;
  simnet::Network net{loop, 11};
  simnet::Host client{net, "client"};
  simnet::Host server{net, "resolver"};
  resolver::Engine engine{loop, {}};
  std::unique_ptr<resolver::DotServer> dot;
  std::unique_ptr<resolver::DohServer> doh;
  std::unique_ptr<resolver::DoqServer> doq;

  explicit Rig(simnet::TimeUs latency, double loss = 0.0,
               resolver::EngineConfig engine_config = {})
      : engine(loop, engine_config) {
    simnet::LinkConfig link;
    link.latency = latency;
    link.loss_rate = loss;
    net.connect(client.id(), server.id(), link);
    const auto chain = tlssim::CertificateChain::cloudflare();
    resolver::DotServerConfig dot_config;
    dot_config.tls.chain = chain;
    dot = std::make_unique<resolver::DotServer>(server, engine, dot_config,
                                                853);
    resolver::DohServerConfig doh_config;
    doh_config.tls.chain = chain;
    doh = std::make_unique<resolver::DohServer>(server, engine, doh_config,
                                                443);
    resolver::DoqServerConfig doq_config;
    doq_config.tls.chain = chain;
    doq = std::make_unique<resolver::DoqServer>(server, engine, doq_config,
                                                8853);
  }

  std::unique_ptr<core::ResolverClient> make_client(
      const std::string& transport) {
    if (transport == "DoT") {
      core::DotClientConfig c;
      c.server_name = "cloudflare-dns.com";
      return std::make_unique<core::DotClient>(
          client, simnet::Address{server.id(), 853}, c);
    }
    if (transport == "DoH/2") {
      core::DohClientConfig c;
      c.server_name = "cloudflare-dns.com";
      return std::make_unique<core::DohClient>(
          client, simnet::Address{server.id(), 443}, c);
    }
    core::DoqClientConfig c;
    c.server_name = "cloudflare-dns.com";
    return std::make_unique<core::DoqClient>(
        client, simnet::Address{server.id(), 8853}, c);
  }
};

void setup_latency(bench::BenchReport& report) {
  std::printf("--- 1. cold-start resolution time (20ms RTT link) ---\n");
  for (const char* transport : {"DoT", "DoH/2", "DoQ"}) {
    Rig rig(simnet::ms(10));
    auto client = rig.make_client(transport);
    simnet::TimeUs cold = 0, warm = 0;
    client->resolve(dns::Name::parse("cold.example.com"), dns::RType::kA,
                    [&](const core::ResolutionResult& r) {
                      cold = r.resolution_time();
                    });
    rig.loop.run();
    client->resolve(dns::Name::parse("warm.example.com"), dns::RType::kA,
                    [&](const core::ResolutionResult& r) {
                      warm = r.resolution_time();
                    });
    rig.loop.run();
    std::printf("%-8s cold=%6.1fms (%d RTTs)   warm=%6.1fms\n", transport,
                simnet::to_ms(cold),
                static_cast<int>(simnet::to_ms(cold) / 20.0 + 0.5),
                simnet::to_ms(warm));
    report.set(transport, "cold_ms", simnet::to_ms(cold));
    report.set(transport, "warm_ms", simnet::to_ms(warm));
  }
}

void per_resolution_cost(std::size_t queries, bench::BenchReport& report) {
  std::printf("\n--- 2. wire cost per warm resolution (%zu queries) ---\n",
              queries);
  workload::UniqueNameGenerator names("example.com", 3);
  const auto name_list = names.generate(queries);

  // DoQ: counters from the QUIC connection.
  {
    Rig rig(simnet::ms(10));
    auto client = rig.make_client("DoQ");
    auto* doq = dynamic_cast<core::DoqClient*>(client.get());
    client->resolve(dns::Name::parse("warmup.example.com"), dns::RType::kA,
                    {});
    rig.loop.run();
    const auto start = *doq->quic_counters();
    for (const auto& n : name_list) {
      client->resolve(n, dns::RType::kA, {});
      rig.loop.run();
    }
    const auto end = *doq->quic_counters();
    const double bytes_per_query =
        static_cast<double>(end.total_wire_bytes() -
                            start.total_wire_bytes()) /
        static_cast<double>(queries);
    const double packets_per_query =
        static_cast<double>(end.total_packets() - start.total_packets()) /
        static_cast<double>(queries);
    std::printf("DoQ      %6.0f B, %4.1f packets per query\n",
                bytes_per_query, packets_per_query);
    report.set("DoQ", "warm_bytes_per_query", bytes_per_query);
    report.set("DoQ", "warm_packets_per_query", packets_per_query);
  }
  // DoH/2 persistent for comparison.
  {
    Rig rig(simnet::ms(10));
    core::DohClientConfig c;
    c.server_name = "cloudflare-dns.com";
    core::DohClient client(rig.client, {rig.server.id(), 443}, c);
    client.resolve(dns::Name::parse("warmup.example.com"), dns::RType::kA,
                   {});
    rig.loop.run();
    std::uint64_t bytes = 0, packets = 0;
    for (const auto& n : name_list) {
      const auto id = client.resolve(n, dns::RType::kA, {});
      rig.loop.run();
      bytes += client.result(id).cost.wire_bytes;
      packets += client.result(id).cost.packets;
    }
    const double bytes_per_query =
        static_cast<double>(bytes) / static_cast<double>(queries);
    const double packets_per_query =
        static_cast<double>(packets) / static_cast<double>(queries);
    std::printf("DoH/2    %6.0f B, %4.1f packets per query\n",
                bytes_per_query, packets_per_query);
    report.set("DoH/2", "warm_bytes_per_query", bytes_per_query);
    report.set("DoH/2", "warm_packets_per_query", packets_per_query);
  }
}

void hol_under_loss(double loss, std::size_t queries,
                    bench::BenchReport& report) {
  std::printf("\n--- 3. resolution times under %.0f%% packet loss "
              "(%zu queries, 20 q/s) ---\n", loss * 100.0, queries);
  for (const char* transport : {"DoT", "DoH/2", "DoQ"}) {
    resolver::EngineConfig engine_config;
    engine_config.upstream.processing = simnet::us(100);
    Rig rig(simnet::ms(10), loss, engine_config);
    auto client = rig.make_client(transport);
    stats::PoissonArrivals arrivals(20.0, 31);
    const auto times = arrivals.arrival_times(queries);
    std::vector<double> res_ms;
    res_ms.resize(queries, -1.0);
    workload::UniqueNameGenerator names("example.com", 5);
    for (std::size_t i = 0; i < queries; ++i) {
      rig.loop.schedule_at(
          simnet::from_sec(times[i]), [&, i, name = names.next()]() {
            client->resolve(name, dns::RType::kA,
                            [&, i](const core::ResolutionResult& r) {
                              if (r.success) {
                                res_ms[i] = simnet::to_ms(r.resolution_time());
                              }
                            });
          });
    }
    rig.loop.run();
    std::vector<double> ok;
    for (const double v : res_ms) {
      if (v >= 0) ok.push_back(v);
    }
    std::printf("%-8s answered=%3zu/%zu med=%7.1fms p90=%8.1fms "
                "p99=%8.1fms\n",
                transport, ok.size(), queries, stats::percentile(ok, 50),
                stats::percentile(ok, 90), stats::percentile(ok, 99));
    report.set(transport, "lossy_answered",
               static_cast<std::int64_t>(ok.size()));
    report.set(transport, "lossy_resolution_ms", bench::box_json(ok));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t queries = flags.num("queries", 200);
  const bench::Output output = flags.output();
  flags.reject_unknown();
  std::printf("=== Extension: DNS-over-QUIC vs the paper's transports ===\n\n");
  bench::BenchReport report("ext_doq_comparison");
  report.params["queries"] = static_cast<std::int64_t>(queries);
  setup_latency(report);
  per_resolution_cost(queries, report);
  hol_under_loss(0.05, queries, report);
  std::printf(
      "\nDoQ completes its handshake a full RTT before DoT/DoH (combined\n"
      "transport+crypto), matches DoH/2's immunity to slow queries, and\n"
      "under loss avoids TCP's cross-stream retransmission stalls — the\n"
      "transport-level head-of-line blocking HTTP/2 cannot escape.\n");
  bench::finish(output, report);
  return 0;
}
