// Chaos recovery demo: crash the DoH resolver mid-workload and watch the
// reconnecting client ride it out.
//
// A DoH (HTTP/2) client issues one query every 250ms for 8 seconds. At
// t=2s the resolver restarts — every live connection is reset and the
// listener is gone for 2s. The client's retry policy (exponential backoff,
// per-query budget) re-issues the stranded queries on fresh connections, so
// every query is eventually answered; the timeline printed per query shows
// which ones paid the outage and what the recovery cost in reconnects.
//
//   $ ./chaos_recovery
#include <cstdio>
#include <vector>

#include "core/doh_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "simnet/event_loop.hpp"
#include "simnet/host.hpp"

int main() {
  using namespace dohperf;

  simnet::EventLoop loop;
  simnet::Network net(loop, /*seed=*/11);
  simnet::Host client(net, "laptop");
  simnet::Host server(net, "resolver");
  simnet::LinkConfig link;
  link.latency = simnet::ms(10);
  net.connect(client.id(), server.id(), link);

  resolver::Engine engine(loop, {});
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh(server, engine, server_config, 443);

  core::DohClientConfig client_config;
  client_config.server_name = "cloudflare-dns.com";
  client_config.retry.max_retries = 8;
  client_config.retry.backoff_initial = simnet::ms(100);
  client_config.retry.backoff_max = simnet::seconds(1);
  client_config.retry.query_timeout = simnet::seconds(3);
  core::DohClient stub(client, {server.id(), 443}, client_config);

  std::printf("t=2.0s: resolver crashes (connections reset), back at 4.0s\n");
  loop.schedule_at(simnet::seconds(2),
                   [&]() { doh.restart(simnet::seconds(2)); });

  const int n = 32;
  std::vector<std::uint64_t> ids(n);
  for (int i = 0; i < n; ++i) {
    loop.schedule_at(simnet::ms(250) * i, [&, i]() {
      const std::string index = std::to_string(i);
      ids[i] = stub.resolve(
          dns::Name::parse("q" + index + ".example.com"),
          dns::RType::kA, {});
    });
  }
  loop.run();

  int ok = 0;
  for (int i = 0; i < n; ++i) {
    const auto& r = stub.result(ids[i]);
    if (r.success) ++ok;
    const double sent_s = simnet::to_sec(r.sent_at);
    const double took_ms = simnet::to_ms(r.resolution_time());
    std::printf("  query %2d  sent %4.2fs  %s in %8.1f ms%s\n", i, sent_s,
                r.success ? "answered" : "FAILED  ", took_ms,
                took_ms > 100.0 ? "   <- paid the outage" : "");
  }

  const auto& rs = stub.retry_stats();
  std::printf("\n%d/%d answered; %llu re-issued queries over %llu "
              "reconnects, %llu budgets exhausted\n",
              ok, n, static_cast<unsigned long long>(rs.retried_queries),
              static_cast<unsigned long long>(rs.reconnects),
              static_cast<unsigned long long>(rs.budget_exhausted));
  return 0;
}
