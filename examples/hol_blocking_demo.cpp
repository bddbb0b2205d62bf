// Head-of-line-blocking demo (the paper's §3 in miniature).
//
// Sends five queries over DNS-over-TLS and over DoH/HTTP-2 while the
// resolver delays the second query by one second, and prints when each
// answer arrives. Watch the DoT answers queue up behind the delayed one
// while HTTP/2's streams deliver out of order.
//
//   $ ./hol_blocking_demo
#include <cstdio>
#include <string>

#include "core/doh_client.hpp"
#include "core/dot_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/dot_server.hpp"

namespace {

using namespace dohperf;

void run(const std::string& transport) {
  simnet::EventLoop loop;
  simnet::Network net(loop);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");
  simnet::LinkConfig link;
  link.latency = simnet::ms(5);
  net.connect(client.id(), server.id(), link);

  resolver::EngineConfig engine_config;
  engine_config.delay_policy.every_n = 2;  // delay query #2 (and #4...)
  engine_config.delay_policy.delay = simnet::ms(1000);
  resolver::Engine engine(loop, engine_config);

  resolver::DotServer dot(server, engine, {}, 853);
  resolver::DohServerConfig doh_config;
  resolver::DohServer doh(server, engine, doh_config, 443);

  std::unique_ptr<core::ResolverClient> resolver_client;
  if (transport == "DoT") {
    resolver_client = std::make_unique<core::DotClient>(
        client, simnet::Address{server.id(), 853});
  } else {
    resolver_client = std::make_unique<core::DohClient>(
        client, simnet::Address{server.id(), 443});
  }

  std::printf("--- %s (query 2 delayed 1000ms at the server) ---\n",
              transport.c_str());
  for (int i = 1; i <= 5; ++i) {
    const std::string index = std::to_string(i);
    const auto name = dns::Name::parse("q" + index + ".example.com");
    resolver_client->resolve(
        name, dns::RType::kA, [i, &loop](const core::ResolutionResult& r) {
          std::printf("  query %d answered at t=%7.1f ms (took %7.1f ms)\n",
                      i, simnet::to_ms(loop.now()),
                      simnet::to_ms(r.resolution_time()));
        });
  }
  loop.run();
  std::printf("\n");
}

}  // namespace

int main() {
  run("DoT");   // in-order: queries 3-5 blocked behind query 2
  run("DoH/2"); // multiplexed: only query 2 is slow
  std::printf("DoT serializes responses (RFC-permitted out-of-order replies\n"
              "were rare in 2019 deployments), so one slow query delays all\n"
              "that follow; HTTP/2 streams are independent.\n");
  return 0;
}
