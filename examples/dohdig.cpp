// dohdig — a dig-style command line over the simulated stack: resolve any
// name through a chosen transport and provider profile, printing the
// answer, timing and per-layer wire cost.
//
//   $ ./dohdig example.com
//   $ ./dohdig www.example.com --transport doh --provider GO --fresh
//   $ ./dohdig x.example --transport dot
//   $ ./dohdig x.example --transport doq --rtt 40
//   $ ./dohdig x.example --transport udp --trace
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/udp_server.hpp"
#include "simnet/trace.hpp"

namespace {

using namespace dohperf;

struct Options {
  std::string name = "example.com";
  std::string transport = "doh";  // udp | tcp | dot | doh | doh1 | doq
  std::string provider = "CF";    // CF | GO
  bool fresh = false;             // non-persistent DoH connection
  bool trace = false;
  long rtt_ms = 20;
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--transport") opt.transport = next();
    else if (arg == "--provider") opt.provider = next();
    else if (arg == "--fresh") opt.fresh = true;
    else if (arg == "--trace") opt.trace = true;
    else if (arg == "--rtt") opt.rtt_ms = std::strtol(next().c_str(), nullptr, 10);
    else if (arg == "--help" || arg == "-h") {
      std::printf("usage: dohdig [name] [--transport udp|tcp|dot|doh|doh1|doq]\n"
                  "              [--provider CF|GO] [--fresh] [--trace] [--rtt MS]\n");
      std::exit(0);
    } else if (!arg.empty() && arg[0] != '-') {
      opt.name = arg;
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  simnet::EventLoop loop;
  simnet::Network net(loop);
  simnet::Host client(net, "dohdig");
  simnet::Host server(net, "resolver");
  simnet::LinkConfig link;
  link.latency = simnet::ms(opt.rtt_ms / 2);
  net.connect(client.id(), server.id(), link);

  simnet::RecordingTap tap;
  if (opt.trace) net.add_tap(&tap);

  const bool google = opt.provider == "GO";
  resolver::EngineConfig engine_config;
  if (google) {
    engine_config.answer_count = 4;
    engine_config.ecs_option = true;
  }
  resolver::Engine engine(loop, engine_config);
  const auto chain = google ? tlssim::CertificateChain::google()
                            : tlssim::CertificateChain::cloudflare();
  const std::string hostname =
      google ? "dns.google.com" : "cloudflare-dns.com";

  resolver::UdpServer udp_server(server, engine, 53);
  resolver::DotServerConfig tcp_config;
  tcp_config.plain_tcp = true;
  resolver::DotServer tcp_server(server, engine, tcp_config, 53);
  resolver::DotServerConfig dot_config;
  dot_config.tls.chain = chain;
  resolver::DotServer dot_server(server, engine, dot_config, 853);
  resolver::DohServerConfig doh_config;
  doh_config.tls.chain = chain;
  resolver::DohServer doh_server(server, engine, doh_config, 443);
  resolver::DoqServerConfig doq_config;
  doq_config.tls.chain = chain;
  resolver::DoqServer doq_server(server, engine, doq_config, 8853);

  std::unique_ptr<core::ResolverClient> resolver_client;
  if (opt.transport == "udp") {
    resolver_client = std::make_unique<core::UdpResolverClient>(
        client, simnet::Address{server.id(), 53});
  } else if (opt.transport == "tcp" || opt.transport == "dot") {
    core::DotClientConfig config;
    config.server_name = hostname;
    config.plain_tcp = opt.transport == "tcp";
    const std::uint16_t port = config.plain_tcp ? 53 : 853;
    resolver_client = std::make_unique<core::DotClient>(
        client, simnet::Address{server.id(), port}, config);
  } else if (opt.transport == "doq") {
    core::DoqClientConfig config;
    config.server_name = hostname;
    resolver_client = std::make_unique<core::DoqClient>(
        client, simnet::Address{server.id(), 8853}, config);
  } else {
    core::DohClientConfig config;
    config.server_name = hostname;
    config.persistent = !opt.fresh;
    if (opt.transport == "doh1") {
      config.http_version = core::HttpVersion::kHttp1;
    }
    resolver_client = std::make_unique<core::DohClient>(
        client, simnet::Address{server.id(), 443}, config);
  }

  dns::Name qname;
  try {
    qname = dns::Name::parse(opt.name);
  } catch (const dns::WireError& e) {
    std::fprintf(stderr, "invalid name '%s': %s\n", opt.name.c_str(),
                 e.what());
    return 1;
  }

  std::printf(";; dohdig %s @%s via %s (RTT %ld ms%s)\n\n", opt.name.c_str(),
              hostname.c_str(), opt.transport.c_str(), opt.rtt_ms,
              opt.fresh ? ", fresh connection" : "");
  const auto id = resolver_client->resolve(
      qname, dns::RType::kA, [&](const core::ResolutionResult& r) {
        if (!r.success) {
          std::printf(";; resolution FAILED\n");
          return;
        }
        std::printf("%s", r.response.to_string().c_str());
        std::printf("\n;; Query time: %.1f ms\n",
                    simnet::to_ms(r.resolution_time()));
      });
  loop.run();

  const auto& result = resolver_client->result(id);
  if (result.cost.wire_bytes > 0) {
    std::printf(";; Wire cost: %s\n", result.cost.to_string().c_str());
  }
  if (opt.trace) {
    net.remove_tap(&tap);
    std::printf("\n;; packet trace:\n%s", tap.render(net).c_str());
  }
  return result.success ? 0 : 1;
}
