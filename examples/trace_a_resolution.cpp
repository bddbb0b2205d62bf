// Trace one DoH resolution with the observability layer: attach a Tracer
// and a metrics Registry via SpanContext, resolve a name, and print the
// span timeline (resolution → connect → tcp/tls handshake → request →
// response) plus the metrics snapshot. Optionally write a Chrome
// trace_event file to browse in chrome://tracing or ui.perfetto.dev.
//
//   $ ./trace_a_resolution [trace.json]
//
// Act two shows the production-rate hookup: a SamplingTracer keeps 1-in-N
// roots (deterministically, by query ordinal) so a warm batch of queries
// records only a sampled subset at full fidelity while metrics — and the
// obs.spans_sampled / obs.spans_dropped self-tallies — flow for every
// query. The pooled-storage counters (span slots, attribute arena,
// interned names) are printed at the end; bench/obs_overhead measures
// what this path costs per query.
//
// Act three drops to the packets: the full trace of one fresh-connection
// resolution, the simulated equivalent of running tcpdump next to the stub
// resolver, which is how the paper produced its byte accounting (Figs 3-5).
#include <cstdio>
#include <fstream>

#include "core/doh_client.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/sampling.hpp"
#include "obs/span.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "simnet/trace.hpp"

namespace {

using namespace dohperf;

/// Act three: one resolution over a fresh connection (teardown included),
/// seen by a RecordingTap on the network.
void print_packet_trace() {
  simnet::EventLoop loop;
  simnet::Network net(loop);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");
  simnet::LinkConfig link;
  link.latency = simnet::ms(10);
  net.connect(client.id(), server.id(), link);

  simnet::RecordingTap tap;
  net.add_tap(&tap);

  resolver::Engine engine(loop, {});
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh(server, engine, server_config, 443);

  core::DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  config.persistent = false;  // include teardown in the trace
  core::DohClient resolver_client(client, {server.id(), 443}, config);

  const auto id = resolver_client.resolve(
      dns::Name::parse("www.example.com"), dns::RType::kA, {});
  loop.run();
  net.remove_tap(&tap);

  std::printf("\npacket trace of one fresh-connection DoH resolution:\n\n%s",
              tap.render(net).c_str());
  std::printf("\n%zu packets, %llu bytes on the wire\n", tap.size(),
              static_cast<unsigned long long>(tap.total_bytes()));
  std::printf("client-side accounting (cost window may differ by a boundary "
              "ACK):\n  %s\n",
              resolver_client.result(id).cost.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {

  simnet::EventLoop loop;
  simnet::Network net(loop);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");
  simnet::LinkConfig link;
  link.latency = simnet::ms(10);
  net.connect(client.id(), server.id(), link);

  // The whole observability hookup: one tracer, one registry, one context.
  obs::Tracer tracer(loop);
  obs::Registry registry;
  const obs::SpanContext obs_ctx{&tracer, 0, &registry};

  resolver::EngineConfig engine_config;
  engine_config.obs = obs_ctx;  // engine-side counters (engine.queries, ...)
  resolver::Engine engine(loop, engine_config);
  resolver::DohServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::cloudflare();
  resolver::DohServer doh(server, engine, server_config, 443);

  core::DohClientConfig config;
  config.server_name = "cloudflare-dns.com";
  config.obs = obs_ctx;  // client-side spans + client.doh_h2.* metrics
  core::DohClient resolver_client(client, {server.id(), 443}, config);

  // Two queries: the first pays the TCP+TLS handshake, the second reuses
  // the connection — compare their `resolution` spans in the timeline.
  const auto first = resolver_client.resolve(
      dns::Name::parse("www.example.com"), dns::RType::kA, {});
  loop.run();
  const auto second = resolver_client.resolve(
      dns::Name::parse("cdn.example.com"), dns::RType::kA, {});
  loop.run();
  // result() finalizes the lazily computed per-layer costs onto the spans.
  (void)resolver_client.result(first);
  (void)resolver_client.result(second);

  std::printf("span timeline of two DoH resolutions (cold, then warm):\n\n%s",
              obs::render_timeline(tracer).c_str());
  std::printf("\nmetrics snapshot:\n%s", registry.render().c_str());

  // Act two: the same client at production rate. A SamplingTracer fronts a
  // fresh tracer and keeps 1-in-4 roots here (1-in-64+ in production); the
  // keep/drop decision hashes the query ordinal, so the kept subset is the
  // same on every run. Dropped queries pay only the null-check fast path.
  obs::Tracer sampled_tracer(loop);
  obs::Registry prod_registry;
  obs::SamplingTracer sampler(sampled_tracer, &prod_registry,
                              {/*period=*/4, /*seed=*/7});
  const int batch = 12;
  for (int i = 0; i < batch; ++i) {
    resolver_client.set_obs(sampler.root_context(std::uint64_t(i)));
    char host[32];
    std::snprintf(host, sizeof host, "s%d.example.com", i);
    const auto id = resolver_client.resolve(dns::Name::parse(host),
                                            dns::RType::kA, {});
    loop.run();
    (void)resolver_client.result(id);
  }

  std::printf("\nsampled timeline — %d of %d warm queries kept "
              "(period 4, seed 7):\n\n%s",
              int(prod_registry.counter("obs.spans_sampled")), batch,
              obs::render_timeline(sampled_tracer).c_str());
  std::printf("\nsampling self-metrics:\n  obs.spans_sampled %llu\n"
              "  obs.spans_dropped %llu\n",
              static_cast<unsigned long long>(
                  prod_registry.counter("obs.spans_sampled")),
              static_cast<unsigned long long>(
                  prod_registry.counter("obs.spans_dropped")));
  const obs::PoolStats pool = sampled_tracer.pool_stats();
  std::printf("pooled span storage:\n"
              "  spans %zu (capacity %zu)\n"
              "  attr slots %zu live / %zu allocated (%zu wasted)\n"
              "  interned names %zu\n",
              pool.spans, pool.span_capacity, pool.attr_entries,
              pool.attr_capacity, pool.attr_wasted, pool.interned_names);

  print_packet_trace();

  if (argc > 1) {
    std::ofstream out(argv[1], std::ios::binary);
    out << obs::chrome_trace_json(tracer) << '\n';
    std::printf("\nwrote %s — open it in chrome://tracing or "
                "https://ui.perfetto.dev\n", argv[1]);
  }
  return 0;
}
