// Microbenchmark for the simulation core itself: raw event-loop
// schedule/fire and schedule/cancel throughput, bytes/sec through a full
// tcp -> tls -> h2 echo path, fig6-style page-load shard throughput at
// several --jobs values, the fig1 corpus scan (dns::Name parsing, sorting
// and run merging) with its allocations per page, the resolver tier's
// cache under churn with its evictions and allocations per query, and one
// DoH/h2 and one DoQ exchange on a warm connection with their allocations.
//
// Unlike the figure harnesses, the numbers here are wall-clock derived and
// therefore machine-dependent: micro_simcore (like micro_codecs) is exempt
// from the byte-identical-JSON rule. The shard scenarios additionally emit
// a virtual-time digest of the merged results, which MUST be identical
// across --jobs values — the runner merges by shard index, so parallelism
// may never change results, only wall-clock.
//
// This file seeds the BENCH_*.json perf trajectory: run with
//   micro_simcore --json=BENCH_simcore.json
// and diff two snapshots with tools/perf_compare.
#include <algorithm>
#include <chrono>  // detlint: allow(DET001) wall-clock timing is the measurement here
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "browser/page_load.hpp"
#include "obs/bridge.hpp"
#include "browser/vantage.hpp"
#include "browser/web_farm.hpp"
#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/udp_client.hpp"
#include "http2/connection.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/engine.hpp"
#include "resolver/recursive_tier.hpp"
#include "resolver/udp_server.hpp"
#include "shard_runner.hpp"
#include "simnet/event_loop.hpp"
#include "simnet/host.hpp"
#include "simnet/network.hpp"
#include "stats/rng.hpp"
#include "tlssim/connection.hpp"
#include "workload/alexa.hpp"

namespace {

using namespace dohperf;

/// Seconds of real time since an arbitrary epoch.
double now_sec() {
  // detlint: allow(DET001) microbenchmark measures real elapsed time
  using clock = std::chrono::steady_clock;
  // detlint: allow(DET001) microbenchmark measures real elapsed time
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// --- event-loop schedule/fire -----------------------------------------------

/// A self-rescheduling timer chain, the shape of RTO/delayed-ack timers and
/// packet-delivery events that dominate real simulations.
struct TimerChain {
  simnet::EventLoop* loop;
  stats::SplitMix64* rng;
  std::uint64_t remaining;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    loop->schedule_in(1 + (rng->next() % 997), [this]() { fire(); });
  }
};

double bench_schedule_fire(std::uint64_t events) {
  simnet::EventLoop loop;
  stats::SplitMix64 rng(42);
  constexpr std::size_t kChains = 64;  // events interleave across timers
  std::vector<TimerChain> chains;
  chains.reserve(kChains);
  for (std::size_t i = 0; i < kChains; ++i) {
    chains.push_back(TimerChain{&loop, &rng, events / kChains});
  }
  const double t0 = now_sec();
  for (auto& c : chains) c.fire();
  loop.run();
  const double elapsed = now_sec() - t0;
  const auto fired = static_cast<double>(loop.executed());
  return fired / elapsed;
}

/// Schedule two, cancel one — the arm/disarm churn of RTO and delayed-ACK
/// timers. Throughput counts scheduled events (fired + cancelled).
double bench_schedule_cancel(std::uint64_t events) {
  simnet::EventLoop loop;
  stats::SplitMix64 rng(43);
  std::uint64_t scheduled = 0;
  struct Churn {
    simnet::EventLoop* loop;
    stats::SplitMix64* rng;
    std::uint64_t* scheduled;
    std::uint64_t remaining;
    simnet::EventId shadow;

    void fire() {
      loop->cancel(shadow);
      if (remaining == 0) return;
      --remaining;
      *scheduled += 2;
      loop->schedule_in(1 + (rng->next() % 499), [this]() { fire(); });
      // The shadow timer never fires: it is re-cancelled on the next tick,
      // like an RTO disarmed by an ACK.
      shadow = loop->schedule_in(100000 + (rng->next() % 499),
                                 []() {});
    }
  };
  constexpr std::size_t kChains = 64;
  std::vector<Churn> chains;
  chains.reserve(kChains);
  for (std::size_t i = 0; i < kChains; ++i) {
    chains.push_back(Churn{&loop, &rng, &scheduled, events / kChains / 2,
                           simnet::EventId{}});
  }
  const double t0 = now_sec();
  for (auto& c : chains) c.fire();
  loop.run();
  const double elapsed = now_sec() - t0;
  return static_cast<double>(scheduled) / elapsed;
}

// --- tcp -> tls -> h2 echo path ---------------------------------------------

struct EchoResult {
  std::uint64_t app_bytes = 0;
  double wall_sec = 0.0;
};

/// Sequential POSTs over one h2-over-TLS-over-TCP connection; the server
/// answers each with `body_bytes` of payload. Exercises the whole layered
/// send/receive path the figures depend on.
EchoResult bench_echo_path(std::size_t requests, std::size_t body_bytes) {
  simnet::EventLoop loop;
  simnet::Network net(loop, 7);
  simnet::Host client(net, "client");
  simnet::Host server(net, "server");
  simnet::LinkConfig link;
  link.latency = simnet::ms(5);
  net.connect(client.id(), server.id(), link);

  tlssim::ServerConfig tls_server_config;
  tls_server_config.alpn_preference = {"h2"};

  std::unique_ptr<http2::Http2Connection> server_conn;
  server.tcp_listen(443, [&](std::shared_ptr<simnet::TcpConnection> c) {
    auto tls = std::make_unique<tlssim::TlsConnection>(
        std::make_unique<simnet::TcpByteStream>(std::move(c)),
        &tls_server_config);
    server_conn = std::make_unique<http2::Http2Connection>(
        std::move(tls), http2::Http2Connection::Role::kServer);
    server_conn->set_request_handler(
        [body_bytes](const http2::H2Message&,
                     http2::Http2Connection::Responder respond) {
          http2::H2Message response;
          response.headers.push_back({":status", "200"});
          response.body = dns::Bytes(body_bytes, 0x5a);
          respond(std::move(response));
        });
  });

  tlssim::ClientConfig tls_client_config;
  tls_client_config.sni = "echo.example";
  tls_client_config.alpn = {"h2"};
  auto client_conn = std::make_unique<http2::Http2Connection>(
      std::make_unique<tlssim::TlsConnection>(
          std::make_unique<simnet::TcpByteStream>(
              client.tcp_connect({server.id(), 443})),
          tls_client_config),
      http2::Http2Connection::Role::kClient);

  EchoResult result;
  std::size_t outstanding = requests;
  std::function<void()> issue = [&]() {
    http2::H2Message request;
    request.headers = {{":method", "POST"},
                       {":scheme", "https"},
                       {":authority", "echo.example"},
                       {":path", "/echo"}};
    request.body = dns::Bytes(100, 0x42);
    client_conn->request(std::move(request),
                         [&](const http2::H2Message& response) {
                           result.app_bytes += response.body.size();
                           if (--outstanding > 0) issue();
                         });
  };

  const double t0 = now_sec();
  issue();
  loop.run();
  result.wall_sec = now_sec() - t0;
  return result;
}

// --- fig6-style page-load shards --------------------------------------------

// detlint: hot-slot
struct alignas(64) ShardOutput {
  std::int64_t digest_us = 0;  ///< virtual-time digest; --jobs invariant
  std::uint64_t loads = 0;
};

/// One shard: a fig6-style UDP-resolver page-load run from one PlanetLab
/// vantage, self-contained and seeded by shard index alone.
ShardOutput run_page_shard(std::size_t shard_index, std::size_t pages) {
  const auto vantage =
      browser::Vantage::planetlab(static_cast<int>(shard_index));
  const std::uint64_t seed = 9000 + shard_index;

  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host browser_host(net, "browser");
  simnet::Host resolver_host(net, "resolver");
  simnet::LinkConfig resolver_link;
  resolver_link.latency = vantage.cloudflare_latency;
  net.connect(browser_host.id(), resolver_host.id(), resolver_link);

  resolver::EngineConfig engine_config;
  engine_config.upstream = vantage.cloud_resolver;
  engine_config.seed = seed ^ 0xabcd;
  resolver::Engine engine(loop, engine_config);
  resolver::UdpServer udp_server(resolver_host, engine, 53);

  core::UdpClientConfig client_config;
  core::UdpResolverClient resolver_client(
      browser_host, simnet::Address{resolver_host.id(), 53}, client_config);

  browser::WebFarmConfig farm_config;
  farm_config.base_latency = vantage.origin_base_latency;
  farm_config.latency_jitter = vantage.origin_latency_jitter;
  farm_config.bandwidth_bps = vantage.access_bandwidth_bps;
  farm_config.seed = seed;
  browser::WebFarm farm(net, browser_host, farm_config);

  workload::AlexaPageModel model;
  ShardOutput out;
  for (std::size_t rank = 1; rank <= pages; ++rank) {
    const auto page = model.page(rank);
    browser::PageLoader loader(browser_host, farm, resolver_client, {});
    bool finished = false;
    browser::PageLoadResult page_result;
    loader.load(page, [&](const browser::PageLoadResult& r) {
      page_result = r;
      finished = true;
    });
    loop.run();
    if (finished && page_result.success) {
      out.digest_us += static_cast<std::int64_t>(page_result.cumulative_dns) +
                       static_cast<std::int64_t>(page_result.onload_time());
      ++out.loads;
    }
  }
  return out;
}

// --- fig1-style corpus scan -------------------------------------------------

struct CorpusRun {
  double pages_per_sec = 0.0;
  std::uint64_t arena_allocs = 0;  ///< deterministic for a given rank range
  std::uint64_t total_queries = 0;
  std::uint64_t unique_domains = 0;
};

/// Ranks [1, pages] scanned in 16 corpus_shard calls (each with its own
/// model, as in fig1, and every model sharing one popularity table) and
/// merged. The scan is the domain draw, dns::Name formatting and
/// comparison: each shard sorts its pages' names by order key into one
/// counted run, and the merge joins the runs. Its allocation count per page
/// is the deterministic figure CI gates.
CorpusRun bench_corpus(std::size_t pages, std::size_t jobs) {
  using Shard = workload::AlexaPageModel::CorpusShard;
  constexpr std::size_t shards = 16;
  const std::size_t per_shard = (pages + shards - 1) / shards;
  simnet::ShardMemoryStats mem;
  const double t0 = now_sec();
  auto parts = bench::run_sharded<Shard>(
      shards, jobs,
      [&](std::size_t i) {
        workload::AlexaPageModel model;
        const std::size_t lo = 1 + i * per_shard;
        return model.corpus_shard(lo, std::min(pages, lo + per_shard - 1));
      },
      &mem);
  const auto stats =
      workload::AlexaPageModel::merge_corpus_shards(std::move(parts));
  CorpusRun run;
  run.pages_per_sec = static_cast<double>(pages) / (now_sec() - t0);
  run.arena_allocs = mem.arena_allocs + mem.huge_allocs;
  run.total_queries = stats.total_queries;
  run.unique_domains = stats.unique_domains;
  return run;
}

// --- resolver tier cache churn ----------------------------------------------

/// Queries in the tier/churn stream: 20 s of virtual time at 2,000 q/s.
constexpr std::size_t kTierQueries = 40000;

struct TierArrival {
  simnet::TimeUs at = 0;
  dns::Name name;
};

/// perfbench resolve's query mix, without its network: Poisson arrivals at
/// 2,000 q/s of virtual time, names Zipf-drawn from the Alexa third-party
/// pool plus 15 % one-off page primaries.
std::vector<TierArrival> tier_stream() {
  const workload::AlexaPageModel model;
  const stats::ZipfSampler zipf(model.config().third_party_pool,
                                model.config().zipf_exponent, 0);
  stats::SplitMix64 rng(0x7469657263687572ULL);
  std::vector<TierArrival> arrivals;
  arrivals.reserve(kTierQueries);
  double t_us = 0.0;
  std::size_t next_primary = 1000000;
  for (std::size_t i = 0; i < kTierQueries; ++i) {
    t_us += -std::log(1.0 - rng.next_double()) * 1e6 / 2000.0;
    TierArrival a;
    a.at = static_cast<simnet::TimeUs>(t_us);
    a.name = rng.next_double() < 0.15
                 ? workload::AlexaPageModel::primary_domain(next_primary++)
                 : model.third_party_domain(zipf.sample(rng) - 1);
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

// detlint: hot-slot
struct alignas(64) TierShard {
  std::uint64_t answered = 0;  ///< NOERROR answers
  std::uint64_t evictions = 0;
};

struct TierChurnRun {
  double queries_per_sec = 0.0;
  std::uint64_t answered = 0;
  std::uint64_t evictions = 0;
  std::uint64_t arena_allocs = 0;  ///< deterministic for the fixed stream
};

/// The stream through RecursiveTier::handle into an Engine on one event
/// loop, in one arena shard: 2 s TTLs churn a 2,048-entry cache, so about
/// one insert in three evicts.
TierChurnRun bench_tier_churn() {
  const std::vector<TierArrival> arrivals = tier_stream();
  simnet::ShardMemoryStats mem;
  const double t0 = now_sec();
  const auto shards = bench::run_sharded<TierShard>(
      1, 1,
      [&arrivals](std::size_t) {
        simnet::EventLoop loop;
        resolver::EngineConfig engine_config;
        engine_config.ttl = 2;
        engine_config.upstream.cache_hit_ratio = 0.0;  // the tier is the cache
        engine_config.seed = 13;
        resolver::Engine engine(loop, engine_config);
        resolver::TierConfig tier_config;
        tier_config.workers = 64;  // capacity far above 2,000 q/s
        tier_config.cache_entries = 2048;
        resolver::RecursiveTier tier(loop, engine, tier_config);
        TierShard out;
        for (std::size_t i = 0; i < arrivals.size(); ++i) {
          loop.schedule_at(arrivals[i].at, [&, i]() {
            tier.handle(dns::Message::make_query(static_cast<std::uint16_t>(i),
                                                 arrivals[i].name),
                        {}, [&out](dns::Message response) {
                          if (response.flags.rcode == dns::Rcode::kNoError) {
                            ++out.answered;
                          }
                        });
          });
        }
        loop.run();
        out.evictions = tier.stats().cache_evictions;
        return out;
      },
      &mem);
  TierChurnRun run;
  run.queries_per_sec =
      static_cast<double>(arrivals.size()) / (now_sec() - t0);
  run.answered = shards[0].answered;
  run.evictions = shards[0].evictions;
  run.arena_allocs = mem.arena_allocs + mem.huge_allocs;
  return run;
}

// --- one DoH/h2 or DoQ exchange ------------------------------------------------

/// Exchanges in each pass of the doh/exchange and doq/exchange streams.
constexpr std::size_t kExchanges = 2000;

// detlint: hot-slot
struct alignas(64) ExchangeShard {
  std::uint64_t answered = 0;      ///< successful resolutions, both passes
  std::uint64_t arena_allocs = 0;  ///< during the second pass
};

struct ExchangeRun {
  double exchanges_per_sec = 0.0;
  std::uint64_t answered = 0;
  std::uint64_t arena_allocs = 0;  ///< deterministic for the fixed stream
};

/// Queries for Alexa third-party names, one at a time and each run until
/// the loop is idle, over one persistent connection from a `Client` to a
/// `Server` in front of an Engine, in one arena shard. The first pass opens
/// the connection (DoH/h2 also fills both HPACK tables); the second counts
/// what a warm exchange allocates on both ends: the transport's framing,
/// the DNS codec and the Engine's answer.
template <typename Server, typename ServerConfig, typename Client,
          typename ClientConfig>
ExchangeRun bench_exchange(std::uint16_t port) {
  const workload::AlexaPageModel model;
  std::vector<dns::Name> names;
  names.reserve(kExchanges);
  for (std::size_t i = 0; i < kExchanges; ++i) {
    names.push_back(model.third_party_domain(i));
  }
  simnet::ShardMemoryStats mem;
  const double t0 = now_sec();
  const auto shards = bench::run_sharded<ExchangeShard>(
      1, 1,
      [&names, port](std::size_t) {
        simnet::EventLoop loop;
        simnet::Network net(loop, 7);
        simnet::Host client(net, "client");
        simnet::Host server(net, "server");
        simnet::LinkConfig link;
        link.latency = simnet::ms(5);
        net.connect(client.id(), server.id(), link);
        resolver::Engine engine(loop, {});
        ServerConfig server_config;
        server_config.tls.chain =
            tlssim::CertificateChain::generic("local.resolver");
        Server resolver_server(server, engine, server_config, port);
        ClientConfig config;
        config.server_name = "local.resolver";
        Client stub(client, {server.id(), port}, config);
        ExchangeShard out;
        const auto pass = [&]() {
          for (const dns::Name& name : names) {
            stub.resolve(name, dns::RType::kA,
                         [&out](const core::ResolutionResult& r) {
                           out.answered += r.success ? 1 : 0;
                         });
            loop.run();
          }
        };
        pass();
        const auto allocs = []() {
          const simnet::ShardMemoryStats s = simnet::current_arena()->stats();
          return s.arena_allocs + s.huge_allocs;
        };
        const std::uint64_t before = allocs();
        pass();
        out.arena_allocs = allocs() - before;
        return out;
      },
      &mem);
  ExchangeRun run;
  run.exchanges_per_sec =
      static_cast<double>(2 * kExchanges) / (now_sec() - t0);
  run.answered = shards[0].answered;
  run.arena_allocs = shards[0].arena_allocs;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::uint64_t events = flags.num("events", 2000000);
  const std::size_t echo_requests = flags.num("echo-requests", 50);
  const std::size_t echo_bytes = flags.num("echo-bytes", 262144);
  const std::size_t shards = flags.num("shards", 12);
  const std::size_t shard_pages = flags.num("shard-pages", 3);
  const std::size_t corpus_pages = flags.num("corpus-pages", 16000);
  const bench::Output output = flags.output();
  flags.reject_unknown();

  std::printf("=== micro_simcore: simulation-core throughput ===\n\n");

  bench::BenchReport report("micro_simcore");
  report.params["events"] = static_cast<std::int64_t>(events);
  report.params["echo_requests"] = static_cast<std::int64_t>(echo_requests);
  report.params["echo_bytes"] = static_cast<std::int64_t>(echo_bytes);
  report.params["shards"] = static_cast<std::int64_t>(shards);
  report.params["shard_pages"] = static_cast<std::int64_t>(shard_pages);
  report.params["corpus_pages"] = static_cast<std::int64_t>(corpus_pages);

  const double fire_rate = bench_schedule_fire(events);
  std::printf("event_loop schedule/fire   : %12.0f events/sec\n", fire_rate);
  report.set("event_loop", "schedule_fire_events_per_sec", fire_rate);

  const double cancel_rate = bench_schedule_cancel(events);
  std::printf("event_loop schedule/cancel : %12.0f events/sec\n",
              cancel_rate);
  report.set("event_loop", "schedule_cancel_events_per_sec", cancel_rate);

  const EchoResult echo = bench_echo_path(echo_requests, echo_bytes);
  const double echo_rate =
      static_cast<double>(echo.app_bytes) / echo.wall_sec;
  std::printf("tcp->tls->h2 echo path     : %12.0f bytes/sec "
              "(%llu app bytes)\n",
              echo_rate, static_cast<unsigned long long>(echo.app_bytes));
  report.set("byte_path", "echo_bytes_per_sec", echo_rate);
  report.set("byte_path", "app_bytes",
             static_cast<std::int64_t>(echo.app_bytes));

  // Shard throughput at several --jobs values. The digest is derived from
  // virtual time only and must be identical at every jobs value. Arena
  // accounting from the last (jobs=8) run lands in the mem.* gauges: the
  // hot path served zero global-heap allocations when mem.global_allocs
  // stays near the per-worker warm-up chunk count.
  std::int64_t reference_digest = 0;
  double reference_allocs_per_load = 0.0;
  double serial_rate = 0.0;
  obs::Registry registry;
  simnet::ShardMemoryStats mem_stats;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4},
                                 std::size_t{8}}) {
    mem_stats = simnet::ShardMemoryStats{};
    const double t0 = now_sec();
    const auto outputs = bench::run_sharded<ShardOutput>(
        shards, jobs,
        [shard_pages](std::size_t i) { return run_page_shard(i, shard_pages); },
        &mem_stats);
    const double elapsed = now_sec() - t0;
    std::int64_t digest = 0;
    std::uint64_t loads = 0;
    for (const auto& o : outputs) {
      digest += o.digest_us;
      loads += o.loads;
    }
    // Allocations per completed load: a pure function of the shard
    // workload, so like the digest it may not move with the jobs value.
    const double allocs_per_load =
        static_cast<double>(mem_stats.arena_allocs + mem_stats.huge_allocs) /
        static_cast<double>(std::max<std::uint64_t>(loads, 1));
    if (jobs == 1) {
      reference_digest = digest;
      reference_allocs_per_load = allocs_per_load;
    } else if (digest != reference_digest) {
      std::fprintf(stderr,
                   "FATAL: shard digest changed at --jobs %zu "
                   "(%lld != %lld): parallelism leaked into results\n",
                   jobs, static_cast<long long>(digest),
                   static_cast<long long>(reference_digest));
      return 1;
    } else if (allocs_per_load != reference_allocs_per_load) {
      std::fprintf(stderr,
                   "FATAL: arena allocations per load changed at --jobs %zu "
                   "(%.2f != %.2f): parallelism leaked into the allocation "
                   "count\n",
                   jobs, allocs_per_load, reference_allocs_per_load);
      return 1;
    }
    const double rate = static_cast<double>(shards) / elapsed;
    std::printf("page-load shards (jobs=%zu) : %12.2f shards/sec "
                "(%llu loads, digest %lld us)\n",
                jobs, rate, static_cast<unsigned long long>(loads),
                static_cast<long long>(digest));
    const std::string scenario = "shards/jobs" + std::to_string(jobs);
    report.set(scenario, "shards_per_sec", rate);
    report.set(scenario, "digest_us", digest);
    // Jobs-scaling speedups vs the serial run, for the CI scaling gates
    // (absolute thresholds live in .github/workflows/ci.yml).
    // efficiency_jobsN = speedup / min(N, hardware threads): 1.0 is perfect
    // scaling on this machine, and on 8-way hardware the paper-scale target
    // "jobs8 >= 6x jobs1" is efficiency_jobs8 >= 0.75. Normalising by the
    // thread count keeps the gate meaningful on small CI runners, where a
    // raw 6x is physically impossible.
    if (jobs == 1) {
      serial_rate = rate;
    } else if (serial_rate > 0.0) {
      const double speedup = rate / serial_rate;
      const double capacity = static_cast<double>(
          std::min(jobs, bench::default_jobs()));
      report.set("shards/scaling", "speedup_jobs" + std::to_string(jobs),
                 speedup);
      report.set("shards/scaling", "efficiency_jobs" + std::to_string(jobs),
                 speedup / capacity);
    }
  }

  // Arena accounting for the jobs=8 run (8 workers, one arena each).
  std::printf("\narena: %llu allocs (%llu recycled), %llu chunks / "
              "%llu bytes, %llu huge, %llu global heap hits\n",
              static_cast<unsigned long long>(mem_stats.arena_allocs),
              static_cast<unsigned long long>(mem_stats.freelist_hits),
              static_cast<unsigned long long>(mem_stats.arena_chunks),
              static_cast<unsigned long long>(mem_stats.arena_bytes),
              static_cast<unsigned long long>(mem_stats.huge_allocs),
              static_cast<unsigned long long>(mem_stats.global_allocs));
  obs::publish_arena_stats(registry, mem_stats);
  // Mirror the counters into a scenario so CI's perf_compare can gate on
  // them with dot-paths (gauge names themselves contain dots). All values
  // are allocation counts — deterministic for a given flag set, so gates
  // on them are exact, not statistical.
  report.set("shards/mem", "arena_allocs",
             static_cast<std::int64_t>(mem_stats.arena_allocs));
  report.set("shards/mem", "arena_chunks",
             static_cast<std::int64_t>(mem_stats.arena_chunks));
  report.set("shards/mem", "arena_bytes",
             static_cast<std::int64_t>(mem_stats.arena_bytes));
  report.set("shards/mem", "freelist_hits",
             static_cast<std::int64_t>(mem_stats.freelist_hits));
  report.set("shards/mem", "huge_allocs",
             static_cast<std::int64_t>(mem_stats.huge_allocs));
  report.set("shards/mem", "global_allocs",
             static_cast<std::int64_t>(mem_stats.global_allocs));
  std::printf("page-load shards            : %12.2f arena allocs/load\n",
              reference_allocs_per_load);
  report.set("shards/mem", "arena_allocs_per_load", reference_allocs_per_load);

  // The fig1 corpus scan, serial and on four workers. Pages per second is
  // informational; allocations per page are a pure function of the rank
  // range (CI gates them) and must not move with the jobs value.
  const CorpusRun corpus = bench_corpus(corpus_pages, 1);
  const CorpusRun corpus4 = bench_corpus(corpus_pages, 4);
  if (corpus4.arena_allocs != corpus.arena_allocs ||
      corpus4.total_queries != corpus.total_queries ||
      corpus4.unique_domains != corpus.unique_domains) {
    std::fprintf(stderr,
                 "FATAL: corpus scan changed at --jobs 4: parallelism leaked "
                 "into results or allocation counts\n");
    return 1;
  }
  const double allocs_per_page = static_cast<double>(corpus.arena_allocs) /
                                 static_cast<double>(corpus_pages);
  std::printf("names/corpus (jobs=1)      : %12.0f pages/sec\n",
              corpus.pages_per_sec);
  std::printf("names/corpus (jobs=4)      : %12.0f pages/sec\n",
              corpus4.pages_per_sec);
  std::printf("names/corpus               : %12.2f arena allocs/page "
              "(%llu queries, %llu unique names)\n",
              allocs_per_page,
              static_cast<unsigned long long>(corpus.total_queries),
              static_cast<unsigned long long>(corpus.unique_domains));
  report.set("names/corpus", "pages_per_sec", corpus.pages_per_sec);
  report.set("names/corpus", "pages_per_sec_jobs4", corpus4.pages_per_sec);
  report.set("names/corpus", "arena_allocs_per_page", allocs_per_page);

  // The resolver tier under churn. Queries per second is informational;
  // evictions and allocations per query are a pure function of the fixed
  // stream (CI gates both).
  const TierChurnRun tier = bench_tier_churn();
  if (tier.answered != kTierQueries) {
    std::fprintf(stderr, "FATAL: tier/churn answered %llu of %zu queries\n",
                 static_cast<unsigned long long>(tier.answered), kTierQueries);
    return 1;
  }
  const auto queries = static_cast<double>(kTierQueries);
  std::printf("tier/churn                 : %12.0f queries/sec "
              "(%.3f evictions/query, %.2f arena allocs/query)\n",
              tier.queries_per_sec,
              static_cast<double>(tier.evictions) / queries,
              static_cast<double>(tier.arena_allocs) / queries);
  report.set("tier/churn", "queries_per_sec", tier.queries_per_sec);
  report.set("tier/churn", "evictions_per_query",
             static_cast<double>(tier.evictions) / queries);
  report.set("tier/churn", "arena_allocs_per_query",
             static_cast<double>(tier.arena_allocs) / queries);

  // One DoH/h2 and one DoQ exchange on a warm connection. Exchanges per
  // second is informational; allocations per exchange are a pure function
  // of the fixed stream (CI gates them).
  const std::pair<const char*, ExchangeRun> exchanges[] = {
      {"doh/exchange",
       bench_exchange<resolver::DohServer, resolver::DohServerConfig,
                      core::DohClient, core::DohClientConfig>(443)},
      {"doq/exchange",
       bench_exchange<resolver::DoqServer, resolver::DoqServerConfig,
                      core::DoqClient, core::DoqClientConfig>(853)},
  };
  for (const auto& [scenario, run] : exchanges) {
    if (run.answered != 2 * kExchanges) {
      std::fprintf(stderr, "FATAL: %s answered %llu of %zu queries\n",
                   scenario, static_cast<unsigned long long>(run.answered),
                   2 * kExchanges);
      return 1;
    }
    const double allocs_per_exchange = static_cast<double>(run.arena_allocs) /
                                       static_cast<double>(kExchanges);
    std::printf("%-27s: %12.0f exchanges/sec (%.2f arena allocs/exchange)\n",
                scenario, run.exchanges_per_sec, allocs_per_exchange);
    report.set(scenario, "exchanges_per_sec", run.exchanges_per_sec);
    report.set(scenario, "arena_allocs_per_exchange", allocs_per_exchange);
  }

  std::printf("\nshard digests identical across jobs values: OK\n");
  report.params["hw_threads"] =
      static_cast<std::int64_t>(bench::default_jobs());
  bench::finish(output, report, nullptr, &registry);
  return 0;
}
