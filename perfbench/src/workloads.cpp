// The three workloads. Each builds its inputs from the seed, sets up
// (several times, for a steady set-up figure), runs a fixed amount of work
// sized from --seconds, times every op from the outside and checks the
// simulated outputs.
//
//   pageload  fig6-style page loads, sharded by resolver config (closed loop)
//   resolve   one tier simulation fed an open-loop Poisson query stream
//   corpus    fig1-style corpus scan, sharded by rank range (no network)
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "browser/page_load.hpp"
#include "browser/vantage.hpp"
#include "browser/web_farm.hpp"
#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/engine.hpp"
#include "resolver/recursive_tier.hpp"
#include "resolver/udp_server.hpp"
#include "shard_runner.hpp"
#include "stats/rng.hpp"
#include "workload/alexa.hpp"

namespace perfbench {
namespace {

/// Set-up is timed this many times per run: once before the timed phase,
/// then once after each round until the count is reached, so the reported
/// median samples the host across the run rather than in one burst.
constexpr std::size_t kSetupRepetitions = 7;

/// Op counts per second of --seconds, chosen so one end-to-end run takes
/// about --seconds on a 4-core x86-64 host. The work is fixed by the seed
/// and these counts, never by elapsed time, so every run of one seed does
/// the same work and allocation/memory figures do not drift with speed.
constexpr double kPageLoadsPerSecond = 750;
constexpr double kResolutionsPerSecond = 50000;
constexpr double kCorpusPagesPerSecond = 12000;

std::size_t scaled(double per_second, const RunConfig& config,
                   std::size_t minimum) {
  const double n = per_second * config.seconds * config.scale;
  return std::max<std::size_t>(minimum, static_cast<std::size_t>(n));
}

void add_note(WorkloadRun& run, std::string note) {
  run.checks_ok = false;
  if (run.check_notes.size() < 8) run.check_notes.push_back(std::move(note));
}

obs::SpanContext obs_for(bool traced, obs::Tracer& tracer,
                         obs::Registry& registry) {
  return traced ? obs::SpanContext{&tracer, 0, &registry} : obs::SpanContext{};
}

/// The benchmark's own QueryHandler in front of the resolver back-end. In
/// a traced run it keeps every query and response crossing the seam and
/// times the handler call plus its continuation.
class SeamHandler final : public resolver::QueryHandler {
 public:
  SeamHandler(resolver::QueryHandler& upstream, ShardTrace* trace)
      : upstream_(upstream), trace_(trace) {}

  void handle(const dns::Message& query, const resolver::QueryContext& context,
              Continuation done) override {
    if (trace_ == nullptr) {
      upstream_.handle(query, context, std::move(done));
      return;
    }
    trace_->seam_messages.push_back(query);
    auto sync_ns = std::make_shared<std::int64_t>(0);
    const std::int64_t t0 = now_ns();
    upstream_.handle(query, context,
                     [trace = trace_, sync_ns, done = std::move(done)](
                         dns::Message response) {
                       const std::int64_t c0 = now_ns();
                       trace->seam_messages.push_back(response);
                       done(std::move(response));
                       trace->handle_us.push_back(
                           ns_to_us(*sync_ns + now_ns() - c0));
                     });
    *sync_ns = now_ns() - t0;
  }

 private:
  resolver::QueryHandler& upstream_;
  ShardTrace* trace_;
};

/// ResolverClient decorator timing each resolve() to its callback.
class TimedClient final : public core::ResolverClient {
 public:
  TimedClient(core::ResolverClient& inner, std::vector<double>& wall_us)
      : inner_(inner), wall_us_(wall_us) {}

  std::uint64_t resolve(const dns::Name& name, dns::RType type,
                        core::ResolveCallback callback) override {
    const std::int64_t t0 = now_ns();
    return inner_.resolve(
        name, type,
        [this, t0, callback = std::move(callback)](
            const core::ResolutionResult& r) {
          wall_us_.push_back(ns_to_us(now_ns() - t0));
          if (callback) callback(r);
        });
  }
  const core::ResolutionResult& result(std::uint64_t id) const override {
    return inner_.result(id);
  }
  std::size_t completed() const override { return inner_.completed(); }

 private:
  core::ResolverClient& inner_;
  std::vector<double>& wall_us_;
};

// ============================================================= pageload ===

constexpr std::array<const char*, 5> kConfigs = {"U/LO", "U/CF", "U/GO",
                                                "H/CF", "H/GO"};
constexpr std::size_t kPagesPerSlice = 60;
constexpr std::size_t kSlicesPerRound = 5;

// detlint: hot-slot
struct alignas(64) PageloadShard {
  std::vector<double> op_us;  ///< worker-thread CPU per load
  std::vector<double> onload_wall_us;
  std::vector<double> resolve_wall_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t retries = 0;
  std::uint64_t objects = 0;
  std::uint64_t origins = 0;
  std::int64_t busy_ns = 0;
  ShardTrace trace;
  SpanLog spans;
};

/// One fig6 cell: a fresh university-vantage simulation for one resolver
/// config, loading `pages` back to back (closed loop). The resolver client
/// persists across loads, as in fig6.
PageloadShard load_slice(std::size_t config,
                         std::span<const workload::Page> pages,
                         std::uint64_t seed, bool traced, std::uint32_t tid) {
  PageloadShard out;
  const std::int64_t shard_t0 = now_ns();
  const browser::Vantage vantage = browser::Vantage::university();
  const std::string config_name = kConfigs[config];

  simnet::RecordingTap tap;
  obs::Tracer tracer;
  obs::Registry registry;
  {
    simnet::EventLoop loop;
    simnet::Network net(loop, seed);
    if (traced) {
      net.add_tap(&tap);
      tracer.bind(loop);
    }
    const obs::SpanContext obs = obs_for(traced, tracer, registry);
    simnet::Host browser_host(net, "browser");
    simnet::Host resolver_host(net, "resolver");

    const bool local = config_name == "U/LO";
    const bool cloudflare = config_name.find("CF") != std::string::npos;
    simnet::LinkConfig resolver_link;
    resolver_link.latency = local ? vantage.local_resolver_latency
                            : cloudflare ? vantage.cloudflare_latency
                                         : vantage.google_latency;
    net.connect(browser_host.id(), resolver_host.id(), resolver_link);

    resolver::EngineConfig engine_config;
    engine_config.obs = obs;
    engine_config.upstream =
        local ? vantage.local_resolver : vantage.cloud_resolver;
    engine_config.seed = seed ^ 0xabcd;
    resolver::Engine engine(loop, engine_config);
    SeamHandler seam(engine, traced ? &out.trace : nullptr);
    resolver::UdpServer udp_server(resolver_host, seam, 53);
    resolver::DohServerConfig doh_config;
    doh_config.tls.chain = cloudflare ? tlssim::CertificateChain::cloudflare()
                                      : tlssim::CertificateChain::google();
    doh_config.frontend_delay = simnet::ms(4);
    resolver::DohServer doh_server(resolver_host, seam, doh_config, 443);

    std::unique_ptr<core::UdpResolverClient> udp_client;
    std::unique_ptr<core::DohClient> doh_client;
    core::ResolverClient* client = nullptr;
    if (config_name[0] == 'U') {
      core::UdpClientConfig client_config;
      client_config.obs = obs;
      udp_client = std::make_unique<core::UdpResolverClient>(
          browser_host, simnet::Address{resolver_host.id(), 53}, client_config);
      client = udp_client.get();
    } else {
      core::DohClientConfig client_config;
      client_config.server_name =
          cloudflare ? "cloudflare-dns.com" : "dns.google.com";
      client_config.obs = obs;
      doh_client = std::make_unique<core::DohClient>(
          browser_host, simnet::Address{resolver_host.id(), 443},
          client_config);
      client = doh_client.get();
    }
    TimedClient timed(*client, out.resolve_wall_us);
    core::ResolverClient& resolver_client =
        traced ? static_cast<core::ResolverClient&>(timed) : *client;

    browser::WebFarmConfig farm_config;
    farm_config.base_latency = vantage.origin_base_latency;
    farm_config.latency_jitter = vantage.origin_latency_jitter;
    farm_config.bandwidth_bps = vantage.access_bandwidth_bps;
    farm_config.seed = seed;
    browser::WebFarm farm(net, browser_host, farm_config);

    Digest digest;
    for (const auto& page : pages) {
      browser::PageLoadConfig loader_config;
      loader_config.obs = obs;
      browser::PageLoader loader(browser_host, farm, resolver_client,
                                 loader_config);
      bool finished = false;
      browser::PageLoadResult result;
      std::int64_t onload_ns = 0;
      const std::int64_t c0 = thread_cpu_ns();
      const std::int64_t t0 = now_ns();
      loader.load(page, [&](const browser::PageLoadResult& r) {
        onload_ns = now_ns();
        result = r;
        finished = true;
      });
      loop.run();
      const std::int64_t t1 = now_ns();
      out.op_us.push_back(ns_to_us(thread_cpu_ns() - c0));
      ++out.attempted;
      // Output check: onload fired, every object (plus the HTML) fetched.
      if (!finished || !result.success || result.fetch_failures != 0 ||
          result.objects_fetched != page.objects.size() + 1) {
        ++out.failed;
      }
      digest.add(page.rank);
      digest.add(static_cast<std::uint64_t>(result.onload_time()));
      digest.add(static_cast<std::uint64_t>(result.cumulative_dns));
      digest.add(result.dns_queries);
      if (traced) {
        out.onload_wall_us.push_back(ns_to_us(onload_ns - t0));
        out.spans.add("browser.load_to_onload", t0, onload_ns, tid);
        out.spans.add("pageload.op", t0, t1, tid);
        out.objects += page.objects.size() + 1;
        out.origins += page.unique_domains().size();
      }
    }
    out.digest = digest.value;
    out.events = loop.executed();
    out.retries = udp_client ? udp_client->retransmissions()
                             : doh_client->retry_stats().retried_queries;
    if (traced) {
      net.remove_tap(&tap);
      out.trace.packets = tap.entries();
      out.trace.nodes = net.node_count();
      out.trace.obs_spans = tracer.size();
    }
  }
  out.busy_ns = now_ns() - shard_t0;
  return out;
}

struct PageloadInputs {
  std::vector<workload::Page> pages;
};

/// Seeded distinct ranks from the top 100k, generated into pages.
PageloadInputs make_pageload_inputs(std::uint64_t seed, std::size_t count) {
  workload::AlexaPageModel model;
  stats::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x51);
  std::set<std::size_t> chosen;
  PageloadInputs inputs;
  inputs.pages.reserve(count);
  while (inputs.pages.size() < count) {
    const std::size_t rank = 1 + rng.next_below(100000);
    if (!chosen.insert(rank).second) continue;
    inputs.pages.push_back(model.page(rank));
  }
  return inputs;
}

}  // namespace

WorkloadRun run_pageload(const RunConfig& config) {
  WorkloadRun run;
  run.jobs = config.jobs;
  const std::size_t loads = scaled(kPageLoadsPerSecond, config, 5);
  const std::size_t page_count = std::max<std::size_t>(1, loads / 5);
  const std::size_t per_slice = std::min(kPagesPerSlice, page_count);
  const std::size_t slices = (page_count + per_slice - 1) / per_slice;

  // Set-up: the model and its Zipf table, the seeded pages, and a warm-up
  // load per config (topology, servers, handshakes, arena chunks).
  PageloadInputs inputs;
  const auto set_up = [&]() {
    const std::int64_t t0 = now_ns();
    inputs = make_pageload_inputs(config.seed, page_count);
    const std::span<const workload::Page> warm(inputs.pages.data(), 1);
    bench::run_sharded<PageloadShard>(
        kConfigs.size(), config.jobs, [&](std::size_t i) {
          return load_slice(i, warm, config.seed, false, 0);
        });
    run.setup_s.push_back(ns_to_s(now_ns() - t0));
  };
  set_up();
  run.first_op_s = ns_to_s(now_ns());

  // Rounds of kSlicesPerRound slices x 5 configs, each one run_sharded.
  // Each round's results are copied out and dropped before the next round:
  // a kept block would pin its worker's whole arena.
  Digest digest;
  std::vector<double> onload_us;
  std::array<std::vector<double>, 2> resolve_us;  // UDP configs, DoH configs
  double objects = 0;
  double origins = 0;
  double retries = 0;
  for (std::size_t first = 0; first < slices; first += kSlicesPerRound) {
    const std::size_t n =
        std::min(kSlicesPerRound, slices - first) * kConfigs.size();
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    auto round = bench::run_sharded<PageloadShard>(
        n, config.jobs,
        [&](std::size_t j) {
          const std::size_t i = first * kConfigs.size() + j;
          const std::size_t slice = i / kConfigs.size();
          const std::size_t lo = slice * per_slice;
          const std::size_t hi = std::min(page_count, lo + per_slice);
          return load_slice(i % kConfigs.size(),
                            std::span<const workload::Page>(
                                inputs.pages.data() + lo, hi - lo),
                            config.seed + 1001 * slice, config.traced,
                            static_cast<std::uint32_t>(i));
        },
        &run.mem);
    const double wall = ns_to_s(now_ns() - t0);
    const double cpu = cpu_seconds() - cpu0;
    double ops = 0;
    for (std::size_t j = 0; j < round.size(); ++j) {
      PageloadShard& shard = round[j];
      ops += static_cast<double>(shard.attempted);
      run.op_us.insert(run.op_us.end(), shard.op_us.begin(),
                       shard.op_us.end());
      run.attempted += shard.attempted;
      run.failed += shard.failed;
      run.events += shard.events;
      run.busy_s += ns_to_s(shard.busy_ns);
      digest.add(shard.digest);
      if (config.traced) {
        onload_us.insert(onload_us.end(), shard.onload_wall_us.begin(),
                         shard.onload_wall_us.end());
        auto& dst = resolve_us[kConfigs[j % kConfigs.size()][0] == 'U' ? 0 : 1];
        dst.insert(dst.end(), shard.resolve_wall_us.begin(),
                   shard.resolve_wall_us.end());
        objects += static_cast<double>(shard.objects);
        origins += static_cast<double>(shard.origins);
        retries += static_cast<double>(shard.retries);
        run.traces.push_back(std::move(shard.trace));
        run.spans.append(shard.spans);
      }
    }
    run.add_round(wall, cpu, ops);
    if (run.setup_s.size() < kSetupRepetitions) set_up();
  }
  while (run.setup_s.size() < kSetupRepetitions) set_up();
  run.shard_wall_s = run.timed_wall_s;
  run.digest = digest.value;
  if (run.failed != 0) {
    add_note(run, std::to_string(run.failed) +
                      " page loads missed onload or an object");
  }
  if (config.traced) {
    const double ops = static_cast<double>(run.attempted);
    run.layer["browser.page_load_us"] = median(onload_us);
    run.layer["browser.objects_per_page"] = objects / ops;
    run.layer["browser.origins_per_page"] = origins / ops;
    // UDP configs resolve over core's UDP client, H/* over DoH.
    run.layer["core.resolve_us.udp"] = median(resolve_us[0]);
    run.layer["core.resolve_us.doh"] = median(resolve_us[1]);
    const double resolutions =
        static_cast<double>(resolve_us[0].size() + resolve_us[1].size());
    run.layer["core.retries_per_kq"] =
        resolutions == 0 ? 0 : retries * 1000 / resolutions;
    // Page generation cost, replayed on this run's ranks.
    workload::AlexaPageModel model;
    std::vector<double> gen_us;
    for (const auto& page : inputs.pages) {
      const std::int64_t g0 = now_ns();
      const workload::Page p = model.page(page.rank);
      const std::int64_t g1 = now_ns();
      run.spans.add("workload.page", g0, g1, 0);
      gen_us.push_back(ns_to_us(g1 - g0));
      if (p.objects.size() != page.objects.size()) {
        add_note(run, "page generation is not a function of rank");
      }
    }
    run.layer["workload.page_gen_us"] = median(gen_us);
  }
  return run;
}

// ============================================================== resolve ===

namespace {

constexpr std::size_t kClientsPerTransport = 2;
constexpr double kQueryRate = 2000;         ///< offered queries per virtual s
constexpr double kOneOffShare = 0.15;       ///< page primaries, seen once
constexpr std::uint32_t kAnswerTtl = 2;     ///< seconds: tier cache churns
constexpr std::size_t kTierCacheEntries = 2048;
constexpr std::uint16_t kSecurePort = 853;  ///< DoT over TCP, DoQ over UDP
/// Queries per simulation. The clients keep every result, so a run is a
/// sequence of fresh simulations ("epochs") to bound memory.
constexpr std::size_t kEpochQueries = 25000;
constexpr std::size_t kWarmupQueries = 2500;

/// Transports in client order; index i serves clients i, i+4, ...
constexpr std::array<const char*, 4> kTransports = {"udp", "dot", "doh",
                                                   "doq"};

struct Arrival {
  simnet::TimeUs at = 0;
  std::uint32_t client = 0;
  dns::Name name;
};

/// The seeded query schedule of one epoch: Poisson arrivals at kQueryRate, uniform over
/// clients, names Zipf-drawn from the Alexa third-party pool with a share
/// of one-off page primaries.
std::vector<Arrival> make_schedule(std::uint64_t seed, std::size_t epoch,
                                   std::size_t count,
                                   const workload::AlexaPageModel& model,
                                   const stats::ZipfSampler& zipf) {
  stats::SplitMix64 rng((seed * 0xbf58476d1ce4e5b9ULL + 0x77) ^
                        (epoch * 0x94d049bb133111ebULL));
  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  double t_us = 0;
  std::size_t next_primary =
      1000000 + (seed % 1000) * 1000000 + epoch * kEpochQueries;
  const std::size_t clients = kClientsPerTransport * kTransports.size();
  for (std::size_t i = 0; i < count; ++i) {
    t_us += -std::log(1.0 - rng.next_double()) * 1e6 / kQueryRate;
    Arrival a;
    a.at = static_cast<simnet::TimeUs>(t_us);
    a.client = static_cast<std::uint32_t>(rng.next_below(clients));
    a.name = rng.next_double() < kOneOffShare
                 ? workload::AlexaPageModel::primary_domain(next_primary++)
                 : model.third_party_domain(zipf.sample(rng) - 1);
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

resolver::EngineConfig resolve_engine_config(std::uint64_t seed,
                                             const obs::SpanContext& obs) {
  resolver::EngineConfig config;
  config.ttl = kAnswerTtl;
  config.upstream.cache_hit_ratio = 0.0;  // the tier is the cache
  config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  config.obs = obs;
  return config;
}

/// One tier simulation: 8 client hosts (2 per transport) on their own
/// links to one RecursiveTier (behind the benchmark's seam) over an Engine.
class ResolveSim {
 public:
  ResolveSim(std::uint64_t seed, bool traced, ShardTrace* trace)
      : net_(loop_, seed),
        tier_host_(net_, "tier"),
        engine_(loop_, resolve_engine_config(
                           seed, obs_for(traced, tracer_, registry_))),
        tier_(loop_, engine_, tier_config(obs_for(traced, tracer_, registry_))),
        seam_(tier_, trace),
        udp_server_(tier_host_, seam_, 53),
        dot_server_(tier_host_, seam_, dot_config(), kSecurePort),
        doh_server_(tier_host_, seam_, doh_config(), 443),
        doq_server_(tier_host_, seam_, doq_config(), kSecurePort) {
    if (traced) {
      net_.add_tap(&tap_);
      tracer_.bind(loop_);
    }
    const obs::SpanContext obs = obs_for(traced, tracer_, registry_);
    const std::size_t clients = kClientsPerTransport * kTransports.size();
    for (std::size_t c = 0; c < clients; ++c) {
      hosts_.push_back(
          std::make_unique<simnet::Host>(net_, "c" + std::to_string(c)));
      simnet::LinkConfig link;
      link.latency = simnet::ms(2 + 2 * static_cast<std::int64_t>(c % 4));
      net_.connect(hosts_[c]->id(), tier_host_.id(), link);
      simnet::Host& host = *hosts_[c];
      const simnet::NodeId tier = tier_host_.id();
      switch (c % kTransports.size()) {
        case 0: {
          core::UdpClientConfig cfg;
          cfg.timeout = simnet::seconds(1);
          cfg.max_retries = 2;
          cfg.obs = obs;
          udp_.push_back(std::make_unique<core::UdpResolverClient>(
              host, simnet::Address{tier, 53}, cfg));
          clients_.push_back(udp_.back().get());
          break;
        }
        case 1: {
          core::DotClientConfig cfg;
          cfg.server_name = kServerName;
          cfg.obs = obs;
          dot_.push_back(std::make_unique<core::DotClient>(
              host, simnet::Address{tier, kSecurePort}, cfg));
          clients_.push_back(dot_.back().get());
          break;
        }
        case 2: {
          core::DohClientConfig cfg;
          cfg.server_name = kServerName;
          cfg.http_version = core::HttpVersion::kHttp2;
          cfg.obs = obs;
          doh_.push_back(std::make_unique<core::DohClient>(
              host, simnet::Address{tier, 443}, cfg));
          clients_.push_back(doh_.back().get());
          break;
        }
        default: {
          core::DoqClientConfig cfg;
          cfg.server_name = kServerName;
          cfg.obs = obs;
          doq_.push_back(std::make_unique<core::DoqClient>(
              host, simnet::Address{tier, kSecurePort}, cfg));
          clients_.push_back(doq_.back().get());
          break;
        }
      }
    }
  }

  ResolveSim(const ResolveSim&) = delete;
  ResolveSim& operator=(const ResolveSim&) = delete;
  ~ResolveSim() { net_.remove_tap(&tap_); }

  /// Open every connection: one query per client, run to quiescence.
  void warm_up() {
    const dns::Name name = dns::Name::parse("warmup.perfbench.example");
    for (auto* client : clients_) {
      warmup_ids_.push_back(client->resolve(name, dns::RType::kA, {}));
    }
    loop_.run_until(loop_.now() + simnet::seconds(1));
  }

  simnet::EventLoop& loop() noexcept { return loop_; }
  core::ResolverClient& client(std::size_t i) { return *clients_[i]; }
  std::size_t client_count() const noexcept { return clients_.size(); }
  const resolver::TierStats& tier_stats() const noexcept {
    return tier_.stats();
  }
  const std::vector<std::uint64_t>& warmup_ids() const noexcept {
    return warmup_ids_;
  }
  const obs::Tracer& tracer() const noexcept { return tracer_; }
  std::size_t node_count() const noexcept { return net_.node_count(); }
  const std::vector<simnet::TraceEntry>& packets() const noexcept {
    return tap_.entries();
  }

  std::uint64_t retries() const {
    std::uint64_t n = 0;
    for (const auto& c : udp_) n += c->retransmissions();
    for (const auto& c : dot_) n += c->retry_stats().retried_queries;
    for (const auto& c : doh_) n += c->retry_stats().retried_queries;
    for (const auto& c : doq_) n += c->retry_stats().retried_queries;
    return n;
  }

 private:
  static constexpr const char* kServerName = "tier.resolver";

  static resolver::TierConfig tier_config(const obs::SpanContext& obs) {
    resolver::TierConfig config;
    config.workers = 64;  // capacity far above kQueryRate: nothing sheds
    config.cache_entries = kTierCacheEntries;
    config.obs = obs;
    return config;
  }
  static resolver::DotServerConfig dot_config() {
    resolver::DotServerConfig config;
    config.tls.chain = tlssim::CertificateChain::generic(kServerName);
    return config;
  }
  static resolver::DohServerConfig doh_config() {
    resolver::DohServerConfig config;
    config.tls.chain = tlssim::CertificateChain::generic(kServerName);
    return config;
  }
  static resolver::DoqServerConfig doq_config() {
    resolver::DoqServerConfig config;
    config.tls.chain = tlssim::CertificateChain::generic(kServerName);
    return config;
  }

  // Sinks first: everything below may hold a pointer to them.
  simnet::RecordingTap tap_;
  obs::Tracer tracer_;
  obs::Registry registry_;
  simnet::EventLoop loop_;
  simnet::Network net_;
  simnet::Host tier_host_;
  resolver::Engine engine_;
  resolver::RecursiveTier tier_;
  SeamHandler seam_;
  resolver::UdpServer udp_server_;
  resolver::DotServer dot_server_;
  resolver::DohServer doh_server_;
  resolver::DoqServer doq_server_;
  std::vector<std::unique_ptr<simnet::Host>> hosts_;
  std::vector<std::unique_ptr<core::UdpResolverClient>> udp_;
  std::vector<std::unique_ptr<core::DotClient>> dot_;
  std::vector<std::unique_ptr<core::DohClient>> doh_;
  std::vector<std::unique_ptr<core::DoqClient>> doq_;
  std::vector<core::ResolverClient*> clients_;
  std::vector<std::uint64_t> warmup_ids_;
};

/// Issues the schedule on the virtual clock: each arrival resolves its
/// name and schedules the next, so only one generator event is pending.
class ArrivalSource {
 public:
  ArrivalSource(ResolveSim& sim, const std::vector<Arrival>& arrivals,
                simnet::TimeUs offset)
      : sim_(sim),
        arrivals_(arrivals),
        offset_(offset),
        start_ns_(arrivals.size(), 0),
        end_ns_(arrivals.size(), 0),
        ids_(arrivals.size(), 0) {}

  void start() {
    if (arrivals_.empty()) return;
    sim_.loop().schedule_at(offset_ + arrivals_[0].at,
                            [this]() { arrive(0); });
  }

  const std::vector<std::int64_t>& start_ns() const { return start_ns_; }
  const std::vector<std::int64_t>& end_ns() const { return end_ns_; }
  const std::vector<std::uint64_t>& ids() const { return ids_; }

 private:
  void arrive(std::size_t i) {
    const Arrival& a = arrivals_[i];
    if (i + 1 < arrivals_.size()) {
      sim_.loop().schedule_at(offset_ + arrivals_[i + 1].at,
                              [this, i]() { arrive(i + 1); });
    }
    start_ns_[i] = now_ns();
    ids_[i] = sim_.client(a.client).resolve(
        a.name, dns::RType::kA,
        [this, i](const core::ResolutionResult&) { end_ns_[i] = now_ns(); });
  }

  ResolveSim& sim_;
  const std::vector<Arrival>& arrivals_;
  simnet::TimeUs offset_;
  std::vector<std::int64_t> start_ns_;
  std::vector<std::int64_t> end_ns_;
  std::vector<std::uint64_t> ids_;
};

// detlint: hot-slot
struct alignas(64) ResolveShard {
  std::uint64_t events = 0;
};

/// Span bytes.* must equal each resolution's CostReport, summed over every
/// query the clients made (warm-up included).
bool costs_match_spans(ResolveSim& sim, const ArrivalSource& source,
                       const std::vector<Arrival>& arrivals) {
  std::map<std::string, std::int64_t> from_results;
  const auto add_cost = [&](const core::CostReport& cost) {
    const auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
    from_results["bytes.wire"] += i64(cost.wire_bytes);
    from_results["bytes.dns"] += i64(cost.dns_message_bytes);
    from_results["bytes.tcp"] += i64(cost.tcp_overhead_bytes);
    from_results["bytes.tls"] += i64(cost.tls_overhead_bytes);
    from_results["bytes.http_hdr"] += i64(cost.http_header_bytes);
    from_results["bytes.http_body"] += i64(cost.http_body_bytes);
    from_results["bytes.http_mgmt"] += i64(cost.http_mgmt_bytes);
  };
  for (std::size_t c = 0; c < sim.client_count(); ++c) {
    add_cost(sim.client(c).result(sim.warmup_ids()[c]).cost);
  }
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    add_cost(sim.client(arrivals[i].client).result(source.ids()[i]).cost);
  }
  std::map<std::string, std::int64_t> from_spans;
  for (const auto& span : sim.tracer().spans()) {
    if (span.name != "resolution") continue;
    for (const auto& attr : span.attrs()) {
      if (attr.key.substr(0, 6) != "bytes.") continue;
      if (const auto* v = std::get_if<std::int64_t>(&attr.value)) {
        from_spans[std::string(attr.key)] += *v;
      }
    }
  }
  return from_spans == from_results;
}

/// The Engine's own answer for `name`, from a private engine instance.
std::vector<dns::ResourceRecord> engine_answer(std::uint64_t seed,
                                               const dns::Name& name) {
  simnet::EventLoop loop;
  resolver::Engine engine(loop, resolve_engine_config(seed, {}));
  std::vector<dns::ResourceRecord> answers;
  engine.handle(dns::Message::make_query(1, name),
                [&](dns::Message response) { answers = response.answers; });
  loop.run();
  return answers;
}

}  // namespace

WorkloadRun run_resolve(const RunConfig& config) {
  WorkloadRun run;
  run.jobs = 1;  // one simulation at a time: one event loop, one thread
  const std::size_t count = scaled(kResolutionsPerSecond, config, 100);
  const std::size_t epochs = (count + kEpochQueries - 1) / kEpochQueries;

  // Set-up: model + Zipf table, the first epoch's seeded schedule, the
  // topology with its servers and clients, the warm-up handshakes, and a
  // warm-up run of the schedule's first queries.
  std::unique_ptr<workload::AlexaPageModel> model;
  std::unique_ptr<stats::ZipfSampler> zipf;
  std::vector<Arrival> arrivals;
  const auto set_up = [&]() {
    const std::int64_t t0 = now_ns();
    model = std::make_unique<workload::AlexaPageModel>();
    zipf = std::make_unique<stats::ZipfSampler>(
        model->config().third_party_pool, model->config().zipf_exponent, 0);
    arrivals = make_schedule(config.seed, 0, std::min(count, kEpochQueries),
                             *model, *zipf);
    ResolveSim sim(config.seed, false, nullptr);
    sim.warm_up();
    const std::vector<Arrival> warm(
        arrivals.begin(),
        arrivals.begin() + static_cast<std::ptrdiff_t>(
                               std::min(arrivals.size(), kWarmupQueries)));
    ArrivalSource source(sim, warm, sim.loop().now() + simnet::ms(10));
    source.start();
    sim.loop().run_until(sim.loop().now() + warm.back().at +
                         simnet::seconds(8));
    run.setup_s.push_back(ns_to_s(now_ns() - t0));
  };
  set_up();
  run.first_op_s = ns_to_s(now_ns());

  std::array<std::vector<double>, 4> per_transport_us;
  resolver::TierStats tier_total;
  std::uint64_t sheds = 0;
  std::uint64_t retries = 0;
  Digest digest;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (epoch > 0) {
      const std::size_t n = std::min(kEpochQueries, count - epoch * kEpochQueries);
      arrivals = make_schedule(config.seed, epoch, n, *model, *zipf);
    }
    // The timed part of an epoch: a fresh simulation (built and warmed up
    // inside the arena scope) and its whole schedule.
    const std::uint64_t sim_seed = config.seed + 7919 * epoch;
    ShardTrace trace;
    std::unique_ptr<ResolveSim> sim;
    std::unique_ptr<ArrivalSource> source;
    resolver::TierStats tier0;
    std::uint64_t retries0 = 0;
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    auto shards = bench::run_sharded<ResolveShard>(
        1, 1,
        [&](std::size_t) {
          ResolveShard shard;
          sim = std::make_unique<ResolveSim>(sim_seed, config.traced,
                                             config.traced ? &trace : nullptr);
          sim->warm_up();
          if (config.traced) trace.warmup_end = sim->loop().now();
          tier0 = sim->tier_stats();
          retries0 = sim->retries();
          source = std::make_unique<ArrivalSource>(
              *sim, arrivals, sim->loop().now() + simnet::ms(10));
          const std::uint64_t e0 = sim->loop().executed();
          source->start();
          // Every client gives up within a few seconds; drain past that.
          sim->loop().run_until(sim->loop().now() + arrivals.back().at +
                                simnet::seconds(8));
          shard.events = sim->loop().executed() - e0;
          return shard;
        },
        &run.mem);
    const double elapsed = ns_to_s(now_ns() - t0);
    const double cpu = cpu_seconds() - cpu0;
    run.shard_wall_s += elapsed;
    run.busy_s += elapsed;
    run.events += shards[0].events;

    // Output checks: every query completed with NOERROR and the Engine's
    // own answer for its name. The reference answers live for one epoch, so
    // checking adds no memory that grows with the run.
    std::map<dns::Name, std::vector<dns::ResourceRecord>> reference;
    const auto& start = source->start_ns();
    const auto& end = source->end_ns();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      ++run.attempted;
      const Arrival& a = arrivals[i];
      const auto& result = sim->client(a.client).result(source->ids()[i]);
      bool ok = end[i] != 0 && result.success &&
                result.response.flags.rcode == dns::Rcode::kNoError;
      if (ok) {
        auto it = reference.find(a.name);
        if (it == reference.end()) {
          it = reference.emplace(a.name, engine_answer(config.seed, a.name))
                   .first;
        }
        ok = result.response.answers == it->second;
      }
      if (!ok) {
        ++run.failed;
        continue;
      }
      const double us = ns_to_us(end[i] - start[i]);
      run.op_us.push_back(us);
      per_transport_us[a.client % kTransports.size()].push_back(us);
      digest.add(i);
      digest.add(static_cast<std::uint64_t>(result.resolution_time()));
    }
    run.add_round(elapsed, cpu, static_cast<double>(arrivals.size()));
    const resolver::TierStats& tier = sim->tier_stats();
    tier_total.requests += tier.requests - tier0.requests;
    tier_total.cache_hits += tier.cache_hits - tier0.cache_hits;
    tier_total.cache_insertions += tier.cache_insertions - tier0.cache_insertions;
    tier_total.cache_evictions += tier.cache_evictions - tier0.cache_evictions;
    sheds += tier.sheds() - tier0.sheds();
    retries += sim->retries() - retries0;

    if (config.traced) {
      if (!costs_match_spans(*sim, *source, arrivals)) {
        add_note(run, "span bytes.* differ from the CostReports");
        ++run.failed;
      }
      trace.packets = sim->packets();
      trace.nodes = sim->node_count();
      trace.obs_spans = sim->tracer().size();
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (end[i] != 0) run.spans.add("core.resolve", start[i], end[i], 0);
      }
      run.traces.push_back(std::move(trace));
    }
    source.reset();
    sim.reset();
    if (run.setup_s.size() < kSetupRepetitions) set_up();
  }
  while (run.setup_s.size() < kSetupRepetitions) set_up();
  run.digest = digest.value;
  if (run.failed != 0) {
    add_note(run, std::to_string(run.failed) +
                      " resolutions failed or differ from the Engine");
  }
  if (sheds != 0) add_note(run, "the tier shed queries");

  if (config.traced) {
    const double kq = static_cast<double>(run.attempted) / 1000.0;
    const double requests = static_cast<double>(tier_total.requests);
    for (std::size_t t = 0; t < kTransports.size(); ++t) {
      run.layer[std::string("core.resolve_us.") + kTransports[t]] =
          median(per_transport_us[t]);
    }
    run.layer["core.retries_per_kq"] = static_cast<double>(retries) / kq;
    run.layer["resolver.hit_ratio"] =
        static_cast<double>(tier_total.cache_hits) / requests;
    run.layer["resolver.insertions_per_kq"] =
        static_cast<double>(tier_total.cache_insertions) / kq;
    run.layer["resolver.evictions_per_kq"] =
        static_cast<double>(tier_total.cache_evictions) / kq;
    run.layer["resolver.shed_share"] =
        static_cast<double>(sheds) / requests;
  }
  return run;
}

// =============================================================== corpus ===

namespace {

/// Ranks per shard. A shard's worker-thread CPU time per page is one op
/// sample. Shards are long (about 20 ms), so the shard's own model and map
/// stay a small part of it, yet a run still yields over 1000 samples.
constexpr std::size_t kRanksPerShard = 160;
/// Shards per merged scan. Every shard map stays alive until its round's
/// merge, so rounds bound memory; 16,000 pages is about fig1's 4 shards.
constexpr std::size_t kShardsPerRound = 100;
constexpr std::size_t kCheckedShards = 16;

// detlint: hot-slot
struct alignas(64) CorpusOut {
  workload::AlexaPageModel::CorpusShard shard;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< worker-thread CPU of corpus_shard
  std::int64_t busy_ns = 0;
  bool fresh_arena = false;  ///< first shard on its worker's new arena
};

CorpusOut scan_shard(std::size_t lo, std::size_t hi) {
  CorpusOut out;
  const simnet::ShardMemory* arena = simnet::current_arena();
  out.fresh_arena = arena != nullptr && arena->stats().arena_allocs == 0;
  const std::int64_t t0 = now_ns();
  workload::AlexaPageModel model;  // each shard owns its model, as in fig1
  out.start_ns = now_ns();
  const std::int64_t c0 = thread_cpu_ns();
  out.shard = model.corpus_shard(lo, hi);
  out.cpu_ns = thread_cpu_ns() - c0;
  out.end_ns = now_ns();
  out.busy_ns = out.end_ns - t0;
  return out;
}

bool same_stats(const workload::AlexaPageModel::CorpusStats& a,
                const workload::AlexaPageModel::CorpusStats& b) {
  return a.total_queries == b.total_queries &&
         a.unique_domains == b.unique_domains &&
         a.queries_per_page == b.queries_per_page &&
         a.top15_query_share == b.top15_query_share;
}

}  // namespace

WorkloadRun run_corpus(const RunConfig& config) {
  WorkloadRun run;
  run.jobs = config.jobs;
  const std::size_t pages = scaled(kCorpusPagesPerSecond, config, 64);
  const std::size_t shard_count = (pages + kRanksPerShard - 1) / kRanksPerShard;

  // Set-up: the seeded rank range, the model's Zipf table, and a warm-up
  // scan of four shards per worker.
  std::size_t first_rank = 0;
  const auto set_up = [&]() {
    const std::int64_t t0 = now_ns();
    stats::SplitMix64 rng(config.seed * 0x94d049bb133111ebULL + 0x3);
    first_rank = 1 + rng.next_below(1000000);
    bench::run_sharded<CorpusOut>(4 * config.jobs, config.jobs, [&](std::size_t i) {
      const std::size_t lo = first_rank + i * kRanksPerShard;
      return scan_shard(lo, lo + kRanksPerShard - 1);
    });
    run.setup_s.push_back(ns_to_s(now_ns() - t0));
  };
  set_up();
  run.first_op_s = ns_to_s(now_ns());

  run.attempted = pages;
  Digest digest;
  std::uint64_t total_queries = 0;
  for (std::size_t first_shard = 0; first_shard < shard_count;
       first_shard += kShardsPerRound) {
    // One round: a sharded scan of the next rank range, then its merge.
    const std::size_t n = std::min(kShardsPerRound, shard_count - first_shard);
    const std::size_t lo_rank = first_rank + first_shard * kRanksPerShard;
    const std::size_t round_pages =
        std::min(pages - first_shard * kRanksPerShard, n * kRanksPerShard);
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    auto outs = bench::run_sharded<CorpusOut>(
        n, config.jobs,
        [&](std::size_t i) {
          const std::size_t lo = lo_rank + i * kRanksPerShard;
          const std::size_t hi =
              std::min(lo_rank + round_pages - 1, lo + kRanksPerShard - 1);
          return scan_shard(lo, hi);
        },
        &run.mem);
    const std::int64_t t1 = now_ns();
    const double cpu1 = cpu_seconds();
    run.shard_wall_s += ns_to_s(t1 - t0);

    // Keep the first round's checked prefix before the merge consumes it.
    std::vector<workload::AlexaPageModel::CorpusShard> prefix;
    if (first_shard == 0) {
      for (std::size_t i = 0; i < std::min(kCheckedShards, n); ++i) {
        prefix.push_back(outs[i].shard);
      }
    }
    std::vector<workload::AlexaPageModel::CorpusShard> shards;
    shards.reserve(outs.size());
    for (auto& out : outs) {
      const double page_count =
          static_cast<double>(out.shard.queries_per_page.size());
      // A worker's first shard of a round fills a fresh arena and runs
      // about twice as slow. That is one sample per worker and round, close
      // to the 1 % tail, so it would make p99 jump between cold and warm
      // shards; it is left out of the samples (ops_per_s still pays it).
      if (!out.fresh_arena) {
        run.op_us.push_back(ns_to_us(out.cpu_ns) / page_count);
      }
      run.busy_s += ns_to_s(out.busy_ns);
      if (config.traced) {
        run.spans.add("workload.corpus_shard", out.start_ns, out.end_ns, 0);
      }
      shards.push_back(std::move(out.shard));
    }
    const double cpu2 = cpu_seconds();
    const std::int64_t m0 = now_ns();
    const auto stats =
        workload::AlexaPageModel::merge_corpus_shards(std::move(shards));
    const std::int64_t m1 = now_ns();
    run.add_round(ns_to_s((t1 - t0) + (m1 - m0)),
                  (cpu1 - cpu0) + (cpu_seconds() - cpu2),
                  static_cast<double>(round_pages));
    if (config.traced) run.spans.add("workload.merge_corpus_shards", m0, m1, 0);

    // Output checks: the merged stats cover every page of the round, and
    // the first shards merged at this worker count equal one serial scan
    // of their ranks.
    std::uint64_t sum = 0;
    for (const auto q : stats.queries_per_page) sum += q;
    if (stats.queries_per_page.size() != round_pages ||
        sum != stats.total_queries) {
      add_note(run, "merged corpus stats do not cover the scanned pages");
      run.failed += round_pages;
    }
    if (!prefix.empty()) {
      const std::size_t prefix_pages =
          std::min(round_pages, prefix.size() * kRanksPerShard);
      workload::AlexaPageModel serial_model;
      std::vector<workload::AlexaPageModel::CorpusShard> serial;
      serial.push_back(
          serial_model.corpus_shard(lo_rank, lo_rank + prefix_pages - 1));
      if (!same_stats(
              workload::AlexaPageModel::merge_corpus_shards(std::move(prefix)),
              workload::AlexaPageModel::merge_corpus_shards(
                  std::move(serial)))) {
        add_note(run, "sharded corpus merge differs from the serial scan");
        run.failed += prefix_pages;
      }
    }
    total_queries += stats.total_queries;
    digest.add(stats.total_queries);
    digest.add(stats.unique_domains);
    for (const auto q : stats.queries_per_page) digest.add(q);
    if (run.setup_s.size() < kSetupRepetitions) set_up();
  }
  while (run.setup_s.size() < kSetupRepetitions) set_up();
  run.failed = std::min<std::uint64_t>(run.failed, pages);
  run.digest = digest.value;

  if (config.traced) {
    run.layer["workload.corpus_us_per_page"] = median(run.op_us);
    // Replay page generation on the first scanned ranks, and keep those
    // pages for the ledger's Name replays.
    workload::AlexaPageModel model;
    std::vector<double> gen_us;
    const std::size_t sample = std::min<std::size_t>(pages, 2048);
    for (std::size_t r = first_rank; r < first_rank + sample; ++r) {
      const std::int64_t g0 = now_ns();
      workload::Page page = model.page(r);
      const std::int64_t g1 = now_ns();
      gen_us.push_back(ns_to_us(g1 - g0));
      run.spans.add("workload.page", g0, g1, 0);
      run.sampled_pages.push_back(std::move(page));
    }
    run.layer["workload.page_gen_us"] = median(gen_us);
    run.pages_per_map = kRanksPerShard;
  }
  return run;
}

}  // namespace perfbench
