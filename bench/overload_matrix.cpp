// Overload matrix: the resolver-tier overload-control ladder under offered
// load from 0.5x to 4x of nominal capacity, plus a hot-tenant cell and a
// post-outage thundering herd. One shared RecursiveTier (cache + coalescing
// in every cell — the ladder varies *control*, not capacity) fronts an
// Engine behind UDP and DoH front-ends, serving an open-loop Zipf-popular
// client population (even clients speak DoH/h2, odd clients classic UDP):
//
//   none       cache + coalescing only; queue unbounded, everything admitted
//   queue      + bounded queue with deadline-aware shedding at dequeue
//   queue+adm  + gradient/AIMD admission on observed service latency
//   full       + per-client token-bucket fairness + server-side retry budget
//
// Scenarios (rates are multiples of the ~300 q/s nominal capacity):
//   load-{0.5x,1x,2x,4x}  uniform population at the given offered load
//   hotspot-2x            2x load, one tenant sending half of all queries
//   herd-0.9x             steady 0.9x; both front-ends crash mid-run for 2s,
//                         then the accumulated retries stampede back
//
// Goodput counts a query answered NOERROR within the 2s client deadline.
// The retry-amplification factor (RAF) is client-observed: (first sends +
// UDP retransmissions + DoH re-issues) / first sends — the metastability
// number. Shed answers are REFUSED, which clients treat as terminal (no
// retry), so shedding *reduces* RAF; that interaction is the point.
//
// Self-gates (skipped under --no-gate, determinism always checked):
//   retention   full@2x keeps >=80% of full@1x absolute goodput
//   collapse    none@2x goodput%  <= half of full@2x goodput%
//   raf         none@2x amplifies (RAF >= 1.5); full@2x does not (<= 1.2)
//   fairness    hotspot-2x: full rung keeps the 23 non-hot clients >= 85%
//               goodput and beats the uncontrolled rung
//   herd        queries offered after recovery+1s resolve >= 99% on full
//
// Every draw (arrivals, Zipf ranks, client picks, backoff jitter) comes
// from seeded generators over virtual time: the grid is a pure function of
// --seed. The harness runs the grid twice and compares renderings, and one
// shard per cell merges by index so --jobs=N output is byte-identical.
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "matrix.hpp"
#include "core/doh_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/engine.hpp"
#include "resolver/recursive_tier.hpp"
#include "resolver/udp_server.hpp"
#include "workload/population.hpp"

namespace {

using namespace dohperf;

constexpr simnet::TimeUs kDeadline = simnet::seconds(2);
constexpr std::size_t kClients = 24;  ///< even = DoH/h2, odd = UDP
constexpr std::size_t kNames = 48;
constexpr double kZipfExponent = 1.0;
/// Nominal tier capacity: one worker, 2ms per cache hit and 8ms per
/// back-end miss; with 48 names at TTL 3s the observed miss rate settles
/// near 25/s, so 300 q/s runs ~0.75 utilization — comfortably stable — and
/// 2x is ~1.5x over capacity (see EXPERIMENTS.md for the arithmetic).
constexpr double kNominalQps = 300.0;

struct Scenario {
  std::string name;
  double rate_factor = 1.0;
  double hot_share = 0.0;  ///< extra query mass on client 0
  bool herd = false;       ///< crash both front-ends mid-run
};

std::vector<Scenario> scenarios() {
  return {
      {"load-0.5x", 0.5, 0.0, false}, {"load-1x", 1.0, 0.0, false},
      {"load-2x", 2.0, 0.0, false},   {"load-4x", 4.0, 0.0, false},
      {"hotspot-2x", 2.0, 0.5, false}, {"herd-0.9x", 0.9, 0.0, true},
  };
}

/// The control ladder, least to most defended.
constexpr std::array<const char*, 4> kRungs = {"none", "queue", "queue+adm",
                                               "full"};

resolver::TierConfig tier_for(const std::string& rung) {
  resolver::TierConfig config;
  config.workers = 1;
  config.cache_entries = 4096;
  config.hit_processing = simnet::us(2000);
  config.coalesce = true;
  if (rung == "none") return config;
  // queue: hard bound plus deadline-aware shedding at dequeue.
  config.bound_queue = true;
  config.queue_capacity = 64;
  config.deadline = simnet::seconds(1);
  config.expected_service = simnet::ms(3);
  if (rung == "queue") return config;
  // queue+adm: AIMD limit on outstanding work. best-case hit latency is
  // ~2ms, so the 6.0x inflation threshold trips near 12ms average —
  // comfortably above the stable steady state, firmly below a growing
  // queue.
  config.admission_enabled = true;
  config.admission.min_limit = 12;
  config.admission.max_limit = 512;
  config.admission.initial_limit = 64;
  config.admission.window = 32;
  config.admission.inflate_permille = 6000;
  config.admission.decrease_permille = 700;
  config.admission.increase_step = 2;
  if (rung == "queue+adm") return config;
  // full: per-client fairness (35 q/s against a 12.5 q/s uniform share at
  // 1x) and the server-side retry budget (10% of fresh traffic).
  config.fairness_enabled = true;
  config.fairness.rate_milli = 35000;
  config.fairness.burst_milli = 50000;
  config.retry_budget_enabled = true;
  config.retry_ratio_permille = 100;
  config.retry_reserve_milli = 10000;
  config.retry_cap_milli = 100000;
  config.retry_window = simnet::seconds(2);  ///< must stay below the 3s TTL
  return config;
}

struct RunMetrics {
  std::size_t offered = 0;
  std::size_t good = 0;  ///< NOERROR within kDeadline
  std::vector<double> resolution_ms;
  std::uint64_t udp_retransmissions = 0;
  std::uint64_t doh_reissues = 0;
  resolver::TierStats tier;
  std::size_t doh_peak_sessions = 0;
  std::size_t doh_memory_bytes = 0;
  std::uint64_t doh_reconnects = 0;
  // hotspot cells: goodput of the 23 clients that are not the hot tenant.
  std::size_t nonhot_offered = 0;
  std::size_t nonhot_good = 0;
  // herd cells: queries first offered >= 1s after the front-ends recovered.
  std::size_t window_offered = 0;
  std::size_t window_good = 0;
};

double raf(const RunMetrics& m) {
  return m.offered == 0
             ? 1.0
             : static_cast<double>(m.offered + m.udp_retransmissions +
                                   m.doh_reissues) /
                   static_cast<double>(m.offered);
}

RunMetrics run(const Scenario& scenario, const std::string& rung,
               std::uint64_t seed, std::size_t duration_sec,
               obs::Registry* registry = nullptr) {
  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host server_host(net, "tier");
  std::vector<std::unique_ptr<simnet::Host>> client_hosts;
  client_hosts.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    client_hosts.push_back(
        std::make_unique<simnet::Host>(net, "c" + std::to_string(c)));
    simnet::LinkConfig link;
    link.latency = simnet::ms(5);
    net.connect(client_hosts[c]->id(), server_host.id(), link);
  }

  const obs::SpanContext obs{nullptr, 0, registry};

  resolver::EngineConfig engine_config;
  engine_config.obs = obs;
  engine_config.ttl = 3;  // short, so the tier cache has real dynamics
  engine_config.upstream.cache_hit_ratio = 1.0;  // fixed service time
  engine_config.upstream.processing = simnet::ms(8);
  engine_config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  resolver::Engine engine(loop, engine_config);

  resolver::TierConfig tier_config = tier_for(rung);
  tier_config.obs = obs;
  resolver::RecursiveTier tier(loop, engine, tier_config);

  resolver::UdpServer udp_server(server_host, tier, 53);
  resolver::DohServerConfig doh_config;
  doh_config.tls.chain = tlssim::CertificateChain::generic("tier.resolver");
  resolver::DohServer doh_server(server_host, tier, doh_config, 443);

  // The herd: both front-ends crash halfway through the base duration and
  // come back 2s later; the run gets 2 extra seconds so the post-recovery
  // window has room.
  const simnet::TimeUs restart_at =
      simnet::seconds(static_cast<std::int64_t>(duration_sec)) / 2;
  const simnet::TimeUs downtime = simnet::seconds(2);
  const simnet::TimeUs window_start = restart_at + downtime + simnet::seconds(1);
  if (scenario.herd) {
    loop.schedule_at(restart_at, [&]() {
      udp_server.restart(downtime);
      doh_server.restart(downtime);
    });
  }

  std::vector<std::unique_ptr<core::DohClient>> doh_clients;
  std::vector<std::unique_ptr<core::UdpResolverClient>> udp_clients;
  std::vector<core::ResolverClient*> stubs(kClients, nullptr);
  for (std::size_t c = 0; c < kClients; ++c) {
    if (c % 2 == 0) {
      core::DohClientConfig cfg;
      cfg.obs = obs;
      cfg.server_name = "tier.resolver";
      cfg.http_version = core::HttpVersion::kHttp2;
      cfg.retry.max_retries = 2;
      cfg.retry.backoff_initial = simnet::ms(200);
      cfg.retry.backoff_max = simnet::seconds(1);
      cfg.retry.query_timeout = simnet::seconds(1);
      cfg.retry.seed = seed ^ (0xbf58476d1ce4e5b9ULL * (c + 1));
      doh_clients.push_back(std::make_unique<core::DohClient>(
          *client_hosts[c], simnet::Address{server_host.id(), 443}, cfg));
      stubs[c] = doh_clients.back().get();
    } else {
      core::UdpClientConfig cfg;
      cfg.obs = obs;
      cfg.timeout = simnet::seconds(1);
      cfg.max_retries = 2;
      udp_clients.push_back(std::make_unique<core::UdpResolverClient>(
          *client_hosts[c], simnet::Address{server_host.id(), 53}, cfg));
      stubs[c] = udp_clients.back().get();
    }
  }

  workload::PopulationConfig pop;
  pop.clients = kClients;
  pop.names = kNames;
  pop.zipf_exponent = kZipfExponent;
  pop.rate_qps = kNominalQps * scenario.rate_factor;
  pop.duration = simnet::seconds(
      static_cast<std::int64_t>(duration_sec + (scenario.herd ? 2 : 0)));
  pop.hot_client_share = scenario.hot_share;
  pop.seed = seed ^ 0x94d049bb133111ebULL;
  const workload::PopulationWorkload workload(pop);
  const auto events = workload.generate();

  std::vector<std::uint64_t> ids(events.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const dns::Name name = workload.name_for(ev.name_rank);
    loop.schedule_at(ev.at, [&, i, name]() {
      ids[i] = stubs[events[i].client]->resolve(name, dns::RType::kA, {});
    });
  }
  loop.run();

  RunMetrics m;
  m.offered = events.size();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    const auto& r = stubs[ev.client]->result(ids[i]);
    m.resolution_ms.push_back(static_cast<double>(r.resolution_time()) / 1e3);
    const bool good = r.success &&
                      r.response.flags.rcode == dns::Rcode::kNoError &&
                      r.resolution_time() <= kDeadline;
    if (good) ++m.good;
    if (ev.client != 0) {
      ++m.nonhot_offered;
      if (good) ++m.nonhot_good;
    }
    if (scenario.herd && ev.at >= window_start) {
      ++m.window_offered;
      if (good) ++m.window_good;
    }
  }
  for (const auto& u : udp_clients) m.udp_retransmissions += u->retransmissions();
  for (const auto& d : doh_clients) {
    m.doh_reissues += d->retry_stats().retried_queries;
    m.doh_reconnects += d->retry_stats().reconnects;
  }
  m.tier = tier.stats();
  m.doh_peak_sessions = doh_server.peak_sessions();
  m.doh_memory_bytes = doh_server.memory_estimate_bytes();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t duration_sec = flags.num("duration", 10);
  const std::uint64_t seed = flags.num("seed", 7);
  const std::size_t jobs = flags.num("jobs", bench::default_jobs());
  const bool no_gate = flags.on("no-gate");
  const bench::Output output = flags.output();
  flags.reject_unknown();

  std::printf("=== Overload matrix: offered load x control ladder ===\n");
  std::printf("(~%.0f q/s nominal capacity, %zu clients (even DoH/h2, odd "
              "UDP), %zu Zipf names, TTL 3s, %zus per cell, seed %llu; "
              "good = NOERROR within 2s; aux%% = post-recovery goodput for "
              "herd rows, non-hot-client goodput for hotspot rows)\n\n",
              kNominalQps, kClients, kNames, duration_sec,
              static_cast<unsigned long long>(seed));

  const auto grid = scenarios();
  std::vector<std::string> rows;
  for (const Scenario& scenario : grid) rows.push_back(scenario.name);
  bench::Matrix<RunMetrics> matrix("overload_matrix", rows,
                                   {kRungs.begin(), kRungs.end()}, jobs);
  matrix.report().params["duration"] = static_cast<std::int64_t>(duration_sec);
  matrix.report().params["seed"] = static_cast<std::int64_t>(seed);
  matrix.report().params["clients"] = static_cast<std::int64_t>(kClients);
  matrix.report().params["nominal_qps"] = kNominalQps;

  matrix.run_grid([&](std::size_t s, std::size_t r, obs::Registry* registry) {
    return run(grid[s], kRungs[r], seed, duration_sec, registry);
  });
  matrix.print(
      {"scenario", "rung", "offered", "good%", "p50(ms)", "p99(ms)", "shed%",
       "raf", "hit%", "conns", "mem(KB)", "aux%"},
      [&](std::size_t s, std::size_t r, const RunMetrics& m,
          bench::CellJson& json) -> std::vector<std::string> {
        const Scenario& scenario = grid[s];
        const double good_pct = bench::pct(m.good, m.offered);
        const double shed_pct =
            bench::pct(static_cast<std::size_t>(m.tier.sheds()),
                       static_cast<std::size_t>(m.tier.requests));
        const double hit_pct =
            bench::pct(static_cast<std::size_t>(m.tier.cache_hits),
                       static_cast<std::size_t>(m.tier.cache_hits +
                                                m.tier.cache_misses));
        // aux%: post-recovery goodput for herd rows, non-hot-client goodput
        // for hotspot rows (the two scenario-specific gate inputs).
        std::string aux = "-";
        double aux_pct = 0.0;
        if (scenario.herd) {
          aux_pct = bench::pct(m.window_good, m.window_offered);
          aux = stats::format_double(aux_pct, 1);
        } else if (scenario.hot_share > 0.0) {
          aux_pct = bench::pct(m.nonhot_good, m.nonhot_offered);
          aux = stats::format_double(aux_pct, 1);
        }
        json.set("offered", static_cast<std::int64_t>(m.offered));
        json.set("good", static_cast<std::int64_t>(m.good));
        json.set("goodput_pct", good_pct);
        json.set("p50_ms", m.resolution_ms.empty()
                               ? 0.0
                               : stats::percentile(m.resolution_ms, 50));
        json.set("p99_ms", m.resolution_ms.empty()
                               ? 0.0
                               : stats::percentile(m.resolution_ms, 99));
        json.set("shed_pct", shed_pct);
        json.set("raf", raf(m));
        json.set("udp_retransmissions",
                 static_cast<std::int64_t>(m.udp_retransmissions));
        json.set("doh_reissues", static_cast<std::int64_t>(m.doh_reissues));
        json.set("doh_reconnects",
                 static_cast<std::int64_t>(m.doh_reconnects));
        json.set("cache_hit_pct", hit_pct);
        json.set("coalesced", static_cast<std::int64_t>(m.tier.coalesced));
        json.set("retries_detected",
                 static_cast<std::int64_t>(m.tier.retries_detected));
        dns::JsonObject shed;
        shed["queue_full"] = static_cast<std::int64_t>(m.tier.shed_queue_full);
        shed["deadline"] = static_cast<std::int64_t>(m.tier.shed_deadline);
        shed["admission"] = static_cast<std::int64_t>(m.tier.shed_admission);
        shed["fairness"] = static_cast<std::int64_t>(m.tier.shed_fairness);
        shed["retry_budget"] =
            static_cast<std::int64_t>(m.tier.shed_retry_budget);
        json.set("shed", dns::JsonValue(std::move(shed)));
        json.set("queue_peak", static_cast<std::int64_t>(m.tier.queue_peak));
        json.set("doh_peak_sessions",
                 static_cast<std::int64_t>(m.doh_peak_sessions));
        json.set("doh_memory_bytes",
                 static_cast<std::int64_t>(m.doh_memory_bytes));
        json.set("aux_pct", aux_pct);
        return {scenario.name, kRungs[r], std::to_string(m.offered),
                stats::format_double(good_pct, 1),
                bench::pctl(m.resolution_ms, 50),
                bench::pctl(m.resolution_ms, 99),
                stats::format_double(shed_pct, 1),
                stats::format_double(raf(m), 2),
                stats::format_double(hit_pct, 1),
                std::to_string(m.doh_peak_sessions),
                std::to_string(m.doh_memory_bytes / 1024), aux};
      });

  // Cell coordinates in the fixed scenario x rung grid.
  constexpr std::size_t k1x = 1, k2x = 2, kHotspot = 4, kHerd = 5;
  constexpr std::size_t kNone = 0, kFull = 3;

  const RunMetrics& full_1x = matrix.at(k1x, kFull);
  const RunMetrics& full_2x = matrix.at(k2x, kFull);
  const RunMetrics& none_2x = matrix.at(k2x, kNone);
  const double none_2x_pct = bench::pct(none_2x.good, none_2x.offered);
  const double full_2x_pct = bench::pct(full_2x.good, full_2x.offered);
  const RunMetrics& full_hot = matrix.at(kHotspot, kFull);
  const RunMetrics& none_hot = matrix.at(kHotspot, kNone);
  const double full_nonhot =
      bench::pct(full_hot.nonhot_good, full_hot.nonhot_offered);
  const RunMetrics& full_herd = matrix.at(kHerd, kFull);
  const double herd_pct =
      bench::pct(full_herd.window_good, full_herd.window_offered);

  matrix.gate("retention",
              "retention gate (full@2x >= 80% of full@1x goodput)",
              static_cast<double>(full_2x.good) >=
                  0.8 * static_cast<double>(full_1x.good),
              " (" + std::to_string(full_2x.good) + " vs " +
                  std::to_string(full_1x.good) + ")");
  matrix.gate("collapse",
              "collapse gate (none@2x <= half of full@2x goodput%)",
              none_2x_pct <= 0.5 * full_2x_pct,
              " (" + stats::format_double(none_2x_pct, 1) + "% vs " +
                  stats::format_double(full_2x_pct, 1) + "%)");
  matrix.gate("raf", "raf gate (none@2x >= 1.5, full@2x <= 1.2)",
              raf(none_2x) >= 1.5 && raf(full_2x) <= 1.2,
              " (" + stats::format_double(raf(none_2x), 2) + " / " +
                  stats::format_double(raf(full_2x), 2) + ")");
  matrix.gate("fairness",
              "fairness gate (hotspot full non-hot >= 85%, beats none)",
              full_nonhot >= 85.0 &&
                  full_nonhot >=
                      bench::pct(none_hot.nonhot_good, none_hot.nonhot_offered),
              " (" + stats::format_double(full_nonhot, 1) + "%)");
  matrix.gate("herd", "herd gate (post-recovery window >= 99% on full)",
              herd_pct >= 99.0,
              " (" + stats::format_double(herd_pct, 1) + "%)");
  if (no_gate) {
    std::printf("(--no-gate: ladder gates reported but not enforced)\n");
  }
  return matrix.finish(output, /*enforce=*/!no_gate);
}
