// Chaos matrix: the §3 workload (unique names, Poisson arrivals, local
// resolver) replayed under a grid of fault scenarios × transports, reporting
// eventual success rate, resolution-time percentiles and the recovery
// machinery's counters (re-issued queries, reconnects, exhausted budgets).
//
// Scenarios:
//   baseline       unimpaired link and resolver
//   bursty-loss    Gilbert–Elliott loss (mean burst ~3 packets, 50% in-burst)
//   link-outage    the link black-holes every packet for 2s mid-run
//   restart-2s     the resolver crashes (RST on every connection) for 2s
//   stall-10       resolver accepts but never answers 10% of queries
//   servfail-10    resolver answers SERVFAIL for 10% of queries
//   lat-spike      +300ms one-way latency for 2s mid-run
//   throttle       link throttled to 64 kbit/s for 3s mid-run
//   link-flap      client interface hard-down for 2s mid-run, back up with
//                  a new address (old 5-tuples black-holed)
//   retry-storm    resolver stalls 25% of queries behind a RecursiveTier
//                  whose server-side retry budget (10% of fresh traffic)
//                  detects the resulting client retransmissions/re-issues
//                  and sheds the excess REFUSED before it snowballs
//
// Every random draw (arrivals, names, loss, faults, backoff jitter) comes
// from seeded generators over virtual time, so the whole table is a pure
// function of --seed: the harness runs the grid twice and verifies the two
// renderings are byte-identical before printing.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "matrix.hpp"
#include "core/doh_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/recursive_tier.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/udp_server.hpp"
#include "simnet/fault.hpp"
#include "simnet/netchange.hpp"
#include "workload/names.hpp"

namespace {

using namespace dohperf;

struct Scenario {
  std::string name;
  resolver::FaultPolicy engine_faults{};
  simnet::GilbertElliott gilbert_elliott{};
  simnet::FaultSchedule link_faults{};
  simnet::TimeUs restart_at = 0;  ///< 0 = no server restart
  simnet::TimeUs restart_downtime = 0;
  simnet::TimeUs flap_at = 0;  ///< 0 = no client interface flap
  simnet::TimeUs flap_down = 0;
  /// Put a RecursiveTier (with a server-side retry budget) between the
  /// front-ends and the engine — the retry-storm scenario.
  bool tier_storm = false;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;

  all.push_back({.name = "baseline"});

  Scenario bursty{.name = "bursty-loss"};
  bursty.gilbert_elliott.enabled = true;
  bursty.gilbert_elliott.p_good_to_bad = 0.02;
  bursty.gilbert_elliott.p_bad_to_good = 0.3;
  bursty.gilbert_elliott.loss_good = 0.0;
  bursty.gilbert_elliott.loss_bad = 0.5;
  all.push_back(std::move(bursty));

  Scenario outage{.name = "link-outage"};
  outage.link_faults.add_outage(simnet::seconds(4), simnet::seconds(2));
  all.push_back(std::move(outage));

  Scenario restart{.name = "restart-2s"};
  restart.restart_at = simnet::seconds(4);
  restart.restart_downtime = simnet::seconds(2);
  all.push_back(std::move(restart));

  Scenario stall{.name = "stall-10"};
  stall.engine_faults.stall_rate = 0.10;
  all.push_back(std::move(stall));

  Scenario servfail{.name = "servfail-10"};
  servfail.engine_faults.servfail_rate = 0.10;
  all.push_back(std::move(servfail));

  Scenario spike{.name = "lat-spike"};
  spike.link_faults.add_latency_spike(simnet::seconds(4), simnet::seconds(2),
                                      simnet::ms(300));
  all.push_back(std::move(spike));

  Scenario throttle{.name = "throttle"};
  throttle.link_faults.add_throttle(simnet::seconds(4), simnet::seconds(3),
                                    /*bps=*/64'000.0);
  all.push_back(std::move(throttle));

  Scenario flap{.name = "link-flap"};
  flap.flap_at = simnet::seconds(4);
  flap.flap_down = simnet::seconds(2);
  all.push_back(std::move(flap));

  Scenario storm{.name = "retry-storm"};
  storm.engine_faults.stall_rate = 0.25;
  storm.tier_storm = true;
  all.push_back(std::move(storm));

  return all;
}

struct RunMetrics {
  std::size_t queries = 0;
  std::size_t ok = 0;          ///< success with NOERROR
  std::size_t rcode_fail = 0;  ///< answered, but SERVFAIL/REFUSED
  std::vector<double> resolution_ms;
  core::RetryStats retry;
  // Tier-side retry-budget accounting (retry-storm cells only).
  std::uint64_t tier_retries_detected = 0;
  std::uint64_t tier_shed_retry_budget = 0;
  std::uint64_t tier_upstream_timeouts = 0;
};

/// One cell of the matrix: `transport` in {udp, dot, h1, h2}.
RunMetrics run(const Scenario& scenario, const std::string& transport,
               std::uint64_t seed, std::size_t queries, double rate_qps,
               obs::Registry* registry = nullptr) {
  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");

  simnet::LinkConfig link;
  link.latency = simnet::ms(5);
  link.gilbert_elliott = scenario.gilbert_elliott;
  net.connect(client.id(), server.id(), link);
  if (!scenario.link_faults.empty()) {
    net.inject_faults(client.id(), server.id(), scenario.link_faults);
  }
  if (scenario.flap_at > 0) {
    // Interface hard-down, then back up with a new address. The rebind is
    // added first so at the up instant the host is already re-addressed
    // (every pre-flap 5-tuple stays black-holed).
    simnet::NetworkChangeSchedule schedule;
    schedule.add_rebind(scenario.flap_at + scenario.flap_down,
                        /*rst_old_flows=*/false);
    schedule.add_flap(scenario.flap_at, scenario.flap_down);
    simnet::apply_network_changes(client, server.id(), schedule);
  }

  const obs::SpanContext obs{nullptr, 0, registry};

  resolver::EngineConfig engine_config;
  engine_config.obs = obs;
  engine_config.upstream.processing = simnet::us(50);
  engine_config.faults = scenario.engine_faults;
  engine_config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  resolver::Engine engine(loop, engine_config);

  // The retry-storm cells interpose the shared tier: a stalled back-end
  // slot is reclaimed (SERVFAIL) after 3s — past every client timeout, so
  // clients retransmit/re-issue first and the tier's budget must account
  // for those retries server-side. Fresh traffic at 10 q/s deposits ~1
  // retry/s of budget; 25% stalls demand several times that, so the budget
  // drains and the excess is shed REFUSED (terminal for every client).
  std::unique_ptr<resolver::RecursiveTier> tier;
  resolver::QueryHandler* handler = &engine;
  if (scenario.tier_storm) {
    resolver::TierConfig tier_config;
    tier_config.obs = obs;
    tier_config.workers = 16;  // stalled slots park for 3s; keep headroom
    tier_config.service_timeout = simnet::seconds(3);
    tier_config.retry_budget_enabled = true;
    tier_config.retry_ratio_permille = 100;
    tier_config.retry_reserve_milli = 3000;
    tier_config.retry_cap_milli = 50000;
    tier_config.retry_window = simnet::seconds(4);
    tier = std::make_unique<resolver::RecursiveTier>(loop, engine,
                                                     tier_config);
    handler = tier.get();
  }

  resolver::UdpServer udp_server(server, *handler, 53);
  resolver::DotServer dot_server(server, *handler, {}, 853);
  resolver::DohServerConfig doh_config;
  doh_config.tls.chain = tlssim::CertificateChain::generic("local.resolver");
  resolver::DohServer doh_server(server, *handler, doh_config, 443);

  if (scenario.restart_at > 0) {
    loop.schedule_at(scenario.restart_at, [&]() {
      udp_server.restart(scenario.restart_downtime);
      dot_server.restart(scenario.restart_downtime);
      doh_server.restart(scenario.restart_downtime);
    });
  }

  // The recovery knobs under test: an 8-retry budget with 100ms..1s
  // exponential backoff spans >5s of cumulative waiting — comfortably past
  // the 2s outages — and a 2s per-query timeout rescues stalled exchanges.
  core::RetryPolicy retry;
  retry.max_retries = 8;
  retry.backoff_initial = simnet::ms(100);
  retry.backoff_max = simnet::seconds(1);
  retry.query_timeout = simnet::seconds(2);
  retry.seed = seed ^ 0xbf58476d1ce4e5b9ULL;

  std::unique_ptr<core::ResolverClient> stub;
  core::DohClient* doh = nullptr;
  core::DotClient* dot = nullptr;
  core::UdpResolverClient* udp = nullptr;
  if (transport == "udp") {
    core::UdpClientConfig config;
    config.obs = obs;
    config.timeout = simnet::seconds(1);
    config.max_retries = 8;
    auto c = std::make_unique<core::UdpResolverClient>(
        client, simnet::Address{server.id(), 53}, config);
    udp = c.get();
    stub = std::move(c);
  } else if (transport == "dot") {
    core::DotClientConfig config;
    config.obs = obs;
    config.server_name = "local.resolver";
    config.retry = retry;
    auto c = std::make_unique<core::DotClient>(
        client, simnet::Address{server.id(), 853}, config);
    dot = c.get();
    stub = std::move(c);
  } else {
    core::DohClientConfig config;
    config.obs = obs;
    config.server_name = "local.resolver";
    config.http_version = transport == "h1" ? core::HttpVersion::kHttp1
                                            : core::HttpVersion::kHttp2;
    config.h1_pipelining = true;
    config.retry = retry;
    auto c = std::make_unique<core::DohClient>(
        client, simnet::Address{server.id(), 443}, config);
    doh = c.get();
    stub = std::move(c);
  }

  workload::UniqueNameGenerator names("example.com", seed ^ 77);
  stats::PoissonArrivals arrivals(rate_qps, seed ^ 13);
  const auto times = arrivals.arrival_times(queries);

  std::vector<std::uint64_t> ids(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    const dns::Name name = names.next();
    loop.schedule_at(simnet::from_sec(times[i]), [&, i, name]() {
      ids[i] = stub->resolve(name, dns::RType::kA, {});
    });
  }
  loop.run();

  RunMetrics m;
  m.queries = queries;
  for (std::size_t i = 0; i < queries; ++i) {
    const auto& r = stub->result(ids[i]);
    const bool noerror =
        r.success && r.response.flags.rcode == dns::Rcode::kNoError;
    if (noerror) {
      ++m.ok;
      m.resolution_ms.push_back(
          static_cast<double>(r.resolution_time()) / 1e3);
    } else if (r.success) {
      ++m.rcode_fail;
    }
  }
  if (doh != nullptr) m.retry = doh->retry_stats();
  if (dot != nullptr) m.retry = dot->retry_stats();
  if (udp != nullptr) {
    // UDP re-sends each query alone and never reconnects: its retries and
    // deadlines count as the other transports' do.
    m.retry.retried_queries = udp->retry_stats().retried_queries;
    m.retry.query_timeouts = udp->retry_stats().query_timeouts;
  }
  if (tier != nullptr) {
    m.tier_retries_detected = tier->stats().retries_detected;
    m.tier_shed_retry_budget = tier->stats().shed_retry_budget;
    m.tier_upstream_timeouts = tier->stats().upstream_timeouts;
  }
  return m;
}

constexpr std::array<const char*, 4> kTransports = {"udp", "dot", "h1", "h2"};

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t queries = flags.num("queries", 100);
  const std::uint64_t seed = flags.num("seed", 5);
  const std::size_t jobs = flags.num("jobs", bench::default_jobs());
  const bench::Output output = flags.output();
  flags.reject_unknown();
  const double rate_qps = 10.0;

  std::printf("=== Chaos matrix: fault scenarios x DNS transports ===\n");
  std::printf("(%zu unique names, Poisson %.0f q/s, seed %llu; impairments "
              "strike 4s into the run)\n\n",
              queries, rate_qps,
              static_cast<unsigned long long>(seed));

  const auto grid = scenarios();
  std::vector<std::string> rows;
  for (const Scenario& scenario : grid) rows.push_back(scenario.name);
  bench::Matrix<RunMetrics> matrix(
      "chaos_matrix", rows, {kTransports.begin(), kTransports.end()}, jobs);
  matrix.report().params["queries"] = static_cast<std::int64_t>(queries);
  matrix.report().params["seed"] = static_cast<std::int64_t>(seed);

  // Every cell builds an isolated simulation seeded only by (seed,
  // scenario, transport), so cells parallelize without sharing any mutable
  // state.
  matrix.run_grid([&](std::size_t s, std::size_t t, obs::Registry* registry) {
    return run(grid[s], kTransports[t], seed, queries, rate_qps, registry);
  });
  matrix.print(
      {"scenario", "transport", "ok", "rcode-fail", "success%", "med(ms)",
       "p95(ms)", "max(ms)", "retries", "reconnects", "timeouts",
       "exhausted"},
      [&](std::size_t s, std::size_t t, const RunMetrics& m,
          bench::CellJson& json) -> std::vector<std::string> {
        const double pct = bench::pct(m.ok, m.queries);
        json.set("ok", static_cast<std::int64_t>(m.ok));
        json.set("rcode_fail", static_cast<std::int64_t>(m.rcode_fail));
        json.set("success_pct", pct);
        json.set("resolution_ms", bench::box_json(m.resolution_ms));
        json.set("retries",
                 static_cast<std::int64_t>(m.retry.retried_queries));
        json.set("reconnects", static_cast<std::int64_t>(m.retry.reconnects));
        json.set("timeouts",
                 static_cast<std::int64_t>(m.retry.query_timeouts));
        json.set("budget_exhausted",
                 static_cast<std::int64_t>(m.retry.budget_exhausted));
        json.set("tier_retries_detected",
                 static_cast<std::int64_t>(m.tier_retries_detected));
        json.set("tier_shed_retry_budget",
                 static_cast<std::int64_t>(m.tier_shed_retry_budget));
        json.set("tier_upstream_timeouts",
                 static_cast<std::int64_t>(m.tier_upstream_timeouts));
        return {grid[s].name, kTransports[t], std::to_string(m.ok),
                std::to_string(m.rcode_fail), stats::format_double(pct, 1),
                bench::pctl(m.resolution_ms, 50),
                bench::pctl(m.resolution_ms, 95),
                bench::pctl(m.resolution_ms, 100),
                std::to_string(m.retry.retried_queries),
                std::to_string(m.retry.reconnects),
                std::to_string(m.retry.query_timeouts),
                std::to_string(m.retry.budget_exhausted)};
      });

  // The headline robustness claim: through a 2s resolver outage — or a 2s
  // interface flap that comes back on a new address — the reconnecting
  // connection-oriented clients still answer everything eventually, without
  // blowing any per-query retry budget. The grid cells already hold these
  // runs; index back into them.
  bool recovered = true;
  for (std::size_t s = 0; s < grid.size(); ++s) {
    const auto& scenario = grid[s];
    if (scenario.restart_at == 0 && scenario.flap_at == 0) continue;
    for (const char* transport : {"dot", "h1", "h2"}) {
      const std::size_t t = static_cast<std::size_t>(
          std::find(kTransports.begin(), kTransports.end(),
                    std::string_view(transport)) -
          kTransports.begin());
      const RunMetrics& m = matrix.at(s, t);
      const double pct =
          m.queries == 0 ? 100.0 : bench::pct(m.ok, m.queries);
      if (pct < 99.0 || m.retry.budget_exhausted != 0) {
        std::printf("recovery check FAIL: %s/%s success=%.1f%% "
                    "budget_exhausted=%llu\n",
                    scenario.name.c_str(), transport, pct,
                    static_cast<unsigned long long>(
                        m.retry.budget_exhausted));
        recovered = false;
      }
    }
  }
  matrix.gate("recovery",
              "recovery check (>=99% success through restart-2s and "
              "link-flap, budget intact)",
              recovered);

  // The retry-storm claim, end to end: in every retry-storm cell the tier
  // detected the client retransmissions/re-issues, and the drained budget
  // actually shed some of them (summed across transports).
  bool storm_ok = true;
  std::uint64_t storm_sheds = 0;
  for (std::size_t s = 0; s < grid.size(); ++s) {
    if (!grid[s].tier_storm) continue;
    for (std::size_t t = 0; t < kTransports.size(); ++t) {
      const RunMetrics& m = matrix.at(s, t);
      storm_sheds += m.tier_shed_retry_budget;
      if (m.tier_retries_detected == 0) {
        std::printf("storm check FAIL: %s/%s detected no retries\n",
                    grid[s].name.c_str(), kTransports[t]);
        storm_ok = false;
      }
    }
  }
  matrix.gate("storm",
              "storm check (tier detects retries on every transport, "
              "budget sheds the excess)",
              storm_ok && storm_sheds > 0);
  return matrix.finish(output, /*enforce=*/true);
}
