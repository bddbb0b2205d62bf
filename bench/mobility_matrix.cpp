// Mobility matrix: the §3 workload replayed while the client hops networks —
// periodic Wi-Fi <-> LTE handovers that swap the link profile (5ms <-> 40ms)
// and silently re-address the client (NAT rebind: every old 5-tuple is
// black-holed) — across a churn sweep x transport x recovery-policy ladder:
//
//   udp   naive     retransmission is the recovery story (baseline)
//   dot   naive     RetryPolicy only: every reconnect pays a full handshake
//   dot   resume    + TLS session cache: reconnects resume in 1 RTT
//   dot   race      + migration: stall+probe detection, happy-eyeballs racing
//   doh   naive/resume/race   same ladder over HTTP/2
//   doq   naive     migration-incapable server: re-addressing strands the
//                   connection until the query timeout tears it down
//   doq   migrate   real QUIC connection migration: PATH_CHALLENGE validates
//                   the new path, the handshake survives re-addressing
//
// Reported per cell: availability, resolution-time percentiles, and the
// amortization ledger — migrations, resumed vs full handshakes, handshake
// bytes/RTTs paid, racing bytes wasted. Self-gating (skipped under
// --no-gate, determinism always checked): the policy ladder must be
// monotone in availability at every churn rate, resumption must pay
// strictly fewer handshake bytes than naive under churn, DoQ migration must
// survive re-addressing with zero new handshakes, and the whole table must
// be a pure function of --seed (two grid runs, byte-identical).
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "shard_runner.hpp"
#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "core/udp_client.hpp"
#include "resolver/engine.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/udp_server.hpp"
#include "simnet/netchange.hpp"
#include "workload/names.hpp"

namespace {

using namespace dohperf;

struct ChurnRate {
  std::string name;
  simnet::TimeUs interval;  ///< 0 = no churn
};

std::vector<ChurnRate> churn_rates() {
  return {{"none", 0},
          {"60s", simnet::seconds(60)},
          {"10s", simnet::seconds(10)},
          {"2s", simnet::seconds(2)}};
}

struct Rung {
  const char* transport;
  const char* policy;
};

constexpr std::array<Rung, 9> kRungs = {{{"udp", "naive"},
                                         {"dot", "naive"},
                                         {"dot", "resume"},
                                         {"dot", "race"},
                                         {"doh", "naive"},
                                         {"doh", "resume"},
                                         {"doh", "race"},
                                         {"doq", "naive"},
                                         {"doq", "migrate"}}};

struct RunMetrics {
  std::size_t queries = 0;
  std::size_t ok = 0;
  std::vector<double> resolution_ms;
  core::RetryStats retry;
  core::MigrationStats migration;
  std::uint64_t udp_final_timeouts = 0;
  std::size_t churn_events = 0;
};

RunMetrics run(const ChurnRate& churn, const Rung& rung, std::uint64_t seed,
               std::size_t queries, double rate_qps,
               obs::Registry* registry = nullptr) {
  simnet::EventLoop loop;
  simnet::Network net(loop, seed);
  simnet::Host client(net, "client");
  simnet::Host server(net, "resolver");

  simnet::LinkConfig wifi;
  wifi.latency = simnet::ms(5);
  simnet::LinkConfig lte;
  lte.latency = simnet::ms(40);
  net.connect(client.id(), server.id(), wifi);

  // Handover schedule: first hop at interval/2, then every interval until
  // the workload's horizon. Each hop = silent rebind + profile swap (the
  // swap is the OS-visible part change listeners react to).
  const simnet::TimeUs horizon =
      simnet::from_sec(static_cast<double>(queries) / rate_qps);
  std::size_t churn_events = 0;
  if (churn.interval > 0) {
    const auto schedule = simnet::NetworkChangeSchedule::periodic_handover(
        churn.interval / 2, churn.interval, horizon, wifi, lte);
    churn_events = schedule.changes().size() / 2;  // rebind + swap per hop
    simnet::apply_network_changes(client, server.id(), schedule);
  }

  const obs::SpanContext obs{nullptr, 0, registry};

  resolver::EngineConfig engine_config;
  engine_config.obs = obs;
  engine_config.upstream.processing = simnet::us(50);
  engine_config.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  resolver::Engine engine(loop, engine_config);

  const std::string transport = rung.transport;
  const std::string policy = rung.policy;
  const auto chain = tlssim::CertificateChain::generic("local.resolver");

  std::unique_ptr<resolver::UdpServer> udp_server;
  std::unique_ptr<resolver::DotServer> dot_server;
  std::unique_ptr<resolver::DohServer> doh_server;
  std::unique_ptr<resolver::DoqServer> doq_server;
  if (transport == "udp") {
    udp_server = std::make_unique<resolver::UdpServer>(server, engine, 53);
  } else if (transport == "dot") {
    resolver::DotServerConfig config;
    config.tls.chain = chain;
    dot_server =
        std::make_unique<resolver::DotServer>(server, engine, config, 853);
  } else if (transport == "doh") {
    resolver::DohServerConfig config;
    config.tls.chain = chain;
    doh_server =
        std::make_unique<resolver::DohServer>(server, engine, config, 443);
  } else {
    resolver::DoqServerConfig config;
    config.tls.chain = chain;
    // The migrate rung gets a real RFC 9000 §9 server; the naive rung keeps
    // replying to the address that opened the connection.
    config.quic.allow_migration = policy == "migrate";
    doq_server =
        std::make_unique<resolver::DoqServer>(server, engine, config, 8853);
  }

  // Recovery knobs shared by the stateful transports: an 8-retry budget
  // with 100ms..1s backoff rides out every churn cadence; the 1s per-query
  // timeout is the naive rungs' only churn detector.
  core::RetryPolicy retry;
  retry.max_retries = 8;
  retry.backoff_initial = simnet::ms(100);
  retry.backoff_max = simnet::seconds(1);
  retry.query_timeout = simnet::seconds(1);
  retry.seed = seed ^ 0xbf58476d1ce4e5b9ULL;

  tlssim::SessionCache cache;
  const bool with_cache = policy == "resume" || policy == "race";
  core::MigrationConfig migration;
  migration.enabled = policy == "race" || policy == "migrate";

  std::unique_ptr<core::ResolverClient> stub;
  core::UdpResolverClient* udp = nullptr;
  core::DotClient* dot = nullptr;
  core::DohClient* doh = nullptr;
  core::DoqClient* doq = nullptr;
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
    config.migration = migration;
    if (with_cache) config.session_cache = &cache;
    auto c = std::make_unique<core::DotClient>(
        client, simnet::Address{server.id(), 853}, config);
    dot = c.get();
    stub = std::move(c);
  } else if (transport == "doh") {
    core::DohClientConfig config;
    config.obs = obs;
    config.server_name = "local.resolver";
    config.http_version = core::HttpVersion::kHttp2;
    config.retry = retry;
    config.migration = migration;
    if (with_cache) config.session_cache = &cache;
    auto c = std::make_unique<core::DohClient>(
        client, simnet::Address{server.id(), 443}, config);
    doh = c.get();
    stub = std::move(c);
  } else {
    core::DoqClientConfig config;
    config.obs = obs;
    config.server_name = "local.resolver";
    config.retry = retry;
    config.migration = migration;
    auto c = std::make_unique<core::DoqClient>(
        client, simnet::Address{server.id(), 8853}, config);
    doq = c.get();
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
  m.churn_events = churn_events;
  for (std::size_t i = 0; i < queries; ++i) {
    const auto& r = stub->result(ids[i]);
    if (r.success && r.response.flags.rcode == dns::Rcode::kNoError) {
      ++m.ok;
      m.resolution_ms.push_back(
          static_cast<double>(r.resolution_time()) / 1e3);
    }
  }
  if (udp != nullptr) m.udp_final_timeouts = udp->timeouts();
  if (dot != nullptr) {
    m.retry = dot->retry_stats();
    m.migration = dot->migration_stats();
  }
  if (doh != nullptr) {
    m.retry = doh->retry_stats();
    m.migration = doh->migration_stats();
  }
  if (doq != nullptr) {
    m.retry = doq->retry_stats();
    m.migration = doq->migration_stats();
  }
  return m;
}

/// One cell of the grid plus its private metrics registry (merged into the
/// global registry in cell order, so the merged result is --jobs-invariant).
// detlint: hot-slot
struct alignas(64) Cell {
  RunMetrics metrics;
  obs::Registry registry;
};

std::vector<Cell> run_grid(std::uint64_t seed, std::size_t queries,
                           double rate_qps, std::size_t jobs,
                           bool with_registry) {
  const auto churns = churn_rates();
  return bench::run_sharded<Cell>(
      churns.size() * kRungs.size(), jobs, [&](std::size_t i) {
        Cell cell;
        cell.metrics =
            run(churns[i / kRungs.size()], kRungs[i % kRungs.size()], seed,
                queries, rate_qps, with_registry ? &cell.registry : nullptr);
        return cell;
      });
}

std::string render_matrix(const std::vector<Cell>& cells,
                          bench::BenchReport* json_report = nullptr) {
  stats::TextTable table;
  table.add_row({"churn", "transport", "policy", "avail%", "p50(ms)",
                 "p99(ms)", "migr", "resumed", "full-hs", "hs-bytes",
                 "hs-rtts", "wasted", "retries"});
  std::size_t cell_index = 0;
  for (const auto& churn : churn_rates()) {
    for (const Rung& rung : kRungs) {
      const RunMetrics& m = cells[cell_index++].metrics;
      const double pct =
          m.queries == 0 ? 0.0
                         : 100.0 * static_cast<double>(m.ok) /
                               static_cast<double>(m.queries);
      const auto pctl = [&](double p) {
        return m.resolution_ms.empty()
                   ? std::string("-")
                   : stats::format_double(
                         stats::percentile(m.resolution_ms, p), 1);
      };
      table.add_row({churn.name, rung.transport, rung.policy,
                     stats::format_double(pct, 1), pctl(50), pctl(99),
                     std::to_string(m.migration.migrations),
                     std::to_string(m.migration.resumed_handshakes),
                     std::to_string(m.migration.full_handshakes),
                     std::to_string(m.migration.handshake_bytes),
                     std::to_string(m.migration.handshake_rtts),
                     std::to_string(m.migration.migration_wasted_bytes),
                     std::to_string(m.retry.retried_queries)});
      if (json_report != nullptr) {
        const std::string key = churn.name + "/" + rung.transport + "/" +
                                rung.policy;
        json_report->set(key, "ok", static_cast<std::int64_t>(m.ok));
        json_report->set(key, "avail_pct", pct);
        json_report->set(key, "resolution_ms",
                         bench::box_json(m.resolution_ms));
        json_report->set(key, "churn_events",
                         static_cast<std::int64_t>(m.churn_events));
        json_report->set(key, "migrations",
                         static_cast<std::int64_t>(m.migration.migrations));
        json_report->set(
            key, "migration_wasted_bytes",
            static_cast<std::int64_t>(m.migration.migration_wasted_bytes));
        json_report->set(
            key, "resumed_handshakes",
            static_cast<std::int64_t>(m.migration.resumed_handshakes));
        json_report->set(
            key, "full_handshakes",
            static_cast<std::int64_t>(m.migration.full_handshakes));
        json_report->set(
            key, "handshake_bytes",
            static_cast<std::int64_t>(m.migration.handshake_bytes));
        json_report->set(
            key, "handshake_rtts",
            static_cast<std::int64_t>(m.migration.handshake_rtts));
        json_report->set(key, "retries", static_cast<std::int64_t>(
                                             m.retry.retried_queries));
        json_report->set(key, "reconnects",
                         static_cast<std::int64_t>(m.retry.reconnects));
        json_report->set(
            key, "timeouts",
            static_cast<std::int64_t>(m.udp_final_timeouts +
                                      m.retry.query_timeouts));
      }
    }
  }
  return table.render();
}

const RunMetrics& cell_at(const std::vector<Cell>& cells, std::size_t churn,
                          std::size_t rung) {
  return cells[churn * kRungs.size() + rung].metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t queries = bench::flag(argc, argv, "queries", 600);
  const std::uint64_t seed = bench::flag(argc, argv, "seed", 7);
  const std::size_t jobs =
      bench::flag(argc, argv, "jobs", bench::default_jobs());
  // --no-gate: reduced workloads (e.g. TSan CI) shrink the horizon below
  // the slow churn intervals, so the churn-dependent gates can't hold.
  const bool no_gate = bench::flag_set(argc, argv, "no-gate");
  const double rate_qps = 10.0;

  std::printf("=== Mobility matrix: network churn x transport x recovery "
              "policy ===\n");
  std::printf("(%zu unique names, Poisson %.0f q/s, seed %llu; each handover "
              "= silent NAT rebind + Wi-Fi<->LTE profile swap)\n\n",
              queries, rate_qps, static_cast<unsigned long long>(seed));

  obs::Registry registry;
  bench::BenchReport json_report("mobility_matrix");
  json_report.params["queries"] = static_cast<std::int64_t>(queries);
  json_report.params["seed"] = static_cast<std::int64_t>(seed);

  const auto cells = run_grid(seed, queries, rate_qps, jobs, true);
  for (const auto& cell : cells) registry.merge_from(cell.registry);
  const std::string first = render_matrix(cells, &json_report);
  const std::string second =
      render_matrix(run_grid(seed, queries, rate_qps, jobs, false));
  std::fputs(first.c_str(), stdout);
  std::printf("\ndeterminism check (two full grid runs, same seed): %s\n",
              first == second ? "PASS - byte-identical" : "FAIL");

  const auto churns = churn_rates();
  // Rung indices into kRungs.
  constexpr std::size_t kDotNaive = 1, kDotResume = 2, kDotRace = 3;
  constexpr std::size_t kDohNaive = 4, kDohResume = 5, kDohRace = 6;
  constexpr std::size_t kDoqNaive = 7, kDoqMigrate = 8;

  // Gate 1: at every churn rate the policy ladder is monotone in
  // availability (ties allowed) — more machinery never answers less.
  bool ladder_ok = true;
  for (std::size_t c = 0; c < churns.size(); ++c) {
    const auto check = [&](std::size_t lo, std::size_t hi) {
      if (cell_at(cells, c, lo).ok > cell_at(cells, c, hi).ok) {
        std::printf("ladder check FAIL: churn=%s %s/%s ok=%zu > %s/%s "
                    "ok=%zu\n",
                    churns[c].name.c_str(), kRungs[lo].transport,
                    kRungs[lo].policy, cell_at(cells, c, lo).ok,
                    kRungs[hi].transport, kRungs[hi].policy,
                    cell_at(cells, c, hi).ok);
        ladder_ok = false;
      }
    };
    check(kDotNaive, kDotResume);
    check(kDotResume, kDotRace);
    check(kDohNaive, kDohResume);
    check(kDohResume, kDohRace);
    check(kDoqNaive, kDoqMigrate);
  }
  std::printf("ladder check (availability monotone up the policy ladder at "
              "every churn rate): %s\n",
              ladder_ok ? "PASS" : "FAIL");

  // Gate 2: under churn, session resumption pays strictly fewer handshake
  // bytes (and no more handshake RTTs) than the full-handshake rung, and
  // actually resumed at least once.
  bool resume_ok = true;
  for (std::size_t c = 0; c < churns.size(); ++c) {
    if (churns[c].interval == 0) continue;
    for (const auto& [naive, resume] :
         {std::pair{kDotNaive, kDotResume}, {kDohNaive, kDohResume}}) {
      const auto& n = cell_at(cells, c, naive).migration;
      const auto& r = cell_at(cells, c, resume).migration;
      if (r.resumed_handshakes == 0 || r.handshake_bytes >= n.handshake_bytes ||
          r.handshake_rtts > n.handshake_rtts) {
        std::printf("resumption check FAIL: churn=%s %s resumed=%llu "
                    "bytes=%llu vs naive bytes=%llu rtts=%llu vs %llu\n",
                    churns[c].name.c_str(), kRungs[resume].transport,
                    static_cast<unsigned long long>(r.resumed_handshakes),
                    static_cast<unsigned long long>(r.handshake_bytes),
                    static_cast<unsigned long long>(n.handshake_bytes),
                    static_cast<unsigned long long>(r.handshake_rtts),
                    static_cast<unsigned long long>(n.handshake_rtts));
        resume_ok = false;
      }
    }
  }
  std::printf("resumption check (under churn: strictly fewer handshake bytes "
              "than naive, no extra RTTs): %s\n",
              resume_ok ? "PASS" : "FAIL");

  // Gate 3: real QUIC migration — under churn the DoQ connection survives
  // every re-addressing: exactly the one original handshake, and at least
  // one validated path migration.
  bool doq_ok = true;
  for (std::size_t c = 0; c < churns.size(); ++c) {
    if (churns[c].interval == 0) continue;
    const auto& m = cell_at(cells, c, kDoqMigrate).migration;
    if (m.full_handshakes != 1 || m.migrations == 0) {
      std::printf("doq migration check FAIL: churn=%s full_handshakes=%llu "
                  "migrations=%llu\n",
                  churns[c].name.c_str(),
                  static_cast<unsigned long long>(m.full_handshakes),
                  static_cast<unsigned long long>(m.migrations));
      doq_ok = false;
    }
  }
  std::printf("doq migration check (connection survives re-addressing with "
              "zero new handshakes): %s\n",
              doq_ok ? "PASS" : "FAIL");

  json_report.set("checks", "determinism",
                  std::string(first == second ? "PASS" : "FAIL"));
  json_report.set("checks", "ladder", std::string(ladder_ok ? "PASS" : "FAIL"));
  json_report.set("checks", "resumption",
                  std::string(resume_ok ? "PASS" : "FAIL"));
  json_report.set("checks", "doq_migration",
                  std::string(doq_ok ? "PASS" : "FAIL"));
  bench::finish(argc, argv, json_report, nullptr, &registry);
  if (no_gate) {
    std::printf("(--no-gate: churn gates reported but not enforced)\n");
  }
  const bool gates_ok = ladder_ok && resume_ok && doq_ok;
  return first == second && (no_gate || gates_ok) ? 0 : 1;
}
