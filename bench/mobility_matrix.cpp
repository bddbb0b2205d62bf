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
// survive re-addressing with zero new handshakes, DoT and DoH must recover
// alike on the race rung, and the whole table must be a pure function of
// --seed (two grid runs, byte-identical).
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "matrix.hpp"
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
  if (udp != nullptr) {
    // UDP re-sends each query alone and never reconnects: its retries and
    // deadlines count as the other transports' do.
    m.retry.retried_queries = udp->retry_stats().retried_queries;
    m.retry.query_timeouts = udp->retry_stats().query_timeouts;
  }
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

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::size_t queries = flags.num("queries", 600);
  const std::uint64_t seed = flags.num("seed", 7);
  const std::size_t jobs = flags.num("jobs", bench::default_jobs());
  // --no-gate: reduced workloads (e.g. TSan CI) shrink the horizon below
  // the slow churn intervals, so the churn-dependent gates can't hold.
  const bool no_gate = flags.on("no-gate");
  const bench::Output output = flags.output();
  flags.reject_unknown();
  const double rate_qps = 10.0;

  std::printf("=== Mobility matrix: network churn x transport x recovery "
              "policy ===\n");
  std::printf("(%zu unique names, Poisson %.0f q/s, seed %llu; each handover "
              "= silent NAT rebind + Wi-Fi<->LTE profile swap)\n\n",
              queries, rate_qps, static_cast<unsigned long long>(seed));

  const auto churns = churn_rates();
  std::vector<std::string> rows;
  for (const ChurnRate& churn : churns) rows.push_back(churn.name);
  std::vector<std::string> cols;
  for (const Rung& rung : kRungs) {
    cols.push_back(std::string(rung.transport) + "/" + rung.policy);
  }
  bench::Matrix<RunMetrics> matrix("mobility_matrix", rows, cols, jobs);
  matrix.report().params["queries"] = static_cast<std::int64_t>(queries);
  matrix.report().params["seed"] = static_cast<std::int64_t>(seed);

  matrix.run_grid([&](std::size_t c, std::size_t r, obs::Registry* registry) {
    return run(churns[c], kRungs[r], seed, queries, rate_qps, registry);
  });
  matrix.print(
      {"churn", "transport", "policy", "avail%", "p50(ms)", "p99(ms)", "migr",
       "resumed", "full-hs", "hs-bytes", "hs-rtts", "wasted", "retries"},
      [&](std::size_t c, std::size_t r, const RunMetrics& m,
          bench::CellJson& json) -> std::vector<std::string> {
        const double pct = bench::pct(m.ok, m.queries);
        json.set("ok", static_cast<std::int64_t>(m.ok));
        json.set("avail_pct", pct);
        json.set("resolution_ms", bench::box_json(m.resolution_ms));
        json.set("churn_events", static_cast<std::int64_t>(m.churn_events));
        json.set("migrations",
                 static_cast<std::int64_t>(m.migration.migrations));
        json.set("migration_wasted_bytes",
                 static_cast<std::int64_t>(m.migration.migration_wasted_bytes));
        json.set("resumed_handshakes",
                 static_cast<std::int64_t>(m.migration.resumed_handshakes));
        json.set("full_handshakes",
                 static_cast<std::int64_t>(m.migration.full_handshakes));
        json.set("handshake_bytes",
                 static_cast<std::int64_t>(m.migration.handshake_bytes));
        json.set("handshake_rtts",
                 static_cast<std::int64_t>(m.migration.handshake_rtts));
        json.set("retries",
                 static_cast<std::int64_t>(m.retry.retried_queries));
        json.set("reconnects", static_cast<std::int64_t>(m.retry.reconnects));
        json.set("timeouts",
                 static_cast<std::int64_t>(m.retry.query_timeouts));
        return {churns[c].name, kRungs[r].transport, kRungs[r].policy,
                stats::format_double(pct, 1), bench::pctl(m.resolution_ms, 50),
                bench::pctl(m.resolution_ms, 99),
                std::to_string(m.migration.migrations),
                std::to_string(m.migration.resumed_handshakes),
                std::to_string(m.migration.full_handshakes),
                std::to_string(m.migration.handshake_bytes),
                std::to_string(m.migration.handshake_rtts),
                std::to_string(m.migration.migration_wasted_bytes),
                std::to_string(m.retry.retried_queries)};
      });

  // Rung indices into kRungs.
  constexpr std::size_t kDotNaive = 1, kDotResume = 2, kDotRace = 3;
  constexpr std::size_t kDohNaive = 4, kDohResume = 5, kDohRace = 6;
  constexpr std::size_t kDoqNaive = 7, kDoqMigrate = 8;

  // Gate 1: at every churn rate the policy ladder is monotone in
  // availability (ties allowed) — more machinery never answers less.
  bool ladder_ok = true;
  for (std::size_t c = 0; c < churns.size(); ++c) {
    const auto check = [&](std::size_t lo, std::size_t hi) {
      if (matrix.at(c, lo).ok > matrix.at(c, hi).ok) {
        std::printf("ladder check FAIL: churn=%s %s/%s ok=%zu > %s/%s "
                    "ok=%zu\n",
                    churns[c].name.c_str(), kRungs[lo].transport,
                    kRungs[lo].policy, matrix.at(c, lo).ok,
                    kRungs[hi].transport, kRungs[hi].policy,
                    matrix.at(c, hi).ok);
        ladder_ok = false;
      }
    };
    check(kDotNaive, kDotResume);
    check(kDotResume, kDotRace);
    check(kDohNaive, kDohResume);
    check(kDohResume, kDohRace);
    check(kDoqNaive, kDoqMigrate);
  }
  matrix.gate("ladder",
              "ladder check (availability monotone up the policy ladder at "
              "every churn rate)",
              ladder_ok);

  // Gate 2: under churn, session resumption pays strictly fewer handshake
  // bytes (and no more handshake RTTs) than the full-handshake rung, and
  // actually resumed at least once.
  bool resume_ok = true;
  for (std::size_t c = 0; c < churns.size(); ++c) {
    if (churns[c].interval == 0) continue;
    for (const auto& [naive, resume] :
         {std::pair{kDotNaive, kDotResume}, {kDohNaive, kDohResume}}) {
      const auto& n = matrix.at(c, naive).migration;
      const auto& r = matrix.at(c, resume).migration;
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
  matrix.gate("resumption",
              "resumption check (under churn: strictly fewer handshake bytes "
              "than naive, no extra RTTs)",
              resume_ok);

  // Gate 3: real QUIC migration — under churn the DoQ connection survives
  // every re-addressing: exactly the one original handshake, and at least
  // one validated path migration.
  bool doq_ok = true;
  for (std::size_t c = 0; c < churns.size(); ++c) {
    if (churns[c].interval == 0) continue;
    const auto& m = matrix.at(c, kDoqMigrate).migration;
    if (m.full_handshakes != 1 || m.migrations == 0) {
      std::printf("doq migration check FAIL: churn=%s full_handshakes=%llu "
                  "migrations=%llu\n",
                  churns[c].name.c_str(),
                  static_cast<unsigned long long>(m.full_handshakes),
                  static_cast<unsigned long long>(m.migrations));
      doq_ok = false;
    }
  }
  matrix.gate("doq_migration",
              "doq migration check (connection survives re-addressing with "
              "zero new handshakes)",
              doq_ok);

  // Gate 4: DoT and DoH share one connection lifecycle, so at every churn
  // rate their race rungs recover alike: the same answers, retries,
  // reconnects, deadline expiries, migrations and handshakes.
  const auto recovery = [](const RunMetrics& m) {
    return std::array<std::uint64_t, 7>{
        m.ok,
        m.retry.retried_queries,
        m.retry.reconnects,
        m.retry.query_timeouts,
        m.migration.migrations,
        m.migration.resumed_handshakes,
        m.migration.full_handshakes};
  };
  bool alike_ok = true;
  for (std::size_t c = 0; c < churns.size(); ++c) {
    const auto dot = recovery(matrix.at(c, kDotRace));
    const auto doh = recovery(matrix.at(c, kDohRace));
    if (dot == doh) continue;
    std::printf("race like-for-like check FAIL: churn=%s (ok, retries, "
                "reconnects, timeouts, migrations, resumed, full) differ:",
                churns[c].name.c_str());
    for (std::size_t i = 0; i < dot.size(); ++i) {
      std::printf(" %llu/%llu", static_cast<unsigned long long>(dot[i]),
                  static_cast<unsigned long long>(doh[i]));
    }
    std::printf(" (dot/doh)\n");
    alike_ok = false;
  }
  matrix.gate("race_alike",
              "race like-for-like check (dot/race and doh/race recover "
              "alike at every churn rate)",
              alike_ok);
  const int status = matrix.finish(output, /*enforce=*/!no_gate);
  if (no_gate) {
    std::printf("(--no-gate: churn gates reported but not enforced)\n");
  }
  return status;
}
