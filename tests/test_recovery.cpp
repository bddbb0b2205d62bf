// Characterization of how the stateful DNS clients recover. Every transport
// that keeps a connection — plain DNS-over-TCP, DoT, DoH over HTTP/1.1 and
// HTTP/2, DoQ — runs four faults:
//   * restart: the server crashes with three queries in flight and comes
//     back 150 ms later (RetryPolicy on, no per-query timeout);
//   * timeout_teardown: the server stalls about half the queries (seeded)
//     and the 300 ms per-query timeout has to recover them;
//   * budget_exhausted: the server crashes and never comes back, so the
//     retry budget runs out;
//   * silent_rebind: migration on, a NAT rebind the OS never reports (the
//     stall detector must notice it), then an OS-visible profile swap while
//     a query is in flight on a connection that still works.
// Each case renders everything the client reports — every result, its
// RetryStats and MigrationStats, its client.<t>.* counters — and the whole
// span timeline, and compares the text byte for byte with
// recovery_golden/<transport>.<fault>.txt. Retry order, backoff draws,
// budget charges, span order and handshake accounting are all pinned, so a
// change to recovery behaviour must come with a deliberate golden update.
//
// WonRaceTest checks the won-race rule on every transport that races TCP
// connections. The RecoveryRules cases at the end drive core::Recovery
// through a fake Session, with no network: each rule of the loss batch,
// the deadline and the stall timer on its own.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/doh_client.hpp"
#include "core/doq_client.hpp"
#include "core/dot_client.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/doq_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/engine.hpp"
#include "sim_fixture.hpp"
#include "simnet/netchange.hpp"

namespace dohperf {
namespace {

enum class Transport { kTcp, kDot, kDohH1, kDohH2, kDoq };
enum class Fault { kRestart, kTimeoutTeardown, kBudgetExhausted, kSilentRebind };

const char* to_string(Transport t) {
  switch (t) {
    case Transport::kTcp: return "tcp";
    case Transport::kDot: return "dot";
    case Transport::kDohH1: return "doh_h1";
    case Transport::kDohH2: return "doh_h2";
    case Transport::kDoq: return "doq";
  }
  return "?";
}

const char* to_string(Fault f) {
  switch (f) {
    case Fault::kRestart: return "restart";
    case Fault::kTimeoutTeardown: return "timeout_teardown";
    case Fault::kBudgetExhausted: return "budget_exhausted";
    case Fault::kSilentRebind: return "silent_rebind";
  }
  return "?";
}

struct Case {
  Transport transport;
  Fault fault;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class RecoveryTest : public testing::TwoHostFixture,
                     public ::testing::WithParamInterface<Case> {
 protected:
  RecoveryTest() { tracer.bind(loop); }

  void start_server() {
    const auto chain = tlssim::CertificateChain::generic("local.resolver");
    switch (GetParam().transport) {
      case Transport::kTcp:
      case Transport::kDot: {
        resolver::DotServerConfig config;
        config.tls.chain = chain;
        config.plain_tcp = GetParam().transport == Transport::kTcp;
        dot_server = std::make_unique<resolver::DotServer>(
            server, *engine, config, port());
        return;
      }
      case Transport::kDohH1:
      case Transport::kDohH2: {
        resolver::DohServerConfig config;
        config.tls.chain = chain;
        doh_server = std::make_unique<resolver::DohServer>(server, *engine,
                                                           config, port());
        return;
      }
      case Transport::kDoq: {
        resolver::DoqServerConfig config;
        config.tls.chain = chain;
        config.quic.allow_migration = true;
        doq_server = std::make_unique<resolver::DoqServer>(server, *engine,
                                                           config, port());
        return;
      }
    }
  }

  std::uint16_t port() const {
    switch (GetParam().transport) {
      case Transport::kTcp: return 53;
      case Transport::kDot: return 853;
      case Transport::kDohH1:
      case Transport::kDohH2: return 443;
      case Transport::kDoq: return 8853;
    }
    return 0;
  }

  /// Crash the server for `downtime`. The TCP servers RST every connection
  /// and close the listener. quicsim has no server restart, so the DoQ
  /// server object goes away (its connection state dies with it; the
  /// client's packets meet a closed port) and a fresh one comes up later.
  void crash_server(simnet::TimeUs downtime) {
    if (dot_server) {
      dot_server->restart(downtime);
    } else if (doh_server) {
      doh_server->restart(downtime);
    } else {
      doq_server.reset();
      loop.schedule_in(downtime, [this]() { start_server(); });
    }
  }

  void start_client(const core::RetryPolicy& retry,
                    const core::MigrationConfig& migration) {
    const obs::SpanContext obs{&tracer, 0, &registry};
    const simnet::Address address{server.id(), port()};
    switch (GetParam().transport) {
      case Transport::kTcp:
      case Transport::kDot: {
        core::DotClientConfig config;
        config.server_name = "local.resolver";
        config.plain_tcp = GetParam().transport == Transport::kTcp;
        config.session_cache = &cache;
        config.retry = retry;
        config.migration = migration;
        config.obs = obs;
        dot = std::make_unique<core::DotClient>(client, address, config);
        stub = dot.get();
        return;
      }
      case Transport::kDohH1:
      case Transport::kDohH2: {
        core::DohClientConfig config;
        config.server_name = "local.resolver";
        config.http_version = GetParam().transport == Transport::kDohH2
                                  ? core::HttpVersion::kHttp2
                                  : core::HttpVersion::kHttp1;
        config.session_cache = &cache;
        config.retry = retry;
        config.migration = migration;
        config.obs = obs;
        doh = std::make_unique<core::DohClient>(client, address, config);
        stub = doh.get();
        return;
      }
      case Transport::kDoq: {
        core::DoqClientConfig config;
        config.server_name = "local.resolver";
        config.retry = retry;
        config.migration = migration;
        config.obs = obs;
        doq = std::make_unique<core::DoqClient>(client, address, config);
        stub = doq.get();
        return;
      }
    }
  }

  void resolve_at(simnet::TimeUs when, const std::string& label) {
    loop.schedule_at(when, [this, label]() {
      ids.push_back(stub->resolve(dns::Name::parse(label + ".example.com"),
                                  dns::RType::kA, {}));
    });
  }

  /// Drive the case's fault to completion (the loop runs dry).
  void run_fault() {
    resolver::EngineConfig engine_config;
    engine_config.upstream.processing = simnet::us(50);
    engine_config.seed = 0x5eed;
    core::RetryPolicy retry;
    retry.max_retries = 3;
    retry.backoff_initial = simnet::ms(50);
    retry.backoff_max = simnet::ms(400);
    retry.seed = 99;
    core::MigrationConfig migration;

    switch (GetParam().fault) {
      case Fault::kRestart:
        break;
      case Fault::kTimeoutTeardown:
        engine_config.faults.stall_rate = 0.5;
        retry.query_timeout = simnet::ms(300);
        break;
      case Fault::kBudgetExhausted:
        retry.max_retries = 2;
        break;
      case Fault::kSilentRebind:
        retry.query_timeout = simnet::ms(500);
        migration.enabled = true;
        break;
    }
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    start_server();
    start_client(retry, migration);

    switch (GetParam().fault) {
      case Fault::kRestart:
        resolve_at(0, "warm");
        for (const char* q : {"q1", "q2", "q3"}) resolve_at(simnet::ms(200), q);
        loop.schedule_at(simnet::ms(200) + 1,
                         [this]() { crash_server(simnet::ms(150)); });
        break;
      case Fault::kTimeoutTeardown:
        resolve_at(0, "warm");
        for (int i = 1; i <= 4; ++i) {
          resolve_at(simnet::ms(200) + simnet::ms(20) * i,
                     "s" + std::to_string(i));
        }
        break;
      case Fault::kBudgetExhausted:
        resolve_at(0, "warm");
        for (const char* q : {"q1", "q2", "q3"}) resolve_at(simnet::ms(200), q);
        loop.schedule_at(simnet::ms(200) + 1,
                         [this]() { crash_server(simnet::seconds(3600)); });
        break;
      case Fault::kSilentRebind: {
        resolve_at(0, "warm");
        loop.schedule_at(simnet::ms(200),
                         [this]() { client.rebind(/*rst_old_flows=*/false); });
        for (const char* q : {"q1", "q2", "q3"}) resolve_at(simnet::ms(200), q);
        simnet::LinkConfig lte;
        lte.latency = simnet::ms(40);
        simnet::NetworkChangeSchedule schedule;
        schedule.add_profile_swap(simnet::seconds(2), lte);
        simnet::apply_network_changes(client, server.id(), schedule);
        // q4 is still in flight when the swap lands: the old connection
        // keeps working, so it answers before any racer can win.
        resolve_at(simnet::seconds(2) - simnet::ms(5), "q4");
        resolve_at(simnet::seconds(3), "q5");
        break;
      }
    }
    loop.run();
  }

  const core::RetryStats& retry_stats() const {
    if (dot) return dot->retry_stats();
    if (doh) return doh->retry_stats();
    return doq->retry_stats();
  }

  const core::MigrationStats& migration_stats() const {
    if (dot) return dot->migration_stats();
    if (doh) return doh->migration_stats();
    return doq->migration_stats();
  }

  /// Everything the client reports, then the span timeline.
  std::string report() const {
    std::ostringstream os;
    os << "results:\n";
    for (const std::uint64_t id : ids) {
      const core::ResolutionResult& r = stub->result(id);
      os << "  q" << id << (r.success ? " ok" : " fail")
         << " sent_us=" << r.sent_at << " done_us=" << r.completed_at
         << " dns_bytes=" << r.cost.dns_message_bytes
         << " wire_bytes=" << r.cost.wire_bytes << '\n';
    }
    const core::RetryStats& rs = retry_stats();
    os << "retry: reconnects=" << rs.reconnects
       << " retried_queries=" << rs.retried_queries
       << " budget_exhausted=" << rs.budget_exhausted
       << " query_timeouts=" << rs.query_timeouts << '\n';
    const core::MigrationStats& ms = migration_stats();
    os << "migration: migrations=" << ms.migrations
       << " migration_wasted_bytes=" << ms.migration_wasted_bytes
       << " resumed_handshakes=" << ms.resumed_handshakes
       << " full_handshakes=" << ms.full_handshakes
       << " handshake_bytes=" << ms.handshake_bytes
       << " handshake_rtts=" << ms.handshake_rtts << '\n';
    os << "counters:\n";
    registry.each_counter([&](const std::string& name, std::uint64_t value) {
      if (name.rfind("client.", 0) == 0) {
        os << "  " << name << '=' << value << '\n';
      }
    });
    os << "timeline:\n" << obs::render_timeline(tracer);
    return os.str();
  }

  static std::string golden_path() {
    return std::string(RECOVERY_GOLDEN_DIR) + "/" +
           to_string(GetParam().transport) + "." +
           to_string(GetParam().fault) + ".txt";
  }

  obs::Tracer tracer;
  obs::Registry registry;
  tlssim::SessionCache cache;
  std::unique_ptr<resolver::Engine> engine;
  std::unique_ptr<resolver::DotServer> dot_server;
  std::unique_ptr<resolver::DohServer> doh_server;
  std::unique_ptr<resolver::DoqServer> doq_server;
  std::unique_ptr<core::DotClient> dot;
  std::unique_ptr<core::DohClient> doh;
  std::unique_ptr<core::DoqClient> doq;
  core::ResolverClient* stub = nullptr;
  std::vector<std::uint64_t> ids;
};

TEST_P(RecoveryTest, MatchesGolden) {
  run_fault();
  const std::string actual = report();
  const std::string path = golden_path();
  EXPECT_EQ(read_file(path), actual) << "golden file: " << path;
}

// The won-race rule, on every transport that races TCP connections: when
// the fresh connection is promoted, every query in flight on the stalled
// one is re-sent at that instant with reason `migration`, charged one
// retry, and no reconnect is counted.
class WonRaceTest : public RecoveryTest {};

TEST_P(WonRaceTest, ResendsEveryQueryInFlightAtThePromotionInstant) {
  run_fault();
  simnet::TimeUs promoted = -1;
  for (const obs::Span& s : tracer.spans()) {
    const obs::AttrValue* winner = s.attr("winner");
    if (s.name == "migrate" && winner != nullptr &&
        std::get<std::string>(*winner) == "fresh") {
      promoted = s.end;
    }
  }
  ASSERT_GE(promoted, 0) << "no race was won";
  // q1..q3 were in flight on the stalled connection.
  std::map<obs::SpanId, int> retries;
  std::map<obs::SpanId, simnet::TimeUs> resent_at;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name == "retry") {
      EXPECT_EQ(std::get<std::string>(*s.attr("reason")), "migration");
      EXPECT_EQ(s.start, promoted);
      ++retries[s.parent];
    } else if (s.name == "request" &&
               std::get<std::int64_t>(*s.attr("attempt")) == 2) {
      resent_at[s.parent] = s.start;
    }
  }
  EXPECT_EQ(retries.size(), 3u);
  for (const auto& [span, count] : retries) {
    EXPECT_EQ(count, 1);
    EXPECT_EQ(resent_at.at(span), promoted);
  }
  EXPECT_EQ(retry_stats().retried_queries, 3u);
  EXPECT_EQ(retry_stats().reconnects, 0u);
  EXPECT_EQ(registry.counter("client." + std::string(to_string(
                                             GetParam().transport)) +
                             ".reconnects"),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    TcpClients, WonRaceTest,
    ::testing::Values(Case{Transport::kTcp, Fault::kSilentRebind},
                      Case{Transport::kDot, Fault::kSilentRebind},
                      Case{Transport::kDohH1, Fault::kSilentRebind},
                      Case{Transport::kDohH2, Fault::kSilentRebind}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(to_string(info.param.transport));
    });

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Transport t : {Transport::kTcp, Transport::kDot,
                            Transport::kDohH1, Transport::kDohH2,
                            Transport::kDoq}) {
    for (const Fault f : {Fault::kRestart, Fault::kTimeoutTeardown,
                          Fault::kBudgetExhausted, Fault::kSilentRebind}) {
      cases.push_back({t, f});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Clients, RecoveryTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(to_string(info.param.transport)) + "_" +
             to_string(info.param.fault);
    });

// --- Recovery through a fake Session ------------------------------------------

/// A transport that puts nothing on the wire: it logs each attempt Recovery
/// sends and never answers. Its n-th attempt gets key 20, 30, 10, 50, 60, 40,
/// …, so key order is not issue order.
class FakeSession final : public core::Session {
 public:
  FakeSession(simnet::Host& host, const core::RetryPolicy& retry,
              const core::MigrationConfig& migration,
              const obs::SpanContext& obs)
      : recovery(host, *this, retry, migration, obs, "fake"),
        loop_(host.loop()) {}

  std::uint64_t resolve(int label) {
    return recovery.accept(
        dns::Name::parse("q" + std::to_string(label) + ".example"),
        dns::RType::kA, [this](const core::ResolutionResult& r) {
          callbacks.push_back(r.success);
        });
  }

  /// "q<id>@<ms>#<attempt>" per attempt sent, from the `first`-th on.
  std::vector<std::string> sent(std::size_t first = 0) const {
    return {log_.begin() + static_cast<std::ptrdiff_t>(first), log_.end()};
  }
  /// Key of the latest attempt of query `id`.
  std::uint64_t key_of(std::uint64_t id) const { return keys_.at(id); }

  void send(core::Attempt&& a) override {
    static constexpr std::uint64_t kRank[] = {1, 2, 0};
    const std::size_t n = log_.size();
    const std::uint64_t key = 10 * (n - n % 3 + kRank[n % 3]) + 10;
    recovery.open_request(a);
    log_.push_back("q" + std::to_string(a.query_id) + "@" +
                   std::to_string(loop_.now() / 1000) + "#" +
                   std::to_string(a.attempt));
    keys_[a.query_id] = key;
    recovery.sent(key, std::move(a), 10);
  }
  void abort(std::uint64_t key) override {
    aborted.push_back(key);
    recovery.lose();
  }
  void migrate(const char* reason) override {
    migrations.push_back(std::string(reason) + "@" +
                         std::to_string(loop_.now() / 1000));
  }
  bool resend_alone(std::uint64_t) const override { return alone; }

  /// Answer the latest attempt of query `id`.
  void answer(std::uint64_t id) {
    recovery.answer(key_of(id), dns::Message{}, 10);
  }

  core::Recovery recovery;
  bool alone = false;  ///< resend_alone's answer
  std::vector<std::uint64_t> aborted;
  std::vector<std::string> migrations;  ///< "<reason>@<ms>" per migrate()
  std::vector<bool> callbacks;  ///< success of each callback, in order

 private:
  simnet::EventLoop& loop_;
  std::vector<std::string> log_;
  std::map<std::uint64_t, std::uint64_t> keys_;
};

class RecoveryRules : public testing::TwoHostFixture {
 protected:
  RecoveryRules() {
    tracer.bind(loop);
    retry.max_retries = 2;
    retry.backoff_initial = simnet::ms(100);
    retry.backoff_max = simnet::seconds(1);
    retry.seed = 99;
  }

  FakeSession& start() {
    fake = std::make_unique<FakeSession>(client, retry, migration, obs);
    return *fake;
  }

  /// "q<id> <reason> attempt=<n>" per retry span, in begin order.
  std::vector<std::string> retries() const {
    std::map<obs::SpanId, std::string> query_of;
    std::vector<std::string> out;
    for (const obs::Span& s : tracer.spans()) {
      if (s.name == "resolution") {
        query_of[s.id] = "q" + std::to_string(query_of.size());
      } else if (s.name == "retry") {
        const auto attempt = std::get<std::int64_t>(*s.attr("attempt"));
        out.push_back(query_of.at(s.parent) + " " +
                      std::get<std::string>(*s.attr("reason")) +
                      " attempt=" + std::to_string(attempt));
      }
    }
    return out;
  }

  void at(simnet::TimeUs when, std::function<void()> fn) {
    loop.schedule_at(when, std::move(fn));
  }

  using Strings = std::vector<std::string>;

  core::RetryPolicy retry;
  core::MigrationConfig migration;
  obs::Tracer tracer;
  obs::Registry registry;
  obs::SpanContext obs{&tracer, 0, &registry};  ///< Recovery keeps a reference
  std::unique_ptr<FakeSession> fake;
};

TEST_F(RecoveryRules, LossResendsTheBatchInKeyOrderAfterOneBackoffDraw) {
  FakeSession& s = start();
  for (int i = 0; i < 3; ++i) s.resolve(i);
  at(simnet::ms(10), [&]() { s.recovery.lose(); });
  loop.run();

  // q2 holds key 10, q0 20, q1 30; one backoff draw (90 ms: 100 ms with
  // ±20 % jitter) for all three.
  EXPECT_EQ(s.sent(3), (Strings{"q2@100#2", "q0@100#2", "q1@100#2"}));
  EXPECT_EQ(retries(), (Strings{"q2 connection_loss attempt=1",
                                "q0 connection_loss attempt=1",
                                "q1 connection_loss attempt=1"}));
  const core::RetryStats& rs = s.recovery.retry_stats();
  EXPECT_EQ(rs.reconnects, 1u);
  EXPECT_EQ(rs.retried_queries, 3u);
  EXPECT_EQ(rs.budget_exhausted, 0u);
  EXPECT_TRUE(s.callbacks.empty());
}

TEST_F(RecoveryRules, TimeoutTeardownChargesOnlyTheSuspectAndResendsItLast) {
  retry.query_timeout = simnet::ms(300);
  FakeSession& s = start();
  for (int i = 0; i < 3; ++i) {
    at(simnet::ms(10) * i, [&s, i]() { s.resolve(i); });
  }
  loop.run_until(simnet::ms(500));

  // q0's deadline condemned its connection: keys 20 (q0), 30 (q1), 10 (q2)
  // are lost in key order, q0 moved last.
  EXPECT_EQ(s.aborted, (std::vector<std::uint64_t>{20}));
  EXPECT_EQ(retries(), (Strings{"q2 timeout_teardown attempt=1",
                                "q1 timeout_teardown attempt=1",
                                "q0 timeout_teardown attempt=1"}));
  EXPECT_EQ(s.sent(3), (Strings{"q2@390#2", "q1@390#2", "q0@390#2"}));
  EXPECT_EQ(s.recovery.find(s.key_of(0))->retries_left, 1);
  EXPECT_EQ(s.recovery.find(s.key_of(1))->retries_left, 2);
  EXPECT_EQ(s.recovery.find(s.key_of(2))->retries_left, 2);
  const core::RetryStats& rs = s.recovery.retry_stats();
  EXPECT_EQ(rs.query_timeouts, 1u);
  EXPECT_EQ(rs.reconnects, 1u);
  EXPECT_EQ(rs.retried_queries, 3u);
}

TEST_F(RecoveryRules, ExhaustedBudgetFailsTheQueryAndCallsBackOnce) {
  retry.max_retries = 1;
  FakeSession& s = start();
  const std::uint64_t id = s.resolve(0);
  at(simnet::ms(10), [&]() { s.recovery.lose(); });
  at(simnet::ms(500), [&]() { s.recovery.lose(); });
  loop.run();

  EXPECT_EQ(s.sent(), (Strings{"q0@0#1", "q0@100#2"}));
  EXPECT_EQ(s.callbacks, (std::vector<bool>{false}));
  EXPECT_FALSE(s.recovery.result(id).success);
  EXPECT_EQ(s.recovery.result(id).completed_at, simnet::ms(500));
  EXPECT_EQ(s.recovery.completed(), 1u);
  EXPECT_TRUE(s.recovery.in_flight().empty());
  const core::RetryStats& rs = s.recovery.retry_stats();
  EXPECT_EQ(rs.retried_queries, 1u);
  EXPECT_EQ(rs.budget_exhausted, 1u);
  EXPECT_EQ(rs.reconnects, 1u);  // the second batch re-sent nothing
}

TEST_F(RecoveryRules, DeliberateCloseFailsEverythingInFlightWithoutRetry) {
  FakeSession& s = start();
  for (int i = 0; i < 3; ++i) s.resolve(i);
  at(simnet::ms(10), [&]() {
    s.recovery.close_deliberately([&]() { s.recovery.lose(); });
  });
  loop.run();

  EXPECT_EQ(s.callbacks, (std::vector<bool>{false, false, false}));
  EXPECT_EQ(s.sent().size(), 3u);
  EXPECT_TRUE(retries().empty());
  const core::RetryStats& rs = s.recovery.retry_stats();
  EXPECT_EQ(rs.retried_queries, 0u);
  EXPECT_EQ(rs.reconnects, 0u);
  EXPECT_EQ(rs.budget_exhausted, 0u);
  EXPECT_EQ(registry.counter("client.fake.failures"), 3u);
}

TEST_F(RecoveryRules, ResendAloneRetriesAtOnceWithReasonTimeout) {
  retry.query_timeout = simnet::ms(300);
  FakeSession& s = start();
  s.alone = true;
  s.resolve(0);
  loop.run_until(simnet::ms(400));

  EXPECT_EQ(s.sent(), (Strings{"q0@0#1", "q0@300#2"}));
  EXPECT_EQ(retries(), (Strings{"q0 timeout attempt=1"}));
  EXPECT_TRUE(s.aborted.empty());
  const core::RetryStats& rs = s.recovery.retry_stats();
  EXPECT_EQ(rs.query_timeouts, 1u);
  EXPECT_EQ(rs.retried_queries, 1u);
  EXPECT_EQ(rs.reconnects, 0u);
}

// A client destroyed with queries pending leaves no event behind that would
// fire into its Recovery: not a deadline, not a re-send waiting out its
// backoff.
TEST_F(RecoveryRules, DestroyedWithAQueryInFlightCancelsItsDeadline) {
  retry.query_timeout = simnet::ms(300);
  start().resolve(0);
  loop.run_until(simnet::ms(100));
  ASSERT_EQ(loop.pending(), 1u);  // the deadline, due at 300 ms
  fake.reset();
  EXPECT_EQ(loop.pending(), 0u);
}

TEST_F(RecoveryRules, DestroyedDuringABackoffCancelsTheResend) {
  FakeSession& s = start();
  s.resolve(0);
  at(simnet::ms(10), [&]() { s.recovery.lose(); });
  loop.run_until(simnet::ms(50));
  ASSERT_EQ(loop.pending(), 1u);  // the re-send, due at 100 ms
  fake.reset();
  EXPECT_EQ(loop.pending(), 0u);
}

TEST_F(RecoveryRules, WonRaceResendsEveryQueryAtOnceWithReasonMigration) {
  FakeSession& s = start();
  for (int i = 0; i < 3; ++i) s.resolve(i);
  at(simnet::ms(50), [&]() { s.recovery.lose(/*migrated=*/true); });
  loop.run();

  EXPECT_EQ(s.sent(3), (Strings{"q2@50#2", "q0@50#2", "q1@50#2"}));
  EXPECT_EQ(retries(), (Strings{"q2 migration attempt=1",
                                "q0 migration attempt=1",
                                "q1 migration attempt=1"}));
  const core::RetryStats& rs = s.recovery.retry_stats();
  EXPECT_EQ(rs.reconnects, 0u);
  EXPECT_EQ(rs.retried_queries, 3u);
}

// The one stall rule (Recovery::kStallTimeout, 400 ms), migration on.

TEST_F(RecoveryRules, StallTimerStartsWithTheFirstQueryInFlight) {
  migration.enabled = true;
  FakeSession& s = start();
  at(simnet::ms(100), [&]() { s.resolve(0); });
  at(simnet::ms(300), [&]() { s.resolve(1); });  // a timer runs already
  loop.run_until(simnet::ms(1000));

  EXPECT_EQ(s.migrations, (Strings{"stall@500"}));
}

TEST_F(RecoveryRules, StallTimerRestartsOnACompletionWithOthersInFlight) {
  migration.enabled = true;
  FakeSession& s = start();
  s.resolve(0);
  s.resolve(1);
  at(simnet::ms(300), [&]() { s.answer(0); });
  loop.run_until(simnet::ms(1000));

  EXPECT_EQ(s.migrations, (Strings{"stall@700"}));
}

TEST_F(RecoveryRules, StallTimerNeverFiresWithNothingInFlight) {
  migration.enabled = true;
  FakeSession& s = start();
  s.resolve(0);
  s.resolve(1);
  at(simnet::ms(100), [&]() { s.answer(0); });
  at(simnet::ms(200), [&]() { s.answer(1); });
  loop.run_until(simnet::ms(200));
  EXPECT_EQ(loop.pending(), 0u);  // stopped with the last completion
  // A loss batch that holds its re-send back stops it too.
  at(simnet::ms(300), [&]() { s.resolve(2); });
  at(simnet::ms(350), [&]() { s.recovery.lose(); });
  loop.run_until(simnet::ms(400));
  EXPECT_EQ(loop.pending(), 1u);  // the re-send, due at 440 ms
  loop.run_until(simnet::ms(440));
  EXPECT_TRUE(s.migrations.empty());
}

TEST_F(RecoveryRules, StallTimerStartsAfreshAfterALossBatchReissues) {
  migration.enabled = true;
  FakeSession& s = start();
  s.resolve(0);
  at(simnet::ms(300), [&]() { s.recovery.lose(); });
  loop.run_until(simnet::ms(1000));

  // The batch re-sends q0 after one 90 ms backoff draw: the timer stopped
  // with the loss at 300 ms and starts again with the re-send at 390 ms.
  EXPECT_EQ(s.sent(), (Strings{"q0@0#1", "q0@390#2"}));
  EXPECT_EQ(s.migrations, (Strings{"stall@790"}));
}

// --- client events and the client's lifetime -----------------------------
//
// A client schedules zero-delay events of its own that capture it: DoH
// freezes a persistent query's counter window one event after completion,
// and a racer is promoted or torn down one event after its handshake or
// loss. Each case destroys its client while such an event is pending and
// then runs the loop. Recovery cancels them with the client; left on the
// loop, they are a heap-use-after-free under ASan.

/// A client host and a resolver host on one 5 ms link, built afresh for
/// each run of a case that runs the same world twice.
struct World {
  World() {
    simnet::LinkConfig link;
    link.latency = simnet::ms(5);
    net.connect(client.id(), server.id(), link);
  }

  simnet::EventLoop loop;
  simnet::Network net{loop, 7};
  simnet::Host client{net, "client"};
  simnet::Host server{net, "server"};
  resolver::Engine engine{loop, {}};
};

TEST(ClientLifetime, PersistentDohClientGoneBeforeItsCounterWindowFreezes) {
  World w;
  resolver::DohServerConfig server_config;
  server_config.tls.chain =
      tlssim::CertificateChain::generic("local.resolver");
  resolver::DohServer doh_server(w.server, w.engine, server_config, 443);
  core::DohClientConfig config;
  config.server_name = "local.resolver";
  auto stub = std::make_unique<core::DohClient>(
      w.client, simnet::Address{w.server.id(), 443}, config);
  bool answered = false;
  stub->resolve(dns::Name::parse("one.example.com"), dns::RType::kA,
                [&](const core::ResolutionResult& r) { answered = r.success; });
  while (!answered && w.loop.step()) {
  }
  ASSERT_TRUE(answered);
  stub.reset();  // the freeze of that query's window is one event away
  w.loop.run();
}

TEST(ClientLifetime, DotClientGoneBeforeItsRacerIsPromoted) {
  // A silent NAT rebind stalls the second query; the stall timer races a
  // fresh connection, whose handshake schedules its promotion. Returns how
  // many events had run when the racer was promoted; destroys the client
  // once `stop` events have run, if `stop` is not 0.
  const auto race = [](std::uint64_t stop) {
    World w;
    resolver::DotServerConfig server_config;
    server_config.tls.chain =
        tlssim::CertificateChain::generic("local.resolver");
    resolver::DotServer dot_server(w.server, w.engine, server_config, 853);
    core::DotClientConfig config;
    config.server_name = "local.resolver";
    config.retry.max_retries = 3;
    config.retry.query_timeout = simnet::ms(500);
    config.migration.enabled = true;
    auto stub = std::make_unique<core::DotClient>(
        w.client, simnet::Address{w.server.id(), 853}, config);
    stub->resolve(dns::Name::parse("one.example.com"), dns::RType::kA, {});
    w.loop.schedule_at(simnet::ms(200), [&]() {
      w.client.rebind(/*rst_old_flows=*/false);
      stub->resolve(dns::Name::parse("two.example.com"), dns::RType::kA, {});
    });
    while (w.loop.step()) {
      if (!stub) continue;
      if (stub->migration_stats().migrations > 0) return w.loop.executed();
      if (w.loop.executed() == stop) stub.reset();
    }
    return std::uint64_t{0};
  };
  const std::uint64_t promoted = race(0);
  ASSERT_GT(promoted, 1u);
  // One event earlier, the racer's handshake has scheduled the promotion.
  EXPECT_EQ(race(promoted - 1), 0u);
}

}  // namespace
}  // namespace dohperf
