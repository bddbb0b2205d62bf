// How a DNS client runs its queries and recovers when one goes unanswered
// or its connection dies — one path for UdpResolverClient, DotClient (DoT
// and plain TCP), DohClient and DoqClient. DoH and DoT amortize TCP+TLS
// setup over a long-lived connection (the paper's cost argument), so what
// losing it costs is decided here, once: the per-query retry budget and
// backoff, the loss batch, stall detection, handshake and migration
// accounting, and every retry/path_probe/migrate/reconnect_resume span.
// Recovery also owns each query from resolve() to its callback: its id and
// result, its spans, its DNS ID where responses are matched by one, the
// in-flight map, its deadline and its completion. A client supplies a
// Session: its socket or connection object, its framing and how it
// migrates. DoT and DoH keep their TCP(+TLS) connections, and race them,
// through a core::Connector beside their Recovery.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/client.hpp"
#include "core/obs_hooks.hpp"
#include "obs/span.hpp"
#include "simnet/host.hpp"
#include "simnet/time.hpp"
#include "stats/rng.hpp"

namespace dohperf::simnet {
class TcpConnection;
}
namespace dohperf::tlssim {
class TlsConnection;
}

namespace dohperf::core {

struct RetryPolicy {
  /// Re-issues allowed per query after a transport loss or timeout; 0
  /// reproduces the old fail-fast behaviour.
  int max_retries = 0;
  simnet::TimeUs backoff_initial = simnet::ms(100);  ///< first reconnect wait
  simnet::TimeUs backoff_max = simnet::seconds(5);
  /// Fail (and possibly retry) a query not answered within this time;
  /// 0 disables. Guards against accept-then-never-answer servers.
  simnet::TimeUs query_timeout = 0;
  std::uint64_t seed = 0x5eed;
};

/// Jittered, exponentially growing reconnect delays: each consecutive
/// failure doubles the base up to backoff_max, and a seeded uniform jitter
/// turns a delay d into d * (1 ± kJitter).
class Backoff {
 public:
  static constexpr double kMultiplier = 2.0;
  static constexpr double kJitter = 0.2;

  explicit Backoff(const RetryPolicy& policy)
      : initial_(policy.backoff_initial),
        max_(policy.backoff_max),
        rng_(policy.seed) {}

  /// Delay before the next reconnect attempt.
  simnet::TimeUs next() {
    double base = static_cast<double>(initial_);
    for (int i = 0; i < failures_; ++i) base *= kMultiplier;
    const double cap = static_cast<double>(max_);
    if (base > cap) base = cap;
    ++failures_;
    const double u = rng_.next_double();  // [0, 1)
    const double jittered = base * (1.0 - kJitter + 2.0 * kJitter * u);
    return static_cast<simnet::TimeUs>(jittered);
  }

  /// Call on any successful exchange: the next failure starts small again.
  void reset() noexcept { failures_ = 0; }

 private:
  simnet::TimeUs initial_;
  simnet::TimeUs max_;
  stats::SplitMix64 rng_;
  int failures_ = 0;
};

/// Counters the chaos harness reports per client.
struct RetryStats {
  std::uint64_t reconnects = 0;        ///< replacement connections opened
  std::uint64_t retried_queries = 0;   ///< re-issues (loss- or timeout-driven)
  std::uint64_t budget_exhausted = 0;  ///< queries failed out of retries
  std::uint64_t query_timeouts = 0;    ///< per-query deadline expiries
};

/// Network-churn handling. Off, churn is only discovered through query
/// timeouts. On, the host's OS-visible change events and Recovery's stall
/// timer start a migration: a TCP client races a fresh connection against
/// the stalled one (core::Connector), DoQ validates the new path of the
/// same connection.
struct MigrationConfig {
  bool enabled = false;
};

/// Per-client migration and handshake-amortization accounting. Mirrored
/// into the metric contract as client.<t>.migrations /
/// client.<t>.migration_wasted_bytes / client.<t>.resumed_handshakes.
struct MigrationStats {
  std::uint64_t migrations = 0;             ///< completed path switches
  std::uint64_t migration_wasted_bytes = 0; ///< loser-side race traffic
  std::uint64_t resumed_handshakes = 0;     ///< ticket/PSK resumptions
  std::uint64_t full_handshakes = 0;
  std::uint64_t handshake_bytes = 0;  ///< handshake wire bytes, both dirs
  std::uint64_t handshake_rtts = 0;   ///< modelled round trips paid
};

/// Why a query was re-issued: the `reason` of its `retry` span. The values
/// index the span's reason names in recovery.cpp.
enum class RetryReason : std::uint8_t {
  kTimeout = 0,      ///< its own deadline passed; re-sent on a live path
  kTimeoutTeardown,  ///< a query deadline condemned the whole connection
  kConnectionLoss,   ///< the connection died (reset, close, GOAWAY, ...)
  kMigration,        ///< moved onto the connection that won a migration race
  kCount,
};

/// One query as Recovery tracks it, across every attempt.
struct Attempt {
  std::uint64_t query_id = 0;
  ResolveCallback callback;
  dns::Name name;  ///< kept for re-issue
  obs::SpanId span = 0;          ///< the resolution span
  obs::SpanId request_span = 0;  ///< current attempt
  simnet::EventId timeout_timer;
  int retries_left = 0;
  int attempt = 0;
  dns::RType type = dns::RType::kA;
  /// The DNS message ID of this attempt, for a Session keyed by DNS ID.
  std::uint16_t dns_id = 0;
};

/// What a UDP, DoT, DoH or DoQ client supplies to Recovery: how one attempt
/// goes on the wire, how a condemned connection is dropped, and how the
/// client migrates. The client implements it privately and hands itself to
/// its Recovery; every query it accepts then runs through Recovery.
class Session {
 public:
  /// Send one attempt of `a`'s query: open the connection if needed, call
  /// Recovery::open_request, then hand `a` back with Recovery::sent under
  /// the key its response will carry.
  virtual void send(Attempt&& a) = 0;
  /// The deadline of the query in flight under `key` condemned its
  /// connection: drop the connection (no local callbacks fire) and run the
  /// loss batch.
  virtual void abort(std::uint64_t key) = 0;
  /// An OS-visible network change, or a stall, asks for a migration.
  virtual void migrate(const char* reason) = 0;
  /// The deadline of `key` passed with budget left: true re-sends that
  /// query alone, at once, and leaves its connection be.
  virtual bool resend_alone(std::uint64_t /*key*/) const { return false; }
  /// `a` is about to complete: the transport's bookkeeping, run before the
  /// result is recorded and the callback runs.
  virtual void finishing(Attempt& /*a*/, bool /*success*/) {}
  /// False when a result's cost settles only after completion; the client
  /// then reports it with Recovery::record_cost.
  virtual bool cost_final_at_finish() const { return true; }
  /// True when responses are matched by DNS message ID: before each send()
  /// Recovery gives the attempt, in Attempt::dns_id, the next non-zero ID
  /// no query in flight holds, and the client keys the attempt by it. A
  /// re-send alone keeps its ID. With all 65,535 IDs in flight the query
  /// fails instead, one event later, so no callback runs inside resolve().
  virtual bool keyed_by_dns_id() const { return false; }

 protected:
  ~Session() = default;
};

class Recovery {
 public:
  /// With queries in flight and no progress for this long, the path is
  /// suspect and the client migrates. The one stall rule, migration on:
  /// the timer starts when a query goes in flight and none runs, restarts
  /// when a query completes with others still in flight, and stops when
  /// nothing is in flight. A DNS response fits one record or frame, so a
  /// completion is the progress a byte count would show.
  static constexpr simnet::TimeUs kStallTimeout = simnet::ms(400);

  /// `retry`, `migration` and `obs` live in the client and are read at each
  /// use (set_obs rebinds the sink); `transport` is the <t> of
  /// client.<t>.*.
  Recovery(simnet::Host& host, Session& session, const RetryPolicy& retry,
           const MigrationConfig& migration, const obs::SpanContext& obs,
           std::string transport);
  ~Recovery();

  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  const RetryStats& retry_stats() const noexcept { return retry_stats_; }
  const MigrationStats& migration_stats() const noexcept {
    return migration_stats_;
  }
  /// The client.<t>.* handles; clients count their connections here.
  const ClientMetrics& metrics() const noexcept { return metrics_; }

  // --- a query from resolve() to its callback ----------------------------

  /// resolve(): record the query with its full budget, open its resolution
  /// span, and send its first attempt. Returns the query id.
  std::uint64_t accept(const dns::Name& name, dns::RType type,
                       ResolveCallback callback);
  /// Number `a`'s next attempt and open its request span; `stream_id`, if
  /// any, is named on the span before the attempt.
  void open_request(Attempt& a, std::optional<std::uint64_t> stream_id = {});
  /// `a` went on the wire as `query_bytes` of DNS message, and its response
  /// will carry `key`: count the bytes, start the deadline (and the stall
  /// timer, if none runs), keep it in flight.
  void sent(std::uint64_t key, Attempt&& a, std::size_t query_bytes);
  /// Add `cost`, spent on the wire by query `id`, to its result. A client
  /// whose cost is final at finish adds it before the query completes.
  void add_cost(std::uint64_t id, const CostReport& cost) {
    slots_[id].result.cost += cost;
  }
  /// Queries in flight, by key.
  const std::map<std::uint64_t, Attempt>& in_flight() const noexcept {
    return in_flight_;
  }
  /// The in-flight record of `key`, or null.
  Attempt* find(std::uint64_t key);
  /// `response` (`dns_bytes` on the wire) answers `key`: complete it. False
  /// when `key` is not in flight.
  bool answer(std::uint64_t key, dns::Message&& response,
              std::size_t dns_bytes);
  /// A response for `key` arrived but cannot be used: fail the query, with
  /// no retry. False when `key` is not in flight.
  bool fail(std::uint64_t key);
  /// Fail `a`, which never went in flight.
  void fail(Attempt&& a);

  const ResolutionResult& result(std::uint64_t id) const {
    return slots_.at(id).result;
  }
  std::size_t completed() const noexcept { return completed_; }
  std::uint64_t failures() const noexcept { return failures_; }
  /// The settled transport cost of the completed query `id` (its DNS
  /// bytes are kept); ignored before completion. The first report goes on
  /// the resolution span and the bytes.* counters. Const because result()
  /// settles it.
  void record_cost(std::uint64_t id, const CostReport& cost) const;

  // --- the loss batch ----------------------------------------------------

  /// The connection died, or a deadline condemned it, with every query in
  /// flight on it: run the loss batch over them in key order. `migrated`:
  /// a race was won, so each query moves to the validated new path at
  /// once (no backoff, no reconnect), charged one retry.
  void lose(bool migrated = false);
  /// The loss batch over the queries in flight under `keys`, in that order.
  void lose(const std::vector<std::uint64_t>& keys, bool migrated = false);

  /// `close()` shuts the connection on purpose: the loss batch it runs
  /// fails everything in flight.
  template <typename F>
  void close_deliberately(F&& close) {
    closing_ = true;
    close();
    closing_ = false;
  }

  // --- migration accounting and spans ------------------------------------

  /// Open the `migrate` span (an open one keeps its first reason).
  void open_migrate_span(const char* reason);
  obs::SpanId migrate_span() const noexcept { return migrate_span_; }
  /// A migration completed without a race; `winner` names the path kept.
  void migrated(const char* winner);
  /// A happy-eyeballs race starts against the `stalled` connection.
  void start_race(const simnet::TcpConnection& stalled);
  /// The fresh connection won: what `stalled` (null: gone) moved since
  /// start_race is charged as waste.
  void race_won(const simnet::TcpConnection* stalled);
  /// The old path answered first: all of `racer`'s traffic was waste.
  void race_lost(const simnet::TcpConnection* racer);

  /// A TCP+TLS connection established: full or resumed, its bytes and
  /// round trips; a resumed reconnect is traced.
  void account_tls(const tlssim::TlsConnection& tls);
  /// A QUIC handshake completed: always full (quicsim has no 0-RTT), one
  /// combined transport+crypto round trip.
  void account_quic(std::uint64_t handshake_bytes);

  // --- the client's own events -------------------------------------------

  /// Run `fn`, a callback of the client that owns this Recovery, as a
  /// zero-delay event: outside the call stack that asks for it. ~Recovery
  /// cancels it if the client is destroyed before it fires.
  template <typename F>
  void post(F&& fn) {
    const simnet::TimeUs now = host_.loop().now();
    // An event due before now has fired: only this instant's are pending.
    std::erase_if(posted_, [now](const auto& e) { return e.first < now; });
    posted_.emplace_back(now, host_.loop().schedule_in(0, std::forward<F>(fn)));
  }

 private:
  /// A query's result, and what record_cost needs after its attempt is gone.
  struct Slot {
    ResolutionResult result;
    obs::SpanId span = 0;  ///< the resolution span
    bool finished = false;       ///< its callback has run
    bool cost_recorded = false;  ///< bytes.* attributes and counters added
  };

  /// Send `a`'s next attempt through the Session, with a fresh DNS ID if
  /// it is keyed by one (or fail it one event later when none is free).
  void issue(Attempt&& a);
  /// After `delay`, issue `a` again (`reissue`) or fail it. ~Recovery
  /// cancels the event if it has not fired.
  void defer(simnet::TimeUs delay, Attempt&& a, bool reissue);
  /// `key`'s deadline passed: fail it, re-send it alone, or condemn its
  /// connection, which charges only it.
  void on_deadline(std::uint64_t key);
  /// End `a`'s attempt (timer, request span) and charge and record a retry
  /// for `reason`. False when it must fail instead: a deliberate close, no
  /// policy, or a charged attempt out of budget (counted as exhausted).
  bool retry(Attempt& a, RetryReason reason, bool charged = true);
  /// Fail or re-issue each of `batch`, already out of flight, in order. A
  /// connection loss charges every query; a timeout teardown charges only
  /// the suspect (the rest were merely queued behind it) and re-issues it
  /// last, so a repeat stall cannot block the rest of the batch again.
  /// Re-issues wait one jittered backoff delay drawn for the whole batch.
  void lose_batch(std::vector<Attempt>& batch, bool migrated);
  /// Complete `a`: record the result, close its spans, count it, and run
  /// its callback. `response` is null on failure.
  void finish(Attempt&& a, dns::Message* response, std::size_t dns_bytes);
  void observe_cost(const Slot& slot) const;
  /// The stall rule (kStallTimeout), migration on: stop the timer when
  /// nothing is in flight, else start it if `progress` or none runs.
  void track_stall(bool progress);
  void on_stall();
  void close_migrate_span(const char* winner);
  /// Charge `bytes` of race traffic as migration waste.
  void waste(std::uint64_t bytes);

  simnet::Host& host_;
  Session& session_;
  const RetryPolicy& retry_;
  const MigrationConfig& migration_;
  const obs::SpanContext& obs_;
  ClientMetrics metrics_;
  CostMetrics cost_metrics_;
  Backoff backoff_;
  RetryStats retry_stats_;
  MigrationStats migration_stats_;

  mutable std::vector<Slot> slots_;  ///< by query id
  std::map<std::uint64_t, Attempt> in_flight_;
  /// Events holding a query out of flight (a re-send waiting out its
  /// backoff, a deferred failure), by query id.
  std::map<std::uint64_t, simnet::EventId> deferred_;
  std::uint16_t dns_id_cursor_ = 1;  ///< where the next DNS ID search starts
  std::size_t completed_ = 0;
  std::uint64_t failures_ = 0;

  simnet::EventId stall_timer_;
  /// post()'s events, by the instant they are due.
  std::vector<std::pair<simnet::TimeUs, simnet::EventId>> posted_;
  std::uint64_t listener_id_ = 0;
  obs::SpanId migrate_span_ = 0;
  /// The stalled connection's byte count when the current race began.
  std::uint64_t race_baseline_bytes_ = 0;
  bool ever_connected_ = false;
  bool closing_ = false;  ///< close_deliberately() in progress: no retries
  /// Query id of the query whose deadline is tearing its connection down.
  std::optional<std::uint64_t> suspect_;
};

}  // namespace dohperf::core
