// How a stateful DNS client recovers when its connection dies — one policy
// for DotClient (DoT and plain TCP), DohClient and DoqClient. DoH and DoT
// amortize TCP+TLS setup over a long-lived connection (the paper's cost
// argument), so what losing it costs is decided here, once: the per-query
// retry budget and backoff, the loss batch, stall detection, handshake and
// migration accounting, and every retry/path_probe/migrate/reconnect_resume
// span. A client keeps its connection object, its in-flight container, how
// it migrates, and where it arms and disarms the stall timer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
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
/// the stalled one, DoQ validates the new path of the same connection.
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

/// Trace one re-issue as a `retry` child of resolution span `span` (0: off).
void trace_retry(const obs::SpanContext& obs, obs::SpanId span,
                 RetryReason reason, int attempt);

/// One query as its client tracks it, across every attempt.
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
};

class Recovery {
 public:
  /// With queries in flight and no progress for this long, the path is
  /// suspect and the client migrates.
  static constexpr simnet::TimeUs kStallTimeout = simnet::ms(400);

  /// `retry`, `migration` and `obs` live in the client's config and are
  /// read at each use (set_obs rebinds the sink); `transport` is the <t> of
  /// client.<t>.*. `in_flight()`: is any query outstanding?
  /// `migrate(reason)` starts the client's migration.
  Recovery(simnet::Host& host, const RetryPolicy& retry,
           const MigrationConfig& migration, const obs::SpanContext& obs,
           std::string transport, std::function<bool()> in_flight,
           std::function<void(const char* reason)> migrate);
  ~Recovery();

  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  const std::string& transport() const noexcept { return transport_; }
  const RetryStats& retry_stats() const noexcept { return retry_stats_; }
  const MigrationStats& migration_stats() const noexcept {
    return migration_stats_;
  }
  /// Count on one of the client.<t>.* connection counters.
  void count(ConnectionMetrics::Counter counter, std::uint64_t delta = 1) {
    metrics_.add(obs_, counter, delta);
  }

  // --- the per-query attempt record --------------------------------------

  /// Fill in the record of a query resolve() just accepted: full budget.
  void track(Attempt& a, std::uint64_t query_id, ResolveCallback callback,
             const dns::Name& name, dns::RType type, obs::SpanId span) const;

  /// Start `a`'s deadline, if the policy has one.
  template <typename F>
  void arm_timeout(Attempt& a, F&& on_timeout) {
    if (retry_.query_timeout > 0) {
      a.timeout_timer = host_.loop().schedule_in(retry_.query_timeout,
                                                 std::forward<F>(on_timeout));
    }
  }

  /// A response arrived: the next loss starts the backoff small again.
  void answered() noexcept { backoff_.reset(); }

  /// `a`'s deadline passed. True when its budget allows a retry; false
  /// when it must fail (counted as an exhausted budget under a policy).
  bool timed_out(const Attempt& a);

  /// End `a`'s attempt (timer, request span) and charge and record a retry
  /// for `reason`. False when it must fail instead: a deliberate close, no
  /// policy, or a charged attempt out of budget (counted as exhausted).
  bool retry(Attempt& a, RetryReason reason, bool charged = true);

  // --- the loss batch ----------------------------------------------------

  /// A connection died, or a query timeout condemned it, with `keys` in
  /// flight in issue order. Each query either fails — a deliberate close,
  /// or a charged query whose budget is spent — or is re-issued after one
  /// jittered backoff delay drawn for the whole batch. A connection loss
  /// charges every query; a timeout teardown charges only the suspect (the
  /// rest were merely queued behind it) and re-issues it last, so a repeat
  /// stall cannot block the rest of the batch again. `migrated`: a race was
  /// won, so each query moves to the validated new path at once (no
  /// backoff), charged one retry.
  ///
  /// `find(key)` returns the query's record, or null to skip it (already
  /// complete); it runs afresh per key because `fail` runs callbacks that
  /// may issue new queries. `fail(key)` completes the query as failed;
  /// `reissue(key, delay)` sends its next attempt after `delay`.
  template <typename Key, typename Find, typename Fail, typename Reissue>
  void lose_batch(std::vector<Key>& keys, Find&& find, Fail&& fail,
                  Reissue&& reissue, bool migrated = false) {
    const auto is_suspect = [this](Key key) {
      return suspect_ && static_cast<std::uint64_t>(key) == *suspect_;
    };
    const auto it = std::find_if(keys.begin(), keys.end(), is_suspect);
    if (it != keys.end()) std::rotate(it, it + 1, keys.end());
    const RetryReason reason = migrated  ? RetryReason::kMigration
                               : suspect_ ? RetryReason::kTimeoutTeardown
                                          : RetryReason::kConnectionLoss;
    simnet::TimeUs delay = 0;
    bool drew = migrated;
    for (const Key key : keys) {
      Attempt* a = find(key);
      if (a == nullptr) continue;
      if (!retry(*a, reason, !suspect_ || is_suspect(key))) {
        fail(key);
        continue;
      }
      if (!drew) {  // one reconnect for the whole batch
        delay = backoff_.next();
        ++retry_stats_.reconnects;
        count(ConnectionMetrics::kReconnects);
        drew = true;
      }
      reissue(key, delay);
    }
  }

  /// lose_batch over a client's whole in-flight map, moved out first:
  /// `fail(record&&)`, `reissue(record&&, delay)`.
  template <typename Key, typename Record, typename Fail, typename Reissue>
  void lose_all(std::map<Key, Record>& in_flight, Fail&& fail,
                Reissue&& reissue, bool migrated = false) {
    std::map<Key, Record> lost = std::exchange(in_flight, {});
    std::vector<Key> keys;
    keys.reserve(lost.size());
    for (const auto& entry : lost) keys.push_back(entry.first);
    lose_batch(
        keys, [&](Key key) -> Attempt* { return &lost.at(key); },
        [&](Key key) { fail(std::move(lost.at(key))); },
        [&](Key key, simnet::TimeUs delay) {
          reissue(std::move(lost.at(key)), delay);
        },
        migrated);
  }

  /// `suspect`'s deadline passed with budget left: `teardown()` kills its
  /// connection and runs the loss batch, which charges only the suspect.
  template <typename F>
  void tear_down_for(std::uint64_t suspect, F&& teardown) {
    suspect_ = suspect;
    teardown();
    suspect_.reset();
  }

  /// `close()` shuts the connection on purpose: the loss batch it runs
  /// fails everything in flight.
  template <typename F>
  void close_deliberately(F&& close) {
    closing_ = true;
    close();
    closing_ = false;
  }

  // --- stall detection ---------------------------------------------------

  /// Start the stall timer unless it runs already (migration on only).
  void arm_stall_timer() {
    if (!migration_.enabled || stall_timer_.valid) return;
    stall_timer_ = host_.loop().schedule_in(kStallTimeout, [this]() {
      stall_timer_ = simnet::EventId{};
      on_stall();
    });
  }
  /// Progress seen: stop the stall timer.
  void disarm_stall_timer() {
    host_.loop().cancel(stall_timer_);
    stall_timer_ = simnet::EventId{};
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

 private:
  void on_stall();
  void close_migrate_span(const char* winner);
  /// Charge `bytes` of race traffic as migration waste.
  void waste(std::uint64_t bytes);

  simnet::Host& host_;
  const RetryPolicy& retry_;
  const MigrationConfig& migration_;
  const obs::SpanContext& obs_;
  std::string transport_;
  std::function<bool()> in_flight_;
  std::function<void(const char*)> migrate_;
  ConnectionMetrics metrics_;
  Backoff backoff_;
  RetryStats retry_stats_;
  MigrationStats migration_stats_;

  simnet::EventId stall_timer_;
  std::uint64_t listener_id_ = 0;
  obs::SpanId migrate_span_ = 0;
  /// The stalled connection's byte count when the current race began.
  std::uint64_t race_baseline_bytes_ = 0;
  bool ever_connected_ = false;
  bool closing_ = false;  ///< close_deliberately() in progress: no retries
  /// Key of the query whose timeout is tearing its connection down.
  std::optional<std::uint64_t> suspect_;
};

}  // namespace dohperf::core
