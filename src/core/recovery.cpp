#include "core/recovery.hpp"

#include <algorithm>
#include <array>
#include <string_view>

#include "simnet/netchange.hpp"
#include "simnet/tcp.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::core {

namespace {

constexpr std::array<std::string_view, 4> kRetryReasonNames = {
    "timeout", "timeout_teardown", "connection_loss", "migration"};
static_assert(static_cast<std::size_t>(RetryReason::kCount) ==
                  kRetryReasonNames.size(),
              "Enum values index kRetryReasonNames");

/// Modelled TLS handshake round trips (on top of the transport's own):
/// TLS 1.3 is 1-RTT either way; TLS 1.2 is 2-RTT full, 1-RTT resumed.
std::uint64_t tls_handshake_rtts(tlssim::TlsVersion version,
                                 bool resumed) noexcept {
  if (version == tlssim::TlsVersion::kTls13) return 1;
  return resumed ? 1 : 2;
}

/// Trace one re-issue as a `retry` child of resolution span `span` (0: off).
void trace_retry(const obs::SpanContext& obs, obs::SpanId span,
                 RetryReason reason, int attempt) {
  if (span == 0) return;
  const obs::SpanId retry = obs.tracer->begin(span, "retry");
  const auto name = kRetryReasonNames[static_cast<std::size_t>(reason)];
  obs.set_attr(retry, "reason", std::string(name));
  obs.set_attr(retry, "attempt", static_cast<std::int64_t>(attempt));
  obs.end(retry);
}

}  // namespace

Recovery::Recovery(simnet::Host& host, Session& session,
                   const RetryPolicy& retry, const MigrationConfig& migration,
                   const obs::SpanContext& obs, std::string transport)
    : host_(host),
      session_(session),
      retry_(retry),
      migration_(migration),
      obs_(obs),
      metrics_(std::move(transport)),
      backoff_(retry) {
  if (migration_.enabled) {
    listener_id_ = host_.add_network_change_listener(
        [this](simnet::NetworkChangeKind kind) {
          session_.migrate(simnet::to_string(kind));
        });
  }
}

Recovery::~Recovery() {
  // The loop outlives this Recovery: nothing it scheduled may fire into it.
  for (const auto& entry : in_flight_) {
    host_.loop().cancel(entry.second.timeout_timer);
  }
  for (const auto& entry : deferred_) host_.loop().cancel(entry.second);
  for (const auto& entry : posted_) host_.loop().cancel(entry.second);
  host_.loop().cancel(stall_timer_);
  if (listener_id_ != 0) host_.remove_network_change_listener(listener_id_);
}

std::uint64_t Recovery::accept(const dns::Name& name, dns::RType type,
                               ResolveCallback callback) {
  const std::uint64_t id = slots_.size();
  slots_.emplace_back().result.sent_at = host_.loop().now();
  Attempt a;
  a.query_id = id;
  a.callback = std::move(callback);
  a.name = name;
  a.type = type;
  a.retries_left = retry_.max_retries;
  a.span = obs_begin_resolution(obs_, metrics_, name, type);
  issue(std::move(a));
  return id;
}

void Recovery::issue(Attempt&& a) {
  if (session_.keyed_by_dns_id()) {
    if (in_flight_.size() >= 65535) {
      defer(0, std::move(a), /*reissue=*/false);
      return;
    }
    do {
      a.dns_id = dns_id_cursor_++;
    } while (a.dns_id == 0 || in_flight_.count(a.dns_id) != 0);
  }
  session_.send(std::move(a));
}

void Recovery::defer(simnet::TimeUs delay, Attempt&& a, bool reissue) {
  const std::uint64_t id = a.query_id;
  deferred_[id] = host_.loop().schedule_in(
      delay, [this, reissue, a = std::move(a)]() mutable {
        deferred_.erase(a.query_id);
        if (reissue) {
          issue(std::move(a));
        } else {
          fail(std::move(a));
        }
      });
}

void Recovery::open_request(Attempt& a,
                            std::optional<std::uint64_t> stream_id) {
  ++a.attempt;
  if (a.span == 0) return;
  a.request_span = obs_.tracer->begin(a.span, "request");
  if (stream_id) {
    obs_.set_attr(a.request_span, "stream_id",
                  static_cast<std::int64_t>(*stream_id));
  }
  obs_.set_attr(a.request_span, "attempt",
                static_cast<std::int64_t>(a.attempt));
}

void Recovery::sent(std::uint64_t key, Attempt&& a, std::size_t query_bytes) {
  slots_[a.query_id].result.cost.dns_message_bytes += query_bytes;
  if (retry_.query_timeout > 0) {
    a.timeout_timer = host_.loop().schedule_in(
        retry_.query_timeout, [this, key]() { on_deadline(key); });
  }
  in_flight_.emplace(key, std::move(a));
  track_stall(/*progress=*/false);
}

Attempt* Recovery::find(std::uint64_t key) {
  const auto it = in_flight_.find(key);
  return it == in_flight_.end() ? nullptr : &it->second;
}

bool Recovery::answer(std::uint64_t key, dns::Message&& response,
                      std::size_t dns_bytes) {
  auto node = in_flight_.extract(key);
  if (node.empty()) return false;
  finish(std::move(node.mapped()), &response, dns_bytes);
  return true;
}

bool Recovery::fail(std::uint64_t key) {
  auto node = in_flight_.extract(key);
  if (node.empty()) return false;
  finish(std::move(node.mapped()), nullptr, 0);
  return true;
}

void Recovery::fail(Attempt&& a) { finish(std::move(a), nullptr, 0); }

void Recovery::finish(Attempt&& a, dns::Message* response,
                      std::size_t dns_bytes) {
  const bool success = response != nullptr;
  host_.loop().cancel(a.timeout_timer);
  // Only a usable answer proves the path: the next loss starts small again.
  if (success) backoff_.reset();
  session_.finishing(a, success);

  Slot& slot = slots_[a.query_id];
  ResolutionResult& result = slot.result;
  result.success = success;
  result.completed_at = host_.loop().now();
  if (success) {
    result.cost.dns_message_bytes += dns_bytes;
    result.response = std::move(*response);
  } else {
    ++failures_;
  }
  ++completed_;
  track_stall(/*progress=*/true);
  slot.span = a.span;
  obs_.end(a.request_span);
  if (session_.cost_final_at_finish()) {
    slot.cost_recorded = true;
    observe_cost(slot);
  }
  obs_finish_resolution(obs_, metrics_, a.span, result);

  // The callback gets the result moved out of slots_: a resolve() inside it
  // may grow slots_ and move every slot. It goes back afterwards.
  ResolutionResult done = std::move(result);
  if (a.callback) a.callback(done);
  Slot& after = slots_[a.query_id];
  after.result = std::move(done);
  after.finished = true;
}

void Recovery::record_cost(std::uint64_t id, const CostReport& cost) const {
  Slot& slot = slots_.at(id);
  if (!slot.finished) return;
  const std::uint64_t dns_bytes = slot.result.cost.dns_message_bytes;
  slot.result.cost = cost;
  slot.result.cost.dns_message_bytes = dns_bytes;
  if (slot.cost_recorded) return;
  slot.cost_recorded = true;
  observe_cost(slot);
}

void Recovery::observe_cost(const Slot& slot) const {
  obs_span_cost(obs_, slot.span, slot.result.cost);
  obs_count_cost(obs_, cost_metrics_, slot.result.cost);
}

void Recovery::on_deadline(std::uint64_t key) {
  const auto it = in_flight_.find(key);
  if (it == in_flight_.end()) return;
  Attempt& a = it->second;
  ++retry_stats_.query_timeouts;
  metrics_.timeouts.add(obs_);
  if (retry_.max_retries <= 0 || a.retries_left <= 0) {
    if (retry_.max_retries > 0) ++retry_stats_.budget_exhausted;
    fail(key);
    return;
  }
  if (session_.resend_alone(key)) {
    // Only this exchange stalled: the elapsed deadline was the wait.
    retry(a, RetryReason::kTimeout);
    session_.send(std::move(in_flight_.extract(it).mapped()));
    return;
  }
  // A stalled exchange blocks what is queued behind it on the connection,
  // so re-sending on it cannot recover: condemn the connection, and let the
  // loss batch re-issue everything in flight on it, this query last.
  suspect_ = a.query_id;
  session_.abort(key);
  suspect_.reset();
}

bool Recovery::retry(Attempt& a, RetryReason reason, bool charged) {
  host_.loop().cancel(a.timeout_timer);
  obs_.end(a.request_span);
  a.request_span = 0;
  const bool can_retry = !closing_ && retry_.max_retries > 0;
  if (!can_retry || (charged && a.retries_left <= 0)) {
    if (can_retry) ++retry_stats_.budget_exhausted;
    return false;
  }
  if (charged) --a.retries_left;
  ++retry_stats_.retried_queries;
  trace_retry(obs_, a.span, reason, a.attempt);
  metrics_.retries.add(obs_);
  return true;
}

void Recovery::lose(bool migrated) {
  std::vector<Attempt> batch;
  batch.reserve(in_flight_.size());
  for (auto& entry : in_flight_) batch.push_back(std::move(entry.second));
  in_flight_.clear();
  lose_batch(batch, migrated);
}

void Recovery::lose(const std::vector<std::uint64_t>& keys, bool migrated) {
  std::vector<Attempt> batch;
  batch.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    auto node = in_flight_.extract(key);
    if (!node.empty()) batch.push_back(std::move(node.mapped()));
  }
  lose_batch(batch, migrated);
}

void Recovery::lose_batch(std::vector<Attempt>& batch, bool migrated) {
  // Every lost query is out of flight before any callback runs: a callback
  // that resolves again may open a connection whose keys start over. A
  // re-issue starts the stall timer afresh.
  track_stall(/*progress=*/false);
  const auto is_suspect = [this](const Attempt& a) {
    return suspect_ && a.query_id == *suspect_;
  };
  const auto it = std::find_if(batch.begin(), batch.end(), is_suspect);
  if (it != batch.end()) std::rotate(it, it + 1, batch.end());
  const RetryReason reason = migrated  ? RetryReason::kMigration
                             : suspect_ ? RetryReason::kTimeoutTeardown
                                        : RetryReason::kConnectionLoss;
  simnet::TimeUs delay = 0;
  bool drew = false;
  for (Attempt& a : batch) {
    if (!retry(a, reason, !suspect_ || is_suspect(a))) {
      finish(std::move(a), nullptr, 0);
      continue;
    }
    if (migrated) {  // the new path is validated: no wait
      issue(std::move(a));
      continue;
    }
    if (!drew) {  // one reconnect for the whole batch
      delay = backoff_.next();
      ++retry_stats_.reconnects;
      metrics_.reconnects.add(obs_);
      drew = true;
    }
    defer(delay, std::move(a), /*reissue=*/true);
  }
}

void Recovery::track_stall(bool progress) {
  if (!migration_.enabled) return;
  if (progress || in_flight_.empty()) {
    host_.loop().cancel(stall_timer_);
    stall_timer_ = simnet::EventId{};
  }
  if (in_flight_.empty() || stall_timer_.valid) return;
  stall_timer_ = host_.loop().schedule_in(kStallTimeout, [this]() {
    stall_timer_ = simnet::EventId{};
    on_stall();
  });
}

void Recovery::on_stall() {
  if (obs_.tracer != nullptr) {
    // The probe that condemned the old path before we migrate away from it.
    const obs::SpanId s = obs_.tracer->begin(0, "path_probe");
    obs_.set_attr(s, "transport", metrics_.transport);
    obs_.end(s);
  }
  session_.migrate("stall");
}

void Recovery::open_migrate_span(const char* reason) {
  if (obs_.tracer == nullptr || migrate_span_ != 0) return;
  migrate_span_ = obs_.tracer->begin(0, "migrate");
  obs_.set_attr(migrate_span_, "transport", metrics_.transport);
  obs_.set_attr(migrate_span_, "reason", std::string(reason));
}

void Recovery::close_migrate_span(const char* winner) {
  if (migrate_span_ == 0) return;
  obs_.set_attr(migrate_span_, "winner", std::string(winner));
  obs_.end(migrate_span_);
  migrate_span_ = 0;
}

void Recovery::migrated(const char* winner) {
  ++migration_stats_.migrations;
  metrics_.migrations.add(obs_);
  close_migrate_span(winner);
}

void Recovery::start_race(const simnet::TcpConnection& stalled) {
  race_baseline_bytes_ = stalled.counters().total_wire_bytes();
}

void Recovery::race_won(const simnet::TcpConnection* stalled) {
  waste(stalled != nullptr
            ? stalled->counters().total_wire_bytes() - race_baseline_bytes_
            : 0);
  migrated("fresh");
}

void Recovery::race_lost(const simnet::TcpConnection* racer) {
  waste(racer != nullptr ? racer->counters().total_wire_bytes() : 0);
  close_migrate_span("old");
}

void Recovery::waste(std::uint64_t bytes) {
  migration_stats_.migration_wasted_bytes += bytes;
  metrics_.migration_wasted_bytes.add(obs_, bytes);
}

void Recovery::account_tls(const tlssim::TlsConnection& tls) {
  const bool resumed = tls.resumed();
  if (resumed) {
    ++migration_stats_.resumed_handshakes;
    metrics_.resumed_handshakes.add(obs_);
  } else {
    ++migration_stats_.full_handshakes;
  }
  const auto& c = tls.counters();
  migration_stats_.handshake_bytes +=
      c.handshake_bytes_sent + c.handshake_bytes_received;
  migration_stats_.handshake_rtts +=
      1 + tls_handshake_rtts(tls.version(), resumed);  // +1: TCP SYN
  if (ever_connected_ && resumed && obs_.tracer != nullptr) {
    // A reconnect that skipped the full handshake via the session ticket.
    const obs::SpanId s = obs_.tracer->begin(0, "reconnect_resume");
    obs_.set_attr(s, "transport", metrics_.transport);
    obs_.end(s);
  }
  ever_connected_ = true;
}

void Recovery::account_quic(std::uint64_t handshake_bytes) {
  ++migration_stats_.full_handshakes;
  migration_stats_.handshake_bytes += handshake_bytes;
  migration_stats_.handshake_rtts += 1;
}

}  // namespace dohperf::core
