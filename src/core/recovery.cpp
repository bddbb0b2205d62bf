#include "core/recovery.hpp"

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

}  // namespace

void trace_retry(const obs::SpanContext& obs, obs::SpanId span,
                 RetryReason reason, int attempt) {
  if (span == 0) return;
  const obs::SpanId retry = obs.tracer->begin(span, "retry");
  const auto name = kRetryReasonNames[static_cast<std::size_t>(reason)];
  obs.set_attr(retry, "reason", std::string(name));
  obs.set_attr(retry, "attempt", static_cast<std::int64_t>(attempt));
  obs.end(retry);
}

Recovery::Recovery(simnet::Host& host, const RetryPolicy& retry,
                   const MigrationConfig& migration,
                   const obs::SpanContext& obs, std::string transport,
                   std::function<bool()> in_flight,
                   std::function<void(const char* reason)> migrate)
    : host_(host),
      retry_(retry),
      migration_(migration),
      obs_(obs),
      transport_(std::move(transport)),
      in_flight_(std::move(in_flight)),
      migrate_(std::move(migrate)),
      metrics_(transport_),
      backoff_(retry) {
  if (migration_.enabled) {
    listener_id_ = host_.add_network_change_listener(
        [this](simnet::NetworkChangeKind kind) {
          migrate_(simnet::to_string(kind));
        });
  }
}

Recovery::~Recovery() {
  host_.loop().cancel(stall_timer_);
  if (listener_id_ != 0) host_.remove_network_change_listener(listener_id_);
}

void Recovery::track(Attempt& a, std::uint64_t query_id,
                     ResolveCallback callback, const dns::Name& name,
                     dns::RType type, obs::SpanId span) const {
  a.query_id = query_id;
  a.callback = std::move(callback);
  a.name = name;
  a.type = type;
  a.retries_left = retry_.max_retries;
  a.span = span;
}

bool Recovery::timed_out(const Attempt& a) {
  ++retry_stats_.query_timeouts;
  count(ConnectionMetrics::kTimeouts);
  if (retry_.max_retries <= 0) return false;
  if (a.retries_left > 0) return true;
  ++retry_stats_.budget_exhausted;
  return false;
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
  count(ConnectionMetrics::kRetries);
  return true;
}

void Recovery::on_stall() {
  if (!in_flight_()) return;
  if (obs_.tracer != nullptr) {
    // The probe that condemned the old path before we migrate away from it.
    const obs::SpanId s = obs_.tracer->begin(0, "path_probe");
    obs_.set_attr(s, "transport", transport_);
    obs_.end(s);
  }
  migrate_("stall");
}

void Recovery::open_migrate_span(const char* reason) {
  if (obs_.tracer == nullptr || migrate_span_ != 0) return;
  migrate_span_ = obs_.tracer->begin(0, "migrate");
  obs_.set_attr(migrate_span_, "transport", transport_);
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
  count(ConnectionMetrics::kMigrations);
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
  count(ConnectionMetrics::kMigrationWastedBytes, bytes);
}

void Recovery::account_tls(const tlssim::TlsConnection& tls) {
  const bool resumed = tls.resumed();
  if (resumed) {
    ++migration_stats_.resumed_handshakes;
    count(ConnectionMetrics::kResumedHandshakes);
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
    obs_.set_attr(s, "transport", transport_);
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
