#include "core/doq_client.hpp"

#include "core/obs_hooks.hpp"

namespace dohperf::core {

DoqClient::DoqClient(simnet::Host& host, simnet::Address server,
                     DoqClientConfig config)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      backoff_(config_.retry) {
  if (config_.migration.enabled && config_.migration.react_to_host_events) {
    listener_id_ = host_.add_network_change_listener(
        [this](simnet::NetworkChangeKind kind) {
          begin_migration(simnet::to_string(kind));
        });
  }
}

DoqClient::~DoqClient() {
  host_.loop().cancel(stall_timer_);
  if (listener_id_ != 0) host_.remove_network_change_listener(listener_id_);
}

void DoqClient::ensure_connection(obs::SpanId parent) {
  if (endpoint_ && !endpoint_->connection().closed()) {
    conn_metrics_.add(config_.obs, ConnectionMetrics::kConnReuse);
    return;
  }
  conn_metrics_.add(config_.obs, ConnectionMetrics::kConnOpen);
  if (config_.obs.tracer != nullptr) {
    connect_span_ = config_.obs.tracer->begin(parent, "connect");
    quic_hs_span_ =
        config_.obs.tracer->begin(connect_span_, "quic_handshake");
  }
  tlssim::ClientConfig tls;
  tls.sni = config_.server_name;
  tls.alpn = {"doq"};
  endpoint_ = std::make_unique<quicsim::QuicClientEndpoint>(
      host_, server_, std::move(tls), config_.quic);
  endpoint_->connection().set_on_established([this]() {
    config_.obs.end(quic_hs_span_);
    config_.obs.end(connect_span_);
    quic_hs_span_ = 0;
    connect_span_ = 0;
    account_established();
  });
  endpoint_->connection().set_on_stream_data(
      [this](std::uint64_t stream_id, std::span<const std::uint8_t> data,
             bool fin) { on_stream_data(stream_id, data, fin); });
  endpoint_->connection().set_on_closed([this]() { on_closed(); });
  endpoint_->connection().set_on_path_validated([this]() {
    // The path survived the address change: migration complete, no new
    // handshake paid.
    ++migration_stats_.migrations;
    conn_metrics_.add(config_.obs, ConnectionMetrics::kMigrations);
    if (migrate_span_ != 0) {
      config_.obs.set_attr(migrate_span_, "winner",
                           std::string("same_connection"));
      config_.obs.end(migrate_span_);
      migrate_span_ = 0;
    }
  });
}

void DoqClient::account_established() {
  if (!endpoint_) return;
  // quicsim models no 0-RTT resumption: every handshake is a full one, one
  // combined transport+crypto round trip (QUIC's selling point).
  ++migration_stats_.full_handshakes;
  migration_stats_.handshake_bytes +=
      endpoint_->connection().counters().handshake_bytes;
  migration_stats_.handshake_rtts += 1;
}

std::uint64_t DoqClient::resolve(const dns::Name& name, dns::RType type,
                                 ResolveCallback callback) {
  const std::uint64_t query_id = next_query_id_++;
  const obs::SpanId span =
      obs_begin_resolution(config_.obs, tmetrics_, "doq", name, type);
  ResolutionResult result;
  result.sent_at = host_.loop().now();
  results_.push_back(std::move(result));

  PendingQuery pq;
  pq.query_id = query_id;
  pq.callback = std::move(callback);
  pq.name = name;
  pq.type = type;
  pq.retries_left = config_.retry.max_retries;
  pq.span = span;
  issue(std::move(pq));
  return query_id;
}

void DoqClient::issue(PendingQuery pq) {
  ensure_connection(pq.span);
  // RFC 9250 §4.2: queries use DNS message ID 0; the stream correlates.
  const dns::Message query = dns::Message::make_query(0, pq.name, pq.type);
  const dns::Bytes wire = query.encode();
  results_[pq.query_id].cost.dns_message_bytes += wire.size();

  dns::ByteWriter framed;
  framed.u16(static_cast<std::uint16_t>(wire.size()));
  framed.bytes(wire);

  auto& conn = endpoint_->connection();
  const std::uint64_t stream_id = conn.open_stream();
  ++pq.attempt;
  if (pq.span != 0) {
    pq.request_span = config_.obs.tracer->begin(pq.span, "request");
    config_.obs.set_attr(pq.request_span, "stream_id",
                         static_cast<std::int64_t>(stream_id));
    config_.obs.set_attr(pq.request_span, "attempt",
                         static_cast<std::int64_t>(pq.attempt));
  }
  pq.rx.clear();
  if (config_.retry.query_timeout > 0) {
    pq.timeout_timer = host_.loop().schedule_in(
        config_.retry.query_timeout,
        [this, stream_id]() { on_query_timeout(stream_id); });
  }
  pending_.emplace(stream_id, std::move(pq));
  arm_stall_timer();
  conn.send_stream(stream_id, framed.take(), /*fin=*/true);
}

void DoqClient::on_stream_data(std::uint64_t stream_id,
                               std::span<const std::uint8_t> data, bool fin) {
  // Bytes arriving means the path is alive: restart stall detection.
  host_.loop().cancel(stall_timer_);
  stall_timer_ = simnet::EventId{};
  const auto it = pending_.find(stream_id);
  if (it == pending_.end()) return;
  PendingQuery& pq = it->second;
  pq.rx.insert(pq.rx.end(), data.begin(), data.end());
  if (!fin) {  // the response ends with the stream
    if (!pending_.empty()) arm_stall_timer();
    return;
  }

  host_.loop().cancel(pq.timeout_timer);
  backoff_.reset();
  ResolutionResult& result = results_[pq.query_id];
  result.completed_at = host_.loop().now();
  if (pq.rx.size() >= 2) {
    const std::size_t len =
        (static_cast<std::size_t>(pq.rx[0]) << 8) | pq.rx[1];
    if (pq.rx.size() >= 2 + len) {
      try {
        result.response = dns::Message::decode(
            std::span(pq.rx.data() + 2, len));
        result.success = true;
        result.cost.dns_message_bytes += len;
      } catch (const dns::WireError&) {
        result.success = false;
      }
    }
  }
  ++completed_;
  auto callback = std::move(pq.callback);
  config_.obs.end(pq.request_span);
  obs_span_cost(config_.obs, pq.span, result.cost);
  obs_count_cost(config_.obs, cmetrics_, result.cost);
  obs_finish_resolution(config_.obs, tmetrics_, pq.span, "doq", result);
  pending_.erase(it);
  if (callback) callback(result);
  if (!pending_.empty()) arm_stall_timer();
}

void DoqClient::on_closed() {
  config_.obs.end(quic_hs_span_);
  config_.obs.end(connect_span_);
  quic_hs_span_ = connect_span_ = 0;
  // Re-issues are deferred behind a backoff delay, so the replacement
  // endpoint is never built inside this (dying) connection's callback.
  group_reissue();
}

void DoqClient::on_query_timeout(std::uint64_t stream_id) {
  const auto it = pending_.find(stream_id);
  if (it == pending_.end()) return;
  ++retry_stats_.query_timeouts;
  conn_metrics_.add(config_.obs, ConnectionMetrics::kTimeouts);
  if (config_.retry.max_retries > 0 && it->second.retries_left > 0) {
    // QUIC's PTO machinery already retries within the connection, so a
    // query timeout means the path (or the server's view of our address)
    // is dead. Discard the endpoint and re-issue everything in flight; the
    // suspect is charged and goes last.
    suspect_stream_id_ = stream_id;
    timeout_teardown_ = true;
    endpoint_.reset();  // dropped, not closed: the path may be dead anyway
    group_reissue();
    suspect_stream_id_ = 0;
    timeout_teardown_ = false;
    return;
  }
  PendingQuery pq = std::move(it->second);
  pending_.erase(it);
  if (config_.retry.max_retries > 0) ++retry_stats_.budget_exhausted;
  fail_query(std::move(pq));
}

void DoqClient::group_reissue() {
  host_.loop().cancel(stall_timer_);
  stall_timer_ = simnet::EventId{};
  auto pending = std::move(pending_);
  pending_.clear();
  const bool can_retry = !closing_ && config_.retry.max_retries > 0;

  // Re-issue in stream order, suspect (if any) last, so a repeat stall
  // cannot head-of-line-block the rest of the batch again.
  std::vector<std::pair<bool, PendingQuery>> order;
  order.reserve(pending.size());
  for (auto& [stream_id, pq] : pending) {
    if (timeout_teardown_ && stream_id == suspect_stream_id_) continue;
    order.emplace_back(false, std::move(pq));
  }
  if (timeout_teardown_) {
    if (const auto it = pending.find(suspect_stream_id_);
        it != pending.end()) {
      order.emplace_back(true, std::move(it->second));
    }
  }

  simnet::TimeUs delay = 0;
  bool scheduled_any = false;
  for (auto& [is_suspect, pq] : order) {
    host_.loop().cancel(pq.timeout_timer);
    config_.obs.end(pq.request_span);
    pq.request_span = 0;
    const bool charge = !timeout_teardown_ || is_suspect;
    if (!can_retry || (charge && pq.retries_left <= 0)) {
      if (can_retry) ++retry_stats_.budget_exhausted;
      fail_query(std::move(pq));
      continue;
    }
    if (!scheduled_any) {
      delay = backoff_.next();
      ++retry_stats_.reconnects;
      conn_metrics_.add(config_.obs, ConnectionMetrics::kReconnects);
      scheduled_any = true;
    }
    if (charge) --pq.retries_left;
    ++retry_stats_.retried_queries;
    if (pq.span != 0) {
      const obs::SpanId retry =
          config_.obs.tracer->begin(pq.span, "retry");
      config_.obs.set_attr(
          retry, "reason",
          std::string(timeout_teardown_ ? "timeout_teardown"
                                        : "connection_loss"));
      config_.obs.set_attr(retry, "attempt",
                           static_cast<std::int64_t>(pq.attempt));
      config_.obs.end(retry);
    }
    conn_metrics_.add(config_.obs, ConnectionMetrics::kRetries);
    host_.loop().schedule_in(delay, [this, p = std::move(pq)]() mutable {
      issue(std::move(p));
    });
  }
}

void DoqClient::fail_query(PendingQuery pq) {
  ResolutionResult& result = results_[pq.query_id];
  result.success = false;
  result.completed_at = host_.loop().now();
  ++completed_;
  config_.obs.end(pq.request_span);
  obs_finish_resolution(config_.obs, tmetrics_, pq.span, "doq", result);
  if (pq.callback) pq.callback(result);
}

void DoqClient::arm_stall_timer() {
  if (!config_.migration.enabled || config_.migration.stall_timeout <= 0) {
    return;
  }
  if (stall_timer_.valid) return;
  stall_timer_ = host_.loop().schedule_in(
      config_.migration.stall_timeout, [this]() {
        stall_timer_ = simnet::EventId{};
        on_stall();
      });
}

void DoqClient::on_stall() {
  if (pending_.empty()) return;
  if (config_.obs.tracer != nullptr) {
    const obs::SpanId s = config_.obs.tracer->begin(0, "path_probe");
    config_.obs.set_attr(s, "transport", std::string("doq"));
    config_.obs.end(s);
  }
  begin_migration("stall");
}

void DoqClient::begin_migration(const char* reason) {
  if (!config_.migration.enabled) return;
  if (!endpoint_ || endpoint_->connection().closed() ||
      !endpoint_->connection().established()) {
    return;  // nothing to migrate; the retry path handles reconnects
  }
  if (config_.obs.tracer != nullptr && migrate_span_ == 0) {
    migrate_span_ = config_.obs.tracer->begin(0, "migrate");
    config_.obs.set_attr(migrate_span_, "transport", std::string("doq"));
    config_.obs.set_attr(migrate_span_, "reason", std::string(reason));
  }
  // QUIC migrates in place: probe the path from the (new) address. The
  // probe datagram itself teaches a migration-capable server our new
  // address; the matching PATH_RESPONSE completes the migration.
  endpoint_->connection().probe_path();
}

void DoqClient::disconnect() {
  if (!endpoint_) return;
  closing_ = true;
  endpoint_->connection().close();
  closing_ = false;
}

bool DoqClient::connected() const {
  return endpoint_ && endpoint_->connection().established() &&
         !endpoint_->connection().closed();
}

const quicsim::QuicCounters* DoqClient::quic_counters() const {
  return endpoint_ ? &endpoint_->connection().counters() : nullptr;
}

const ResolutionResult& DoqClient::result(std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
