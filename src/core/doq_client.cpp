#include "core/doq_client.hpp"

#include "core/obs_hooks.hpp"

namespace dohperf::core {

DoqClient::DoqClient(simnet::Host& host, simnet::Address server,
                     DoqClientConfig config)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      recovery_(host_, config_.retry, config_.migration, config_.obs, "doq",
                [this]() { return !pending_.empty(); },
                [this](const char* reason) { begin_migration(reason); }) {}

void DoqClient::ensure_connection(obs::SpanId parent) {
  if (endpoint_ && !endpoint_->connection().closed()) {
    recovery_.count(ConnectionMetrics::kConnReuse);
    return;
  }
  recovery_.count(ConnectionMetrics::kConnOpen);
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
    recovery_.account_quic(endpoint_->connection().counters().handshake_bytes);
  });
  endpoint_->connection().set_on_stream_data(
      [this](std::uint64_t stream_id, std::span<const std::uint8_t> data,
             bool fin) { on_stream_data(stream_id, data, fin); });
  endpoint_->connection().set_on_closed([this]() { on_closed(); });
  endpoint_->connection().set_on_path_validated([this]() {
    // The path survived the address change: migration complete, no new
    // handshake paid.
    recovery_.migrated("same_connection");
  });
}

std::uint64_t DoqClient::resolve(const dns::Name& name, dns::RType type,
                                 ResolveCallback callback) {
  const std::uint64_t query_id = next_query_id_++;
  const obs::SpanId span = obs_begin_resolution(
      config_.obs, tmetrics_, recovery_.transport(), name, type);
  ResolutionResult result;
  result.sent_at = host_.loop().now();
  results_.push_back(std::move(result));

  PendingQuery pq;
  recovery_.track(pq, query_id, std::move(callback), name, type, span);
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
  recovery_.arm_timeout(pq,
                        [this, stream_id]() { on_query_timeout(stream_id); });
  pending_.emplace(stream_id, std::move(pq));
  recovery_.arm_stall_timer();
  conn.send_stream(stream_id, framed.take(), /*fin=*/true);
}

void DoqClient::on_stream_data(std::uint64_t stream_id,
                               std::span<const std::uint8_t> data, bool fin) {
  // Bytes arriving means the path is alive: restart stall detection.
  recovery_.disarm_stall_timer();
  const auto it = pending_.find(stream_id);
  if (it == pending_.end()) return;
  PendingQuery& pq = it->second;
  pq.rx.insert(pq.rx.end(), data.begin(), data.end());
  if (!fin) {  // the response ends with the stream
    if (!pending_.empty()) recovery_.arm_stall_timer();
    return;
  }

  host_.loop().cancel(pq.timeout_timer);
  recovery_.answered();
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
  obs_finish_resolution(config_.obs, tmetrics_, pq.span,
                        recovery_.transport(), result);
  pending_.erase(it);
  if (callback) callback(result);
  if (!pending_.empty()) recovery_.arm_stall_timer();
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
  if (recovery_.timed_out(it->second)) {
    // QUIC's PTO machinery already retries within the connection, so a
    // query timeout means the path (or the server's view of our address)
    // is dead. Discard the endpoint and re-issue everything in flight; the
    // suspect is charged and goes last.
    recovery_.tear_down_for(stream_id, [this]() {
      endpoint_.reset();  // dropped, not closed: the path may be dead anyway
      group_reissue();
    });
    return;
  }
  PendingQuery pq = std::move(it->second);
  pending_.erase(it);
  fail_query(std::move(pq));
}

void DoqClient::group_reissue() {
  recovery_.disarm_stall_timer();
  recovery_.lose_all(
      pending_, [this](PendingQuery&& pq) { fail_query(std::move(pq)); },
      [this](PendingQuery&& pq, simnet::TimeUs delay) {
        host_.loop().schedule_in(delay, [this, p = std::move(pq)]() mutable {
          issue(std::move(p));
        });
      });
}

void DoqClient::fail_query(PendingQuery pq) {
  ResolutionResult& result = results_[pq.query_id];
  result.success = false;
  result.completed_at = host_.loop().now();
  ++completed_;
  config_.obs.end(pq.request_span);
  obs_span_cost(config_.obs, pq.span, result.cost);
  obs_count_cost(config_.obs, cmetrics_, result.cost);
  obs_finish_resolution(config_.obs, tmetrics_, pq.span, recovery_.transport(),
                        result);
  if (pq.callback) pq.callback(result);
}

void DoqClient::begin_migration(const char* reason) {
  if (!endpoint_ || endpoint_->connection().closed() ||
      !endpoint_->connection().established()) {
    return;  // nothing to migrate; the retry path handles reconnects
  }
  recovery_.open_migrate_span(reason);
  // QUIC migrates in place: probe the path from the (new) address. The
  // probe datagram itself teaches a migration-capable server our new
  // address; the matching PATH_RESPONSE completes the migration.
  endpoint_->connection().probe_path();
}

void DoqClient::disconnect() {
  if (!endpoint_) return;
  recovery_.close_deliberately(
      [this]() { endpoint_->connection().close(); });
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
