#include "core/dot_client.hpp"

#include <utility>

#include "core/obs_hooks.hpp"

namespace dohperf::core {

bool DotClient::Connection::usable() const {
  if (!stream) return false;
  if (tls != nullptr) return !tls->failed() && !tls->closed();
  return tcp->state() == simnet::TcpState::kSynSent || tcp->established();
}

bool DotClient::Connection::established() const {
  return tls != nullptr ? tls->established() : tcp->established();
}

void DotClient::Connection::abort() {
  if (tcp) tcp->abort();
  stream.reset();
  tls = nullptr;
}

DotClient::DotClient(simnet::Host& host, simnet::Address server,
                     DotClientConfig config)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      conn_metrics_(transport()),
      backoff_(config_.retry) {
  if (config_.migration.enabled && config_.migration.react_to_host_events) {
    listener_id_ = host_.add_network_change_listener(
        [this](simnet::NetworkChangeKind kind) {
          begin_migration(simnet::to_string(kind));
        });
  }
}

DotClient::~DotClient() {
  host_.loop().cancel(stall_timer_);
  if (listener_id_ != 0) host_.remove_network_change_listener(listener_id_);
}

DotClient::Connection DotClient::open_connection() {
  Connection c;
  c.tcp = host_.tcp_connect(server_);
  auto transport = std::make_unique<simnet::TcpByteStream>(c.tcp);
  if (config_.plain_tcp) {
    c.stream = std::move(transport);
    return c;
  }
  tlssim::ClientConfig tls_config;
  tls_config.sni = config_.server_name;
  tls_config.min_version = config_.min_tls;
  tls_config.max_version = config_.max_tls;
  tls_config.session_cache = config_.session_cache;
  // RFC 7858 defines no mandatory ALPN token; offer none.
  auto tls = std::make_unique<tlssim::TlsConnection>(std::move(transport),
                                                     std::move(tls_config));
  c.tls = tls.get();
  c.stream = std::move(tls);
  return c;
}

void DotClient::install_handlers() {
  simnet::ByteStream::Handlers h;
  h.on_open = [this]() {
    if (conn_.tls == nullptr) {
      // Plain TCP: the stream opening is the TCP handshake completing.
      config_.obs.end(tcp_hs_span_);
      tcp_hs_span_ = 0;
    } else if (tls_hs_span_ != 0) {
      config_.obs.set_attr(tls_hs_span_, "tls_version",
                           tlssim::to_string(conn_.tls->version()));
      config_.obs.set_attr(tls_hs_span_, "resumed", conn_.tls->resumed());
    }
    config_.obs.end(tls_hs_span_);
    config_.obs.end(connect_span_);
    tls_hs_span_ = 0;
    connect_span_ = 0;
    account_established();
  };
  h.on_data = [this](std::span<const std::uint8_t> d) { on_data(d); };
  h.on_close = [this]() {
    // The peer closed (or reset): close our side too, as TLS does for its
    // transport, so both TCP state machines can finish.
    if (conn_.tls == nullptr) conn_.stream->close();
    on_close();
  };
  conn_.stream->set_handlers(std::move(h));
}

void DotClient::account_established() {
  if (conn_.tls == nullptr) return;  // plain TCP: no TLS session to account
  const bool resumed = conn_.tls->resumed();
  if (resumed) {
    ++migration_stats_.resumed_handshakes;
    conn_metrics_.add(config_.obs, ConnectionMetrics::kResumedHandshakes);
  } else {
    ++migration_stats_.full_handshakes;
  }
  const auto& c = conn_.tls->counters();
  migration_stats_.handshake_bytes +=
      c.handshake_bytes_sent + c.handshake_bytes_received;
  migration_stats_.handshake_rtts +=
      1 + tls_handshake_rtts(conn_.tls->version(), resumed);  // +1: TCP SYN
  if (ever_connected_ && resumed && config_.obs.tracer != nullptr) {
    // A reconnect that skipped the full handshake via the session ticket.
    const obs::SpanId s =
        config_.obs.tracer->begin(0, "reconnect_resume");
    config_.obs.set_attr(s, "transport", std::string("dot"));
    config_.obs.end(s);
  }
  ever_connected_ = true;
}

void DotClient::ensure_connection(obs::SpanId parent) {
  // A connection is reusable while it is open or still handshaking; one
  // that failed or whose transport closed (including RST mid-handshake)
  // must be replaced.
  if (conn_.usable()) {
    conn_metrics_.add(config_.obs, ConnectionMetrics::kConnReuse);
    return;
  }
  // The main connection died while a migration race was still on: adopt
  // the racer instead of opening yet another connection. Its handshake is
  // accounted by install_handlers(): an established TLS stream re-fires
  // on_open at once, one still handshaking fires it on completion.
  if (racer_.usable()) {
    conn_ = std::exchange(racer_, {});
    rx_.clear();
    install_handlers();
    return;
  }
  conn_metrics_.add(config_.obs, ConnectionMetrics::kConnOpen);
  if (config_.obs.tracer != nullptr) {
    connect_span_ = config_.obs.tracer->begin(parent, "connect");
    tcp_hs_span_ = config_.obs.tracer->begin(connect_span_, "tcp_handshake");
  }
  conn_ = open_connection();
  if (conn_.tls != nullptr && config_.obs.tracer != nullptr) {
    conn_.tls->set_transport_open_hook([this]() {
      config_.obs.end(tcp_hs_span_);
      tcp_hs_span_ = 0;
      tls_hs_span_ =
          config_.obs.tracer->begin(connect_span_, "tls_handshake");
    });
  }
  install_handlers();
  rx_.clear();
}

std::uint64_t DotClient::resolve(const dns::Name& name, dns::RType type,
                                 ResolveCallback callback) {
  const std::uint64_t query_id = next_query_id_++;

  ResolutionResult result;
  result.sent_at = host_.loop().now();
  results_.push_back(std::move(result));

  Pending pending;
  pending.query_id = query_id;
  pending.callback = std::move(callback);
  pending.name = name;
  pending.type = type;
  pending.retries_left = config_.retry.max_retries;
  pending.span =
      obs_begin_resolution(config_.obs, tmetrics_, transport(), name, type);
  send_query(std::move(pending));
  return query_id;
}

void DotClient::send_query(Pending pending) {
  const std::optional<std::uint16_t> id =
      allocate_dns_id(next_dns_id_, pending_);
  if (!id) {
    // Every DNS ID is in flight: fail the query, one event later so the
    // callback never runs inside resolve().
    host_.loop().schedule_in(0, [this, p = std::move(pending)]() mutable {
      fail_query(std::move(p));
    });
    return;
  }
  const std::uint16_t dns_id = *id;
  ensure_connection(pending.span);
  const std::uint64_t query_id = pending.query_id;
  ++pending.attempt;
  if (pending.span != 0) {
    pending.request_span =
        config_.obs.tracer->begin(pending.span, "request");
    config_.obs.set_attr(pending.request_span, "attempt",
                         static_cast<std::int64_t>(pending.attempt));
  }

  const dns::Message query =
      dns::Message::make_query(dns_id, pending.name, pending.type);
  const dns::Bytes wire = query.encode();
  results_[query_id].cost.dns_message_bytes += wire.size();

  if (config_.retry.query_timeout > 0) {
    pending.timeout_timer = host_.loop().schedule_in(
        config_.retry.query_timeout,
        [this, dns_id]() { on_query_timeout(dns_id); });
  }
  pending_.emplace(dns_id, std::move(pending));

  dns::ByteWriter framed;
  framed.u16(static_cast<std::uint16_t>(wire.size()));
  framed.bytes(wire);
  arm_stall_timer();
  // Queued until the handshake ends (by TLS, or by TCP itself).
  conn_.stream->send(framed.take());
}

void DotClient::on_data(std::span<const std::uint8_t> data) {
  // Bytes arriving means the path is alive: restart stall detection.
  host_.loop().cancel(stall_timer_);
  stall_timer_ = simnet::EventId{};
  rx_.insert(rx_.end(), data.begin(), data.end());
  while (rx_.size() >= 2) {
    const std::size_t len = (static_cast<std::size_t>(rx_[0]) << 8) | rx_[1];
    if (rx_.size() < 2 + len) break;
    dns::Bytes wire(rx_.begin() + 2,
                    rx_.begin() + static_cast<std::ptrdiff_t>(2 + len));
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(2 + len));

    dns::Message response;
    try {
      response = dns::Message::decode(wire);
    } catch (const dns::WireError&) {
      continue;
    }
    const auto it = pending_.find(response.id);
    if (it == pending_.end()) continue;
    Pending pending = std::move(it->second);
    pending_.erase(it);
    host_.loop().cancel(pending.timeout_timer);
    backoff_.reset();

    ResolutionResult& result = results_[pending.query_id];
    result.success = true;
    result.completed_at = host_.loop().now();
    result.cost.dns_message_bytes += wire.size();
    result.response = std::move(response);
    ++completed_;
    config_.obs.end(pending.request_span);
    obs_span_cost(config_.obs, pending.span, result.cost);
    obs_count_cost(config_.obs, cmetrics_, result.cost);
    obs_finish_resolution(config_.obs, tmetrics_, pending.span, transport(),
                          result);
    if (pending.callback) pending.callback(result);
    // A full response on the old path while racing: the stall was
    // transient, keep the connection and drop the racer.
    teardown_racer();
  }
  if (!pending_.empty()) arm_stall_timer();
}

void DotClient::on_close() {
  // Spans of a connection that died mid-handshake must not stay open.
  config_.obs.end(tcp_hs_span_);
  config_.obs.end(tls_hs_span_);
  config_.obs.end(connect_span_);
  tcp_hs_span_ = tls_hs_span_ = connect_span_ = 0;
  auto pending = std::move(pending_);
  pending_.clear();
  const bool can_retry = !closing_ && config_.retry.max_retries > 0;

  // Re-issue in issue order, except that the query whose timeout caused
  // this teardown (if any) goes last: the server answers in order, so a
  // repeat stall at the back cannot block anyone else.
  std::vector<std::pair<bool, Pending>> order;  // (is_suspect, query)
  order.reserve(pending.size());
  for (auto& [dns_id, entry] : pending) {
    if (dns_id == suspect_dns_id_) continue;
    order.emplace_back(false, std::move(entry));
  }
  if (const auto it = pending.find(suspect_dns_id_); it != pending.end()) {
    order.emplace_back(true, std::move(it->second));
  }

  // One reconnect delay per connection loss; all surviving queries re-issue
  // together on the replacement connection. A connection failure charges
  // every query's retry budget (their attempts died with the transport); a
  // timeout teardown charges only the suspect -- the rest were merely
  // queued behind it and are re-issued for free.
  simnet::TimeUs delay = 0;
  bool scheduled_any = false;
  for (auto& [is_suspect, entry] : order) {
    host_.loop().cancel(entry.timeout_timer);
    const bool charge = !timeout_teardown_ || is_suspect;
    config_.obs.end(entry.request_span);
    entry.request_span = 0;
    if (!can_retry || (charge && entry.retries_left <= 0)) {
      if (can_retry) ++retry_stats_.budget_exhausted;
      fail_query(std::move(entry));
      continue;
    }
    if (!scheduled_any) {
      delay = backoff_.next();
      ++retry_stats_.reconnects;
      conn_metrics_.add(config_.obs, ConnectionMetrics::kReconnects);
      scheduled_any = true;
    }
    if (charge) --entry.retries_left;
    ++retry_stats_.retried_queries;
    if (entry.span != 0) {
      const obs::SpanId retry =
          config_.obs.tracer->begin(entry.span, "retry");
      config_.obs.set_attr(
          retry, "reason",
          std::string(timeout_teardown_ ? "timeout_teardown"
                                        : "connection_loss"));
      config_.obs.set_attr(retry, "attempt",
                           static_cast<std::int64_t>(entry.attempt));
      config_.obs.end(retry);
    }
    conn_metrics_.add(config_.obs, ConnectionMetrics::kRetries);
    host_.loop().schedule_in(
        delay, [this, p = std::move(entry)]() mutable {
          send_query(std::move(p));
        });
  }
}

void DotClient::on_query_timeout(std::uint16_t dns_id) {
  const auto it = pending_.find(dns_id);
  if (it == pending_.end()) return;
  ++retry_stats_.query_timeouts;
  conn_metrics_.add(config_.obs, ConnectionMetrics::kTimeouts);
  if (config_.retry.max_retries > 0 && it->second.retries_left > 0) {
    // The resolver answers in order on one stream, so a stalled exchange at
    // the head of the line blocks every response behind it and re-issuing
    // on the same connection cannot recover. Discard the suspect connection
    // -- as real stub resolvers discard suspect TCP sessions -- and let the
    // reconnect path re-issue every pending query, this one included.
    suspect_dns_id_ = dns_id;
    timeout_teardown_ = true;
    conn_.abort();  // no local callbacks fire; notify ourselves
    rx_.clear();
    on_close();
    suspect_dns_id_ = 0;
    timeout_teardown_ = false;
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (config_.retry.max_retries > 0) ++retry_stats_.budget_exhausted;
  fail_query(std::move(pending));
}

void DotClient::fail_query(Pending pending) {
  ResolutionResult& result = results_[pending.query_id];
  result.success = false;
  result.completed_at = host_.loop().now();
  ++completed_;
  config_.obs.end(pending.request_span);
  obs_span_cost(config_.obs, pending.span, result.cost);
  obs_count_cost(config_.obs, cmetrics_, result.cost);
  obs_finish_resolution(config_.obs, tmetrics_, pending.span, transport(),
                        result);
  if (pending.callback) pending.callback(result);
}

void DotClient::arm_stall_timer() {
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

void DotClient::on_stall() {
  if (pending_.empty()) return;
  if (config_.obs.tracer != nullptr) {
    // The probe that condemned the old path before we migrate away from it.
    const obs::SpanId s = config_.obs.tracer->begin(0, "path_probe");
    config_.obs.set_attr(s, "transport", std::string(transport()));
    config_.obs.end(s);
  }
  begin_migration("stall");
}

void DotClient::begin_migration(const char* reason) {
  if (!config_.migration.enabled || closing_) return;
  if (racer_) return;  // a race is already deciding the new path
  if (!conn_ && pending_.empty()) return;  // nothing to migrate
  if (config_.obs.tracer != nullptr && migrate_span_ == 0) {
    migrate_span_ = config_.obs.tracer->begin(0, "migrate");
    config_.obs.set_attr(migrate_span_, "transport", std::string(transport()));
    config_.obs.set_attr(migrate_span_, "reason", std::string(reason));
  }
  if (!conn_.usable() || pending_.empty() || !config_.migration.race) {
    // Nothing worth racing against: drop the (suspect or already dead)
    // connection so the next attempt reconnects on the new path, resuming
    // via the session cache when one is configured.
    conn_.abort();
    rx_.clear();
    ++migration_stats_.migrations;
    conn_metrics_.add(config_.obs, ConnectionMetrics::kMigrations);
    if (migrate_span_ != 0) {
      config_.obs.set_attr(migrate_span_, "winner", std::string("fresh"));
      config_.obs.end(migrate_span_);
      migrate_span_ = 0;
    }
    if (!pending_.empty()) on_close();  // reconnect + re-issue in flight
    return;
  }
  // Happy-eyeballs: open a fresh connection and race it against the
  // stalled one. Whichever proves the path first wins; the loser's bytes
  // are charged to migration_wasted_bytes.
  conn_metrics_.add(config_.obs, ConnectionMetrics::kConnOpen);
  const auto& tc = conn_.tcp->counters();
  race_baseline_bytes_ = tc.wire_bytes_sent + tc.wire_bytes_received;
  racer_ = open_connection();
  simnet::ByteStream::Handlers rh;
  // Both outcomes defer one (zero-delay) event: the handlers below must
  // not destroy the std::function currently executing.
  rh.on_open = [this]() {
    host_.loop().schedule_in(0, [this]() { promote_racer(); });
  };
  rh.on_close = [this]() {
    host_.loop().schedule_in(0, [this]() {
      if (racer_ && !racer_.usable()) teardown_racer();
    });
  };
  racer_.stream->set_handlers(std::move(rh));
}

void DotClient::promote_racer() {
  if (!racer_.usable() || !racer_.established()) {
    return;  // adopted, torn down, or died before this event fired
  }
  // The fresh path won. Everything the stalled connection moved since the
  // race began bought nothing — charge it as migration waste.
  std::uint64_t wasted = 0;
  if (conn_.tcp) {
    const auto& c = conn_.tcp->counters();
    wasted = c.wire_bytes_sent + c.wire_bytes_received - race_baseline_bytes_;
  }
  migration_stats_.migration_wasted_bytes += wasted;
  ++migration_stats_.migrations;
  conn_metrics_.add(config_.obs, ConnectionMetrics::kMigrations);
  conn_metrics_.add(config_.obs, ConnectionMetrics::kMigrationWastedBytes,
                    wasted);
  conn_.abort();
  conn_ = std::exchange(racer_, {});
  rx_.clear();
  install_handlers();  // the established racer's on_open accounts it
  if (migrate_span_ != 0) {
    config_.obs.set_attr(migrate_span_, "winner", std::string("fresh"));
    config_.obs.end(migrate_span_);
    migrate_span_ = 0;
  }
  reissue_after_migration();
}

void DotClient::teardown_racer() {
  if (!racer_) return;
  racer_.abort();
  const auto& c = racer_.tcp->counters();
  const std::uint64_t wasted = c.wire_bytes_sent + c.wire_bytes_received;
  migration_stats_.migration_wasted_bytes += wasted;
  conn_metrics_.add(config_.obs, ConnectionMetrics::kMigrationWastedBytes,
                    wasted);
  racer_ = {};
  if (migrate_span_ != 0) {
    config_.obs.set_attr(migrate_span_, "winner", std::string("old"));
    config_.obs.end(migrate_span_);
    migrate_span_ = 0;
  }
}

void DotClient::reissue_after_migration() {
  // In-flight queries move to the validated new path immediately — no
  // backoff, the path is known good — each charged one retry.
  auto pending = std::move(pending_);
  pending_.clear();
  const bool can_retry = config_.retry.max_retries > 0;
  for (auto& [dns_id, entry] : pending) {
    host_.loop().cancel(entry.timeout_timer);
    config_.obs.end(entry.request_span);
    entry.request_span = 0;
    if (!can_retry || entry.retries_left <= 0) {
      if (can_retry) ++retry_stats_.budget_exhausted;
      fail_query(std::move(entry));
      continue;
    }
    --entry.retries_left;
    ++retry_stats_.retried_queries;
    if (entry.span != 0) {
      const obs::SpanId retry =
          config_.obs.tracer->begin(entry.span, "retry");
      config_.obs.set_attr(retry, "reason", std::string("migration"));
      config_.obs.set_attr(retry, "attempt",
                           static_cast<std::int64_t>(entry.attempt));
      config_.obs.end(retry);
    }
    conn_metrics_.add(config_.obs, ConnectionMetrics::kRetries);
    send_query(std::move(entry));
  }
}

void DotClient::disconnect() {
  if (!conn_) return;
  closing_ = true;
  conn_.stream->close();
  on_close();  // fail what was in flight; no retries
  closing_ = false;
}

bool DotClient::connected() const { return conn_ && conn_.stream->is_open(); }

const tlssim::TlsCounters* DotClient::tls_counters() const {
  return conn_.tls != nullptr ? &conn_.tls->counters() : nullptr;
}

const simnet::TcpCounters* DotClient::tcp_counters() const {
  return conn_.tcp ? &conn_.tcp->counters() : nullptr;
}

const ResolutionResult& DotClient::result(std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
