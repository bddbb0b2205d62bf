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
      recovery_(host_, *this, config_.retry, config_.migration, config_.obs,
                config_.plain_tcp ? "tcp" : "dot") {}

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
    // Plain TCP has no TLS session to account.
    if (conn_.tls != nullptr) recovery_.account_tls(*conn_.tls);
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

void DotClient::ensure_connection(obs::SpanId parent) {
  // A connection is reusable while it is open or still handshaking; one
  // that failed or whose transport closed (including RST mid-handshake)
  // must be replaced.
  if (conn_.usable()) {
    recovery_.metrics().conn_reuse.add(config_.obs);
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
  recovery_.metrics().conn_open.add(config_.obs);
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

void DotClient::send(Attempt&& a) {
  ensure_connection(a.span);
  recovery_.open_request(a);
  const std::uint16_t id = a.dns_id;
  const dns::Bytes wire = dns::Message::make_query(id, a.name, a.type).encode();
  recovery_.sent(id, std::move(a), wire.size());

  dns::ByteWriter framed;
  framed.u16(static_cast<std::uint16_t>(wire.size()));
  framed.bytes(wire);
  recovery_.arm_stall_timer();
  // Queued until the handshake ends (by TLS, or by TCP itself).
  conn_.stream->send(framed.take());
}

void DotClient::on_data(std::span<const std::uint8_t> data) {
  // Bytes arriving means the path is alive: restart stall detection.
  recovery_.disarm_stall_timer();
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
    const std::uint16_t id = response.id;
    if (!recovery_.answer(id, std::move(response), wire.size())) continue;
    // A full response on the old path while racing: the stall was
    // transient, keep the connection and drop the racer.
    teardown_racer();
  }
  if (!recovery_.in_flight().empty()) recovery_.arm_stall_timer();
}

void DotClient::on_close() {
  // Spans of a connection that died mid-handshake must not stay open.
  config_.obs.end(tcp_hs_span_);
  config_.obs.end(tls_hs_span_);
  config_.obs.end(connect_span_);
  tcp_hs_span_ = tls_hs_span_ = connect_span_ = 0;
  recovery_.lose();
}

void DotClient::abort(std::uint64_t /*key*/) {
  // The resolver answers in order on one stream, so a stalled exchange at
  // the head of the line blocks every response behind it. Discard the
  // suspect connection, as real stub resolvers discard suspect TCP
  // sessions.
  conn_.abort();  // no local callbacks fire; notify ourselves
  rx_.clear();
  on_close();
}

void DotClient::migrate(const char* reason) {
  if (racer_) return;  // a race is already deciding the new path
  const bool in_flight = !recovery_.in_flight().empty();
  if (!conn_ && !in_flight) return;  // nothing to migrate
  recovery_.open_migrate_span(reason);
  if (!conn_.usable() || !in_flight) {
    // Nothing worth racing against: drop the (suspect or already dead)
    // connection so the next attempt reconnects on the new path, resuming
    // via the session cache when one is configured.
    conn_.abort();
    rx_.clear();
    recovery_.migrated("fresh");
    if (in_flight) on_close();  // reconnect + re-issue in flight
    return;
  }
  // Happy-eyeballs: open a fresh connection and race it against the
  // stalled one. Whichever proves the path first wins; the loser's bytes
  // are charged to migration_wasted_bytes.
  recovery_.metrics().conn_open.add(config_.obs);
  recovery_.start_race(*conn_.tcp);
  racer_ = open_connection();
  simnet::ByteStream::Handlers rh;
  // Both outcomes defer one (zero-delay) event: the handlers below must
  // not destroy the std::function currently executing.
  rh.on_open = [this]() { recovery_.post([this]() { promote_racer(); }); };
  rh.on_close = [this]() {
    recovery_.post([this]() {
      if (racer_ && !racer_.usable()) teardown_racer();
    });
  };
  racer_.stream->set_handlers(std::move(rh));
}

void DotClient::promote_racer() {
  if (!racer_.usable() || !racer_.established()) {
    return;  // adopted, torn down, or died before this event fired
  }
  recovery_.race_won(conn_.tcp.get());
  conn_.abort();
  conn_ = std::exchange(racer_, {});
  rx_.clear();
  install_handlers();  // the established racer's on_open accounts it
  recovery_.lose(/*migrated=*/true);
}

void DotClient::teardown_racer() {
  if (!racer_) return;
  racer_.abort();
  recovery_.race_lost(racer_.tcp.get());
  racer_ = {};
}

void DotClient::disconnect() {
  if (!conn_) return;
  recovery_.close_deliberately([this]() {
    conn_.stream->close();
    on_close();  // fail what was in flight; no retries
  });
}

bool DotClient::connected() const { return conn_ && conn_.stream->is_open(); }

const tlssim::TlsCounters* DotClient::tls_counters() const {
  return conn_.tls != nullptr ? &conn_.tls->counters() : nullptr;
}

const simnet::TcpCounters* DotClient::tcp_counters() const {
  return conn_.tcp ? &conn_.tcp->counters() : nullptr;
}

}  // namespace dohperf::core
