#include "core/doq_client.hpp"

#include <optional>

#include "core/obs_hooks.hpp"

namespace dohperf::core {

namespace {

/// `wire` as a DNS message, or nullopt when it is malformed.
std::optional<dns::Message> try_decode(std::span<const std::uint8_t> wire) {
  try {
    return dns::Message::decode(wire);
  } catch (const dns::WireError&) {
    return std::nullopt;
  }
}

}  // namespace

DoqClient::DoqClient(simnet::Host& host, simnet::Address server,
                     DoqClientConfig config)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      recovery_(host_, *this, config_.retry, config_.migration, config_.obs,
                "doq") {}

void DoqClient::ensure_connection(obs::SpanId parent) {
  if (endpoint_ && !endpoint_->connection().closed()) {
    recovery_.metrics().conn_reuse.add(config_.obs);
    return;
  }
  recovery_.metrics().conn_open.add(config_.obs);
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
  partial_.clear();  // stream ids start over on the new connection
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

void DoqClient::send(Attempt&& a) {
  ensure_connection(a.span);
  // RFC 9250 §4.2: queries use DNS message ID 0; the stream correlates.
  dns::Bytes frame =
      dns::Message::make_query(0, a.name, a.type).encode_framed();
  auto& conn = endpoint_->connection();
  const std::uint64_t stream_id = conn.open_stream();
  recovery_.open_request(a, stream_id);
  recovery_.sent(stream_id, std::move(a), frame.size() - dns::kFramePrefix);
  conn.send_stream(stream_id, std::move(frame), /*fin=*/true);
}

void DoqClient::on_stream_data(std::uint64_t stream_id,
                               std::span<const std::uint8_t> data, bool fin) {
  if (!fin) {  // the response ends with the stream
    if (recovery_.find(stream_id) == nullptr) return;
    dns::Bytes& rx = partial_[stream_id];
    rx.insert(rx.end(), data.begin(), data.end());
    return;
  }
  dns::Bytes rx;
  if (const auto it = partial_.find(stream_id); it != partial_.end()) {
    rx = std::move(it->second);
    partial_.erase(it);
    rx.insert(rx.end(), data.begin(), data.end());
    data = rx;
  }
  const auto wire = dns::next_frame(data);
  std::optional<dns::Message> response;
  if (wire) response = try_decode(*wire);
  if (response) {
    recovery_.answer(stream_id, std::move(*response), wire->size());
  } else {
    recovery_.fail(stream_id);
  }
}

void DoqClient::on_closed() {
  config_.obs.end(quic_hs_span_);
  config_.obs.end(connect_span_);
  quic_hs_span_ = connect_span_ = 0;
  // Re-issues are deferred behind a backoff delay, so the replacement
  // endpoint is never built inside this (dying) connection's callback.
  recovery_.lose();
}

void DoqClient::abort(std::uint64_t /*key*/) {
  endpoint_.reset();  // dropped, not closed: the path may be dead anyway
  recovery_.lose();
}

void DoqClient::migrate(const char* reason) {
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

}  // namespace dohperf::core
