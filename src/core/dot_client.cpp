#include "core/dot_client.hpp"

#include <optional>
#include <utility>

namespace dohperf::core {

DotClient::DotClient(simnet::Host& host, simnet::Address server,
                     DotClientConfig config)
    : config_(std::move(config)),
      recovery_(host, *this, config_.retry, config_.migration, config_.obs,
                config_.plain_tcp ? "tcp" : "dot"),
      connector_(host, server, recovery_, *this, config_.obs,
                 config_.plain_tcp
                     ? std::nullopt
                     : std::optional<tlssim::ClientConfig>(
                           {.sni = config_.server_name,
                            // RFC 7858 defines no mandatory ALPN token.
                            .alpn = {},
                            .session_cache = config_.session_cache})) {}

std::shared_ptr<Link> DotClient::attach(
    std::unique_ptr<simnet::ByteStream> stream) {
  auto conn = std::make_shared<Conn>();
  Conn* c = conn.get();  // the handlers live in the stream it owns
  simnet::ByteStream::Handlers h;
  h.on_open = [this, c]() {
    if (c->tls == nullptr) connector_.established(*c);
  };
  h.on_data = [this, c](const simnet::BufferSlice& d) { on_data(*c, d); };
  h.on_close = [this, c]() {
    // The peer closed (or reset): close our side too, as TLS does for its
    // transport, so both TCP state machines can finish.
    if (c->tls == nullptr) c->stream->close();
    connector_.closed(*c);
  };
  stream->set_handlers(std::move(h));
  conn->stream = std::move(stream);
  return conn;
}

void DotClient::send(Attempt&& a) {
  Conn& conn = static_cast<Conn&>(*connector_.connection(a.span));
  recovery_.open_request(a);
  const std::uint16_t id = a.dns_id;
  dns::Bytes frame = dns::Message::make_query(id, a.name, a.type)
                         .encode_framed();
  recovery_.sent(id, std::move(a), frame.size() - dns::kFramePrefix);
  // Queued until the handshake ends (by TLS, or by TCP itself).
  conn.stream->send(std::move(frame));
}

void DotClient::on_data(Conn& conn, const simnet::BufferSlice& data) {
  conn.rx.append(data);
  while (const auto wire = dns::next_frame(conn.rx.bytes())) {
    // The view stays valid until the next append.
    conn.rx.skip(dns::kFramePrefix + wire->size());
    dns::Message response;
    try {
      response = dns::Message::decode(*wire);
    } catch (const dns::WireError&) {
      continue;
    }
    const std::uint16_t id = response.id;
    recovery_.answer(id, std::move(response), wire->size());
  }
}

void DotClient::abort(std::uint64_t /*key*/) {
  // The resolver answers in order on one stream, so a stalled exchange at
  // the head of the line blocks every response behind it. Discard the
  // suspect connection, as real stub resolvers discard suspect TCP
  // sessions; every query in flight rides it.
  connector_.abort(*current());
}

void DotClient::disconnect() {
  Conn* conn = current();
  if (conn == nullptr) return;
  recovery_.close_deliberately([&]() {
    conn->stream->close();
    connector_.closed(*conn);  // fail what was in flight; no retries
  });
}

const simnet::TcpCounters* DotClient::tcp_counters() const {
  return current() != nullptr ? &current()->tcp->counters() : nullptr;
}

}  // namespace dohperf::core
