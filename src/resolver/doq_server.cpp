#include "resolver/doq_server.hpp"

namespace dohperf::resolver {

DoqServer::DoqServer(simnet::Host& host, QueryHandler& handler,
                     DoqServerConfig config, std::uint16_t port)
    : host_(host), handler_(handler), config_(std::move(config)) {
  server_ = std::make_unique<quicsim::QuicServer>(
      host_, port, &config_.tls,
      [this](quicsim::QuicConnection& conn) { on_accept(conn); },
      config_.quic);
}

void DoqServer::on_accept(quicsim::QuicConnection& conn) {
  auto state = std::make_shared<ConnState>();
  states_.emplace(&conn, state);

  quicsim::QuicConnection* conn_ptr = &conn;
  conn.set_on_stream_data([this, conn_ptr, state](
                              std::uint64_t stream_id,
                              std::span<const std::uint8_t> data, bool fin) {
    auto& stream = state->streams[stream_id];
    stream.rx.insert(stream.rx.end(), data.begin(), data.end());
    if (!fin) return;
    // Complete query: 2-byte length prefix + DNS message.
    const auto wire = dns::next_frame(stream.rx);
    if (!wire) return;
    // on_query may close the connection; `state` (held here) outlives it.
    on_query(*conn_ptr, stream_id, *wire);
    state->streams.erase(stream_id);
  });
  conn.set_on_closed([this, conn_ptr]() { states_.erase(conn_ptr); });
}

void DoqServer::on_query(quicsim::QuicConnection& conn,
                         std::uint64_t stream_id,
                         std::span<const std::uint8_t> wire) {
  dns::Message query;
  try {
    query = dns::Message::decode(wire);
  } catch (const dns::WireError&) {
    conn.close(/*error_code=*/2);  // DOQ_PROTOCOL_ERROR
    return;
  }
  quicsim::QuicConnection* conn_ptr = &conn;
  // The continuation may outlive the connection (the QUIC server reaps
  // closed connections); the states_ entry is erased on close, so its
  // presence guarantees conn_ptr is alive and open.
  // quicsim exposes no peer address, so the context carries client 0; the
  // overload bench drives the tier over UDP/TCP/DoT/DoH only.
  const QueryContext context{0, Transport::kDoq};
  handler_.handle(query, context,
                  [this, conn_ptr, stream_id](dns::Message response) {
                    if (states_.find(conn_ptr) == states_.end()) return;
                    conn_ptr->send_stream(stream_id, response.encode_framed(),
                                          /*fin=*/true);
                  });
}

}  // namespace dohperf::resolver
