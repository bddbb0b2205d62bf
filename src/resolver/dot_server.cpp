#include "resolver/dot_server.hpp"

#include "simnet/stream.hpp"

namespace dohperf::resolver {

DotServer::DotServer(simnet::Host& host, QueryHandler& handler,
                     DotServerConfig config, std::uint16_t port)
    : host_(host), handler_(handler), config_(std::move(config)),
      port_(port) {
  listen();
}

DotServer::~DotServer() {
  host_.loop().cancel(relisten_);
  if (listening_) host_.tcp_stop_listening(port_);
}

void DotServer::listen() {
  host_.tcp_listen(port_, [this](std::shared_ptr<simnet::TcpConnection> c) {
    on_accept(std::move(c));
  });
  listening_ = true;
}

void DotServer::restart(simnet::TimeUs downtime) {
  // Reset at the host level so connections still mid-handshake (not yet
  // delivered to on_accept) die with the crashed process too.
  host_.tcp_reset_port(port_);
  for (auto& session : sessions_) session->dead = true;
  prune();
  if (listening_) {
    host_.tcp_stop_listening(port_);
    listening_ = false;
  }
  ++restarts_;
  // The crashed process loses its session-ticket keys: tickets issued
  // before the restart must fall back to a full handshake.
  ++config_.tls.ticket_epoch;
  host_.loop().cancel(relisten_);
  relisten_ = host_.loop().schedule_in(downtime, [this]() { listen(); });
}

void DotServer::on_accept(std::shared_ptr<simnet::TcpConnection> conn) {
  prune();
  auto session = std::make_shared<Session>();
  Session* s = session.get();
  session->tcp = conn;
  session->peer = conn->remote().node;
  auto transport = std::make_unique<simnet::TcpByteStream>(std::move(conn));
  if (config_.plain_tcp) {
    session->stream = std::move(transport);
  } else {
    session->stream = std::make_unique<tlssim::TlsConnection>(
        std::move(transport), &config_.tls);
  }
  simnet::ByteStream::Handlers h;
  if (!config_.plain_tcp) h.on_open = [this]() { ++tls_handshakes_; };
  h.on_data = [this, s](const simnet::BufferSlice& d) { on_data(*s, d); };
  h.on_close = [s]() {
    s->dead = true;
    // The peer closed (or half-closed): close our side so both TCP state
    // machines can finish. TLS has already done so for its transport.
    s->stream->close();
  };
  session->stream->set_handlers(std::move(h));
  session->self = session;
  sessions_.push_back(std::move(session));
}

void DotServer::on_data(Session& session, const simnet::BufferSlice& data) {
  session.rx.append(data);
  // RFC 7858 framing: u16 length prefix per DNS message.
  while (const auto length = dns::frame_length(session.rx.bytes())) {
    if (*length == 0 || *length > config_.max_message_bytes) {
      ++malformed_;
      session.stream->close();
      session.dead = true;
      return;
    }
    const auto wire = dns::next_frame(session.rx.bytes());
    if (!wire) break;
    session.rx.skip(dns::kFramePrefix + wire->size());

    dns::Message query;
    try {
      query = dns::Message::decode(*wire);
    } catch (const dns::WireError&) {
      ++malformed_;
      session.stream->close();
      session.dead = true;
      return;
    }
    const std::uint64_t sequence = session.next_assigned++;
    // The continuation may outlive the session (client closed meanwhile);
    // find the live session by address via the weak pointer.
    std::weak_ptr<Session> weak = session.self;
    const QueryContext context{
        session.peer, config_.plain_tcp ? Transport::kTcp : Transport::kDot};
    handler_.handle(query, context,
                    [this, weak, sequence](dns::Message response) {
                      if (const auto s = weak.lock()) {
                        answer(*s, sequence, response.encode_framed());
                      }
                    });
  }
}

void DotServer::answer(Session& session, std::uint64_t sequence,
                       dns::Bytes frame) {
  if (session.dead) return;
  if (config_.out_of_order) {
    session.stream->send(std::move(frame));
    return;
  }
  // In-order: buffer until every earlier response has been sent. This is
  // the serialization that makes delayed queries block later ones (Fig 2).
  session.ready.emplace(sequence, std::move(frame));
  while (true) {
    const auto it = session.ready.find(session.next_to_send);
    if (it == session.ready.end()) break;
    session.stream->send(std::move(it->second));
    session.ready.erase(it);
    ++session.next_to_send;
  }
}

void DotServer::prune() {
  std::erase_if(sessions_,
                [](const std::shared_ptr<Session>& s) { return s->dead; });
}

}  // namespace dohperf::resolver
