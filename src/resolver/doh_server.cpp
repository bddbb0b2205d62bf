#include "resolver/doh_server.hpp"

#include "dns/base64url.hpp"
#include "dns/json.hpp"
#include "simnet/stream.hpp"

namespace dohperf::resolver {

namespace {

/// HTTP Date header from virtual time; changes every simulated second so
/// persistent-connection responses keep a small differential header cost,
/// as real servers' Date headers do.
std::string http_date(simnet::TimeUs now) {
  const auto total = static_cast<std::uint64_t>(now / simnet::kUsPerSec);
  const unsigned sec = total % 60;
  const unsigned min = (total / 60) % 60;
  const unsigned hour = (total / 3600) % 24;
  char buf[64];
  std::snprintf(buf, sizeof buf, "Mon, 21 Oct 2019 %02u:%02u:%02u GMT", hour,
                min, sec);
  return buf;
}

constexpr std::string_view kDnsMessage = "application/dns-message";
constexpr std::string_view kDnsJson = "application/dns-json";

dns::RType rtype_from_string(const std::string& s) {
  if (s == "A" || s == "1" || s.empty()) return dns::RType::kA;
  if (s == "AAAA" || s == "28") return dns::RType::kAAAA;
  if (s == "TXT" || s == "16") return dns::RType::kTXT;
  if (s == "CNAME" || s == "5") return dns::RType::kCNAME;
  if (s == "NS" || s == "2") return dns::RType::kNS;
  if (s == "CAA" || s == "257") return dns::RType::kCAA;
  return dns::RType::kA;
}

DohResult error_result(int status) {
  DohResult r;
  r.status = status;
  return r;
}

}  // namespace

std::pair<std::string, std::string> split_target(const std::string& target) {
  const std::size_t q = target.find('?');
  if (q == std::string::npos) return {target, ""};
  return {target.substr(0, q), target.substr(q + 1)};
}

std::pair<std::string, std::string> parse_json_query(
    const std::string& query_string) {
  std::string name;
  std::string type;
  std::size_t pos = 0;
  while (pos <= query_string.size()) {
    const std::size_t amp = query_string.find('&', pos);
    const std::string pair =
        amp == std::string::npos ? query_string.substr(pos)
                                 : query_string.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      const std::string key = pair.substr(0, eq);
      const std::string value = pair.substr(eq + 1);
      if (key == "name") name = value;
      if (key == "type") type = value;
    }
    if (amp == std::string::npos) break;
    pos = amp + 1;
  }
  return {name, type};
}

DohServer::DohServer(simnet::Host& host, QueryHandler& handler,
                     DohServerConfig config, std::uint16_t port)
    : host_(host), handler_(handler), config_(std::move(config)),
      port_(port) {
  listen();
}

// The estimate below is published (overload_matrix's doh_memory_bytes and
// its golden output), so a field added to any type it counts must not
// silently move it: change these sizes, and the recorded outputs, on
// purpose.
static_assert(sizeof(tlssim::TlsConnection) == 472,
              "TlsConnection's size feeds DohServer::memory_estimate_bytes");
static_assert(sizeof(http2::Http2Connection) == 760,
              "Http2Connection's size feeds DohServer::memory_estimate_bytes");
static_assert(sizeof(http1::Http1ServerConnection) == 512,
              "Http1ServerConnection's size feeds "
              "DohServer::memory_estimate_bytes");

std::size_t DohServer::memory_estimate_bytes() const noexcept {
  static_assert(sizeof(Session) == 80,
                "Session's size feeds DohServer::memory_estimate_bytes");
  // Modeled per-session state: the TLS connection plus whichever HTTP
  // layer is attached, and the session bookkeeping itself. Deliberately a
  // structure-size model (not heap tracking): deterministic and portable
  // enough for the relative DoH-vs-UDP comparison.
  std::size_t total = 0;
  for (const auto& s : sessions_) {
    total += sizeof(Session) + sizeof(tlssim::TlsConnection);
    if (s->h2) total += sizeof(http2::Http2Connection);
    if (s->h1) total += sizeof(http1::Http1ServerConnection);
  }
  return total;
}

void DohServer::evict_oldest_idle() {
  const Session* victim = nullptr;
  for (const auto& s : sessions_) {
    if (s->dead) continue;
    if (victim == nullptr || s->last_active < victim->last_active) {
      victim = s.get();
    }
  }
  if (victim == nullptr) return;
  for (auto& s : sessions_) {
    if (s.get() != victim) continue;
    s->dead = true;
    if (const auto tcp = s->tcp.lock()) tcp->abort();
    ++evicted_;
    break;
  }
  prune();
}

DohServer::~DohServer() {
  host_.loop().cancel(relisten_);
  if (listening_) host_.tcp_stop_listening(port_);
}

void DohServer::listen() {
  host_.tcp_listen(port_, [this](std::shared_ptr<simnet::TcpConnection> c) {
    on_accept(std::move(c));
  });
  listening_ = true;
}

void DohServer::restart(simnet::TimeUs downtime) {
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

void DohServer::on_accept(std::shared_ptr<simnet::TcpConnection> conn) {
  prune();
  if (config_.max_sessions > 0 && sessions_.size() >= config_.max_sessions) {
    evict_oldest_idle();
  }
  auto session = std::make_shared<Session>();
  session->self = session;
  session->tcp = conn;
  session->peer = conn->remote().node;
  session->last_active = host_.loop().now();
  session->tls_holder = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(std::move(conn)), &config_.tls);
  session->tls = session->tls_holder.get();

  std::weak_ptr<Session> weak = session;
  tlssim::TlsConnection::Handlers h;
  h.on_open = [this, weak]() {
    if (const auto s = weak.lock()) attach_http(s);
  };
  h.on_data = [](const simnet::BufferSlice&) {};
  h.on_close = [weak]() {
    if (const auto s = weak.lock()) s->dead = true;
  };
  session->tls->set_handlers(std::move(h));
  sessions_.push_back(std::move(session));
  if (sessions_.size() > peak_sessions_) peak_sessions_ = sessions_.size();
}

void DohServer::attach_http(const std::shared_ptr<Session>& session) {
  // The TLS handshake finished: pick the HTTP layer from the negotiated
  // ALPN and hand it ownership of the TLS connection.
  // Response continuations guard on the session still being alive: the
  // client may close (and the session be pruned) while the engine delay
  // is still pending.
  std::weak_ptr<Session> weak = session;
  if (session->tls->alpn() == "h2") {
    session->h2 = std::make_unique<http2::Http2Connection>(
        std::move(session->tls_holder), http2::Http2Connection::Role::kServer);
    session->h2->set_request_handler(
        [this, weak](http2::H2Message request,
                     http2::Http2Connection::Responder respond) {
          DohExchange exchange;
          for (const auto& f : request.headers) {
            if (f.name == ":method") exchange.method = f.value;
            else if (f.name == ":path") {
              std::tie(exchange.path, exchange.query_string) =
                  split_target(f.value);
            } else if (f.name == "accept") exchange.accept = f.value;
            else if (f.name == "content-type") exchange.content_type = f.value;
          }
          exchange.body = std::move(request.body);
          const auto active = weak.lock();
          if (active) active->last_active = host_.loop().now();
          const simnet::NodeId peer = active ? active->peer : 0;
          process(exchange, peer, [respond = std::move(respond), weak,
                                   this](DohResult result) {
            const auto s = weak.lock();
            if (!s || s->dead) return;
            http2::H2Message response;
            response.headers.reserve(6);
            response.headers.push_back(
                {":status", std::to_string(result.status)});
            response.headers.push_back({"server", config_.server_header});
            response.headers.push_back(
                {"date", http_date(host_.loop().now())});
            if (!result.content_type.empty()) {
              response.headers.push_back(
                  {"content-type", result.content_type});
              response.headers.push_back(
                  {"content-length", std::to_string(result.body.size())});
              response.headers.push_back({"cache-control", "max-age=300"});
            }
            response.body = std::move(result.body);
            respond(std::move(response));
          });
        });
  } else {
    // HTTP/1.1 (also the fallback when the client offered no ALPN).
    session->h1 = std::make_unique<http1::Http1ServerConnection>(
        std::move(session->tls_holder),
        [this, weak](const http1::Request& request,
               http1::Http1ServerConnection::Responder respond) {
          DohExchange exchange;
          exchange.method = request.method;
          std::tie(exchange.path, exchange.query_string) =
              split_target(request.target);
          exchange.accept = request.headers.get("accept").value_or("");
          exchange.content_type =
              request.headers.get("content-type").value_or("");
          exchange.body = request.body;
          const auto active = weak.lock();
          if (active) active->last_active = host_.loop().now();
          const simnet::NodeId peer = active ? active->peer : 0;
          process(exchange, peer, [respond = std::move(respond), weak,
                                   this](DohResult result) {
            const auto s = weak.lock();
            if (!s || s->dead) return;
            http1::Response response;
            response.status = result.status;
            response.reason = result.status == 200 ? "OK" : "Error";
            response.headers.add("Server", config_.server_header);
            response.headers.add("Date", http_date(host_.loop().now()));
            if (!result.content_type.empty()) {
              response.headers.add("Content-Type", result.content_type);
              response.headers.add("Cache-Control", "max-age=300");
            }
            response.body = std::move(result.body);
            respond(std::move(response));
          });
        });
  }
}

void DohServer::process(const DohExchange& exchange, simnet::NodeId peer,
                        std::function<void(DohResult)> done) {
  if (config_.frontend_delay > 0) {
    // Route through the HTTPS front-end: defer the whole exchange.
    host_.loop().schedule_in(
        config_.frontend_delay,
        [this, exchange, peer, done = std::move(done)]() mutable {
          auto deferred = config_.frontend_delay;
          config_.frontend_delay = 0;
          process(exchange, peer, std::move(done));
          config_.frontend_delay = deferred;
        });
    return;
  }
  if (exchange.body.size() > config_.max_body_bytes) {
    ++oversized_;
    done(error_result(413));
    return;
  }
  if (config_.paths.count(exchange.path) == 0) {
    done(error_result(404));
    return;
  }

  // --- JSON API: GET ?name=&type= -------------------------------------------
  const bool wants_json = exchange.accept == kDnsJson ||
                          (exchange.method == "GET" &&
                           exchange.query_string.find("name=") !=
                               std::string::npos);
  if (wants_json) {
    if (!config_.support_dns_json) {
      done(error_result(415));
      return;
    }
    const auto [name_text, type_text] = parse_json_query(exchange.query_string);
    dns::Name name;
    try {
      name = dns::Name::parse(name_text);
    } catch (const dns::WireError&) {
      done(error_result(400));
      return;
    }
    const dns::Message query =
        dns::Message::make_query(0, name, rtype_from_string(type_text));
    const QueryContext context{peer, Transport::kDoh};
    handler_.handle(query, context,
                    [done = std::move(done)](dns::Message response) {
                      DohResult result;
                      result.content_type = kDnsJson;
                      result.body = dns::to_bytes(dns::to_dns_json(response));
                      done(std::move(result));
                    });
    return;
  }

  // --- RFC 8484 wire-format API ------------------------------------------------
  if (!config_.support_dns_message) {
    done(error_result(415));
    return;
  }
  // A POST query is decoded where it arrived; a GET query from its base64.
  std::span<const std::uint8_t> query_wire;
  dns::Bytes decoded;
  if (exchange.method == "POST") {
    if (exchange.content_type != kDnsMessage) {
      done(error_result(415));
      return;
    }
    query_wire = exchange.body;
  } else if (exchange.method == "GET") {
    // ?dns=<base64url>
    const std::string prefix = "dns=";
    const std::size_t pos = exchange.query_string.find(prefix);
    if (pos == std::string::npos) {
      done(error_result(400));
      return;
    }
    std::string encoded = exchange.query_string.substr(pos + prefix.size());
    const std::size_t amp = encoded.find('&');
    if (amp != std::string::npos) encoded.resize(amp);
    try {
      decoded = dns::base64url_decode(encoded);
      query_wire = decoded;
    } catch (const dns::WireError&) {
      done(error_result(400));
      return;
    }
  } else {
    done(error_result(405));
    return;
  }

  dns::Message query;
  try {
    query = dns::Message::decode(query_wire);
  } catch (const dns::WireError&) {
    done(error_result(400));
    return;
  }
  const QueryContext context{peer, Transport::kDoh};
  handler_.handle(query, context,
                  [done = std::move(done)](dns::Message response) {
                    DohResult result;
                    result.content_type = kDnsMessage;
                    result.body = response.encode();
                    done(std::move(result));
                  });
}

void DohServer::prune() {
  std::erase_if(sessions_, [](const std::shared_ptr<Session>& s) {
    if (s->dead) return true;
    // After the HTTP layer attached, closure shows up as the transport
    // no longer being open.
    if (s->h1) return !s->h1->is_open();
    if (s->h2) return !s->h2->is_open();
    return false;
  });
}

}  // namespace dohperf::resolver
