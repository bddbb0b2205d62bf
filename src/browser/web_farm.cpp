#include "browser/web_farm.hpp"

#include <algorithm>
#include <charconv>

#include "simnet/stream.hpp"

namespace dohperf::browser {

WebFarm::WebFarm(simnet::Network& net, simnet::Host& browser_host,
                 WebFarmConfig config)
    : net_(net), browser_host_(browser_host), config_(config),
      rng_(config.seed) {
  tls_config_.alpn_preference = {"http/1.1"};
  tls_config_.chain = tlssim::CertificateChain::generic("origin.web.example");
}

std::string WebFarm::object_target(std::size_t bytes) {
  return "/o/" + std::to_string(bytes);
}

simnet::BufferSlice WebFarm::object_body(std::size_t bytes) {
  const std::size_t capacity = bodies_.size();
  if (bytes > capacity) {
    bodies_ = dns::Bytes(std::max(bytes, 2 * capacity), 0x42);
  }
  return bodies_.subslice(0, bytes);
}

simnet::Address WebFarm::origin_for(const dns::Name& domain) {
  const auto it = origins_.find(domain);
  if (it != origins_.end()) return {it->second->id(), 443};

  auto host =
      std::make_unique<simnet::Host>(net_, "origin:" + domain.to_string());

  simnet::LinkConfig link;
  link.latency = config_.base_latency +
                 static_cast<simnet::TimeUs>(rng_.next_below(
                     static_cast<std::uint64_t>(config_.latency_jitter) + 1));
  link.bandwidth_bps = config_.bandwidth_bps;
  net_.connect(browser_host_.id(), host->id(), link);

  host->tcp_listen(443, [this](std::shared_ptr<simnet::TcpConnection> c) {
    accept(std::move(c));
  });

  const simnet::Address addr{host->id(), 443};
  origins_.emplace(domain, std::move(host));
  return addr;
}

void WebFarm::accept(std::shared_ptr<simnet::TcpConnection> conn) {
  // Every origin's closed sessions go, not only this origin's: a page's
  // third-party origins may never be fetched from again.
  std::erase_if(sessions_, [](const std::unique_ptr<Session>& s) {
    return s->dead || (s->http && !s->http->is_open());
  });

  auto session = std::make_unique<Session>();
  session->tls_holder = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(std::move(conn)), &tls_config_);

  // The handlers live in the session's own TLS connection, so they never
  // run once it is released: a plain pointer to it keeps each closure in
  // std::function's inline storage.
  Session* s = session.get();
  tlssim::TlsConnection::Handlers h;
  h.on_open = [this, s]() {
    s->http = std::make_unique<http1::Http1ServerConnection>(
        std::move(s->tls_holder),
        [this](const http1::Request& request,
               http1::Http1ServerConnection::Responder respond) {
          // "/o/<bytes>" -> body of that many bytes.
          std::size_t size = 0;
          if (request.target.rfind("/o/", 0) == 0) {
            const std::string num = request.target.substr(3);
            std::from_chars(num.data(), num.data() + num.size(), size);
          }
          ++objects_served_;
          // Model server think time before the first response byte. The
          // response is built when it ends, so the event stays small
          // enough for the loop's inline storage.
          net_.loop().schedule_in(
              config_.server_think_time,
              [this, respond = std::move(respond), size]() {
                http1::Response response;
                response.status = 200;
                response.headers.add("Server", "webfarm/1.0");
                response.headers.add("Content-Type",
                                     "application/octet-stream");
                response.body = object_body(size);
                respond(std::move(response));
              });
        });
  };
  h.on_close = [s]() { s->dead = true; };
  session->tls_holder->set_handlers(std::move(h));
  sessions_.push_back(std::move(session));
}

}  // namespace dohperf::browser
