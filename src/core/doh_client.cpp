#include "core/doh_client.hpp"

#include <algorithm>

#include "core/obs_hooks.hpp"
#include "dns/base64url.hpp"
#include "dns/json.hpp"

namespace dohperf::core {

namespace {

constexpr std::string_view kDnsMessage = "application/dns-message";
constexpr std::string_view kDnsJson = "application/dns-json";
constexpr std::string_view kUserAgent =
    "Mozilla/5.0 (X11; Linux x86_64; rv:66.0) Gecko/20100101 Firefox/66.0";

}  // namespace

CostReport DohClient::Stack::snapshot() const {
  return core::snapshot(tcp ? &tcp->counters() : nullptr,
                        tls ? &tls->counters() : nullptr,
                        h1 ? &h1->counters() : nullptr,
                        h2 ? &h2->counters() : nullptr);
}

bool DohClient::Stack::usable() const {
  return !broken && !tls->failed() && !tls->closed() &&
         !(h2 && h2->goaway_received());
}

DohClient::DohClient(simnet::Host& host, simnet::Address server,
                     DohClientConfig config)
    : host_(host),
      server_(server),
      config_(std::move(config)),
      recovery_(host_, *this, config_.retry, config_.migration, config_.obs,
                config_.http_version == HttpVersion::kHttp2 ? "doh_h2"
                                                            : "doh_h1") {}

std::shared_ptr<DohClient::Stack> DohClient::make_stack(obs::SpanId parent) {
  auto stack = std::make_shared<Stack>();
  recovery_.metrics().conn_open.add(config_.obs);
  if (config_.obs.tracer != nullptr) {
    stack->connect_span = config_.obs.tracer->begin(parent, "connect");
    stack->tcp_hs_span =
        config_.obs.tracer->begin(stack->connect_span, "tcp_handshake");
  }
  stack->tcp = host_.tcp_connect(server_);

  tlssim::ClientConfig tls_config;
  tls_config.sni = config_.server_name;
  tls_config.max_version = config_.max_tls;
  tls_config.session_cache = config_.session_cache;
  tls_config.alpn = {config_.http_version == HttpVersion::kHttp2
                         ? "h2"
                         : "http/1.1"};
  auto tls = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(stack->tcp),
      std::move(tls_config));
  stack->tls = tls.get();

  // One error handler per connection, not per query: a transport loss or
  // GOAWAY fails every query in flight on this stack at once.
  std::weak_ptr<Stack> weak = stack;
  auto on_error = [this, weak]() {
    if (auto s = weak.lock()) on_stack_error(s);
  };

  if (config_.obs.tracer != nullptr) {
    // Split connection setup into tcp_handshake / tls_handshake spans. The
    // hooks stay with us even though the HTTP layer owns the TLS handlers.
    tls->set_transport_open_hook([this, weak]() {
      auto s = weak.lock();
      if (!s) return;
      config_.obs.end(s->tcp_hs_span);
      s->tcp_hs_span = 0;
      s->tls_hs_span =
          config_.obs.tracer->begin(s->connect_span, "tls_handshake");
    });
  }
  // Always installed (not only when tracing): this is where handshake and
  // resumption accounting happens, and where a winning migration racer gets
  // promoted.
  tls->set_established_hook([this, weak]() {
    auto s = weak.lock();
    if (!s) return;
    if (s->tls_hs_span != 0 && s->tls != nullptr) {
      config_.obs.set_attr(s->tls_hs_span, "tls_version",
                           tlssim::to_string(s->tls->version()));
      config_.obs.set_attr(s->tls_hs_span, "resumed", s->tls->resumed());
      config_.obs.set_attr(s->tls_hs_span, "alpn", s->tls->alpn());
    }
    config_.obs.end(s->tls_hs_span);
    config_.obs.end(s->connect_span);
    s->tls_hs_span = 0;
    s->connect_span = 0;
    if (s->tls != nullptr) recovery_.account_tls(*s->tls);
    if (s == racing_stack_) {
      // Defer one (zero-delay) event: promotion tears the old stack down
      // and must not run inside this stack's own TLS callback.
      recovery_.post([this]() { promote_racer(); });
    }
  });

  if (config_.http_version == HttpVersion::kHttp2) {
    stack->h2 = std::make_unique<http2::Http2Connection>(
        std::move(tls), http2::Http2Connection::Role::kClient, config_.h2);
    stack->h2->set_error_handler(std::move(on_error));
    if (config_.obs.tracer != nullptr) {
      stack->h2->set_stream_observer(
          [this, weak](std::uint32_t stream_id, http2::StreamEvent event) {
            if (auto s = weak.lock()) on_stream_event(s, stream_id, event);
          });
    }
  } else {
    stack->h1 = std::make_unique<http1::Http1Client>(std::move(tls),
                                                     config_.h1_pipelining);
    stack->h1->set_error_handler(std::move(on_error));
  }
  return stack;
}

void DohClient::on_stream_event(const std::shared_ptr<Stack>& stack,
                                std::uint32_t stream_id,
                                http2::StreamEvent event) {
  switch (event) {
    case http2::StreamEvent::kRequestSent: {
      if (stack->awaiting_stream.empty()) return;
      const std::uint64_t query_id = stack->awaiting_stream.front();
      stack->awaiting_stream.pop_front();
      stack->stream_to_query.emplace(stream_id, query_id);
      if (const Attempt* a = recovery_.find(query_id)) {
        config_.obs.set_attr(a->request_span, "stream_id",
                             static_cast<std::int64_t>(stream_id));
        config_.obs.end(a->request_span);
      }
      return;
    }
    case http2::StreamEvent::kResponseBegan: {
      const auto it = stack->stream_to_query.find(stream_id);
      if (it == stack->stream_to_query.end()) return;
      const Attempt* a = recovery_.find(it->second);
      if (a == nullptr || a->span == 0) return;
      Exchange& x = exchanges_[it->second];
      x.response_span = config_.obs.tracer->begin(a->span, "response");
      config_.obs.set_attr(x.response_span, "stream_id",
                           static_cast<std::int64_t>(stream_id));
      return;
    }
    case http2::StreamEvent::kStreamClosed: {
      const auto it = stack->stream_to_query.find(stream_id);
      if (it == stack->stream_to_query.end()) return;
      Exchange& x = exchanges_[it->second];
      stack->stream_to_query.erase(it);
      config_.obs.end(x.response_span);
      x.response_span = 0;
      return;
    }
  }
}

std::shared_ptr<DohClient::Stack> DohClient::stack_for_query(
    obs::SpanId parent) {
  if (!config_.persistent) return make_stack(parent);
  // Reuse the stack while it is connecting or open; replace it once the
  // transport failed, closed, or the server announced shutdown (GOAWAY).
  if (!persistent_stack_ || !persistent_stack_->usable()) {
    // The main stack died while a migration race was still on: adopt the
    // racer (whose handshake, possibly resumed, is already paid for)
    // instead of opening yet another connection.
    if (racing_stack_ && !racing_stack_->broken &&
        !racing_stack_->tls->failed() && !racing_stack_->tls->closed()) {
      persistent_stack_ = std::move(racing_stack_);
    } else {
      persistent_stack_ = make_stack(parent);
    }
  } else {
    recovery_.metrics().conn_reuse.add(config_.obs);
  }
  return persistent_stack_;
}

std::uint64_t DohClient::resolve(const dns::Name& name, dns::RType type,
                                 ResolveCallback callback) {
  exchanges_.emplace_back();
  return recovery_.accept(name, type, std::move(callback));
}

void DohClient::send(Attempt&& a) {
  const std::uint64_t query_id = a.query_id;
  Exchange& x = exchanges_[query_id];
  if (x.stack) {  // a re-send: the attempt leaves the stack it rode on
    auto& out = x.stack->outstanding;
    out.erase(std::remove(out.begin(), out.end(), query_id), out.end());
    config_.obs.end(x.response_span);
    x.response_span = 0;
  }
  const std::shared_ptr<Stack> stack = stack_for_query(a.span);
  x.stack = stack;
  x.start = stack->snapshot();

  // RFC 8484 §4.1: use DNS ID 0 for cache friendliness; correlation is via
  // the HTTP exchange itself.
  dns::Message query = dns::Message::make_query(0, a.name, a.type);
  if (config_.pad_queries_to > 0) {
    query.pad_to_multiple(config_.pad_queries_to);
  }
  dns::Bytes body;
  std::string target = config_.path;
  std::string_view method = "POST";
  std::string_view accept = kDnsMessage;
  std::string_view content_type = kDnsMessage;
  std::size_t query_dns_bytes = 0;

  switch (config_.method) {
    case DohMethod::kPost: {
      body = query.encode();
      query_dns_bytes = body.size();
      break;
    }
    case DohMethod::kGet: {
      const dns::Bytes wire = query.encode();
      query_dns_bytes = wire.size();
      target += "?dns=" + dns::base64url_encode(wire);
      method = "GET";
      content_type = {};
      break;
    }
    case DohMethod::kJsonGet: {
      target += "?" + dns::dns_json_query_string(a.name, a.type);
      method = "GET";
      accept = kDnsJson;
      content_type = {};
      break;
    }
  }

  recovery_.open_request(a);
  x.rx_at_issue = stack->tcp ? stack->tcp->counters().wire_bytes_received : 0;
  // h2: the stream observer resolves the request span to a stream id once
  // the HEADERS actually leaves (possibly after the handshake).
  if (a.span != 0 && stack->h2) stack->awaiting_stream.push_back(query_id);
  stack->outstanding.push_back(query_id);
  recovery_.arm_stall_timer();
  recovery_.sent(query_id, std::move(a), query_dns_bytes);

  const auto handle_body = [this, query_id](
                               int status, const std::string& content_type,
                               std::span<const std::uint8_t> payload) {
    if (status != 200) {
      recovery_.fail(query_id);
      return;
    }
    dns::Message response;
    try {
      response = content_type == kDnsJson
                     ? dns::from_dns_json(dns::to_string(payload))
                     : dns::Message::decode(payload);
    } catch (const std::exception&) {
      recovery_.fail(query_id);
      return;
    }
    recovery_.answer(query_id, std::move(response), payload.size());
  };

  if (stack->h2) {
    http2::H2Message request;
    request.headers.reserve(10);
    request.headers.push_back({":method", std::string(method)});
    request.headers.push_back({":scheme", "https"});
    request.headers.push_back({":authority", config_.server_name});
    request.headers.push_back({":path", std::move(target)});
    request.headers.push_back({"accept", std::string(accept)});
    request.headers.push_back({"accept-encoding", "gzip, deflate, br"});
    request.headers.push_back({"accept-language", "en-US,en;q=0.5"});
    request.headers.push_back({"user-agent", std::string(kUserAgent)});
    if (!content_type.empty()) {
      request.headers.push_back({"content-type", std::string(content_type)});
      request.headers.push_back(
          {"content-length", std::to_string(body.size())});
    }
    request.body = std::move(body);
    stack->h2->request(std::move(request),
                       [handle_body](const http2::H2Message& response) {
                         std::string status = "0";
                         std::string ct;
                         for (const auto& f : response.headers) {
                           if (f.name == ":status") status = f.value;
                           if (f.name == "content-type") ct = f.value;
                         }
                         handle_body(std::atoi(status.c_str()), ct,
                                     response.body);
                       });
  } else {
    http1::Request request;
    request.method = method;
    request.target = std::move(target);
    request.headers.add("Host", config_.server_name);
    request.headers.add("User-Agent", kUserAgent);
    request.headers.add("Accept", accept);
    if (!content_type.empty()) {
      request.headers.add("Content-Type", content_type);
    }
    if (!config_.persistent) {
      request.headers.add("Connection", "close");
    }
    request.body = std::move(body);
    stack->h1->request(std::move(request),
                       [handle_body](const http1::Response& response) {
                         handle_body(
                             response.status,
                             response.headers.get("content-type").value_or(""),
                             response.body);
                       });
  }
}

void DohClient::on_stack_error(const std::shared_ptr<Stack>& stack) {
  if (stack->broken) return;  // double report (close after reset etc.)
  if (stack == racing_stack_) {
    // The migration racer died: the old path keeps the race. Defer the
    // teardown one event — this may be running inside the racer's own
    // TLS/HTTP callbacks.
    stack->broken = true;
    recovery_.post([this, stack]() {
      if (stack == racing_stack_) teardown_racer();
    });
    return;
  }
  stack->broken = true;
  if (persistent_stack_ == stack) persistent_stack_.reset();

  // Spans of a connection that died mid-handshake must not stay open.
  config_.obs.end(stack->tcp_hs_span);
  config_.obs.end(stack->tls_hs_span);
  config_.obs.end(stack->connect_span);
  stack->tcp_hs_span = stack->tls_hs_span = stack->connect_span = 0;

  std::vector<std::uint64_t> victims;
  victims.swap(stack->outstanding);
  if (victims.empty()) return;
  for (const std::uint64_t query_id : victims) {
    Exchange& x = exchanges_[query_id];
    config_.obs.end(x.response_span);
    x.response_span = 0;
  }
  recovery_.lose(victims);
}

void DohClient::abort(std::uint64_t key) {
  // HTTP/1.1 serializes responses on the connection, so a stalled exchange
  // blocks everything queued behind it, and an h2 connection that received
  // nothing since the attempt left is dead. Kill the suspect connection.
  const std::shared_ptr<Stack> stack = exchanges_[key].stack;
  if (stack->tcp) stack->tcp->abort();  // no local callbacks fire
  on_stack_error(stack);
}

bool DohClient::resend_alone(std::uint64_t key) const {
  const Exchange& x = exchanges_[key];
  const Stack* stack = x.stack.get();
  if (stack == nullptr || stack->broken) return true;
  // Zero bytes received on the connection across the whole timeout window
  // means the path, not the stream, is stalled (e.g. the 5-tuple died under
  // a silent NAT rebind) — the moral equivalent of an h2 PING timeout. An
  // h2 per-stream re-send would just rejoin the dead connection.
  const bool conn_dead =
      stack->tcp &&
      stack->tcp->counters().wire_bytes_received == x.rx_at_issue;
  return !stack->h1 && !conn_dead;
}

void DohClient::finishing(Attempt& a, bool success) {
  const std::uint64_t query_id = a.query_id;
  recovery_.disarm_stall_timer();
  Exchange& x = exchanges_[query_id];
  const std::shared_ptr<Stack> stack = x.stack;
  auto& out = stack->outstanding;
  out.erase(std::remove(out.begin(), out.end(), query_id), out.end());
  if (success) {
    // A full response on the old path while racing: the stall was
    // transient, keep the connection and drop the racer.
    teardown_racer();
  }
  if (config_.persistent) {
    // Freeze the counter window one event from now, so the TCP ACK
    // triggered by the response segment is still attributed to this query,
    // but later queries are not.
    recovery_.post([this, query_id]() {
      Exchange& e = exchanges_[query_id];
      if (!e.have_end) {
        e.end = e.stack->snapshot();
        e.have_end = true;
      }
    });
  }
  config_.obs.end(x.response_span);
  x.response_span = 0;
  if (stack->h2 && config_.obs.metrics) {
    // HPACK dynamic-table hits are per-connection cumulative; export the
    // delta since the last completion that had a registry to count it in.
    const std::uint64_t hits = stack->h2->encoder_stats().indexed_dynamic;
    if (hits > stack->hpack_reported) {
      hpack_dyn_hits_.add(config_.obs, hits - stack->hpack_reported);
      stack->hpack_reported = hits;
    }
  }
  if (!config_.persistent) {
    // Tear the connection down; the remaining FIN/close-notify bytes are
    // captured when result() settles the cost.
    if (stack->h2) stack->h2->close();
    if (stack->h1) stack->h1->close();
  }
  if (persistent_stack_ && !persistent_stack_->outstanding.empty()) {
    recovery_.arm_stall_timer();
  }
}

const ResolutionResult& DohClient::result(std::uint64_t id) const {
  const Exchange& x = exchanges_.at(id);
  // Fresh stacks are read at call time so the teardown packets are included
  // (run the loop to idle first); persistent stacks use the window frozen
  // at completion.
  if (x.stack) {
    recovery_.record_cost(
        id, (x.have_end ? x.end : x.stack->snapshot()) - x.start);
  }
  return recovery_.result(id);
}

void DohClient::migrate(const char* reason) {
  if (!config_.persistent) return;
  if (racing_stack_) return;  // a race is already deciding the new path
  if (!persistent_stack_) return;  // nothing to migrate; next query reconnects
  recovery_.open_migrate_span(reason);
  if (!persistent_stack_->usable() || persistent_stack_->outstanding.empty()) {
    // Nothing worth racing against: drop the suspect connection so the next
    // attempt reconnects on the new path, resuming via the session cache
    // when one is configured.
    auto old = persistent_stack_;
    recovery_.migrated("fresh");
    if (old->tcp) old->tcp->abort();  // no local callbacks fire
    on_stack_error(old);  // clears persistent_stack_, re-issues in flight
    return;
  }
  // Happy-eyeballs: open a fresh stack and race it against the stalled one.
  // make_stack wires the promote/teardown plumbing via the established and
  // error hooks; whichever path proves itself first wins, and the loser's
  // bytes are charged to migration_wasted_bytes.
  recovery_.start_race(*persistent_stack_->tcp);
  racing_stack_ = make_stack(recovery_.migrate_span());
}

void DohClient::promote_racer() {
  if (!racing_stack_ || racing_stack_->broken ||
      racing_stack_->tls == nullptr || !racing_stack_->tls->established() ||
      racing_stack_->tls->failed() || racing_stack_->tls->closed()) {
    return;  // adopted, torn down, or died before this event fired
  }
  auto old = persistent_stack_;
  recovery_.race_won(old ? old->tcp.get() : nullptr);
  persistent_stack_ = std::move(racing_stack_);
  if (old) {
    // Abort the stalled transport and let the group-retry path re-issue its
    // in-flight queries — stack_for_query now hands out the promoted stack.
    if (old->tcp) old->tcp->abort();
    on_stack_error(old);
  }
}

void DohClient::teardown_racer() {
  if (!racing_stack_) return;
  auto racer = std::move(racing_stack_);
  racer->broken = true;
  if (racer->tcp) racer->tcp->abort();
  // Dangling connect spans of the abandoned racer must not stay open.
  config_.obs.end(racer->tcp_hs_span);
  config_.obs.end(racer->tls_hs_span);
  config_.obs.end(racer->connect_span);
  racer->tcp_hs_span = racer->tls_hs_span = racer->connect_span = 0;
  recovery_.race_lost(racer->tcp.get());
}

void DohClient::disconnect() {
  if (!persistent_stack_) return;
  const auto stack = persistent_stack_;
  recovery_.close_deliberately([&]() {
    if (stack->h2) stack->h2->close();
    if (stack->h1) stack->h1->close();
    // The closed TLS session never reports the peer's FIN: fail what was
    // in flight here (no retries, the close was deliberate).
    on_stack_error(stack);
  });
}

const simnet::TcpCounters* DohClient::tcp_counters() const {
  return persistent_stack_ ? &persistent_stack_->tcp->counters() : nullptr;
}

const tlssim::TlsCounters* DohClient::tls_counters() const {
  return persistent_stack_ && persistent_stack_->tls
             ? &persistent_stack_->tls->counters()
             : nullptr;
}

}  // namespace dohperf::core
