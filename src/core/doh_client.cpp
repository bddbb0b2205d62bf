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
  return Link::usable() && !(h2 && h2->goaway_received());
}

DohClient::DohClient(simnet::Host& host, simnet::Address server,
                     DohClientConfig config)
    : config_(std::move(config)),
      recovery_(host, *this, config_.retry, config_.migration, config_.obs,
                config_.http_version == HttpVersion::kHttp2 ? "doh_h2"
                                                            : "doh_h1"),
      connector_(host, server, recovery_, *this, config_.obs,
                 tlssim::ClientConfig{
                     .max_version = config_.max_tls,
                     .sni = config_.server_name,
                     .alpn = {config_.http_version == HttpVersion::kHttp2
                                  ? "h2"
                                  : "http/1.1"},
                     .session_cache = config_.session_cache}) {}

std::shared_ptr<Link> DohClient::attach(
    std::unique_ptr<simnet::ByteStream> stream) {
  auto stack = std::make_shared<Stack>();
  Stack* s = stack.get();  // the handlers live in the HTTP layer it owns
  // One error handler per connection, not per query: a transport loss or
  // GOAWAY fails every query in flight on this stack at once.
  auto on_error = [this, s]() { connector_.closed(*s); };
  if (config_.http_version == HttpVersion::kHttp2) {
    stack->h2 = std::make_unique<http2::Http2Connection>(
        std::move(stream), http2::Http2Connection::Role::kClient, config_.h2);
    stack->h2->set_error_handler(std::move(on_error));
    if (config_.obs.tracer != nullptr) {
      stack->h2->set_stream_observer(
          [this, s](std::uint32_t stream_id, http2::StreamEvent event) {
            on_stream_event(*s, stream_id, event);
          });
    }
  } else {
    stack->h1 = std::make_unique<http1::Http1Client>(std::move(stream),
                                                     config_.h1_pipelining);
    stack->h1->set_error_handler(std::move(on_error));
  }
  return stack;
}

void DohClient::on_stream_event(Stack& stack, std::uint32_t stream_id,
                                http2::StreamEvent event) {
  switch (event) {
    case http2::StreamEvent::kRequestSent: {
      if (stack.awaiting_stream.empty()) return;
      const std::uint64_t query_id = stack.awaiting_stream.front();
      stack.awaiting_stream.pop_front();
      stack.stream_to_query.emplace(stream_id, query_id);
      if (const Attempt* a = recovery_.find(query_id)) {
        config_.obs.set_attr(a->request_span, "stream_id",
                             static_cast<std::int64_t>(stream_id));
        config_.obs.end(a->request_span);
      }
      return;
    }
    case http2::StreamEvent::kResponseBegan: {
      const auto it = stack.stream_to_query.find(stream_id);
      if (it == stack.stream_to_query.end()) return;
      const Attempt* a = recovery_.find(it->second);
      if (a == nullptr || a->span == 0) return;
      Exchange& x = exchanges_[it->second];
      x.response_span = config_.obs.tracer->begin(a->span, "response");
      config_.obs.set_attr(x.response_span, "stream_id",
                           static_cast<std::int64_t>(stream_id));
      return;
    }
    case http2::StreamEvent::kStreamClosed: {
      const auto it = stack.stream_to_query.find(stream_id);
      if (it == stack.stream_to_query.end()) return;
      Exchange& x = exchanges_[it->second];
      stack.stream_to_query.erase(it);
      config_.obs.end(x.response_span);
      x.response_span = 0;
      return;
    }
  }
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
  x.stack = std::static_pointer_cast<Stack>(
      config_.persistent ? connector_.connection(a.span)
                         : connector_.open(a.span));
  Stack* const stack = x.stack.get();
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

void DohClient::lost(Link& link, bool migrated) {
  Stack& stack = static_cast<Stack&>(link);
  std::vector<std::uint64_t> victims;
  victims.swap(stack.outstanding);
  if (victims.empty()) return;
  for (const std::uint64_t query_id : victims) {
    Exchange& x = exchanges_[query_id];
    config_.obs.end(x.response_span);
    x.response_span = 0;
  }
  recovery_.lose(victims, migrated);
}

void DohClient::abort(std::uint64_t key) {
  // HTTP/1.1 serializes responses on the connection, so a stalled exchange
  // blocks everything queued behind it, and an h2 connection that received
  // nothing since the attempt left is dead. Kill the suspect connection.
  connector_.abort(*exchanges_[key].stack);
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
  Exchange& x = exchanges_[query_id];
  Stack* const stack = x.stack.get();
  auto& out = stack->outstanding;
  out.erase(std::remove(out.begin(), out.end(), query_id), out.end());
  if (success) connector_.answered();
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

void DohClient::disconnect() {
  Stack* const stack = current();
  if (stack == nullptr) return;
  recovery_.close_deliberately([&]() {
    if (stack->h2) stack->h2->close();
    if (stack->h1) stack->h1->close();
    // The closed TLS session never reports the peer's FIN: fail what was
    // in flight here (no retries, the close was deliberate).
    connector_.closed(*stack);
  });
}

const simnet::TcpCounters* DohClient::tcp_counters() const {
  return current() != nullptr ? &current()->tcp->counters() : nullptr;
}

}  // namespace dohperf::core
