#include "core/udp_client.hpp"

#include "core/obs_hooks.hpp"
#include "core/recovery.hpp"

namespace dohperf::core {

UdpResolverClient::UdpResolverClient(simnet::Host& host,
                                     simnet::Address server,
                                     UdpClientConfig config)
    : host_(host), server_(server), config_(config), metrics_("udp"),
      socket_(&host.udp_open()) {
  socket_->set_receiver(
      [this](const dns::Bytes& payload, simnet::Address /*from*/) {
        on_datagram(payload);
      });
}

UdpResolverClient::~UdpResolverClient() {
  for (auto& [dns_id, p] : pending_) {
    host_.loop().cancel(p.timer);
  }
  host_.udp_close(*socket_);
}

std::uint64_t UdpResolverClient::resolve(const dns::Name& name,
                                         dns::RType type,
                                         ResolveCallback callback) {
  const std::uint64_t query_id = next_query_id_++;
  Pending pending;
  pending.query_id = query_id;
  pending.callback = std::move(callback);
  pending.retries_left = config_.max_retries;
  pending.span = obs_begin_resolution(config_.obs, metrics_, name, type);

  ResolutionResult result;
  result.sent_at = host_.loop().now();
  results_.push_back(std::move(result));
  const std::optional<std::uint16_t> dns_id =
      allocate_dns_id(next_dns_id_, pending_);
  if (!dns_id) {
    // Every DNS ID is in flight: fail the query, one event later so the
    // callback never runs inside resolve().
    host_.loop().schedule_in(0, [this, p = std::move(pending)]() mutable {
      complete(p, false, {}, 0);
    });
    return query_id;
  }
  pending.wire =
      dns::Message::make_query(*dns_id, name, type, config_.edns).encode();
  // UDP cost is exact and known up-front for the query half; the response
  // half is added on completion.
  results_.back().cost.dns_message_bytes = pending.wire.size();

  pending_.emplace(*dns_id, std::move(pending));
  send_query(*dns_id);
  return query_id;
}

void UdpResolverClient::send_query(std::uint16_t dns_id) {
  auto& pending = pending_.at(dns_id);
  auto& result = results_[pending.query_id];
  result.cost.wire_bytes +=
      pending.wire.size() + simnet::kIpHeaderBytes + simnet::kUdpHeaderBytes;
  result.cost.packets += 1;
  ++pending.attempt;
  if (pending.span != 0) {
    pending.request_span =
        config_.obs.tracer->begin(pending.span, "request");
    config_.obs.set_attr(pending.request_span, "attempt",
                         static_cast<std::int64_t>(pending.attempt));
  }
  socket_->send_to(server_, pending.wire);
  pending.timer = host_.loop().schedule_in(
      config_.timeout, [this, dns_id]() { on_timeout(dns_id); });
}

void UdpResolverClient::on_timeout(std::uint16_t dns_id) {
  const auto it = pending_.find(dns_id);
  if (it == pending_.end()) return;
  if (it->second.retries_left > 0) {
    --it->second.retries_left;
    Pending& p = it->second;
    config_.obs.end(p.request_span);
    p.request_span = 0;
    trace_retry(config_.obs, p.span, RetryReason::kTimeout, p.attempt);
    metrics_.retries.add(config_.obs);
    ++retransmissions_;
    send_query(dns_id);
    return;
  }
  ++timeouts_;
  metrics_.timeouts.add(config_.obs);
  finish(dns_id, false, {}, 0);
}

void UdpResolverClient::on_datagram(const dns::Bytes& payload) {
  dns::Message response;
  try {
    response = dns::Message::decode(payload);
  } catch (const dns::WireError&) {
    return;  // garbage datagram; ignore like a real stub
  }
  const auto it = pending_.find(response.id);
  if (it == pending_.end() || !response.flags.qr) return;
  finish(response.id, true, std::move(response), payload.size());
}

void UdpResolverClient::finish(std::uint16_t dns_id, bool success,
                               dns::Message response,
                               std::size_t response_bytes) {
  auto node = pending_.extract(dns_id);
  complete(node.mapped(), success, std::move(response), response_bytes);
}

void UdpResolverClient::complete(Pending& pending, bool success,
                                 dns::Message response,
                                 std::size_t response_bytes) {
  host_.loop().cancel(pending.timer);

  ResolutionResult& result = results_[pending.query_id];
  result.success = success;
  result.completed_at = host_.loop().now();
  if (success) {
    result.cost.dns_message_bytes += response_bytes;
    result.cost.wire_bytes +=
        response_bytes + simnet::kIpHeaderBytes + simnet::kUdpHeaderBytes;
    result.cost.packets += 1;
    result.response = std::move(response);
  }
  ++completed_;
  config_.obs.end(pending.request_span);
  obs_span_cost(config_.obs, pending.span, result.cost);
  obs_count_cost(config_.obs, cost_metrics_, result.cost);
  obs_finish_resolution(config_.obs, metrics_, pending.span, result);
  // The callback gets the result moved out of results_: a resolve() inside
  // it may grow results_ and move every result. It goes back afterwards.
  ResolutionResult done = std::move(result);
  if (pending.callback) pending.callback(done);
  results_[pending.query_id] = std::move(done);
}

const ResolutionResult& UdpResolverClient::result(std::uint64_t id) const {
  return results_.at(id);
}

}  // namespace dohperf::core
