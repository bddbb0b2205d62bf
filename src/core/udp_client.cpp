#include "core/udp_client.hpp"

namespace dohperf::core {

namespace {

/// `config`'s deadline and re-send budget as Recovery's rules. UDP never
/// runs a loss batch, so the backoff fields go unused.
RetryPolicy retry_policy(const UdpClientConfig& config) {
  RetryPolicy policy;
  policy.max_retries = config.max_retries;
  policy.query_timeout = config.timeout;
  return policy;
}

/// The wire cost of one datagram carrying `dns_bytes` of DNS message.
CostReport datagram(std::size_t dns_bytes) {
  CostReport cost;
  cost.wire_bytes =
      dns_bytes + simnet::kIpHeaderBytes + simnet::kUdpHeaderBytes;
  cost.packets = 1;
  return cost;
}

}  // namespace

UdpResolverClient::UdpResolverClient(simnet::Host& host,
                                     simnet::Address server,
                                     UdpClientConfig config)
    : host_(host),
      server_(server),
      obs_(config.obs),
      retry_(retry_policy(config)),
      recovery_(host_, *this, retry_, migration_, obs_, "udp"),
      socket_(&host.udp_open()) {
  socket_->set_receiver(
      [this](const dns::Bytes& payload, simnet::Address /*from*/) {
        on_datagram(payload);
      });
}

UdpResolverClient::~UdpResolverClient() { host_.udp_close(*socket_); }

void UdpResolverClient::send(Attempt&& a) {
  recovery_.open_request(a);
  dns::Bytes wire =
      dns::Message::make_query(a.dns_id, a.name, a.type).encode();
  const std::size_t size = wire.size();
  recovery_.add_cost(a.query_id, datagram(size));
  socket_->send_to(server_, std::move(wire));
  // A re-send repeats the first datagram's message: its DNS bytes count once.
  const std::uint16_t id = a.dns_id;
  const std::size_t dns_bytes = a.attempt == 1 ? size : 0;
  recovery_.sent(id, std::move(a), dns_bytes);
}

void UdpResolverClient::on_datagram(const dns::Bytes& payload) {
  dns::Message response;
  try {
    response = dns::Message::decode(payload);
  } catch (const dns::WireError&) {
    return;  // garbage datagram; ignore like a real stub
  }
  const Attempt* a = recovery_.find(response.id);
  if (a == nullptr || !response.flags.qr) return;
  recovery_.add_cost(a->query_id, datagram(payload.size()));
  const std::uint16_t id = response.id;
  recovery_.answer(id, std::move(response), payload.size());
}

}  // namespace dohperf::core
