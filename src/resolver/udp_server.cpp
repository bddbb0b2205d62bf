#include "resolver/udp_server.hpp"

namespace dohperf::resolver {

UdpServer::UdpServer(simnet::Host& host, QueryHandler& handler,
                     std::uint16_t port)
    : host_(host), handler_(handler), socket_(&host.udp_open(port)) {
  socket_->set_receiver(
      [this](const simnet::Bytes& payload, simnet::Address from) {
        if (down_) {
          ++dropped_while_down_;
          return;
        }
        dns::Message query;
        try {
          query = dns::Message::decode(payload);
        } catch (const dns::WireError&) {
          ++malformed_;
          return;  // real servers drop unparseable datagrams
        }
        const QueryContext context{from.node, Transport::kUdp};
        handler_.handle(query, context, [this, from](dns::Message response) {
          if (down_) return;  // crashed while the query was in service
          socket_->send_to(from, response.encode());
        });
      });
}

UdpServer::~UdpServer() {
  host_.loop().cancel(up_again_);
  host_.udp_close(*socket_);
}

void UdpServer::restart(simnet::TimeUs downtime) {
  down_ = true;
  host_.loop().cancel(up_again_);
  up_again_ = host_.loop().schedule_in(downtime, [this]() { down_ = false; });
}

}  // namespace dohperf::resolver
