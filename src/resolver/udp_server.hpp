// Classic UDP DNS front-end (port 53).
#pragma once

#include "resolver/query_handler.hpp"
#include "simnet/host.hpp"

namespace dohperf::resolver {

class UdpServer {
 public:
  /// Binds `port` on `host` and answers via `handler` — a bare Engine or a
  /// RecursiveTier (not owned; must outlive the server).
  UdpServer(simnet::Host& host, QueryHandler& handler,
            std::uint16_t port = 53);
  ~UdpServer();

  UdpServer(const UdpServer&) = delete;
  UdpServer& operator=(const UdpServer&) = delete;

  simnet::Address address() const { return socket_->local(); }
  std::uint64_t malformed_queries() const noexcept { return malformed_; }

  /// Simulate a crash + restart: queries arriving during the `downtime`
  /// window are silently dropped (UDP has no connections to reset).
  void restart(simnet::TimeUs downtime);
  bool up() const noexcept { return !down_; }
  std::uint64_t dropped_while_down() const noexcept {
    return dropped_while_down_;
  }

 private:
  simnet::Host& host_;
  QueryHandler& handler_;
  simnet::UdpSocket* socket_;
  std::uint64_t malformed_ = 0;
  bool down_ = false;
  std::uint64_t dropped_while_down_ = 0;
  simnet::EventId up_again_;  ///< the end of the downtime; cancelled with us
};

}  // namespace dohperf::resolver
