// DNS-over-QUIC front-end (RFC 9250) — EXTENSION. One query per stream,
// answered on the same stream; because streams are independent, a delayed
// query never blocks others (no server-side ordering choice to make, unlike
// DoT/RFC 7766).
#pragma once

#include <map>
#include <memory>
#include <span>

#include "quicsim/endpoint.hpp"
#include "resolver/query_handler.hpp"
#include "tlssim/types.hpp"

namespace dohperf::resolver {

struct DoqServerConfig {
  tlssim::ServerConfig tls;
  quicsim::QuicConnectionConfig quic;
};

class DoqServer {
 public:
  DoqServer(simnet::Host& host, QueryHandler& handler,
            DoqServerConfig config = {}, std::uint16_t port = 853);

  DoqServer(const DoqServer&) = delete;
  DoqServer& operator=(const DoqServer&) = delete;

  simnet::Address address() const { return server_->address(); }
  std::size_t connection_count() const { return server_->connection_count(); }

 private:
  /// Per-connection state, dropped when the connection closes: the queries
  /// that arrive in more than one STREAM frame, until their FIN.
  struct ConnState : std::enable_shared_from_this<ConnState> {
    quicsim::StreamJoiner queries;
  };

  void on_accept(quicsim::QuicConnection& conn);
  void on_query(quicsim::QuicConnection& conn, std::uint64_t stream_id,
                std::span<const std::uint8_t> wire);

  simnet::Host& host_;
  QueryHandler& handler_;
  DoqServerConfig config_;
  std::unique_ptr<quicsim::QuicServer> server_;
  std::map<const quicsim::QuicConnection*, std::shared_ptr<ConnState>>
      states_;
};

}  // namespace dohperf::resolver
