// HTTP/1.1 server connection.
//
// Responses are emitted strictly in request order (RFC 7230 §6.3.2 — the
// RFC offers no way around this for HTTP/1.1). When the application answers
// request k+1 before request k, the response is buffered: this is the
// head-of-line blocking the paper demonstrates in Figure 2.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "http1/client.hpp"  // HttpCounters
#include "http1/message.hpp"
#include "simnet/stream.hpp"

namespace dohperf::http1 {

class Http1ServerConnection {
 public:
  /// The application receives the request and a `respond` callable it may
  /// invoke immediately or later (e.g. after a simulated backend delay).
  using Responder = std::function<void(Response)>;
  using RequestHandler = std::function<void(const Request&, Responder)>;

  Http1ServerConnection(std::unique_ptr<simnet::ByteStream> transport,
                        RequestHandler handler);

  Http1ServerConnection(const Http1ServerConnection&) = delete;
  Http1ServerConnection& operator=(const Http1ServerConnection&) = delete;

  void close();
  bool is_open() const { return transport_->is_open(); }
  const HttpCounters& counters() const noexcept { return counters_; }
  /// Responses finished by the app but blocked behind earlier requests.
  std::size_t blocked_responses() const noexcept { return ready_.size(); }

 private:
  void on_data(const BufferSlice& data);
  void complete(std::uint64_t sequence, Response response);
  /// Send the response to request next_to_send_.
  void send_next(const Response& response);

  std::unique_ptr<simnet::ByteStream> transport_;
  RequestHandler handler_;
  Parser parser_{Parser::Mode::kRequest};
  HttpCounters counters_;
  std::uint64_t next_assigned_ = 0;  ///< sequence given to incoming requests
  std::uint64_t next_to_send_ = 0;   ///< lowest sequence not yet responded
  std::map<std::uint64_t, Response> ready_;  ///< completed out of order
  simnet::ByteSlab slab_;  ///< response heads are written here
};

}  // namespace dohperf::http1
