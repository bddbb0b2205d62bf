// HTTP/1.1 client connection with optional request pipelining.
//
// The paper's §3 experiment uses pipelining explicitly ("HTTP/1.1 without
// pipelining would be an unfair comparison"); responses are matched to
// requests strictly in order, which is what produces the HTTP/1.1
// head-of-line blocking in Figure 2.
#pragma once

#include <functional>
#include <memory>

#include "http1/message.hpp"
#include "simnet/fifo.hpp"
#include "simnet/stream.hpp"

namespace dohperf::http1 {

struct HttpCounters {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t header_bytes_sent = 0;
  std::uint64_t header_bytes_received = 0;
  std::uint64_t body_bytes_sent = 0;
  std::uint64_t body_bytes_received = 0;
};

class Http1Client {
 public:
  using ResponseHandler = std::function<void(const Response&)>;
  using ErrorHandler = std::function<void()>;

  /// Takes ownership of the transport (typically a TlsConnection).
  /// `pipelining` allows multiple outstanding requests; without it,
  /// requests queue locally until the previous response arrives.
  Http1Client(std::unique_ptr<simnet::ByteStream> transport,
              bool pipelining = true);

  Http1Client(const Http1Client&) = delete;
  Http1Client& operator=(const Http1Client&) = delete;

  /// Issue a request; the handler fires when its response arrives.
  void request(Request req, ResponseHandler on_response);

  /// Invoked if the connection closes or the peer sends garbage while
  /// requests are outstanding.
  void set_error_handler(ErrorHandler handler) {
    on_error_ = std::move(handler);
  }

  void close();
  bool is_open() const { return transport_->is_open(); }

  const HttpCounters& counters() const noexcept { return counters_; }
  simnet::ByteStream& transport() noexcept { return *transport_; }
  std::size_t outstanding() const noexcept { return in_flight_.size(); }

 private:
  void on_data(const BufferSlice& data);
  void on_open();
  void on_close();
  void send_request(const Request& req);
  void pump_queue();

  std::unique_ptr<simnet::ByteStream> transport_;
  bool pipelining_;
  bool open_ = false;
  Parser parser_{Parser::Mode::kResponse};
  /// FIFO matching, RFC 7230 §6.3.2.
  simnet::Fifo<ResponseHandler> in_flight_;
  simnet::Fifo<std::pair<Request, ResponseHandler>> queued_;
  simnet::ByteSlab slab_;  ///< request heads (and bodies) are written here
  HttpCounters counters_;
  ErrorHandler on_error_;
};

}  // namespace dohperf::http1
