#include "http1/client.hpp"

namespace dohperf::http1 {

Http1Client::Http1Client(std::unique_ptr<simnet::ByteStream> transport,
                         bool pipelining)
    : transport_(std::move(transport)), pipelining_(pipelining) {
  simnet::ByteStream::Handlers h;
  h.on_open = [this]() { on_open(); };
  h.on_data = [this](const BufferSlice& d) { on_data(d); };
  h.on_close = [this]() { on_close(); };
  transport_->set_handlers(std::move(h));
  open_ = transport_->is_open();
}

void Http1Client::on_open() {
  open_ = true;
  pump_queue();
}

void Http1Client::request(Request req, ResponseHandler on_response) {
  queued_.emplace_back(std::move(req), std::move(on_response));
  pump_queue();
}

void Http1Client::pump_queue() {
  if (!open_) return;
  while (!queued_.empty()) {
    if (!pipelining_ && !in_flight_.empty()) break;
    auto [req, handler] = std::move(queued_.front());
    queued_.pop_front();
    in_flight_.push_back(std::move(handler));
    send_request(req);
  }
}

void Http1Client::send_request(const Request& req) {
  WireSizes sizes;
  BufferSlice wire = serialize(slab_, req, &sizes);
  ++counters_.requests;
  counters_.header_bytes_sent += sizes.header_bytes;
  counters_.body_bytes_sent += sizes.body_bytes;
  transport_->send(std::move(wire));
}

void Http1Client::on_data(const BufferSlice& data) {
  parser_.feed(data);
  while (auto response = parser_.next_response()) {
    ++counters_.responses;
    counters_.header_bytes_received += parser_.last_sizes().header_bytes;
    counters_.body_bytes_received += parser_.last_sizes().body_bytes;
    if (in_flight_.empty()) {
      // Response without a request: protocol violation.
      if (on_error_) on_error_();
      return;
    }
    auto handler = std::move(in_flight_.front());
    in_flight_.pop_front();
    if (handler) handler(*response);
    // After a non-pipelined response, the next queued request may go out.
    pump_queue();
  }
  if (parser_.error() && on_error_) on_error_();
}

void Http1Client::on_close() {
  open_ = false;
  if ((!in_flight_.empty() || !queued_.empty()) && on_error_) on_error_();
}

void Http1Client::close() { transport_->close(); }

}  // namespace dohperf::http1
