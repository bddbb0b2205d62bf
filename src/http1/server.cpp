#include "http1/server.hpp"

namespace dohperf::http1 {

Http1ServerConnection::Http1ServerConnection(
    std::unique_ptr<simnet::ByteStream> transport, RequestHandler handler)
    : transport_(std::move(transport)), handler_(std::move(handler)) {
  simnet::ByteStream::Handlers h;
  h.on_open = []() {};
  h.on_data = [this](std::span<const std::uint8_t> d) { on_data(d); };
  h.on_close = []() {};
  transport_->set_handlers(std::move(h));
}

void Http1ServerConnection::on_data(std::span<const std::uint8_t> data) {
  parser_.feed(data);
  while (auto request = parser_.next_request()) {
    ++counters_.requests;
    counters_.header_bytes_received += parser_.last_sizes().header_bytes;
    counters_.body_bytes_received += parser_.last_sizes().body_bytes;
    const std::uint64_t sequence = next_assigned_++;
    handler_(*request, [this, sequence](Response response) {
      complete(sequence, std::move(response));
    });
  }
  if (parser_.error()) transport_->close();
}

void Http1ServerConnection::complete(std::uint64_t sequence,
                                     Response response) {
  ready_.emplace(sequence, std::move(response));
  flush_in_order();
}

void Http1ServerConnection::flush_in_order() {
  while (true) {
    const auto it = ready_.find(next_to_send_);
    if (it == ready_.end()) break;
    WireSizes sizes;
    // One logical write of {head, body}: the body slice goes out uncopied.
    const BufferSlice wire[] = {serialize_head(it->second, &sizes),
                                it->second.body};
    ++counters_.responses;
    counters_.header_bytes_sent += sizes.header_bytes;
    counters_.body_bytes_sent += sizes.body_bytes;
    if (transport_->is_open()) transport_->send_chain(wire);
    ready_.erase(it);
    ++next_to_send_;
  }
}

void Http1ServerConnection::close() { transport_->close(); }

}  // namespace dohperf::http1
