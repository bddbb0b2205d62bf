#include "http1/server.hpp"

namespace dohperf::http1 {

Http1ServerConnection::Http1ServerConnection(
    std::unique_ptr<simnet::ByteStream> transport, RequestHandler handler)
    : transport_(std::move(transport)), handler_(std::move(handler)) {
  simnet::ByteStream::Handlers h;
  h.on_open = []() {};
  h.on_data = [this](const BufferSlice& d) { on_data(d); };
  h.on_close = []() {};
  transport_->set_handlers(std::move(h));
}

void Http1ServerConnection::on_data(const BufferSlice& data) {
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
  if (sequence != next_to_send_) {
    // Answered ahead of an earlier request: held until that one is sent.
    ready_.emplace(sequence, std::move(response));
    return;
  }
  send_next(response);
  // Responses that were blocked behind this one follow it.
  for (auto it = ready_.find(next_to_send_); it != ready_.end();
       it = ready_.find(next_to_send_)) {
    send_next(it->second);
    ready_.erase(it);
  }
}

void Http1ServerConnection::send_next(const Response& response) {
  WireSizes sizes;
  // One logical write of {head, body}: the body slice goes out uncopied.
  const BufferSlice wire[] = {serialize_head(slab_, response, &sizes),
                              response.body};
  ++counters_.responses;
  counters_.header_bytes_sent += sizes.header_bytes;
  counters_.body_bytes_sent += sizes.body_bytes;
  if (transport_->is_open()) transport_->send_chain(wire);
  ++next_to_send_;
}

void Http1ServerConnection::close() { transport_->close(); }

}  // namespace dohperf::http1
