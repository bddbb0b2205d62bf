#include "http2/connection.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace dohperf::http2 {

namespace {

/// Store `v` big-endian at `out`.
void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

Http2Connection::Http2Connection(
    std::unique_ptr<simnet::ByteStream> transport, Role role,
    Http2Config config)
    : transport_(std::move(transport)), role_(role), config_(config),
      encoder_(config.header_table_size), decoder_(config.header_table_size),
      next_stream_id_(role == Role::kClient ? 1 : 2) {
  if (!config_.enable_hpack_dynamic_table) encoder_.disable_dynamic_table();
  simnet::ByteStream::Handlers h;
  h.on_open = [this]() { on_transport_open(); };
  h.on_data = [this](const simnet::BufferSlice& d) { on_transport_data(d); };
  h.on_close = [this]() { on_transport_close(); };
  transport_->set_handlers(std::move(h));
  if (transport_->is_open()) on_transport_open();
}

void Http2Connection::on_transport_open() {
  if (transport_open_) return;
  transport_open_ = true;
  send_preface_and_settings();
  while (!pending_pings_.empty()) {
    auto cb = std::move(pending_pings_.front());
    pending_pings_.pop_front();
    ping(std::move(cb));
  }
  // Flush requests queued before the transport opened.
  while (!queued_requests_.empty()) {
    auto [msg, handler] = std::move(queued_requests_.front());
    queued_requests_.pop_front();
    request(std::move(msg), std::move(handler));
  }
}

void Http2Connection::send_preface_and_settings() {
  if (settings_sent_) return;
  settings_sent_ = true;
  if (role_ == Role::kClient) {
    counters_.mgmt_bytes_sent += kConnectionPreface.size();
    cork();
    cork_chain_.push_back(slab_.copy(std::span(
        reinterpret_cast<const std::uint8_t*>(kConnectionPreface.data()),
        kConnectionPreface.size())));
    send_settings(/*ack=*/false);
    uncork();
    return;
  }
  send_settings(/*ack=*/false);
}

void Http2Connection::send_frame(FrameType type, std::uint8_t flags,
                                 std::uint32_t stream_id,
                                 std::span<const std::uint8_t> copied,
                                 BufferSlice shared) {
  // Dropping frames once the transport is gone mirrors a real server whose
  // late responses hit a closed socket (e.g. a delayed answer racing a
  // client disconnect).
  if (!transport_->is_open()) return;
  const std::size_t length = copied.size() + shared.size();
  // Byte attribution per the Fig 5 convention (see H2Counters).
  switch (type) {
    case FrameType::kHeaders:
    case FrameType::kContinuation:
      counters_.header_bytes_sent += kFrameHeaderBytes + length;
      break;
    case FrameType::kData:
      counters_.body_bytes_sent += length;
      counters_.mgmt_bytes_sent += kFrameHeaderBytes;
      break;
    default:
      counters_.mgmt_bytes_sent += kFrameHeaderBytes + length;
      break;
  }
  BufferSlice head = slab_.write(
      kFrameHeaderBytes + copied.size(), [&](std::uint8_t* out) {
        write_frame_header(out, type, flags, stream_id, length);
        if (!copied.empty()) {
          std::memcpy(out + kFrameHeaderBytes, copied.data(), copied.size());
        }
      });
  // {header, payload}: a DATA payload (a view of the body) crosses into the
  // transport without being copied.
  if (corked_) {
    cork_chain_.push_back(std::move(head));
    if (!shared.empty()) cork_chain_.push_back(std::move(shared));
  } else {
    const BufferSlice pieces[2] = {std::move(head), std::move(shared)};
    transport_->send_chain(std::span<const BufferSlice>(
        pieces, pieces[1].empty() ? 1 : 2));
  }
}

void Http2Connection::cork() { corked_ = true; }

void Http2Connection::uncork() {
  corked_ = false;
  if (!cork_chain_.empty()) {
    const std::vector<BufferSlice> chain = std::move(cork_chain_);
    cork_chain_.clear();
    if (transport_->is_open()) transport_->send_chain(chain);
  }
}

void Http2Connection::send_settings(bool ack) {
  if (ack) {
    send_frame(FrameType::kSettings, kFlagAck, 0, {});
    return;
  }
  const std::pair<SettingId, std::uint32_t> settings[] = {
      {SettingId::kHeaderTableSize,
       static_cast<std::uint32_t>(config_.header_table_size)},
      {SettingId::kEnablePush, 0},
      {SettingId::kMaxConcurrentStreams, config_.max_concurrent_streams},
      {SettingId::kInitialWindowSize, config_.initial_window_size},
      {SettingId::kMaxFrameSize,
       static_cast<std::uint32_t>(config_.max_frame_size)},
  };
  std::array<std::uint8_t, std::size(settings) * 6> payload;
  std::uint8_t* out = payload.data();
  for (const auto& [id, value] : settings) {
    const auto code = static_cast<std::uint16_t>(id);
    out[0] = static_cast<std::uint8_t>(code >> 8);
    out[1] = static_cast<std::uint8_t>(code);
    put_u32(out + 2, value);
    out += 6;
  }
  send_frame(FrameType::kSettings, 0, 0, payload);
}

void Http2Connection::send_window_update(std::uint32_t stream_id,
                                         std::uint32_t increment) {
  if (increment == 0) return;
  std::uint8_t payload[4];
  put_u32(payload, increment);
  send_frame(FrameType::kWindowUpdate, 0, stream_id, payload);
}

void Http2Connection::send_headers(std::uint32_t stream_id,
                                   const std::vector<HeaderField>& headers,
                                   bool end_stream) {
  // The encoder's buffer: each chunk is copied into the send slab before
  // the next encode could reuse it.
  const std::span<const std::uint8_t> block = encoder_.encode(headers);
  // Split into HEADERS + CONTINUATION if the block exceeds the frame limit.
  std::size_t offset = 0;
  bool first = true;
  do {
    const std::size_t chunk =
        std::min(config_.max_frame_size, block.size() - offset);
    std::uint8_t flags = 0;
    if (offset + chunk >= block.size()) flags |= kFlagEndHeaders;
    if (first && end_stream) flags |= kFlagEndStream;
    send_frame(first ? FrameType::kHeaders : FrameType::kContinuation, flags,
               stream_id, block.subspan(offset, chunk));
    offset += chunk;
    first = false;
  } while (offset < block.size());
}

void Http2Connection::send_data(std::uint32_t stream_id, BufferSlice body,
                                bool end_stream) {
  auto& stream = streams_.at(stream_id);
  std::size_t offset = 0;
  while (offset < body.size()) {
    const std::int64_t window =
        std::min(connection_send_window_, stream.send_window);
    if (window <= 0) break;
    const std::size_t chunk =
        std::min({config_.max_frame_size, body.size() - offset,
                  static_cast<std::size_t>(window)});
    BufferSlice payload = body.subslice(offset, chunk);
    offset += chunk;
    connection_send_window_ -= static_cast<std::int64_t>(chunk);
    stream.send_window -= static_cast<std::int64_t>(chunk);
    std::uint8_t flags = 0;
    if (offset >= body.size() && end_stream) {
      flags = kFlagEndStream;
      stream.local_end = true;
    }
    send_frame(FrameType::kData, flags, stream_id, {}, std::move(payload));
  }
  if (offset < body.size()) {
    // Flow-control blocked: stash the remainder as a view, no copy.
    stream.pending_body.push_back(body.subslice(offset));
  } else if (body.empty() && end_stream && !stream.local_end) {
    // Zero-length END_STREAM DATA frame.
    stream.local_end = true;
    send_frame(FrameType::kData, kFlagEndStream, stream_id, {});
  }
}

BufferSlice Http2Connection::body_slice(Bytes body) {
  if (body.size() > simnet::ByteSlab::kMaxBlockAlloc) {
    return BufferSlice(std::move(body));
  }
  return slab_.copy(body);
}

void Http2Connection::try_flush_blocked() {
  for (auto& [id, stream] : streams_) {
    if (!stream.pending_body.empty()) {
      std::vector<BufferSlice> chunks = std::move(stream.pending_body);
      stream.pending_body.clear();
      // A single stashed slice (the common case) goes back out zero-copy;
      // multiple stashes are flattened so re-chunking at window boundaries
      // matches the historical contiguous-buffer behaviour exactly.
      BufferSlice body = chunks.size() == 1
                             ? std::move(chunks.front())
                             : BufferSlice{simnet::coalesce(chunks)};
      send_data(id, std::move(body), /*end_stream=*/true);
    }
  }
}

void Http2Connection::request(H2Message message,
                              ResponseHandler on_response) {
  assert(role_ == Role::kClient);
  if (!transport_open_) {
    queued_requests_.emplace_back(std::move(message), std::move(on_response));
    return;
  }
  const std::uint32_t stream_id = next_stream_id_;
  next_stream_id_ += 2;
  Stream stream;
  stream.on_response = std::move(on_response);
  stream.send_window = peer_initial_window_;
  streams_.emplace(stream_id, std::move(stream));
  ++counters_.requests;

  const bool has_body = !message.body.empty();
  // HEADERS and DATA go out as separate writes (and thus separate TLS
  // records / TCP segments), matching the 2019-era Python/doh-proxy
  // stacks whose traffic the paper measured.
  send_headers(stream_id, message.headers, /*end_stream=*/!has_body);
  if (has_body) {
    send_data(stream_id, body_slice(std::move(message.body)), true);
  }
  if (stream_observer_) stream_observer_(stream_id, StreamEvent::kRequestSent);
}

void Http2Connection::ping(std::function<void()> on_ack) {
  if (!transport_open_) {
    // Nothing may precede the connection preface on the wire.
    pending_pings_.push_back(std::move(on_ack));
    return;
  }
  ping_handlers_.push_back(std::move(on_ack));
  const std::uint8_t opaque_data[8] = {};
  send_frame(FrameType::kPing, 0, 0, opaque_data);
}

void Http2Connection::close(H2Error error) {
  if (goaway_sent_) return;
  goaway_sent_ = true;
  if (transport_->is_open() || transport_open_) {
    std::uint8_t payload[8];
    put_u32(payload, next_stream_id_ > 2 ? next_stream_id_ - 2 : 0);
    put_u32(payload + 4, static_cast<std::uint32_t>(error));
    send_frame(FrameType::kGoaway, 0, 0, payload);
  }
  transport_->close();
}

void Http2Connection::on_transport_data(std::span<const std::uint8_t> data) {
  reader_.feed(data);
  try {
    if (role_ == Role::kServer && !preface_done_) {
      if (!reader_.consume_preface()) return;
      preface_done_ = true;
      counters_.mgmt_bytes_received += kConnectionPreface.size();
    }
    while (auto frame = reader_.next(config_.max_frame_size)) {
      handle_frame(*frame);
    }
  } catch (const WireError&) {
    protocol_error();
  } catch (const HpackError&) {
    protocol_error();
  }
}

void Http2Connection::protocol_error() {
  close(H2Error::kProtocolError);
  if (on_error_) on_error_();
}

void Http2Connection::handle_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHeaders:
    case FrameType::kContinuation:
      counters_.header_bytes_received += frame.wire_size();
      handle_headers(frame);
      return;
    case FrameType::kData:
      counters_.body_bytes_received += frame.payload.size();
      counters_.mgmt_bytes_received += kFrameHeaderBytes;
      handle_data(frame);
      return;
    case FrameType::kSettings:
      counters_.mgmt_bytes_received += frame.wire_size();
      handle_settings(frame);
      return;
    case FrameType::kWindowUpdate:
      counters_.mgmt_bytes_received += frame.wire_size();
      handle_window_update(frame);
      return;
    case FrameType::kPing:
      counters_.mgmt_bytes_received += frame.wire_size();
      handle_ping(frame);
      return;
    case FrameType::kGoaway:
      counters_.mgmt_bytes_received += frame.wire_size();
      goaway_received_ = true;
      // A client with work in flight treats GOAWAY like a transport loss:
      // the peer is shutting down and will not answer those streams.
      if (role_ == Role::kClient && on_error_ &&
          (!streams_.empty() || !queued_requests_.empty())) {
        on_error_();
      }
      return;
    case FrameType::kRstStream:
    case FrameType::kPriority:
    case FrameType::kPushPromise:
      counters_.mgmt_bytes_received += frame.wire_size();
      return;  // tolerated, nothing to do in the experiments
  }
  throw WireError("unknown frame type");
}

void Http2Connection::handle_headers(const Frame& frame) {
  if (frame.stream_id == 0) throw WireError("HEADERS on stream 0");
  auto [it, inserted] = streams_.try_emplace(frame.stream_id);
  Stream& stream = it->second;
  if (inserted) {
    if (role_ == Role::kClient) throw WireError("server-initiated stream");
    stream.send_window = peer_initial_window_;
  }
  if (role_ == Role::kClient && !stream.response_began) {
    stream.response_began = true;
    if (stream_observer_) {
      stream_observer_(frame.stream_id, StreamEvent::kResponseBegan);
    }
  }

  // A header block split across HEADERS + CONTINUATION frames is one HPACK
  // unit: it must be reassembled before decoding (RFC 7540 §4.3). A block
  // in one frame is decoded where it arrived, into the stream's fields.
  if (!frame.has_flag(kFlagEndHeaders)) {
    stream.header_block.insert(stream.header_block.end(),
                               frame.payload.begin(), frame.payload.end());
  } else if (stream.header_block.empty()) {
    decoder_.decode(frame.payload, stream.headers);
    stream.headers_done = true;
  } else {
    stream.header_block.insert(stream.header_block.end(),
                               frame.payload.begin(), frame.payload.end());
    decoder_.decode(stream.header_block, stream.headers);
    stream.header_block.clear();
    stream.headers_done = true;
  }
  if (frame.has_flag(kFlagEndStream)) stream.remote_end = true;
  if (stream.headers_done && stream.remote_end) {
    stream_complete(frame.stream_id);
  }
}

void Http2Connection::handle_data(const Frame& frame) {
  const auto it = streams_.find(frame.stream_id);
  if (it == streams_.end()) throw WireError("DATA on unknown stream");
  Stream& stream = it->second;
  stream.body.insert(stream.body.end(), frame.payload.begin(),
                     frame.payload.end());
  // Replenish flow-control windows in bulk once half the window has been
  // consumed (like production stacks), not per frame.
  if (!frame.payload.empty()) {
    const std::uint64_t threshold = config_.initial_window_size / 2;
    conn_consumed_ += frame.payload.size();
    if (conn_consumed_ >= threshold) {
      send_window_update(0, static_cast<std::uint32_t>(conn_consumed_));
      conn_consumed_ = 0;
    }
    if (frame.has_flag(kFlagEndStream)) {
      stream_consumed_.erase(frame.stream_id);
    } else {
      auto& consumed = stream_consumed_[frame.stream_id];
      consumed += frame.payload.size();
      if (consumed >= threshold) {
        send_window_update(frame.stream_id,
                           static_cast<std::uint32_t>(consumed));
        consumed = 0;
      }
    }
  }
  if (frame.has_flag(kFlagEndStream)) {
    stream.remote_end = true;
    if (stream.headers_done) stream_complete(frame.stream_id);
  }
}

void Http2Connection::handle_settings(const Frame& frame) {
  if (frame.has_flag(kFlagAck)) return;
  ByteReader r(frame.payload);
  while (!r.exhausted()) {
    const auto id = static_cast<SettingId>(r.u16());
    const std::uint32_t value = r.u32();
    switch (id) {
      case SettingId::kInitialWindowSize: {
        const std::int64_t delta =
            static_cast<std::int64_t>(value) - peer_initial_window_;
        peer_initial_window_ = value;
        for (auto& [sid, stream] : streams_) stream.send_window += delta;
        break;
      }
      case SettingId::kMaxFrameSize:
        config_.max_frame_size = value;
        break;
      default:
        break;  // accepted, not modelled
    }
  }
  send_settings(/*ack=*/true);
  try_flush_blocked();
}

void Http2Connection::handle_window_update(const Frame& frame) {
  ByteReader r(frame.payload);
  const std::uint32_t increment = r.u32() & 0x7fffffff;
  if (frame.stream_id == 0) {
    connection_send_window_ += increment;
  } else {
    const auto it = streams_.find(frame.stream_id);
    if (it != streams_.end()) it->second.send_window += increment;
  }
  try_flush_blocked();
}

void Http2Connection::handle_ping(const Frame& frame) {
  if (frame.has_flag(kFlagAck)) {
    if (!ping_handlers_.empty()) {
      auto handler = std::move(ping_handlers_.front());
      ping_handlers_.pop_front();
      if (handler) handler();
    }
    return;
  }
  send_frame(FrameType::kPing, kFlagAck, 0, frame.payload);
}

void Http2Connection::stream_complete(std::uint32_t stream_id) {
  auto node = streams_.extract(stream_id);
  Stream& stream = node.mapped();
  H2Message message;
  message.headers = std::move(stream.headers);
  message.body = std::move(stream.body);

  if (role_ == Role::kClient) {
    ++counters_.responses;
    if (stream_observer_) {
      stream_observer_(stream_id, StreamEvent::kStreamClosed);
    }
    if (stream.on_response) stream.on_response(message);
    return;
  }

  // Server: hand the request to the application. The responder re-creates
  // stream state so the (possibly delayed) answer can be sent on the same
  // stream id, independent of other streams.
  ++counters_.requests;
  Stream response_stream;
  response_stream.send_window = peer_initial_window_;
  streams_.emplace(stream_id, std::move(response_stream));
  if (!request_handler_) throw WireError("no request handler installed");
  request_handler_(std::move(message), [this, stream_id](H2Message response) {
    const auto it = streams_.find(stream_id);
    if (it == streams_.end()) return;  // reset/closed meanwhile
    ++counters_.responses;
    const bool has_body = !response.body.empty();
    send_headers(stream_id, response.headers, !has_body);
    if (has_body) {
      send_data(stream_id, body_slice(std::move(response.body)), true);
    }
    // If flow control blocked part of the body, it flushes on
    // WINDOW_UPDATE; erase only when fully sent.
    if (streams_.at(stream_id).pending_body.empty()) {
      streams_.erase(stream_id);
    }
  });
}

void Http2Connection::on_transport_close() {
  // Requests still queued behind a transport that never opened (e.g. the
  // TCP SYN was refused) are just as dead as open streams.
  if (on_error_ && role_ == Role::kClient &&
      (!streams_.empty() || !queued_requests_.empty())) {
    on_error_();
  }
}

}  // namespace dohperf::http2
