#include "http2/frame.hpp"

#include <algorithm>
#include <cstring>

namespace dohperf::http2 {

std::string to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kHeaders: return "HEADERS";
    case FrameType::kPriority: return "PRIORITY";
    case FrameType::kRstStream: return "RST_STREAM";
    case FrameType::kSettings: return "SETTINGS";
    case FrameType::kPushPromise: return "PUSH_PROMISE";
    case FrameType::kPing: return "PING";
    case FrameType::kGoaway: return "GOAWAY";
    case FrameType::kWindowUpdate: return "WINDOW_UPDATE";
    case FrameType::kContinuation: return "CONTINUATION";
  }
  return "UNKNOWN";
}

void write_frame_header(std::uint8_t* out, FrameType type, std::uint8_t flags,
                        std::uint32_t stream_id, std::size_t length) {
  if (length > 0xffffff) throw WireError("frame too large");
  out[0] = static_cast<std::uint8_t>(length >> 16);
  out[1] = static_cast<std::uint8_t>(length >> 8);
  out[2] = static_cast<std::uint8_t>(length);
  out[3] = static_cast<std::uint8_t>(type);
  out[4] = flags;
  stream_id &= 0x7fffffff;
  out[5] = static_cast<std::uint8_t>(stream_id >> 24);
  out[6] = static_cast<std::uint8_t>(stream_id >> 16);
  out[7] = static_cast<std::uint8_t>(stream_id >> 8);
  out[8] = static_cast<std::uint8_t>(stream_id);
}

Bytes encode_frame_header(const Frame& frame) {
  Bytes out(kFrameHeaderBytes);
  write_frame_header(out.data(), frame.type, frame.flags, frame.stream_id,
                     frame.payload.size());
  return out;
}

Bytes encode_frame(const Frame& frame) {
  Bytes out(kFrameHeaderBytes + frame.payload.size());
  write_frame_header(out.data(), frame.type, frame.flags, frame.stream_id,
                     frame.payload.size());
  if (!frame.payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }
  return out;
}

bool FrameReader::consume_preface() {
  if (buffered() < kConnectionPreface.size()) return false;
  const auto bytes = buffer_.bytes();
  if (!std::equal(kConnectionPreface.begin(), kConnectionPreface.end(),
                  bytes.begin())) {
    throw WireError("bad HTTP/2 connection preface");
  }
  buffer_.skip(kConnectionPreface.size());
  return true;
}

std::optional<Frame> FrameReader::next(std::size_t max_frame_size) {
  if (buffered() < kFrameHeaderBytes) return std::nullopt;
  const std::uint8_t* at = buffer_.bytes().data();
  const std::size_t length = (static_cast<std::size_t>(at[0]) << 16) |
                             (static_cast<std::size_t>(at[1]) << 8) | at[2];
  if (length > max_frame_size) {
    throw WireError("frame exceeds SETTINGS_MAX_FRAME_SIZE");
  }
  if (buffered() < kFrameHeaderBytes + length) return std::nullopt;

  Frame frame;
  frame.type = static_cast<FrameType>(at[3]);
  frame.flags = at[4];
  frame.stream_id = ((static_cast<std::uint32_t>(at[5]) << 24) |
                     (static_cast<std::uint32_t>(at[6]) << 16) |
                     (static_cast<std::uint32_t>(at[7]) << 8) | at[8]) &
                    0x7fffffff;
  buffer_.skip(kFrameHeaderBytes);
  frame.payload = buffer_.take(length);
  return frame;
}

}  // namespace dohperf::http2
