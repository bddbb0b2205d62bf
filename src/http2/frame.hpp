// HTTP/2 frame codec (RFC 7540 §4): 9-byte frame header plus typed payloads
// for the frame types the connection layer uses.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dns/wire.hpp"
#include "simnet/buffer.hpp"

namespace dohperf::http2 {

using dns::ByteReader;
using dns::Bytes;
using dns::WireError;
using simnet::BufferSlice;

enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoaway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
};

std::string to_string(FrameType t);

// Frame flags.
constexpr std::uint8_t kFlagEndStream = 0x1;   // DATA, HEADERS
constexpr std::uint8_t kFlagAck = 0x1;         // SETTINGS, PING
constexpr std::uint8_t kFlagEndHeaders = 0x4;  // HEADERS, CONTINUATION

constexpr std::size_t kFrameHeaderBytes = 9;
constexpr std::size_t kDefaultMaxFrameSize = 16384;

/// The client connection preface (RFC 7540 §3.5).
inline constexpr std::string_view kConnectionPreface =
    "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Settings identifiers (RFC 7540 §6.5.2).
enum class SettingId : std::uint16_t {
  kHeaderTableSize = 0x1,
  kEnablePush = 0x2,
  kMaxConcurrentStreams = 0x3,
  kInitialWindowSize = 0x4,
  kMaxFrameSize = 0x5,
  kMaxHeaderListSize = 0x6,
};

/// Error codes (RFC 7540 §7).
enum class H2Error : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kRefusedStream = 0x7,
};

struct Frame {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;
  /// Sent DATA payloads are zero-copy views of the body; a received
  /// frame's payload shares the block FrameReader read it into.
  BufferSlice payload;

  bool has_flag(std::uint8_t flag) const noexcept {
    return (flags & flag) != 0;
  }
  std::size_t wire_size() const noexcept {
    return kFrameHeaderBytes + payload.size();
  }
};

/// Write the 9-byte header of a frame with a `length`-byte payload at
/// `out`. Throws WireError past the 24-bit length field.
void write_frame_header(std::uint8_t* out, FrameType type, std::uint8_t flags,
                        std::uint32_t stream_id, std::size_t length);

/// Serialize one frame (header + payload) into one contiguous buffer.
Bytes encode_frame(const Frame& frame);

/// Serialize just the 9-byte frame header.
Bytes encode_frame_header(const Frame& frame);

/// Incremental frame reader over a byte stream. A frame it returns shares
/// the block its bytes arrived in (counted, not viewed), so its payload
/// stays valid after later feed() calls and after the reader is gone.
class FrameReader {
 public:
  void feed(std::span<const std::uint8_t> data) { buffer_.append(data); }

  /// Pop the next complete frame if buffered. Throws WireError on frames
  /// exceeding `max_frame_size` (connection error in real HTTP/2).
  std::optional<Frame> next(std::size_t max_frame_size = kDefaultMaxFrameSize);

  /// For the server: consume and verify the 24-byte connection preface.
  /// Returns false until enough bytes have arrived; throws on mismatch.
  bool consume_preface();

  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  simnet::ByteQueue buffer_;
};

}  // namespace dohperf::http2
