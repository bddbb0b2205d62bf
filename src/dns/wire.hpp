// Big-endian byte-level reader/writer primitives shared by every protocol
// codec in this repository (DNS, TLS records, HTTP/2 frames).
//
// Decoding errors are reported via WireError (derived from std::runtime_error)
// rather than a result type: every caller of the codecs treats a malformed
// message as fatal to that message and catches at the message boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dohperf::dns {

using Bytes = std::vector<std::uint8_t>;

/// Thrown when a decoder runs off the end of its input or meets a value
/// that violates the wire format.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Sequential big-endian reader over a non-owning byte span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  std::size_t offset() const noexcept { return offset_; }
  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool exhausted() const noexcept { return offset_ >= data_.size(); }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();

  /// Read `n` raw bytes.
  Bytes bytes(std::size_t n);

  /// Consume `n` bytes and return a view of them in the input, not a copy.
  std::span<const std::uint8_t> view(std::size_t n);

  /// Read `n` bytes as a string (used for DNS labels and TXT segments).
  std::string string(std::size_t n);

  /// Peek a byte at absolute position `pos` without consuming.
  std::uint8_t peek_at(std::size_t pos) const;

  /// Jump to absolute offset (used to follow DNS compression pointers).
  void seek(std::size_t pos);

  /// Skip `n` bytes.
  void skip(std::size_t n);

  std::span<const std::uint8_t> data() const noexcept { return data_; }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

/// Append-only big-endian writer. The buffer starts at kMinCapacity bytes,
/// or at the capacity a caller that knows its size asks for, so a message
/// costs one allocation, not one per doubling from a single byte.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t capacity = kMinCapacity) {
    out_.reserve(capacity);
  }

  std::size_t size() const noexcept { return out_.size(); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void bytes(std::span<const std::uint8_t> data);
  void string(std::string_view s);
  /// Append `n` zero bytes in one step.
  void zeros(std::size_t n);
  /// Make room for `n` bytes in total, so the writes up to it never regrow.
  void reserve(std::size_t n) { out_.reserve(n); }

  /// Overwrite a previously written 16-bit field (e.g. RDLENGTH backpatch).
  void patch_u16(std::size_t pos, std::uint16_t v);

  const Bytes& data() const noexcept { return out_; }
  Bytes take() noexcept { return std::move(out_); }

 private:
  static constexpr std::size_t kMinCapacity = 64;

  Bytes out_;
};

/// DNS over TCP, TLS and QUIC put each message behind its length, a
/// big-endian u16 (RFC 1035 §4.2.2, RFC 7858 §3.3, RFC 9250 §4.2);
/// Message::encode_framed writes such a frame.
inline constexpr std::size_t kFramePrefix = 2;

/// The message length the frame at the front of `buffered` declares, or
/// nullopt while its prefix is incomplete.
inline std::optional<std::size_t> frame_length(
    std::span<const std::uint8_t> buffered) {
  if (buffered.size() < kFramePrefix) return std::nullopt;
  return (std::size_t{buffered[0]} << 8) | buffered[1];
}

/// A view of the message in the whole frame at the front of `buffered`,
/// or nullopt while the frame is incomplete.
inline std::optional<std::span<const std::uint8_t>> next_frame(
    std::span<const std::uint8_t> buffered) {
  const std::optional<std::size_t> length = frame_length(buffered);
  if (!length || buffered.size() < kFramePrefix + *length) return std::nullopt;
  return buffered.subspan(kFramePrefix, *length);
}

/// Convenience conversions.
Bytes to_bytes(std::string_view s);
std::string to_string(std::span<const std::uint8_t> b);

}  // namespace dohperf::dns
