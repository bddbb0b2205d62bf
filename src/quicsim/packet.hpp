// QUIC packet encode/decode: one packet per UDP datagram (no coalescing),
// long headers during the handshake, short headers after.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>

#include "quicsim/types.hpp"

namespace dohperf::quicsim {

/// The frames of one packet, held inline: the connection sends one per
/// packet (two in a padded Initial), so building or decoding a packet
/// allocates nothing. A packet of more than kMaxFrames does not decode.
class FrameList {
 public:
  static constexpr std::size_t kMaxFrames = 16;

  FrameList() noexcept = default;
  FrameList(std::initializer_list<Frame> frames) {
    for (const Frame& f : frames) push_back(f);
  }
  FrameList(const FrameList& other) {
    for (const Frame& f : other) push_back(f);
  }
  FrameList& operator=(const FrameList& other) {
    if (this != &other) {
      clear();
      for (const Frame& f : other) push_back(f);
    }
    return *this;
  }
  ~FrameList() { clear(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  Frame& operator[](std::size_t i) noexcept { return begin()[i]; }
  const Frame& operator[](std::size_t i) const noexcept { return begin()[i]; }
  Frame* begin() noexcept { return reinterpret_cast<Frame*>(slots_); }
  Frame* end() noexcept { return begin() + size_; }
  const Frame* begin() const noexcept {
    return reinterpret_cast<const Frame*>(slots_);
  }
  const Frame* end() const noexcept { return begin() + size_; }

  /// Throws std::length_error when the list is full.
  void push_back(const Frame& frame) {
    std::construct_at(next(), frame);
    ++size_;
  }
  void push_back(Frame&& frame) {
    std::construct_at(next(), std::move(frame));
    ++size_;
  }

  void clear() noexcept {
    std::destroy_n(begin(), size_);
    size_ = 0;
  }

 private:
  Frame* next() {
    if (size_ == kMaxFrames) {
      throw std::length_error("QUIC packet frame list full");
    }
    return begin() + size_;
  }

  alignas(Frame) std::byte slots_[kMaxFrames * sizeof(Frame)];
  std::size_t size_ = 0;
};

struct Packet {
  bool long_header = false;
  std::uint64_t connection_id = 0;
  std::uint64_t packet_number = 0;
  FrameList frames;

  /// Serialized size of the frames only (header/tag added by encode()).
  std::size_t frames_size() const noexcept;

  bool ack_eliciting() const noexcept;

  /// Encode to a UDP payload: header + frames (+ synthetic AEAD tag), in
  /// one buffer of exactly its size.
  Bytes encode() const;

  /// Decode a UDP payload. The frames' data views `payload`, so the packet
  /// must not outlive it. Throws dns::WireError on malformed input.
  static Packet decode(std::span<const std::uint8_t> payload);

  /// decode(), or nothing for a malformed payload: a receiver drops it.
  static std::optional<Packet> try_decode(
      std::span<const std::uint8_t> payload);

  /// Size of the UDP payload encode() writes.
  std::size_t payload_size() const noexcept;

  /// Wire size on the simulated network once sent over UDP (adds IP+UDP).
  std::size_t udp_wire_size() const noexcept;

 private:
  /// Fill this empty packet from `payload`, as decode() describes.
  void decode_from(std::span<const std::uint8_t> payload);
};

/// Serialized size of one frame, from its fixed layout.
std::size_t frame_size(const Frame& frame) noexcept;

void encode_frame(dns::ByteWriter& w, const Frame& frame);
Frame decode_frame(dns::ByteReader& r);

}  // namespace dohperf::quicsim
