#include "quicsim/packet.hpp"

#include "simnet/packet.hpp"

namespace dohperf::quicsim {

using dns::ByteReader;
using dns::ByteWriter;
using dns::WireError;

namespace {

/// Header bytes before the frames' u16 length.
std::size_t header_bytes(bool long_header) noexcept {
  return long_header ? kLongHeaderBytes : kShortHeaderBytes;
}

}  // namespace

bool is_ack_eliciting(const Frame& frame) noexcept {
  return !std::holds_alternative<AckFrame>(frame) &&
         !std::holds_alternative<PaddingFrame>(frame);
}

bool Packet::ack_eliciting() const noexcept {
  for (const auto& f : frames) {
    if (is_ack_eliciting(f)) return true;
  }
  return false;
}

std::size_t frame_size(const Frame& frame) noexcept {
  return std::visit(
      [](const auto& f) -> std::size_t {
        using T = std::decay_t<decltype(f)>;
        // Type byte, then the fields encode_frame writes.
        if constexpr (std::is_same_v<T, PaddingFrame>) {
          return 1 + 2 + std::size_t{f.length};
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          return 1 + 2 + f.size() * kAckedNumberBytes;
        } else if constexpr (std::is_same_v<T, CryptoFrame>) {
          return 1 + 4 + 2 + f.data.size();
        } else if constexpr (std::is_same_v<T, StreamFrame>) {
          return 1 + 4 + 4 + 1 + 2 + f.data.size();
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          return 1 + 4;
        } else if constexpr (std::is_same_v<T, PathChallengeFrame> ||
                             std::is_same_v<T, PathResponseFrame>) {
          return 1 + 8;
        } else {  // PING, HANDSHAKE_DONE
          return 1;
        }
      },
      frame);
}

void encode_frame(ByteWriter& w, const Frame& frame) {
  std::visit(
      [&w](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, PaddingFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPadding));
          w.u16(f.length);
          w.zeros(f.length);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPing));
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kAck));
          w.u16(static_cast<std::uint16_t>(f.size()));
          w.bytes(f.acked.first(f.size() * kAckedNumberBytes));
        } else if constexpr (std::is_same_v<T, CryptoFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kCrypto));
          w.u32(static_cast<std::uint32_t>(f.offset));
          w.u16(static_cast<std::uint16_t>(f.data.size()));
          w.bytes(f.data);
        } else if constexpr (std::is_same_v<T, StreamFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kStream));
          w.u32(static_cast<std::uint32_t>(f.stream_id));
          w.u32(static_cast<std::uint32_t>(f.offset));
          w.u8(f.fin ? 1 : 0);
          w.u16(static_cast<std::uint16_t>(f.data.size()));
          w.bytes(f.data);
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kConnectionClose));
          w.u32(static_cast<std::uint32_t>(f.error_code));
        } else if constexpr (std::is_same_v<T, HandshakeDoneFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kHandshakeDone));
        } else if constexpr (std::is_same_v<T, PathChallengeFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPathChallenge));
          w.u32(static_cast<std::uint32_t>(f.data >> 32));
          w.u32(static_cast<std::uint32_t>(f.data & 0xffffffff));
        } else if constexpr (std::is_same_v<T, PathResponseFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPathResponse));
          w.u32(static_cast<std::uint32_t>(f.data >> 32));
          w.u32(static_cast<std::uint32_t>(f.data & 0xffffffff));
        }
      },
      frame);
}

Frame decode_frame(ByteReader& r) {
  const auto type = static_cast<FrameType>(r.u8());
  switch (type) {
    case FrameType::kPadding: {
      PaddingFrame f;
      f.length = r.u16();
      r.skip(f.length);
      return f;
    }
    case FrameType::kPing:
      return PingFrame{};
    case FrameType::kAck: {
      const std::uint16_t n = r.u16();
      return AckFrame{r.view(std::size_t{n} * kAckedNumberBytes)};
    }
    case FrameType::kCrypto: {
      CryptoFrame f;
      f.offset = r.u32();
      const std::uint16_t len = r.u16();
      f.data = simnet::BufferSlice::unowned(r.view(len));
      return f;
    }
    case FrameType::kStream: {
      StreamFrame f;
      f.stream_id = r.u32();
      f.offset = r.u32();
      f.fin = r.u8() != 0;
      const std::uint16_t len = r.u16();
      f.data = simnet::BufferSlice::unowned(r.view(len));
      return f;
    }
    case FrameType::kConnectionClose: {
      ConnectionCloseFrame f;
      f.error_code = r.u32();
      return f;
    }
    case FrameType::kHandshakeDone:
      return HandshakeDoneFrame{};
    case FrameType::kPathChallenge: {
      PathChallengeFrame f;
      const std::uint64_t hi = r.u32();
      const std::uint64_t lo = r.u32();
      f.data = (hi << 32) | lo;
      return f;
    }
    case FrameType::kPathResponse: {
      PathResponseFrame f;
      const std::uint64_t hi = r.u32();
      const std::uint64_t lo = r.u32();
      f.data = (hi << 32) | lo;
      return f;
    }
  }
  throw WireError("unknown QUIC frame type");
}

std::size_t Packet::frames_size() const noexcept {
  std::size_t size = 0;
  for (const auto& f : frames) size += frame_size(f);
  return size;
}

std::size_t Packet::payload_size() const noexcept {
  return header_bytes(long_header) + 2 + frames_size() + kAeadTagBytes;
}

Bytes Packet::encode() const {
  const std::size_t frames_len = frames_size();
  const std::size_t header = header_bytes(long_header);
  ByteWriter w(header + 2 + frames_len + kAeadTagBytes);
  // Header: flags byte encodes form; fixed-size connection id + packet
  // number fields, then zeros up to the modelled size (long headers carry
  // a version and source-cid fields we do not need structurally).
  w.u8(long_header ? 0xc0 : 0x40);
  w.u32(static_cast<std::uint32_t>(connection_id >> 32));
  w.u32(static_cast<std::uint32_t>(connection_id & 0xffffffff));
  w.u32(static_cast<std::uint32_t>(packet_number));
  static_assert(1 + 4 + 4 + 4 <= kShortHeaderBytes,
                "QUIC header fields exceed modelled header size");
  w.zeros(header - w.size());
  w.u16(static_cast<std::uint16_t>(frames_len));
  for (const auto& f : frames) encode_frame(w, f);
  w.zeros(kAeadTagBytes);  // synthetic AEAD tag
  return w.take();
}

Packet Packet::decode(std::span<const std::uint8_t> payload) {
  Packet p;
  p.decode_from(payload);
  return p;
}

std::optional<Packet> Packet::try_decode(
    std::span<const std::uint8_t> payload) {
  std::optional<Packet> p(std::in_place);
  try {
    p->decode_from(payload);
  } catch (const WireError&) {
    p.reset();
  }
  return p;
}

void Packet::decode_from(std::span<const std::uint8_t> payload) {
  ByteReader header(payload);
  const std::uint8_t flags = header.u8();
  long_header = (flags & 0x80) != 0;
  const std::uint64_t hi = header.u32();
  const std::uint64_t lo = header.u32();
  connection_id = (hi << 32) | lo;
  packet_number = header.u32();
  header.seek(header_bytes(long_header));
  const std::uint16_t frames_len = header.u16();
  const std::size_t frames_start = header.offset();
  if (frames_start + frames_len + kAeadTagBytes > payload.size()) {
    throw WireError("QUIC packet truncated");
  }
  // Every frame lies inside the frames' length.
  ByteReader r(payload.subspan(frames_start, frames_len));
  while (!r.exhausted()) {
    if (frames.size() == FrameList::kMaxFrames) {
      throw WireError("QUIC packet carries too many frames");
    }
    frames.push_back(decode_frame(r));
  }
}

std::size_t Packet::udp_wire_size() const noexcept {
  return simnet::kIpHeaderBytes + simnet::kUdpHeaderBytes + payload_size();
}

}  // namespace dohperf::quicsim
