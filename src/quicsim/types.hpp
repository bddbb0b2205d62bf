// QUIC simulation: packet/frame model and wire-size constants.
//
// EXTENSION (beyond the paper): the paper's Table 2 probes which providers
// answer on UDP 443 — QUIC, the transport DNS-over-QUIC (RFC 9250) later
// standardized on. This module models QUIC v1 closely enough to compare
// DoQ with DoT/DoH on the axes the paper measures: handshake round trips,
// bytes/packets per resolution, and head-of-line blocking (including the
// *loss-induced* HoL blocking that TCP-based transports suffer and QUIC's
// independent streams avoid).
//
// SUBSTITUTION NOTE: like tlssim, no real cryptography — handshake message
// sizes are realistic (the CRYPTO frames carry the same simulated TLS 1.3
// messages as tlssim), AEAD expansion is counted per packet, and Initials
// are padded to 1200 bytes as RFC 9000 §8.1 requires.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>

#include "dns/wire.hpp"
#include "simnet/buffer.hpp"

namespace dohperf::quicsim {

using dns::Bytes;

/// Short-header overhead: flags (1) + destination connection id (8) +
/// packet number (4).
constexpr std::size_t kShortHeaderBytes = 13;
/// Long-header overhead (Initial/Handshake): + version + cid lengths.
constexpr std::size_t kLongHeaderBytes = 20;
/// Per-packet AEAD expansion (AES-128-GCM).
constexpr std::size_t kAeadTagBytes = 16;
/// RFC 9000 §8.1: a client's first flight must be at least 1200 bytes of
/// UDP payload (amplification defence).
constexpr std::size_t kMinInitialPayload = 1200;
/// Keep every QUIC packet within one simulated MTU.
constexpr std::size_t kMaxPacketPayload = 1350;

enum class FrameType : std::uint8_t {
  kPadding = 0x00,
  kPing = 0x01,
  kAck = 0x02,
  kCrypto = 0x06,
  kStream = 0x08,
  kPathChallenge = 0x1a,
  kPathResponse = 0x1b,
  kConnectionClose = 0x1c,
  kHandshakeDone = 0x1e,
};

struct PaddingFrame {
  std::uint16_t length = 0;  ///< bytes of padding this frame represents
};

struct PingFrame {};

/// Bytes of one packet number in an ACK frame.
constexpr std::size_t kAckedNumberBytes = 4;

/// Simplified ACK: the explicit set of packet numbers being acknowledged
/// (real QUIC uses ranges; the size difference is negligible at our scale).
/// It views the numbers in their wire form, a big-endian u32 each: in the
/// sender's pending list while it is encoded, in the datagram once decoded.
struct AckFrame {
  std::span<const std::uint8_t> acked;

  std::size_t size() const noexcept { return acked.size() / kAckedNumberBytes; }
  std::uint64_t operator[](std::size_t i) const noexcept {
    const std::uint8_t* p = acked.data() + i * kAckedNumberBytes;
    return (std::uint64_t{p[0]} << 24) | (std::uint64_t{p[1]} << 16) |
           (std::uint64_t{p[2]} << 8) | p[3];
  }
};

/// Append `packet_number` to an ACK frame's numbers, in their wire form.
inline void add_acked(Bytes& acked, std::uint64_t packet_number) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    acked.push_back(static_cast<std::uint8_t>(packet_number >> shift));
  }
}

/// Carries handshake bytes (the tlssim handshake messages). A sent frame
/// shares its bytes with the sender; a decoded one views the datagram.
struct CryptoFrame {
  std::uint64_t offset = 0;
  simnet::BufferSlice data;
};

/// Stream data, held like a CryptoFrame's.
struct StreamFrame {
  std::uint64_t stream_id = 0;
  std::uint64_t offset = 0;
  bool fin = false;
  simnet::BufferSlice data;
};

struct ConnectionCloseFrame {
  std::uint64_t error_code = 0;
};

struct HandshakeDoneFrame {};

/// RFC 9000 §8.2: path validation after migration. The 8-byte token must
/// be echoed back in a PATH_RESPONSE on the same (new) path.
struct PathChallengeFrame {
  std::uint64_t data = 0;
};

struct PathResponseFrame {
  std::uint64_t data = 0;
};

using Frame = std::variant<PaddingFrame, PingFrame, AckFrame, CryptoFrame,
                           StreamFrame, ConnectionCloseFrame,
                           HandshakeDoneFrame, PathChallengeFrame,
                           PathResponseFrame>;

/// True if loss of this frame requires retransmission.
bool is_ack_eliciting(const Frame& frame) noexcept;

struct QuicCounters {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t wire_bytes_sent = 0;      ///< incl. IP+UDP+QUIC headers+tag
  std::uint64_t wire_bytes_received = 0;
  std::uint64_t handshake_bytes = 0;      ///< CRYPTO payloads + padding, both dirs
  std::uint64_t stream_bytes_sent = 0;    ///< application stream payload
  std::uint64_t stream_bytes_received = 0;
  std::uint64_t retransmits = 0;
  /// Successful path validations (PATH_RESPONSE matched an outstanding
  /// challenge we sent) — one per completed migration on this side.
  std::uint64_t path_validations = 0;

  std::uint64_t total_wire_bytes() const noexcept {
    return wire_bytes_sent + wire_bytes_received;
  }
  std::uint64_t total_packets() const noexcept {
    return packets_sent + packets_received;
  }
};

}  // namespace dohperf::quicsim
