// TLS handshake message encodings.
//
// Messages use a compact field encoding (both endpoints are ours) padded
// with zeros to realistic wire sizes, so the byte accounting matches what a
// real handshake puts on the network while the contents stay synthetic.
//
// Each encoder sizes its message from the fields first, so it writes once:
// into a ByteWriter after one reserve, or at a HandshakeCursor over bytes
// the caller has sized with encoded_size (a connection's whole flight,
// written straight into its send slab).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/wire.hpp"
#include "tlssim/types.hpp"

namespace dohperf::tlssim {

using dns::Bytes;
using dns::ByteReader;
using dns::ByteWriter;
using dns::WireError;

enum class HsType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kNewSessionTicket = 4,
  kEncryptedExtensions = 8,
  kCertificate = 11,
  kServerKeyExchange = 12,
  kServerHelloDone = 14,
  kCertificateVerify = 15,
  kClientKeyExchange = 16,
  kFinished = 20,
};

/// Realistic message sizes (bytes of handshake message body, excluding the
/// 4-byte message header). Sources: typical captures of TLS 1.2/1.3
/// handshakes with ECDHE + RSA-2048 certificates.
constexpr std::size_t kClientHelloBody = 250;
constexpr std::size_t kServerHello13Body = 120;
constexpr std::size_t kServerHello12Body = 90;
constexpr std::size_t kEncryptedExtensionsBody = 40;
constexpr std::size_t kCertificateVerifyBody = 264;
constexpr std::size_t kServerKeyExchangeBody = 300;
constexpr std::size_t kServerHelloDoneBody = 4;
constexpr std::size_t kClientKeyExchangeBody = 70;
constexpr std::size_t kFinishedBody = 40;
constexpr std::size_t kNewSessionTicketBody = 200;

/// A ClientHello's fields by reference: what the encoders read, so a
/// connection encodes its configured SNI and ALPN list without copies.
struct ClientHelloView {
  TlsVersion min_version = TlsVersion::kTls12;
  TlsVersion max_version = TlsVersion::kTls13;
  std::string_view sni;
  std::span<const std::string> alpn;
  std::span<const std::uint8_t> session_ticket;
};

struct ClientHello {
  TlsVersion min_version = TlsVersion::kTls12;
  TlsVersion max_version = TlsVersion::kTls13;
  std::string sni;
  std::vector<std::string> alpn;
  Bytes session_ticket;  ///< empty = no resumption attempt

  ClientHelloView view() const noexcept {
    return {min_version, max_version, sni, alpn, session_ticket};
  }
};

/// The ALPN protocols a received ClientHello offers, as they lie in its
/// record (each a u16 length, then its bytes): matched in place, so a
/// server reads the offer without building a list of strings.
class AlpnOffer {
 public:
  AlpnOffer() noexcept = default;
  /// `entries` holds `count` well-formed entries (decode checks them).
  AlpnOffer(std::uint8_t count, std::span<const std::uint8_t> entries) noexcept
      : entries_(entries), count_(count) {}

  bool empty() const noexcept { return count_ == 0; }
  /// Call `f(std::string_view)` for each protocol, in offer order.
  template <typename F>
  void for_each(F&& f) const {
    std::size_t at = 0;
    for (std::uint8_t i = 0; i < count_; ++i) {
      const std::size_t len =
          (static_cast<std::size_t>(entries_[at]) << 8) | entries_[at + 1];
      f(std::string_view(
          reinterpret_cast<const char*>(entries_.data() + at + 2), len));
      at += 2 + len;
    }
  }
  bool contains(std::string_view protocol) const noexcept {
    bool found = false;
    for_each([&](std::string_view offered) {
      found = found || offered == protocol;
    });
    return found;
  }

 private:
  std::span<const std::uint8_t> entries_;
  std::uint8_t count_ = 0;
};

/// A received ClientHello decoded in place: its fields view the record.
struct ClientHelloOffer {
  TlsVersion min_version = TlsVersion::kTls12;
  TlsVersion max_version = TlsVersion::kTls13;
  std::string_view sni;
  AlpnOffer alpn;
  std::span<const std::uint8_t> session_ticket;
};

/// A received ServerHello's fields, the ALPN by reference.
struct ServerHelloView {
  TlsVersion version = TlsVersion::kTls13;
  std::string_view alpn;  ///< empty = no ALPN negotiated
  bool resumed = false;   ///< server accepted the offered ticket
};

struct ServerHello {
  TlsVersion version = TlsVersion::kTls13;
  std::string alpn;      ///< empty = no ALPN negotiated
  bool resumed = false;  ///< server accepted the offered ticket
};

/// A Certificate message's fields, the subject by reference.
struct CertificateView {
  std::string_view subject;
  std::uint8_t certificate_count = 2;
  bool ct_logged = true;
  bool ocsp_must_staple = false;
  std::uint32_t chain_bytes = 2500;  ///< padded body size
};

struct CertificateMsg {
  std::string subject;
  std::uint8_t certificate_count = 2;
  bool ct_logged = true;
  bool ocsp_must_staple = false;
  std::uint32_t chain_bytes = 2500;  ///< padded body size

  CertificateView view() const noexcept {
    return {subject, certificate_count, ct_logged, ocsp_must_staple,
            chain_bytes};
  }
  /// A copy of a decoded message, owning its subject.
  static CertificateMsg of(const CertificateView& v) {
    return {std::string(v.subject), v.certificate_count, v.ct_logged,
            v.ocsp_must_staple, v.chain_bytes};
  }
};

/// A NewSessionTicket's ticket by reference.
struct NewSessionTicketView {
  std::span<const std::uint8_t> ticket;
};

struct NewSessionTicketMsg {
  Bytes ticket;

  NewSessionTicketView view() const noexcept { return {ticket}; }
};

/// A handshake message decoded in place: type plus whichever view applies.
/// The views point into the bytes it was decoded from and last as long as
/// those do. Messages with no interesting fields (Finished, SKE, SHD, CKE,
/// EE) carry nothing.
struct HandshakeView {
  HsType type = HsType::kFinished;
  std::optional<ClientHelloOffer> client_hello;
  std::optional<ServerHelloView> server_hello;
  std::optional<CertificateView> certificate;
  std::optional<NewSessionTicketView> ticket;
};

/// A parsed handshake message that owns its fields: type plus whichever
/// struct applies.
struct HandshakeMessage {
  HsType type = HsType::kFinished;
  std::optional<ClientHello> client_hello;
  std::optional<ServerHello> server_hello;
  std::optional<CertificateMsg> certificate;
  std::optional<NewSessionTicketMsg> ticket;
};

/// Writes a handshake flight over bytes the caller sized with
/// encoded_size: no bounds checks, no allocation.
class HandshakeCursor {
 public:
  explicit HandshakeCursor(std::uint8_t* out) noexcept : out_(out) {}

  void u8(std::uint8_t v) noexcept { *out_++ = v; }
  void u16(std::uint16_t v) noexcept {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v & 0xff));
  }
  void u32(std::uint32_t v) noexcept {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v & 0xffff));
  }
  void bytes(std::span<const std::uint8_t> data) noexcept {
    if (!data.empty()) std::memcpy(out_, data.data(), data.size());
    out_ += data.size();
  }
  void string(std::string_view s) noexcept {
    if (!s.empty()) std::memcpy(out_, s.data(), s.size());
    out_ += s.size();
  }
  void zeros(std::size_t n) noexcept {
    std::memset(out_, 0, n);
    out_ += n;
  }
  /// Where the next byte goes.
  std::uint8_t* position() const noexcept { return out_; }

 private:
  std::uint8_t* out_;
};

/// Encoded size of one message (4-byte header + padded body). Throws
/// WireError on a field too long to encode, before anything is written.
std::size_t encoded_size(const ClientHelloView& ch);
std::size_t encoded_size(const ServerHello& sh);
std::size_t encoded_size(const CertificateView& cert);
std::size_t encoded_size(const NewSessionTicketView& t);
/// Encoded size of a field-free message.
std::size_t plain_size(std::size_t body_size);

// Encoders append one complete message (4-byte header + padded body).
void encode_client_hello(ByteWriter& w, const ClientHello& ch);
void encode_server_hello(ByteWriter& w, const ServerHello& sh);
void encode_certificate(ByteWriter& w, const CertificateMsg& cert);
void encode_new_session_ticket(ByteWriter& w, const NewSessionTicketMsg& t);
/// Field-free messages (Finished, EncryptedExtensions, SKE, SHD, CKE, CV).
void encode_plain(ByteWriter& w, HsType type, std::size_t body_size);

// The same messages, written at a cursor with room for encoded_size bytes.
void encode_client_hello(HandshakeCursor& w, const ClientHelloView& ch);
void encode_server_hello(HandshakeCursor& w, const ServerHello& sh);
void encode_certificate(HandshakeCursor& w, const CertificateView& cert);
void encode_new_session_ticket(HandshakeCursor& w,
                               const NewSessionTicketView& t);
void encode_plain(HandshakeCursor& w, HsType type, std::size_t body_size);

/// Decode one message at the reader's position, in place: the result views
/// the reader's bytes.
HandshakeView decode_handshake_view(ByteReader& r);
/// Decode one message at the reader's position into fields of its own.
HandshakeMessage decode_handshake(ByteReader& r);

}  // namespace dohperf::tlssim
