#include "tlssim/handshake.hpp"

namespace dohperf::tlssim {

namespace {

/// Write the 4-byte handshake header (type + 24-bit length), with room
/// reserved for the body that follows.
void write_header(ByteWriter& w, HsType type, std::size_t body_len) {
  if (body_len > 0xffffff) throw WireError("handshake message too large");
  w.reserve(w.size() + 4 + body_len);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>((body_len >> 16) & 0xff));
  w.u16(static_cast<std::uint16_t>(body_len & 0xffff));
}

/// Pad `w` with zeros until the body that started at `body_start` reaches
/// `target` bytes.
void pad_body(ByteWriter& w, std::size_t body_start, std::size_t target) {
  const std::size_t written = w.size() - body_start;
  if (written < target) w.zeros(target - written);
}

void write_lv_string(ByteWriter& w, const std::string& s) {
  if (s.size() > 0xffff) throw WireError("string too long");
  w.u16(static_cast<std::uint16_t>(s.size()));
  w.string(s);
}

std::string read_lv_string(ByteReader& r) {
  const std::uint16_t len = r.u16();
  return r.string(len);
}

}  // namespace

void encode_client_hello(ByteWriter& w, const ClientHello& ch) {
  ByteWriter body;
  body.u16(static_cast<std::uint16_t>(ch.min_version));
  body.u16(static_cast<std::uint16_t>(ch.max_version));
  write_lv_string(body, ch.sni);
  body.u8(static_cast<std::uint8_t>(ch.alpn.size()));
  for (const auto& proto : ch.alpn) write_lv_string(body, proto);
  body.u16(static_cast<std::uint16_t>(ch.session_ticket.size()));
  body.bytes(ch.session_ticket);

  const std::size_t body_len = std::max(body.size(), kClientHelloBody);
  write_header(w, HsType::kClientHello, body_len);
  const std::size_t start = w.size();
  w.bytes(body.data());
  pad_body(w, start, body_len);
}

void encode_server_hello(ByteWriter& w, const ServerHello& sh) {
  ByteWriter body;
  body.u16(static_cast<std::uint16_t>(sh.version));
  write_lv_string(body, sh.alpn);
  body.u8(sh.resumed ? 1 : 0);

  const std::size_t target = sh.version == TlsVersion::kTls13
                                 ? kServerHello13Body
                                 : kServerHello12Body;
  const std::size_t body_len = std::max(body.size(), target);
  write_header(w, HsType::kServerHello, body_len);
  const std::size_t start = w.size();
  w.bytes(body.data());
  pad_body(w, start, body_len);
}

void encode_certificate(ByteWriter& w, const CertificateMsg& cert) {
  ByteWriter body;
  write_lv_string(body, cert.subject);
  body.u8(cert.certificate_count);
  body.u8(cert.ct_logged ? 1 : 0);
  body.u8(cert.ocsp_must_staple ? 1 : 0);
  body.u32(cert.chain_bytes);

  // The Certificate message's size is dominated by the chain itself; pad
  // the body to exactly the configured chain size (plus a small framing
  // allowance already included in chain_bytes).
  const std::size_t body_len =
      std::max<std::size_t>(body.size(), cert.chain_bytes);
  write_header(w, HsType::kCertificate, body_len);
  const std::size_t start = w.size();
  w.bytes(body.data());
  pad_body(w, start, body_len);
}

void encode_new_session_ticket(ByteWriter& w, const NewSessionTicketMsg& t) {
  ByteWriter body;
  body.u16(static_cast<std::uint16_t>(t.ticket.size()));
  body.bytes(t.ticket);

  const std::size_t body_len = std::max(body.size(), kNewSessionTicketBody);
  write_header(w, HsType::kNewSessionTicket, body_len);
  const std::size_t start = w.size();
  w.bytes(body.data());
  pad_body(w, start, body_len);
}

void encode_plain(ByteWriter& w, HsType type, std::size_t body_size) {
  write_header(w, type, body_size);
  const std::size_t start = w.size();
  pad_body(w, start, body_size);
}

HandshakeMessage decode_handshake(ByteReader& r) {
  HandshakeMessage msg;
  msg.type = static_cast<HsType>(r.u8());
  const std::uint32_t hi = r.u8();
  const std::uint32_t lo = r.u16();
  const std::size_t body_len = (hi << 16) | lo;
  const std::size_t body_end = r.offset() + body_len;
  if (body_len > r.remaining()) throw WireError("truncated handshake message");

  switch (msg.type) {
    case HsType::kClientHello: {
      ClientHello ch;
      ch.min_version = static_cast<TlsVersion>(r.u16());
      ch.max_version = static_cast<TlsVersion>(r.u16());
      ch.sni = read_lv_string(r);
      const std::uint8_t n_alpn = r.u8();
      for (std::uint8_t i = 0; i < n_alpn; ++i) {
        ch.alpn.push_back(read_lv_string(r));
      }
      const std::uint16_t ticket_len = r.u16();
      ch.session_ticket = r.bytes(ticket_len);
      msg.client_hello = std::move(ch);
      break;
    }
    case HsType::kServerHello: {
      ServerHello sh;
      sh.version = static_cast<TlsVersion>(r.u16());
      sh.alpn = read_lv_string(r);
      sh.resumed = r.u8() != 0;
      msg.server_hello = std::move(sh);
      break;
    }
    case HsType::kCertificate: {
      CertificateMsg cert;
      cert.subject = read_lv_string(r);
      cert.certificate_count = r.u8();
      cert.ct_logged = r.u8() != 0;
      cert.ocsp_must_staple = r.u8() != 0;
      cert.chain_bytes = r.u32();
      msg.certificate = std::move(cert);
      break;
    }
    case HsType::kNewSessionTicket: {
      NewSessionTicketMsg t;
      const std::uint16_t len = r.u16();
      t.ticket = r.bytes(len);
      msg.ticket = std::move(t);
      break;
    }
    default:
      break;  // field-free message
  }
  r.seek(body_end);  // skip padding
  return msg;
}

}  // namespace dohperf::tlssim
