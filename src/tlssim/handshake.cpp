#include "tlssim/handshake.hpp"

#include <algorithm>
#include <type_traits>

namespace dohperf::tlssim {

namespace {

/// The type and 24-bit length in front of every message body.
constexpr std::size_t kMessageHeaderBytes = 4;

/// Size of a length-prefixed string field.
std::size_t lv_size(std::string_view s) {
  if (s.size() > 0xffff) throw WireError("string too long");
  return 2 + s.size();
}

/// Body length of a message whose fields take `fields` bytes, padded with
/// zeros to `target`.
std::size_t body_length(std::size_t fields, std::size_t target) {
  const std::size_t body_len = std::max(fields, target);
  if (body_len > 0xffffff) throw WireError("handshake message too large");
  return body_len;
}

std::size_t message_size(std::size_t fields, std::size_t target) {
  return kMessageHeaderBytes + body_length(fields, target);
}

/// Append one message: the header, the fields `write_fields(w)` writes
/// (`fields` bytes), and zero padding up to the body length. A ByteWriter
/// is reserved for the whole message first, so it grows at most once.
template <typename W, typename Fields>
void write_message(W& w, HsType type, std::size_t fields, std::size_t target,
                   Fields&& write_fields) {
  const std::size_t body_len = body_length(fields, target);
  if constexpr (std::is_same_v<W, ByteWriter>) {
    w.reserve(w.size() + kMessageHeaderBytes + body_len);
  }
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>((body_len >> 16) & 0xff));
  w.u16(static_cast<std::uint16_t>(body_len & 0xffff));
  write_fields(w);
  w.zeros(body_len - fields);
}

template <typename W>
void write_lv_string(W& w, std::string_view s) {
  w.u16(static_cast<std::uint16_t>(s.size()));
  w.string(s);
}

std::string_view read_lv_view(ByteReader& r) {
  const std::uint16_t len = r.u16();
  const auto bytes = r.view(len);
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::size_t client_hello_fields(const ClientHelloView& ch) {
  std::size_t fields = 2 + 2 + lv_size(ch.sni) + 1;
  for (const auto& proto : ch.alpn) fields += lv_size(proto);
  return fields + 2 + ch.session_ticket.size();
}

std::size_t server_hello_fields(const ServerHello& sh) {
  return 2 + lv_size(sh.alpn) + 1;
}

std::size_t server_hello_target(const ServerHello& sh) {
  return sh.version == TlsVersion::kTls13 ? kServerHello13Body
                                          : kServerHello12Body;
}

std::size_t certificate_fields(const CertificateView& cert) {
  return lv_size(cert.subject) + 1 + 1 + 1 + 4;
}

std::size_t ticket_fields(const NewSessionTicketView& t) {
  return 2 + t.ticket.size();
}

template <typename W>
void write_client_hello(W& w, const ClientHelloView& ch) {
  write_message(w, HsType::kClientHello, client_hello_fields(ch),
                kClientHelloBody, [&](W& out) {
                  out.u16(static_cast<std::uint16_t>(ch.min_version));
                  out.u16(static_cast<std::uint16_t>(ch.max_version));
                  write_lv_string(out, ch.sni);
                  out.u8(static_cast<std::uint8_t>(ch.alpn.size()));
                  for (const auto& proto : ch.alpn) {
                    write_lv_string(out, proto);
                  }
                  out.u16(static_cast<std::uint16_t>(ch.session_ticket.size()));
                  out.bytes(ch.session_ticket);
                });
}

template <typename W>
void write_server_hello(W& w, const ServerHello& sh) {
  write_message(w, HsType::kServerHello, server_hello_fields(sh),
                server_hello_target(sh), [&](W& out) {
                  out.u16(static_cast<std::uint16_t>(sh.version));
                  write_lv_string(out, sh.alpn);
                  out.u8(sh.resumed ? 1 : 0);
                });
}

/// The Certificate message's size is dominated by the chain itself: the
/// body is padded to exactly the configured chain size (plus a small
/// framing allowance already included in chain_bytes).
template <typename W>
void write_certificate(W& w, const CertificateView& cert) {
  write_message(w, HsType::kCertificate, certificate_fields(cert),
                cert.chain_bytes, [&](W& out) {
                  write_lv_string(out, cert.subject);
                  out.u8(cert.certificate_count);
                  out.u8(cert.ct_logged ? 1 : 0);
                  out.u8(cert.ocsp_must_staple ? 1 : 0);
                  out.u32(cert.chain_bytes);
                });
}

template <typename W>
void write_new_session_ticket(W& w, const NewSessionTicketView& t) {
  write_message(w, HsType::kNewSessionTicket, ticket_fields(t),
                kNewSessionTicketBody, [&](W& out) {
                  out.u16(static_cast<std::uint16_t>(t.ticket.size()));
                  out.bytes(t.ticket);
                });
}

template <typename W>
void write_plain(W& w, HsType type, std::size_t body_size) {
  write_message(w, type, 0, body_size, [](W&) {});
}

}  // namespace

std::size_t encoded_size(const ClientHelloView& ch) {
  return message_size(client_hello_fields(ch), kClientHelloBody);
}

std::size_t encoded_size(const ServerHello& sh) {
  return message_size(server_hello_fields(sh), server_hello_target(sh));
}

std::size_t encoded_size(const CertificateView& cert) {
  return message_size(certificate_fields(cert), cert.chain_bytes);
}

std::size_t encoded_size(const NewSessionTicketView& t) {
  return message_size(ticket_fields(t), kNewSessionTicketBody);
}

std::size_t plain_size(std::size_t body_size) {
  return message_size(0, body_size);
}

void encode_client_hello(ByteWriter& w, const ClientHello& ch) {
  write_client_hello(w, ch.view());
}

void encode_server_hello(ByteWriter& w, const ServerHello& sh) {
  write_server_hello(w, sh);
}

void encode_certificate(ByteWriter& w, const CertificateMsg& cert) {
  write_certificate(w, cert.view());
}

void encode_new_session_ticket(ByteWriter& w, const NewSessionTicketMsg& t) {
  write_new_session_ticket(w, t.view());
}

void encode_plain(ByteWriter& w, HsType type, std::size_t body_size) {
  write_plain(w, type, body_size);
}

void encode_client_hello(HandshakeCursor& w, const ClientHelloView& ch) {
  write_client_hello(w, ch);
}

void encode_server_hello(HandshakeCursor& w, const ServerHello& sh) {
  write_server_hello(w, sh);
}

void encode_certificate(HandshakeCursor& w, const CertificateView& cert) {
  write_certificate(w, cert);
}

void encode_new_session_ticket(HandshakeCursor& w,
                               const NewSessionTicketView& t) {
  write_new_session_ticket(w, t);
}

void encode_plain(HandshakeCursor& w, HsType type, std::size_t body_size) {
  write_plain(w, type, body_size);
}

HandshakeView decode_handshake_view(ByteReader& r) {
  HandshakeView msg;
  msg.type = static_cast<HsType>(r.u8());
  const std::uint32_t hi = r.u8();
  const std::uint32_t lo = r.u16();
  const std::size_t body_len = (hi << 16) | lo;
  const std::size_t body_end = r.offset() + body_len;
  if (body_len > r.remaining()) throw WireError("truncated handshake message");

  switch (msg.type) {
    case HsType::kClientHello: {
      ClientHelloOffer ch;
      ch.min_version = static_cast<TlsVersion>(r.u16());
      ch.max_version = static_cast<TlsVersion>(r.u16());
      ch.sni = read_lv_view(r);
      const std::uint8_t n_alpn = r.u8();
      const std::size_t alpn_at = r.offset();
      for (std::uint8_t i = 0; i < n_alpn; ++i) read_lv_view(r);
      ch.alpn = AlpnOffer(n_alpn,
                          r.data().subspan(alpn_at, r.offset() - alpn_at));
      const std::uint16_t ticket_len = r.u16();
      ch.session_ticket = r.view(ticket_len);
      msg.client_hello = ch;
      break;
    }
    case HsType::kServerHello: {
      ServerHelloView sh;
      sh.version = static_cast<TlsVersion>(r.u16());
      sh.alpn = read_lv_view(r);
      sh.resumed = r.u8() != 0;
      msg.server_hello = sh;
      break;
    }
    case HsType::kCertificate: {
      CertificateView cert;
      cert.subject = read_lv_view(r);
      cert.certificate_count = r.u8();
      cert.ct_logged = r.u8() != 0;
      cert.ocsp_must_staple = r.u8() != 0;
      cert.chain_bytes = r.u32();
      msg.certificate = cert;
      break;
    }
    case HsType::kNewSessionTicket: {
      const std::uint16_t len = r.u16();
      msg.ticket = NewSessionTicketView{r.view(len)};
      break;
    }
    default:
      break;  // field-free message
  }
  r.seek(body_end);  // skip padding
  return msg;
}

HandshakeMessage decode_handshake(ByteReader& r) {
  const HandshakeView view = decode_handshake_view(r);
  HandshakeMessage msg;
  msg.type = view.type;
  if (const auto& offer = view.client_hello) {
    ClientHello ch;
    ch.min_version = offer->min_version;
    ch.max_version = offer->max_version;
    ch.sni = offer->sni;
    offer->alpn.for_each(
        [&](std::string_view proto) { ch.alpn.emplace_back(proto); });
    ch.session_ticket.assign(offer->session_ticket.begin(),
                             offer->session_ticket.end());
    msg.client_hello = std::move(ch);
  }
  if (const auto& sh = view.server_hello) {
    msg.server_hello = ServerHello{sh->version, std::string(sh->alpn),
                                   sh->resumed};
  }
  if (view.certificate) {
    msg.certificate = CertificateMsg::of(*view.certificate);
  }
  if (view.ticket) {
    msg.ticket = NewSessionTicketMsg{
        Bytes(view.ticket->ticket.begin(), view.ticket->ticket.end())};
  }
  return msg;
}

}  // namespace dohperf::tlssim
