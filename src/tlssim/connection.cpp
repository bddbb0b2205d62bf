#include "tlssim/connection.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cstring>
#include <string_view>
#include <vector>

namespace dohperf::tlssim {

namespace {

bool version_le(TlsVersion a, TlsVersion b) noexcept {
  return static_cast<std::uint16_t>(a) <= static_cast<std::uint16_t>(b);
}

/// Type, legacy record version 0x0303, length.
void write_record_header(std::uint8_t* out, ContentType type,
                         std::size_t record_len) {
  out[0] = static_cast<std::uint8_t>(type);
  out[1] = 0x03;
  out[2] = 0x03;
  out[3] = static_cast<std::uint8_t>(record_len >> 8);
  out[4] = static_cast<std::uint8_t>(record_len & 0xff);
}

/// The zeros of the synthetic AEAD expansion, built during static
/// initialisation, before any shard's arena exists, and never freed.
const Bytes kZeroTag(kTls12RecordOverhead, 0);

/// A record's tag: the first `size` zeros of kZeroTag, so encryption
/// overhead never allocates. The slice is non-owning, so copying it
/// touches no count: shard threads share the bytes, not a count.
BufferSlice zero_tag(std::size_t size) {
  assert(size <= kZeroTag.size());
  return BufferSlice::unowned(std::span(kZeroTag).first(size));
}

/// Wire size of the record whose header `header` starts with. A header no
/// peer could send fails at once, before any of its body is buffered: an
/// unknown content type, or a length past what the send side allows
/// (RFC 8446 §5.1).
std::size_t record_size(std::span<const std::uint8_t> header) {
  const std::uint8_t type = header[0];
  if (type < static_cast<std::uint8_t>(ContentType::kChangeCipherSpec) ||
      type > static_cast<std::uint8_t>(ContentType::kApplicationData)) {
    throw WireError("unknown record type");
  }
  const std::size_t record_len =
      (static_cast<std::size_t>(header[3]) << 8) | header[4];
  if (record_len > kMaxFragment + 256) throw WireError("record too large");
  return kRecordHeaderBytes + record_len;
}

/// The body of every ChangeCipherSpec record.
constexpr std::uint8_t kChangeCipherSpecBody[] = {1};

/// The ticket a server issues: "TKT|<subject>". Epoch 0 keeps these legacy
/// bytes so pre-mobility traces are byte-identical; any bump (a server
/// restart) appends "|<epoch>", which changes the expected value and
/// silently rejects stale tickets. Built once, on the stack unless the
/// subject is unusually long.
class IssuedTicket {
 public:
  explicit IssuedTicket(const ServerConfig& config) {
    char epoch[24] = {};
    std::string_view suffix;
    if (config.ticket_epoch != 0) {
      epoch[0] = '|';
      const char* end =
          std::to_chars(epoch + 1, epoch + sizeof epoch, config.ticket_epoch)
              .ptr;
      suffix = {epoch, static_cast<std::size_t>(end - epoch)};
    }
    const std::string_view parts[] = {"TKT|", config.chain.subject, suffix};
    std::size_t size = 0;
    for (const std::string_view part : parts) size += part.size();
    std::uint8_t* out = room_.data();
    if (size > room_.size()) {
      spill_.resize(size);
      out = spill_.data();
    }
    bytes_ = {out, size};
    for (const std::string_view part : parts) {
      out = std::copy(part.begin(), part.end(), out);
    }
  }
  IssuedTicket(const IssuedTicket&) = delete;
  IssuedTicket& operator=(const IssuedTicket&) = delete;

  std::span<const std::uint8_t> bytes() const noexcept { return bytes_; }
  bool matches(std::span<const std::uint8_t> offered) const {
    return std::equal(bytes_.begin(), bytes_.end(), offered.begin(),
                      offered.end());
  }

 private:
  std::array<std::uint8_t, 256> room_ = {};
  Bytes spill_;
  std::span<const std::uint8_t> bytes_;
};

}  // namespace

TlsConnection::TlsConnection(std::unique_ptr<ByteStream> transport,
                             ClientConfig config)
    : transport_(std::move(transport)), role_(TlsRole::kClient),
      client_config_(std::move(config)) {
  Handlers h;
  h.on_open = [this]() { on_transport_open(); };
  h.on_data = [this](const BufferSlice& d) { on_transport_data(d); };
  h.on_close = [this]() { on_transport_close(); };
  transport_->set_handlers(std::move(h));
}

TlsConnection::TlsConnection(std::unique_ptr<ByteStream> transport,
                             const ServerConfig* config)
    : transport_(std::move(transport)), role_(TlsRole::kServer),
      server_config_(config) {
  assert(config != nullptr);
  Handlers h;
  h.on_open = []() {};  // server waits for the ClientHello
  h.on_data = [this](const BufferSlice& d) { on_transport_data(d); };
  h.on_close = [this]() { on_transport_close(); };
  transport_->set_handlers(std::move(h));
}

void TlsConnection::set_handlers(Handlers handlers) {
  handlers_ = std::move(handlers);
  if (established_) {
    if (const auto on_open = handlers_.on_open) on_open();
  }
}

std::size_t TlsConnection::send_tag_bytes() const noexcept {
  if (!send_encrypted_) return 0;
  return version_ == TlsVersion::kTls13 ? kAeadTagBytes + 1
                                        : kTls12RecordOverhead;
}

std::size_t TlsConnection::recv_tag_bytes() const noexcept {
  if (!recv_encrypted_) return 0;
  return version_ == TlsVersion::kTls13 ? kAeadTagBytes + 1
                                        : kTls12RecordOverhead;
}

CertificateView TlsConnection::certificate() const noexcept {
  assert(role_ == TlsRole::kServer);
  const CertificateChain& chain = server_config_->chain;
  return {chain.subject, static_cast<std::uint8_t>(chain.certificate_count),
          chain.ct_logged, chain.ocsp_must_staple,
          static_cast<std::uint32_t>(chain.wire_bytes)};
}

std::size_t TlsConnection::count_sent_record(ContentType type,
                                             std::size_t body_len) {
  // CCS records are never encrypted (middlebox-compatibility framing).
  const std::size_t tag =
      type == ContentType::kChangeCipherSpec ? 0 : send_tag_bytes();
  const std::size_t record_len = body_len + tag;
  if (record_len > kMaxFragment + 256) throw WireError("record too large");
  ++counters_.records_sent;
  if (type == ContentType::kApplicationData) {
    counters_.app_bytes_sent += body_len;
    counters_.record_overhead_sent += kRecordHeaderBytes + tag;
  } else {
    counters_.handshake_bytes_sent += kRecordHeaderBytes + record_len;
  }
  return tag;
}

template <typename Fill>
void TlsConnection::send_record(ContentType type, std::size_t body_len,
                                Fill&& fill) {
  // Header, body and tag written together into the send slab: no
  // allocation of its own, and segments cut from it need no coalescing.
  const std::size_t tag = count_sent_record(type, body_len);
  const std::size_t record_len = body_len + tag;
  transport_->send(send_slab_.write(
      kRecordHeaderBytes + record_len, [&](std::uint8_t* out) {
        write_record_header(out, type, record_len);
        fill(out + kRecordHeaderBytes);
        std::memset(out + kRecordHeaderBytes + body_len, 0, tag);
      }));
}

void TlsConnection::send_record(ContentType type,
                                std::span<const std::uint8_t> body) {
  send_record(type, body.size(), [body](std::uint8_t* out) {
    std::memcpy(out, body.data(), body.size());
  });
}

template <typename Write>
void TlsConnection::send_handshake(std::size_t size, Write&& write) {
  send_record(ContentType::kHandshake, size, [&](std::uint8_t* out) {
    HandshakeCursor cursor(out);
    write(cursor);
    assert(cursor.position() == out + size);
  });
}

void TlsConnection::send_plain(HsType type, std::size_t body_size) {
  send_handshake(plain_size(body_size), [&](HandshakeCursor& w) {
    encode_plain(w, type, body_size);
  });
}

void TlsConnection::send_app_record(std::span<BufferSlice> record,
                                    std::size_t body_len) {
  const std::size_t tag =
      count_sent_record(ContentType::kApplicationData, body_len);
  record.front() =
      send_slab_.write(kRecordHeaderBytes, [&](std::uint8_t* out) {
        write_record_header(out, ContentType::kApplicationData,
                            body_len + tag);
      });
  // One logical write per record: {header, plaintext slices, synthetic tag}.
  // The transport appends all pieces before segmenting, so the wire is
  // byte-identical to one contiguous record buffer.
  if (tag > 0) {
    record.back() = zero_tag(tag);
  } else {
    record = record.first(record.size() - 1);
  }
  transport_->send_chain(record);
}

void TlsConnection::send_alert(AlertDescription desc, bool fatal) {
  const std::uint8_t body[] = {static_cast<std::uint8_t>(fatal ? 2 : 1),
                               static_cast<std::uint8_t>(desc)};
  send_record(ContentType::kAlert, body);
}

void TlsConnection::send_change_cipher_spec() {
  send_record(ContentType::kChangeCipherSpec, kChangeCipherSpecBody);
}

void TlsConnection::on_transport_open() {
  if (transport_open_hook_) transport_open_hook_();
  if (role_ == TlsRole::kClient) send_client_hello();
}

void TlsConnection::send_client_hello() {
  ClientHelloView ch;
  ch.min_version = client_config_.min_version;
  ch.max_version = client_config_.max_version;
  ch.sni = client_config_.sni;
  ch.alpn = client_config_.alpn;
  if (client_config_.session_cache != nullptr) {
    if (const Session* session =
            client_config_.session_cache->lookup(client_config_.sni)) {
      ch.session_ticket = session->ticket;
    }
  }
  send_handshake(encoded_size(ch), [&](HandshakeCursor& w) {
    encode_client_hello(w, ch);
  });
}

void TlsConnection::on_transport_data(const BufferSlice& data) {
  assert(!in_rx_ && "a record handler fed its own connection");
  // Hardening: bytes that don't parse as TLS (garbage to the port, a
  // truncated/oversized record, an out-of-place handshake message) must
  // never propagate an exception into the transport layer — answer with a
  // fatal decode_error alert and tear the connection down deterministically.
  try {
    in_rx_ = true;
    receive(data);
    in_rx_ = false;
  } catch (const WireError&) {
    in_rx_ = false;
    if (!failed_ && !closed_) fail(AlertDescription::kDecodeError);
  }
}

void TlsConnection::receive(const BufferSlice& data) {
  std::size_t at = 0;
  if (rx_.size() > 0) {
    at = gather(data);
    const auto gathered = rx_.bytes();
    if (gathered.size() < kRecordHeaderBytes ||
        gathered.size() < record_size(gathered)) {
      return;
    }
    process_record(rx_.take(gathered.size()));
  }
  while (!closed_ && !failed_ && data.size() - at >= kRecordHeaderBytes) {
    const std::size_t size = record_size(data.span().subspan(at));
    if (data.size() - at < size) break;
    process_record(data.subslice(at, size));
    at += size;
  }
  if (!closed_ && !failed_ && at < data.size()) {
    gather(data.span().subspan(at));
  }
}

std::size_t TlsConnection::gather(std::span<const std::uint8_t> bytes) {
  const std::size_t have = rx_.size();
  // Until the header is whole, only the header is known to be coming.
  std::size_t size = kRecordHeaderBytes;
  if (have >= kRecordHeaderBytes) {
    size = record_size(rx_.bytes());
  } else if (have + bytes.size() >= kRecordHeaderBytes) {
    std::array<std::uint8_t, kRecordHeaderBytes> header{};
    const auto front = rx_.bytes();
    std::copy(front.begin(), front.end(), header.begin());
    std::copy_n(bytes.begin(), kRecordHeaderBytes - have,
                header.begin() + static_cast<std::ptrdiff_t>(have));
    size = record_size(header);
  }
  rx_.reserve(size);
  const std::size_t took = std::min(size - have, bytes.size());
  rx_.append(bytes.first(took));
  return took;
}

void TlsConnection::process_record(const BufferSlice& record) {
  const auto type = static_cast<ContentType>(record[0]);
  ++counters_.records_received;

  // Strip the synthetic AEAD expansion for encrypted record types.
  const std::size_t record_len = record.size() - kRecordHeaderBytes;
  const std::size_t tag = type == ContentType::kChangeCipherSpec
                              ? 0
                              : recv_tag_bytes();
  if (record_len < tag) throw WireError("record shorter than AEAD tag");
  const std::size_t body_len = record_len - tag;

  if (type == ContentType::kApplicationData) {
    counters_.app_bytes_received += body_len;
    counters_.record_overhead_received += kRecordHeaderBytes + tag;
  } else {
    counters_.handshake_bytes_received += record.size();
  }
  handle_record(type, record.subslice(kRecordHeaderBytes, body_len));
}

void TlsConnection::handle_record(ContentType type, const BufferSlice& body) {
  switch (type) {
    case ContentType::kChangeCipherSpec:
      // In TLS 1.2 the peer's CCS switches its direction to encrypted.
      if (version_ != TlsVersion::kTls13) recv_encrypted_ = true;
      return;
    case ContentType::kAlert: {
      if (body.size() < 2) throw WireError("short alert");
      const auto desc = static_cast<AlertDescription>(body[1]);
      if (desc == AlertDescription::kCloseNotify) {
        closed_ = true;
        // Complete the TCP teardown from our side too, as real TLS stacks
        // do on close_notify — otherwise the peer lingers in FIN_WAIT_2.
        close_transport();
        if (const auto on_close = handlers_.on_close) on_close();
      } else {
        failed_ = true;
        failure_alert_ = desc;
        if (handlers_.on_close) handlers_.on_close();
      }
      return;
    }
    case ContentType::kApplicationData: {
      if (handlers_.on_data) handlers_.on_data(body);
      return;
    }
    case ContentType::kHandshake: {
      // Decoded in place: the messages' fields view the record.
      ByteReader r(body);
      while (!r.exhausted()) {
        handle_handshake_message(decode_handshake_view(r));
        if (failed_ || closed_) return;
      }
      return;
    }
  }
  throw WireError("unknown record type");
}

void TlsConnection::handle_client_hello(const ClientHelloOffer& ch) {
  assert(role_ == TlsRole::kServer);
  // --- version negotiation --------------------------------------------------
  std::optional<TlsVersion> chosen;
  for (const TlsVersion v : server_config_->versions) {
    if (version_le(ch.min_version, v) && version_le(v, ch.max_version)) {
      if (!chosen || version_le(*chosen, v)) chosen = v;
    }
  }
  if (!chosen) {
    fail(AlertDescription::kHandshakeFailure);
    return;
  }
  version_ = *chosen;

  // --- ALPN -------------------------------------------------------------------
  alpn_.clear();
  if (!ch.alpn.empty()) {
    for (const auto& preferred : server_config_->alpn_preference) {
      if (ch.alpn.contains(preferred)) {
        alpn_ = preferred;
        break;
      }
    }
    if (alpn_.empty()) {
      fail(AlertDescription::kNoApplicationProtocol);
      return;
    }
  }

  // --- resumption --------------------------------------------------------------
  resumed_ = server_config_->issue_session_tickets &&
             !ch.session_ticket.empty() &&
             IssuedTicket(*server_config_).matches(ch.session_ticket);

  // --- server flight -------------------------------------------------------------
  // Each record's messages are sized first and written once, into the
  // send slab.
  ServerHello sh;
  sh.version = version_;
  sh.alpn = alpn_;
  sh.resumed = resumed_;
  send_handshake(encoded_size(sh), [&](HandshakeCursor& w) {
    encode_server_hello(w, sh);
  });

  if (version_ == TlsVersion::kTls13) {
    send_change_cipher_spec();
    send_encrypted_ = true;
    const CertificateView cert = certificate();
    std::size_t size = plain_size(kEncryptedExtensionsBody) +
                       plain_size(kFinishedBody);
    if (!resumed_) {
      size += encoded_size(cert) + plain_size(kCertificateVerifyBody);
    }
    send_handshake(size, [&](HandshakeCursor& w) {
      encode_plain(w, HsType::kEncryptedExtensions, kEncryptedExtensionsBody);
      if (!resumed_) {
        encode_certificate(w, cert);
        encode_plain(w, HsType::kCertificateVerify, kCertificateVerifyBody);
      }
      encode_plain(w, HsType::kFinished, kFinishedBody);
    });
    sent_finished_ = true;
    recv_encrypted_ = true;  // client's Finished arrives encrypted
  } else {
    // TLS 1.2 and below.
    if (resumed_) {
      send_change_cipher_spec();
      send_encrypted_ = true;
      send_plain(HsType::kFinished, kFinishedBody);
      sent_finished_ = true;
    } else {
      const CertificateView cert = certificate();
      const std::size_t size = encoded_size(cert) +
                               plain_size(kServerKeyExchangeBody) +
                               plain_size(kServerHelloDoneBody);
      send_handshake(size, [&](HandshakeCursor& w) {
        encode_certificate(w, cert);
        encode_plain(w, HsType::kServerKeyExchange, kServerKeyExchangeBody);
        encode_plain(w, HsType::kServerHelloDone, kServerHelloDoneBody);
      });
    }
  }
}

void TlsConnection::handle_server_hello(const ServerHelloView& sh) {
  assert(role_ == TlsRole::kClient);
  if (!version_le(client_config_.min_version, sh.version) ||
      !version_le(sh.version, client_config_.max_version)) {
    fail(AlertDescription::kProtocolVersion);
    return;
  }
  version_ = sh.version;
  alpn_ = sh.alpn;
  resumed_ = sh.resumed;
  if (version_ == TlsVersion::kTls13) {
    // Everything after the ServerHello arrives encrypted.
    recv_encrypted_ = true;
  }
}

void TlsConnection::handle_handshake_message(const HandshakeView& msg) {
  switch (msg.type) {
    case HsType::kClientHello:
      if (role_ != TlsRole::kServer) throw WireError("unexpected ClientHello");
      handle_client_hello(*msg.client_hello);
      return;

    case HsType::kServerHello:
      if (role_ != TlsRole::kClient) throw WireError("unexpected ServerHello");
      handle_server_hello(*msg.server_hello);
      return;

    case HsType::kCertificate:
      peer_certificate_ = CertificateMsg::of(*msg.certificate);
      return;

    case HsType::kEncryptedExtensions:
    case HsType::kCertificateVerify:
    case HsType::kServerKeyExchange:
      return;  // nothing to act on in the simulation

    case HsType::kServerHelloDone: {
      // TLS 1.2 full handshake: client sends its second flight.
      assert(role_ == TlsRole::kClient);
      received_server_hello_done_ = true;
      send_plain(HsType::kClientKeyExchange, kClientKeyExchangeBody);
      send_change_cipher_spec();
      send_encrypted_ = true;
      send_plain(HsType::kFinished, kFinishedBody);
      sent_finished_ = true;
      return;
    }

    case HsType::kClientKeyExchange:
      return;  // server: wait for CCS + Finished

    case HsType::kFinished: {
      received_finished_ = true;
      if (role_ == TlsRole::kClient) {
        if (version_ == TlsVersion::kTls13) {
          // Respond with CCS + our Finished, then we are up.
          send_change_cipher_spec();
          send_encrypted_ = true;
          send_plain(HsType::kFinished, kFinishedBody);
          sent_finished_ = true;
          finish_handshake();
        } else if (resumed_ && !sent_finished_) {
          // TLS 1.2 resumption: server finished first; reply in kind.
          send_change_cipher_spec();
          send_encrypted_ = true;
          send_plain(HsType::kFinished, kFinishedBody);
          sent_finished_ = true;
          finish_handshake();
        } else {
          // TLS 1.2 full handshake: server's Finished completes it.
          finish_handshake();
        }
      } else {
        // Server receiving the client's Finished.
        if (version_ != TlsVersion::kTls13 && !resumed_) {
          // Full TLS 1.2: reply with our CCS + Finished.
          send_change_cipher_spec();
          send_encrypted_ = true;
          send_plain(HsType::kFinished, kFinishedBody);
          sent_finished_ = true;
        }
        finish_handshake();
        // Issue a session ticket for future resumption, unless on_open
        // closed the connection: nothing follows a close_notify.
        if (server_config_->issue_session_tickets && is_open()) {
          const IssuedTicket issued(*server_config_);
          const NewSessionTicketView ticket{issued.bytes()};
          send_handshake(encoded_size(ticket), [&](HandshakeCursor& w) {
            encode_new_session_ticket(w, ticket);
          });
        }
      }
      return;
    }

    case HsType::kNewSessionTicket: {
      // Only a cache keeps a copy of the ticket.
      if (role_ == TlsRole::kClient &&
          client_config_.session_cache != nullptr) {
        const auto ticket = msg.ticket->ticket;
        client_config_.session_cache->store(
            client_config_.sni,
            Session{Bytes(ticket.begin(), ticket.end()), version_});
      }
      return;
    }
  }
  throw WireError("unknown handshake message");
}

void TlsConnection::finish_handshake() {
  if (established_) return;
  established_ = true;
  if (established_hook_) established_hook_();
  // Copy before invoking: the handler may replace our handlers (e.g. an
  // HTTP layer attaching itself on open), which would otherwise destroy
  // the std::function we are executing.
  if (const auto on_open = handlers_.on_open) on_open();
  flush_pending_app_data();
}

void TlsConnection::fail(AlertDescription desc) {
  failed_ = true;
  failure_alert_ = desc;
  send_alert(desc, /*fatal=*/true);
  close_transport();
  if (handlers_.on_close) handlers_.on_close();
}

void TlsConnection::send(BufferSlice data) {
  if (failed_ || closed_) {
    throw std::logic_error("send on failed/closed TLS connection");
  }
  if (!established_) {
    pending_app_data_.push_back(std::move(data));
    return;
  }
  // Fragment into records; each fragment is a zero-copy subslice of the
  // application's buffer.
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t chunk = std::min(kMaxFragment, data.size() - offset);
    BufferSlice record[3] = {{}, data.subslice(offset, chunk), {}};
    send_app_record(record, chunk);
    offset += chunk;
  }
}

void TlsConnection::send_chain(std::span<const BufferSlice> chain) {
  if (failed_ || closed_) {
    throw std::logic_error("send on failed/closed TLS connection");
  }
  if (!established_) {
    // Pre-handshake sends must flush later exactly like one contiguous
    // buffer, so coalesce the chain into a single queued slice.
    pending_app_data_.emplace_back(simnet::coalesce(chain));
    return;
  }
  // One logical write: pack records up to kMaxFragment across slice
  // boundaries, exactly where a contiguous buffer would fragment. A record
  // takes at most one piece from each slice, plus header and tag slots, so
  // a short chain's records are assembled on the stack.
  std::array<BufferSlice, 8> stack_room;
  std::vector<BufferSlice> heap_room;
  std::span<BufferSlice> room(stack_room);
  if (chain.size() + 2 > stack_room.size()) {
    heap_room.resize(chain.size() + 2);
    room = heap_room;
  }
  std::size_t pieces = 1;  // room[0] is the header slot
  std::size_t record_len = 0;
  const auto send_pending = [&]() {
    send_app_record(room.first(pieces + 1), record_len);
    pieces = 1;
    record_len = 0;
  };
  for (std::size_t idx = 0, offset = 0; idx < chain.size();) {
    const BufferSlice& slice = chain[idx];
    if (offset >= slice.size()) {
      ++idx;
      offset = 0;
      continue;
    }
    const std::size_t take =
        std::min(kMaxFragment - record_len, slice.size() - offset);
    room[pieces++] = slice.subslice(offset, take);
    record_len += take;
    offset += take;
    if (record_len == kMaxFragment) send_pending();
  }
  if (record_len > 0) send_pending();
}

void TlsConnection::flush_pending_app_data() {
  while (!pending_app_data_.empty()) {
    BufferSlice data = std::move(pending_app_data_.front());
    pending_app_data_.pop_front();
    send(std::move(data));
  }
}

void TlsConnection::close() {
  if (closed_ || failed_) return;
  closed_ = true;
  if (established_) send_alert(AlertDescription::kCloseNotify, false);
  close_transport();
}

void TlsConnection::close_transport() {
  // Nothing is sent after this, and no record is handled, so the slab and
  // the gathering queue let go of their blocks: a closed connection an
  // application keeps around holds no buffer.
  send_slab_.reset();
  rx_.release();
  transport_->close();
}

bool TlsConnection::is_open() const {
  return established_ && !closed_ && !failed_;
}

void TlsConnection::on_transport_close() {
  if (closed_) return;
  closed_ = true;
  // The peer closed (or half-closed) the transport: close our side so the
  // TCP state machines on both ends can finish and free their ports.
  close_transport();
  if (const auto on_close = handlers_.on_close) on_close();
}

}  // namespace dohperf::tlssim
