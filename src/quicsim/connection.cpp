#include "quicsim/connection.hpp"

#include <algorithm>
#include <cassert>

namespace dohperf::quicsim {

using tlssim::HsType;

namespace {

/// RFC 9000 §20.1 transport error codes for a peer that breaks the
/// handshake: a malformed or misplaced message, or more CRYPTO data than
/// the connection buffers.
constexpr std::uint64_t kProtocolViolation = 0x0a;
constexpr std::uint64_t kCryptoBufferExceeded = 0x0d;
/// Handshake bytes a connection reassembles, far above a real flight.
constexpr std::size_t kMaxCryptoBytes = std::size_t{64} << 10;

}  // namespace

QuicConnection::QuicConnection(simnet::EventLoop& loop, DatagramSender sender,
                               std::uint64_t connection_id,
                               tlssim::ClientConfig tls,
                               QuicConnectionConfig config)
    : loop_(loop), sender_(std::move(sender)), connection_id_(connection_id),
      role_(Role::kClient), client_tls_(std::move(tls)), config_(config),
      next_stream_id_(0) {
  start_client_handshake();
}

QuicConnection::QuicConnection(simnet::EventLoop& loop, DatagramSender sender,
                               std::uint64_t connection_id,
                               const tlssim::ServerConfig* tls,
                               QuicConnectionConfig config)
    : loop_(loop), sender_(std::move(sender)), connection_id_(connection_id),
      role_(Role::kServer), server_tls_(tls), config_(config),
      next_stream_id_(1) {
  assert(tls != nullptr);
}

QuicConnection::~QuicConnection() { loop_.cancel(pto_timer_); }

void QuicConnection::start_client_handshake() {
  tlssim::ClientHello ch;
  ch.min_version = tlssim::TlsVersion::kTls13;  // QUIC v1 requires TLS 1.3
  ch.max_version = tlssim::TlsVersion::kTls13;
  ch.sni = client_tls_.sni;
  ch.alpn = client_tls_.alpn.empty() ? std::vector<std::string>{"doq"}
                                     : client_tls_.alpn;
  dns::ByteWriter w;
  tlssim::encode_client_hello(w, ch);

  CryptoFrame crypto;
  crypto.offset = crypto_tx_offset_;
  crypto.data = w.take();
  crypto_tx_offset_ += crypto.data.size();
  counters_.handshake_bytes += crypto.data.size();

  // RFC 9000 §8.1: the Initial must be padded to at least 1200 bytes.
  Packet initial;
  initial.long_header = true;
  initial.frames.push_back(crypto);
  const std::size_t unpadded = initial.udp_wire_size();
  std::uint16_t padding = 0;
  if (unpadded < kMinInitialPayload) {
    padding = static_cast<std::uint16_t>(kMinInitialPayload - unpadded);
    counters_.handshake_bytes += padding;
  }
  send_packet(std::move(crypto), /*long_header=*/true, padding);
}

void QuicConnection::send_packet(Frame frame, bool long_header,
                                 std::uint16_t padding) {
  if (closed_) return;
  Packet packet;
  packet.long_header = long_header;
  packet.connection_id = connection_id_;
  packet.packet_number = next_packet_number_++;
  packet.frames.push_back(frame);  // shares the frame's bytes
  if (padding > 0) packet.frames.push_back(PaddingFrame{padding});

  ++counters_.packets_sent;
  counters_.wire_bytes_sent += packet.udp_wire_size();
  if (const auto* sf = std::get_if<StreamFrame>(&frame)) {
    counters_.stream_bytes_sent += sf->data.size();
  }
  Bytes datagram = packet.encode();
  if (is_ack_eliciting(frame)) {
    // Built in place: a moved SentPacket temporary trips GCC 12's
    // -Wmaybe-uninitialized on the Frame variant.
    unacked_.emplace_back(packet.packet_number, loop_.now(), long_header,
                          std::move(frame));
    arm_pto();
  }
  sender_(std::move(datagram));
}

void QuicConnection::handle_datagram(std::span<const std::uint8_t> payload) {
  if (closed_) return;
  // A garbage datagram is dropped, like real QUIC drops it.
  if (const auto packet = Packet::try_decode(payload)) handle_packet(*packet);
}

void QuicConnection::handle_packet(const Packet& packet) {
  if (closed_) return;
  ++counters_.packets_received;
  counters_.wire_bytes_received += packet.udp_wire_size();

  bool needs_ack = false;
  for (const auto& frame : packet.frames) {
    if (is_ack_eliciting(frame)) needs_ack = true;
    handle_frame(frame);
    if (closed_) return;
  }
  if (needs_ack) {
    add_acked(ack_pending_, packet.packet_number);
    schedule_ack();
  }
}

void QuicConnection::handle_ack(const AckFrame& frame) {
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const std::uint64_t pn = frame[i];
    const auto it = std::lower_bound(
        unacked_.begin(), unacked_.end(), pn,
        [](const SentPacket& s, std::uint64_t n) {
          return s.packet_number < n;
        });
    if (it == unacked_.end() || it->packet_number != pn) continue;
    // RTT sample (RFC 9002 §5): retransmitted frames travel in new packet
    // numbers, so every sample is unambiguous.
    const auto rtt = static_cast<double>(loop_.now() - it->sent_at);
    if (srtt_us_ == 0.0) {
      srtt_us_ = rtt;
      rttvar_us_ = rtt / 2.0;
    } else {
      rttvar_us_ = 0.75 * rttvar_us_ + 0.25 * std::abs(srtt_us_ - rtt);
      srtt_us_ = 0.875 * srtt_us_ + 0.125 * rtt;
    }
    unacked_.erase(it);
  }
  if (unacked_.empty()) {
    loop_.cancel(pto_timer_);
    pto_timer_ = simnet::EventId{};
    pto_backoff_ = 0;
  }
}

void QuicConnection::handle_frame(const Frame& frame) {
  std::visit(
      [this](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, AckFrame>) {
          handle_ack(f);
        } else if constexpr (std::is_same_v<T, CryptoFrame>) {
          handle_crypto(f);
        } else if constexpr (std::is_same_v<T, StreamFrame>) {
          handle_stream(f);
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          closed_ = true;
          loop_.cancel(pto_timer_);
          if (on_closed_) on_closed_();
        } else if constexpr (std::is_same_v<T, HandshakeDoneFrame>) {
          // Client: server confirmed the handshake; nothing further needed.
        } else if constexpr (std::is_same_v<T, PathChallengeFrame>) {
          // Echo on the (possibly new) path; never blocked on anything.
          send_packet(PathResponseFrame{f.data}, /*long_header=*/false);
        } else if constexpr (std::is_same_v<T, PathResponseFrame>) {
          if (outstanding_path_token_ != 0 &&
              f.data == outstanding_path_token_) {
            outstanding_path_token_ = 0;
            ++counters_.path_validations;
            if (on_path_validated_) on_path_validated_();
          }
        }
        // Padding and ping need no action.
      },
      frame);
}

void QuicConnection::handle_crypto(const CryptoFrame& frame) {
  counters_.handshake_bytes += frame.data.size();
  // Reassemble at the right offset (frames can arrive out of order).
  const std::size_t end = frame.offset + frame.data.size();
  if (end > kMaxCryptoBytes) {
    close(kCryptoBufferExceeded);
    return;
  }
  if (crypto_rx_.size() < end) crypto_rx_.resize(end);
  std::copy(frame.data.begin(), frame.data.end(),
            crypto_rx_.begin() + static_cast<std::ptrdiff_t>(frame.offset));
  process_crypto_buffer();
}

void QuicConnection::process_crypto_buffer() {
  // Parse complete handshake messages (4-byte header + body).
  while (crypto_rx_.size() - crypto_rx_consumed_ >= 4) {
    dns::ByteReader peek(crypto_rx_);
    peek.seek(crypto_rx_consumed_ + 1);
    const std::size_t body_len =
        (static_cast<std::size_t>(peek.u8()) << 16) | peek.u16();
    const std::size_t total = 4 + body_len;
    if (crypto_rx_.size() - crypto_rx_consumed_ < total) return;
    dns::ByteReader r(std::span<const std::uint8_t>(crypto_rx_).subspan(
        crypto_rx_consumed_, total));
    tlssim::HandshakeMessage msg;
    try {
      msg = tlssim::decode_handshake(r);
    } catch (const dns::WireError&) {
      close(kProtocolViolation);
      return;
    }
    crypto_rx_consumed_ += total;
    handle_handshake_message(msg);
    if (closed_) return;
  }
}

void QuicConnection::handle_handshake_message(
    const tlssim::HandshakeMessage& msg) {
  switch (msg.type) {
    case HsType::kClientHello: {
      if (role_ != Role::kServer) {
        close(kProtocolViolation);
        return;
      }
      alpn_ = msg.client_hello->alpn.empty() ? "doq"
                                             : msg.client_hello->alpn.front();
      // Server flight: SH + EE + Certificate + CV + Finished, split across
      // packets so each stays under the MTU.
      dns::ByteWriter flight;
      tlssim::ServerHello sh;
      sh.version = tlssim::TlsVersion::kTls13;
      sh.alpn = alpn_;
      tlssim::encode_server_hello(flight, sh);
      tlssim::encode_plain(flight, HsType::kEncryptedExtensions,
                           tlssim::kEncryptedExtensionsBody);
      tlssim::CertificateMsg cert;
      cert.subject = server_tls_->chain.subject;
      cert.certificate_count =
          static_cast<std::uint8_t>(server_tls_->chain.certificate_count);
      cert.ct_logged = server_tls_->chain.ct_logged;
      cert.ocsp_must_staple = server_tls_->chain.ocsp_must_staple;
      cert.chain_bytes =
          static_cast<std::uint32_t>(server_tls_->chain.wire_bytes);
      tlssim::encode_certificate(flight, cert);
      tlssim::encode_plain(flight, HsType::kCertificateVerify,
                           tlssim::kCertificateVerifyBody);
      tlssim::encode_plain(flight, HsType::kFinished, tlssim::kFinishedBody);

      const simnet::BufferSlice bytes(flight.take());
      counters_.handshake_bytes += bytes.size();
      std::size_t offset = 0;
      while (offset < bytes.size()) {
        const std::size_t chunk =
            std::min(kMaxPacketPayload, bytes.size() - offset);
        CryptoFrame crypto;
        crypto.offset = crypto_tx_offset_ + offset;
        crypto.data = bytes.subslice(offset, chunk);
        send_packet(std::move(crypto), /*long_header=*/true);
        offset += chunk;
      }
      crypto_tx_offset_ += bytes.size();
      return;
    }
    case HsType::kServerHello:
      if (role_ != Role::kClient) {
        close(kProtocolViolation);
        return;
      }
      alpn_ = msg.server_hello->alpn;
      return;
    case HsType::kEncryptedExtensions:
    case HsType::kCertificate:
    case HsType::kCertificateVerify:
      return;
    case HsType::kFinished: {
      if (role_ == Role::kClient) {
        // Reply with our Finished; the handshake is complete for us and we
        // may send 1-RTT data immediately.
        dns::ByteWriter fin;
        tlssim::encode_plain(fin, HsType::kFinished, tlssim::kFinishedBody);
        CryptoFrame crypto;
        crypto.offset = crypto_tx_offset_;
        crypto.data = fin.take();
        crypto_tx_offset_ += crypto.data.size();
        counters_.handshake_bytes += crypto.data.size();
        send_packet(std::move(crypto), /*long_header=*/true);
        become_established();
      } else {
        become_established();
        if (!handshake_done_sent_) {
          handshake_done_sent_ = true;
          send_packet(HandshakeDoneFrame{}, /*long_header=*/false);
        }
      }
      return;
    }
    default:
      return;
  }
}

void QuicConnection::become_established() {
  if (established_) return;
  established_ = true;
  if (on_established_) on_established_();
  flush_pending_streams();
}

std::uint64_t QuicConnection::open_stream() {
  const std::uint64_t id = next_stream_id_;
  next_stream_id_ += 4;  // QUIC stream-id spacing per initiator/direction
  return id;
}

void QuicConnection::send_stream(std::uint64_t stream_id,
                                 simnet::BufferSlice data, bool fin) {
  if (closed_) throw std::logic_error("send on closed QUIC connection");
  if (!established_) {
    pending_writes_.push_back({stream_id, std::move(data), fin});
    return;
  }
  const auto open = tx_offsets_.find(stream_id);
  std::uint64_t offset = open != tx_offsets_.end() ? open->second : 0;
  std::size_t sent = 0;
  do {
    const std::size_t chunk =
        std::min(kMaxPacketPayload, data.size() - sent);
    StreamFrame frame;
    frame.stream_id = stream_id;
    frame.offset = offset;
    frame.data = data.subslice(sent, chunk);
    sent += chunk;
    offset += chunk;
    frame.fin = fin && sent >= data.size();
    send_packet(std::move(frame), /*long_header=*/false);
  } while (sent < data.size());
  // Only a stream with more to send keeps its offset.
  if (fin) {
    if (open != tx_offsets_.end()) tx_offsets_.erase(open);
  } else if (open != tx_offsets_.end()) {
    open->second = offset;
  } else {
    tx_offsets_.emplace(stream_id, offset);
  }
}

void QuicConnection::flush_pending_streams() {
  auto writes = std::move(pending_writes_);
  pending_writes_.clear();
  for (auto& w : writes) {
    send_stream(w.stream_id, std::move(w.data), w.fin);
  }
}

void QuicConnection::handle_stream(const StreamFrame& frame) {
  counters_.stream_bytes_received += frame.data.size();
  const std::uint64_t id = frame.stream_id;
  // A frame with neither data nor FIN changes nothing, and a finished
  // stream's late duplicate is dropped.
  if ((frame.data.empty() && !frame.fin) || rx_finished(id)) return;
  auto it = rx_streams_.find(id);
  if (it == rx_streams_.end()) {
    if (frame.offset == 0 && frame.fin) {
      // The whole stream in one frame: up straight from the datagram.
      finish_rx(id);
      if (on_stream_data_) on_stream_data_(id, frame.data, true);
      return;
    }
    it = rx_streams_.emplace(id, RxStream{}).first;
  }
  RxStream& stream = it->second;
  if (frame.fin) stream.fin_offset = frame.offset + frame.data.size();
  std::span<const std::uint8_t> in_order;
  if (frame.offset == stream.delivered) {
    in_order = frame.data;
  } else if (frame.offset > stream.delivered && !frame.data.empty()) {
    stream.early.emplace(frame.offset, frame.data.to_bytes());
  }
  deliver_stream(it, in_order);
}

void QuicConnection::deliver_stream(
    std::map<std::uint64_t, RxStream>::iterator it,
    std::span<const std::uint8_t> data) {
  const std::uint64_t id = it->first;
  RxStream& stream = it->second;
  Bytes early;
  for (;;) {
    if (data.empty()) {
      const auto next = stream.early.find(stream.delivered);
      if (next == stream.early.end()) {
        if (stream.fin_offset != stream.delivered) return;
        rx_streams_.erase(it);
        finish_rx(id);
        if (on_stream_data_) on_stream_data_(id, {}, true);
        return;
      }
      early = std::move(next->second);
      stream.early.erase(next);
      data = early;
    }
    stream.delivered += data.size();
    const bool fin = stream.fin_offset == stream.delivered;
    if (fin) {
      rx_streams_.erase(it);
      finish_rx(id);
    }
    if (on_stream_data_) on_stream_data_(id, data, fin);
    if (fin) return;
    data = {};
  }
}

bool QuicConnection::rx_finished(std::uint64_t stream_id) const noexcept {
  return stream_id < rx_finished_below_[stream_id & 3] ||
         std::binary_search(rx_finished_.begin(), rx_finished_.end(),
                            stream_id);
}

void QuicConnection::finish_rx(std::uint64_t stream_id) {
  std::uint64_t& below = rx_finished_below_[stream_id & 3];
  if (stream_id != below) {
    rx_finished_.insert(std::upper_bound(rx_finished_.begin(),
                                         rx_finished_.end(), stream_id),
                        stream_id);
    return;
  }
  // Move past this stream and those of its type that finished before it.
  below += 4;
  for (auto at = std::lower_bound(rx_finished_.begin(), rx_finished_.end(),
                                  below);
       at != rx_finished_.end() && *at == below;
       at = std::lower_bound(rx_finished_.begin(), rx_finished_.end(),
                             below)) {
    rx_finished_.erase(at);
    below += 4;
  }
}

void QuicConnection::schedule_ack() {
  if (ack_scheduled_) return;
  ack_scheduled_ = true;
  // Flush at the end of the current instant so several packets arriving
  // together share one ACK.
  loop_.schedule_in(0, [this]() { flush_acks(); });
}

void QuicConnection::flush_acks() {
  ack_scheduled_ = false;
  if (ack_pending_.empty() || closed_) return;
  send_packet(AckFrame{ack_pending_}, /*long_header=*/!established_);
  ack_pending_.clear();
}

simnet::TimeUs QuicConnection::current_pto() const noexcept {
  if (srtt_us_ == 0.0) return config_.pto_initial;
  // RFC 9002 §6.2.1: PTO = smoothed RTT + max(4*rttvar, granularity)
  // + max_ack_delay (we flush ACKs immediately, so a small grace term).
  const double pto = srtt_us_ + std::max(4.0 * rttvar_us_, 1000.0) + 1000.0;
  return std::max<simnet::TimeUs>(static_cast<simnet::TimeUs>(pto),
                                  simnet::ms(10));
}

void QuicConnection::arm_pto() {
  if (pto_timer_.valid) return;
  const simnet::TimeUs timeout =
      std::min(current_pto() << pto_backoff_, config_.pto_max);
  pto_timer_ = loop_.schedule_in(timeout, [this]() {
    pto_timer_ = simnet::EventId{};
    on_pto();
  });
}

void QuicConnection::on_pto() {
  if (closed_ || unacked_.empty()) return;
  if (pto_backoff_ >= 8) {
    // Idle/handshake timeout: the peer has not acknowledged anything for
    // many probe periods; give the connection up rather than probing
    // forever (RFC 9000's idle timeout).
    close(/*error_code=*/1);
    return;
  }
  ++pto_backoff_;
  // Retransmit the ack-eliciting frame of every unacked packet, oldest
  // first, in fresh packets (QUIC never retransmits packets, only frames).
  std::vector<SentPacket> lost;
  lost.swap(unacked_);
  for (SentPacket& sent : lost) {
    ++counters_.retransmits;
    send_packet(std::move(sent.frame), sent.long_header);
  }
}

void QuicConnection::probe_path() {
  if (closed_) return;
  outstanding_path_token_ = ++next_path_token_;
  send_packet(PathChallengeFrame{outstanding_path_token_},
              /*long_header=*/false);
}

std::optional<std::span<const std::uint8_t>> StreamJoiner::add(
    std::uint64_t stream_id, std::span<const std::uint8_t> data, bool fin) {
  const auto it = partial_.find(stream_id);
  if (!fin) {
    Bytes& pieces = it != partial_.end() ? it->second : partial_[stream_id];
    pieces.insert(pieces.end(), data.begin(), data.end());
    return std::nullopt;
  }
  if (it == partial_.end()) return data;
  joined_ = std::move(it->second);
  partial_.erase(it);
  joined_.insert(joined_.end(), data.begin(), data.end());
  return std::span<const std::uint8_t>(joined_);
}

void QuicConnection::close(std::uint64_t error_code) {
  if (closed_) return;
  send_packet(ConnectionCloseFrame{error_code}, /*long_header=*/false);
  closed_ = true;
  loop_.cancel(pto_timer_);
  pto_timer_ = simnet::EventId{};
  // Symmetric notification: locally-initiated closes also fire on_closed_
  // so owners can drop per-connection state before the object goes away.
  if (const auto on_closed = on_closed_) on_closed();
}

}  // namespace dohperf::quicsim
