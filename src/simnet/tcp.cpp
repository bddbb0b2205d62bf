#include "simnet/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "simnet/host.hpp"

namespace dohperf::simnet {

namespace {

// 32-bit sequence space comparisons (RFC 793 modular arithmetic).
bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) <= 0;
}
bool seq_gt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) > 0;
}

/// SYN/SYN-ACK carry MSS + SACK-permitted + timestamps + window scale
/// (+padding) = 20 option bytes, matching a typical Linux handshake.
constexpr std::uint8_t kSynOptions = 20;
/// Established segments carry the timestamp option (10 bytes + 2 padding).
constexpr std::uint8_t kTimestampOptions = 12;

}  // namespace

const char* to_string(TcpState s) noexcept {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
  }
  return "?";
}

TcpConnection::TcpConnection(Host& host, std::uint16_t local_port,
                             Address remote, TcpConfig config, bool is_server)
    : host_(host), loop_(host.loop()), local_port_(local_port),
      remote_(remote), config_(config), rto_(config.rto_initial) {
  (void)is_server;
  cwnd_ = config_.initial_cwnd_segments * config_.mss;
  ssthresh_ = 64 * 1024;
}

TcpConnection::~TcpConnection() { disarm_timers(); }

Address TcpConnection::local() const noexcept {
  return Address{host_.id(), local_port_};
}

std::size_t TcpConnection::flight_size() const noexcept {
  return snd_nxt_ - snd_una_;
}

void TcpConnection::start_connect() {
  assert(state_ == TcpState::kClosed);
  state_ = TcpState::kSynSent;
  syn_time_ = loop_.now();
  iss_ = 1;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  send_segment(/*syn=*/true, /*fin=*/false, /*force_ack=*/false, {}, iss_);
  arm_rto();
}

void TcpConnection::handle_syn(const TcpSegment& seg) {
  assert(state_ == TcpState::kClosed);
  // This segment arrived before the connection object existed, so it is
  // counted here rather than in on_segment().
  ++counters_.packets_received;
  counters_.wire_bytes_received += seg.wire_size();
  counters_.header_bytes_received += seg.header_size();
  state_ = TcpState::kSynReceived;
  irs_ = seg.seq;
  rcv_nxt_ = seg.seq + 1;
  snd_wnd_ = seg.window;
  iss_ = 1;
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  // SYN-ACK.
  send_segment(/*syn=*/true, /*fin=*/false, /*force_ack=*/true, {}, iss_);
  arm_rto();
}

void TcpConnection::send(BufferSlice data) {
  if (state_ == TcpState::kClosed || fin_pending_ || fin_sent_) {
    throw std::logic_error("send on closed/closing TCP connection");
  }
  if (!data.empty()) {
    send_buffer_bytes_ += data.size();
    send_buffer_.push_back(std::move(data));
  }
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send_data();
  }
}

void TcpConnection::send_chain(std::span<const BufferSlice> chain) {
  if (state_ == TcpState::kClosed || fin_pending_ || fin_sent_) {
    throw std::logic_error("send on closed/closing TCP connection");
  }
  // Append the whole chain before pumping: segmentation then sees exactly
  // the byte stream a single contiguous send() would have produced.
  for (const auto& slice : chain) {
    if (slice.empty()) continue;
    send_buffer_bytes_ += slice.size();
    send_buffer_.push_back(slice);
  }
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send_data();
  }
}

void TcpConnection::close() {
  if (fin_pending_ || fin_sent_ || state_ == TcpState::kClosed) return;
  fin_pending_ = true;
  if (state_ == TcpState::kEstablished || state_ == TcpState::kCloseWait) {
    try_send_data();
    maybe_send_fin();
  }
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  const Host::CallScope scope(host_);  // unregistering parks us until here
  TcpSegment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_.port;
  seg.rst = true;
  seg.ack_flag = true;
  seg.seq = snd_nxt_;
  seg.ack = rcv_nxt_;
  ++counters_.packets_sent;
  counters_.wire_bytes_sent += kIpHeaderBytes + kTcpHeaderBytes;
  counters_.header_bytes_sent += kIpHeaderBytes + kTcpHeaderBytes;
  emit(std::move(seg));
  enter_closed();
}

void TcpConnection::emit(TcpSegment seg) {
  if (blackholed_) return;  // dead NAT mapping
  Packet packet;
  packet.src_node = host_.id();
  packet.dst_node = remote_.node;
  packet.body = std::move(seg);
  host_.send_gated(std::move(packet));
}

void TcpConnection::send_segment(bool syn, bool fin, bool force_ack,
                                 BufferSlice payload, std::uint32_t seq) {
  TcpSegment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_.port;
  seg.seq = seq;
  seg.syn = syn;
  seg.fin = fin;
  // Everything after the initial SYN acknowledges received data.
  seg.ack_flag = force_ack || !(syn && state_ == TcpState::kSynSent);
  seg.ack = seg.ack_flag ? rcv_nxt_ : 0;
  seg.window = config_.receive_window;
  seg.options_len = syn ? kSynOptions
                        : (config_.timestamps ? kTimestampOptions : 0);
  seg.payload = std::move(payload);

  ++counters_.packets_sent;
  counters_.wire_bytes_sent += seg.wire_size();
  counters_.header_bytes_sent += seg.header_size();
  counters_.payload_bytes_sent += seg.payload.size();
  if (seg.is_pure_ack()) ++counters_.pure_acks_sent;

  if (seg.ack_flag) {
    // Any ACK-bearing segment satisfies the delayed-ACK obligation.
    segs_since_ack_ = 0;
    loop_.cancel(delayed_ack_timer_);
    delayed_ack_timer_ = EventId{};
  }
  emit(std::move(seg));
}

void TcpConnection::send_ack() {
  send_segment(/*syn=*/false, /*fin=*/false, /*force_ack=*/true, {},
               snd_nxt_);
}

void TcpConnection::try_send_data() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  while (!send_buffer_.empty()) {
    const std::size_t window = std::min<std::size_t>(cwnd_, snd_wnd_);
    const std::size_t in_flight = flight_size();
    if (in_flight >= window) break;
    const std::size_t usable = window - in_flight;
    const std::size_t chunk =
        std::min({config_.mss, send_buffer_bytes_, usable});
    if (chunk == 0) break;
    BufferSlice payload = take_send_bytes(chunk);
    const std::uint32_t seq = snd_nxt_;
    inflight_.push_back({seq, payload, loop_.now(), false});
    snd_nxt_ += static_cast<std::uint32_t>(chunk);
    send_segment(/*syn=*/false, /*fin=*/false, /*force_ack=*/true,
                 std::move(payload), seq);
  }
  if (!inflight_.empty() || fin_sent_) ensure_rto();
  maybe_send_fin();
}

BufferSlice TcpConnection::take_send_bytes(std::size_t chunk) {
  send_buffer_bytes_ -= chunk;
  BufferSlice& front = send_buffer_.front();
  if (front.size() > chunk) {
    // MSS boundary inside one queued slice: zero-copy split.
    BufferSlice out = front.subslice(0, chunk);
    front = front.subslice(chunk);
    return out;
  }
  if (front.size() == chunk) {
    BufferSlice out = std::move(front);
    send_buffer_.pop_front();
    return out;
  }
  // Segment spans queued slices (e.g. a TLS record boundary inside an MSS):
  // coalesce just these bytes so the segment payload stays contiguous.
  return slab_.write(chunk, [this, chunk](std::uint8_t* out) {
    std::size_t needed = chunk;
    while (needed > 0) {
      BufferSlice& head = send_buffer_.front();
      const std::size_t take = std::min(head.size(), needed);
      std::memcpy(out, head.data(), take);
      out += take;
      needed -= take;
      if (take == head.size()) {
        send_buffer_.pop_front();
      } else {
        head = head.subslice(take);
      }
    }
  });
}

void TcpConnection::retransmit_first() {
  Inflight& first = inflight_.front();
  first.retransmitted = true;
  send_segment(false, false, true, first.payload, first.seq);
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_ || !send_buffer_.empty()) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return;
  }
  fin_seq_ = snd_nxt_;
  fin_sent_ = true;
  fin_pending_ = false;
  snd_nxt_ += 1;  // FIN consumes one sequence number
  state_ = state_ == TcpState::kEstablished ? TcpState::kFinWait1
                                            : TcpState::kLastAck;
  send_segment(/*syn=*/false, /*fin=*/true, /*force_ack=*/true, {}, fin_seq_);
  ensure_rto();
}

void TcpConnection::update_rtt(TimeUs measured) {
  // RFC 6298.
  const double m = static_cast<double>(measured);
  if (srtt_ == 0.0) {
    srtt_ = m;
    rttvar_ = m / 2.0;
  } else {
    rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - m);
    srtt_ = 0.875 * srtt_ + 0.125 * m;
  }
  const double rto = srtt_ + std::max(1000.0, 4.0 * rttvar_);
  rto_ = std::clamp(static_cast<TimeUs>(rto), config_.rto_min,
                    config_.rto_max);
  rto_backoff_ = 0;
}

void TcpConnection::process_ack(const TcpSegment& seg) {
  if (!seg.ack_flag) return;
  snd_wnd_ = seg.window;
  const std::uint32_t ack = seg.ack;

  if (seq_gt(ack, snd_nxt_)) return;  // acks data we never sent; ignore

  if (seq_gt(ack, snd_una_)) {
    const std::uint32_t acked_bytes = ack - snd_una_;
    snd_una_ = ack;
    dup_acks_ = 0;
    // RFC 6298 (5.3): an ACK for new data restarts the retransmission
    // timer from the base RTO; the exponential backoff applies only to
    // consecutive expirations with no forward progress.
    rto_backoff_ = 0;
    rto_expirations_ = 0;

    // Retire fully acknowledged segments, a prefix of the contiguous
    // in-flight run; sample RTT from each one never retransmitted.
    while (!inflight_.empty()) {
      const Inflight& seg = inflight_.front();
      const std::uint32_t end =
          seg.seq + static_cast<std::uint32_t>(seg.payload.size());
      if (!seq_le(end, ack)) break;
      if (!seg.retransmitted) update_rtt(loop_.now() - seg.sent_at);
      inflight_.pop_front();
    }

    // After a timeout, retransmission is ack-clocked (go-back-N): each ACK
    // that moves snd_una but leaves the recovery point uncovered triggers
    // the next hole immediately, instead of costing one full RTO per lost
    // segment.
    if (in_rto_recovery_) {
      if (seq_lt(snd_una_, recovery_point_) && !inflight_.empty()) {
        ++counters_.retransmits;
        retransmit_first();
      } else {
        in_rto_recovery_ = false;
      }
    }

    // Congestion control: slow start then additive increase.
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min<std::size_t>(acked_bytes, config_.mss);
    } else {
      cwnd_ += std::max<std::size_t>(1, config_.mss * config_.mss / cwnd_);
    }

    if (inflight_.empty() && (!fin_sent_ || seq_gt(ack, fin_seq_))) {
      disarm_rto();
    } else {
      arm_rto();
    }

    // FIN acknowledged?
    if (fin_sent_ && seq_gt(ack, fin_seq_)) {
      switch (state_) {
        case TcpState::kFinWait1:
          state_ = TcpState::kFinWait2;
          break;
        case TcpState::kClosing:
        case TcpState::kLastAck: {
          enter_closed();
          if (callbacks_.on_closed) callbacks_.on_closed();
          return;
        }
        default:
          break;
      }
    }
  } else if (ack == snd_una_ && !inflight_.empty() && seg.payload.empty() &&
             !seg.syn && !seg.fin) {
    // Duplicate ACK.
    if (++dup_acks_ == 3) {
      // Fast retransmit + simplified fast recovery.
      ssthresh_ = std::max(flight_size() / 2, 2 * config_.mss);
      cwnd_ = ssthresh_;
      ++counters_.retransmits;
      retransmit_first();
      arm_rto();
    }
  }
}

void TcpConnection::process_payload(const TcpSegment& seg) {
  const std::uint32_t seq = seg.seq;
  const auto len = static_cast<std::uint32_t>(seg.payload.size());
  bool advanced = false;

  if (len > 0) {
    if (seq == rcv_nxt_) {
      rcv_nxt_ += len;
      advanced = true;
      if (callbacks_.on_data) callbacks_.on_data(seg.payload);
      // Drain any now-contiguous out-of-order segments. Each leaves the map
      // before it is delivered, so a callback that closes the connection
      // (which clears the map) cannot pull it from under the loop.
      while (!out_of_order_.empty()) {
        const auto it = out_of_order_.begin();
        if (it->first == rcv_nxt_) {
          const BufferSlice payload = std::move(it->second);
          out_of_order_.erase(it);
          rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
          if (callbacks_.on_data) callbacks_.on_data(payload);
        } else if (seq_lt(it->first, rcv_nxt_)) {
          // Entirely duplicate data.
          out_of_order_.erase(it);
        } else {
          break;
        }
      }
    } else if (seq_gt(seq, rcv_nxt_)) {
      out_of_order_.emplace(seq, seg.payload);
      send_ack();  // immediate duplicate ACK signals the gap
      return;
    } else {
      // Old (retransmitted) data; ack immediately so the sender stops.
      send_ack();
      return;
    }
  }

  // FIN processing (only once contiguous with the stream).
  if (seg.fin && seq + len == rcv_nxt_ && !fin_received_) {
    fin_received_ = true;
    rcv_nxt_ += 1;
    advanced = true;
    switch (state_) {
      case TcpState::kEstablished:
        state_ = TcpState::kCloseWait;
        break;
      case TcpState::kFinWait1:
        // Our FIN is unacked: simultaneous close.
        state_ = TcpState::kClosing;
        break;
      case TcpState::kFinWait2: {
        send_ack();
        if (callbacks_.on_remote_closed) callbacks_.on_remote_closed();
        enter_closed();
        if (callbacks_.on_closed) callbacks_.on_closed();
        return;
      }
      default:
        break;
    }
    send_ack();
    if (callbacks_.on_remote_closed) callbacks_.on_remote_closed();
    return;
  }

  if (!advanced) return;

  // ACK policy for in-order data.
  ++segs_since_ack_;
  if (!config_.delayed_ack || segs_since_ack_ >= 2) {
    send_ack();
  } else {
    schedule_delayed_ack();
  }
}

void TcpConnection::schedule_delayed_ack() {
  if (delayed_ack_timer_.valid) return;
  // `this` is safe: ~TcpConnection cancels the timer.
  delayed_ack_timer_ =
      loop_.schedule_in(config_.delayed_ack_timeout, [this]() {
        delayed_ack_timer_ = EventId{};
        if (segs_since_ack_ > 0) send_ack();
      });
}

void TcpConnection::ensure_rto() {
  // RFC 6298 (5.1): when data is sent and the timer is not already running,
  // start it -- but never restart a running timer. Restarting on every send
  // would let a steady stream of new writes (e.g. application-level retries
  // during an outage) postpone the retransmission deadline indefinitely.
  if (!rto_timer_) arm_rto();
}

void TcpConnection::arm_rto() {
  disarm_rto();
  if (state_ == TcpState::kClosed) return;
  const TimeUs timeout = rto_ << rto_backoff_;
  // `this` is safe: ~TcpConnection cancels the timer.
  rto_timer_ = loop_.schedule_in(std::min(timeout, config_.rto_max), [this]() {
    const Host::CallScope scope(host_);  // giving up unregisters us
    rto_timer_ = EventId{};
    on_rto();
  });
}

void TcpConnection::disarm_rto() {
  loop_.cancel(rto_timer_);
  rto_timer_ = EventId{};
}

void TcpConnection::disarm_timers() noexcept {
  if (rto_timer_) disarm_rto();
  if (delayed_ack_timer_) {
    loop_.cancel(delayed_ack_timer_);
    delayed_ack_timer_ = EventId{};
  }
}

void TcpConnection::on_rto() {
  if (state_ == TcpState::kClosed) return;
  if (++rto_expirations_ > config_.max_retransmits) {
    // Too many consecutive timeouts with no forward progress: the path is
    // gone (or the peer re-addressed and our 5-tuple is black-holed). Give
    // up like Linux after tcp_retries2 — error the connection locally; no
    // RST is sent because nothing we transmit is getting through anyway.
    enter_closed();
    if (callbacks_.on_reset) callbacks_.on_reset();
    return;
  }
  ++counters_.retransmits;
  rto_backoff_ = std::min(rto_backoff_ + 1, 10);
  // Loss response: collapse the congestion window.
  ssthresh_ = std::max(flight_size() / 2, 2 * config_.mss);
  cwnd_ = config_.mss;
  dup_acks_ = 0;
  if (!inflight_.empty()) {
    in_rto_recovery_ = true;
    recovery_point_ = snd_nxt_;
  }

  if (state_ == TcpState::kSynSent) {
    send_segment(true, false, false, {}, iss_);
  } else if (state_ == TcpState::kSynReceived) {
    send_segment(true, false, true, {}, iss_);
  } else if (!inflight_.empty()) {
    retransmit_first();
  } else if (fin_sent_ && seq_le(snd_una_, fin_seq_)) {
    send_segment(false, true, true, {}, fin_seq_);
  }
  arm_rto();
}

void TcpConnection::on_segment(const TcpSegment& seg) {
  // The host calls in under a CallScope: if a callback drops the last
  // application reference, or we unregister, we stay alive until it ends.
  ++counters_.packets_received;
  counters_.wire_bytes_received += seg.wire_size();
  counters_.header_bytes_received += seg.header_size();
  counters_.payload_bytes_received += seg.payload.size();

  if (seg.rst) {
    enter_closed();
    if (callbacks_.on_reset) callbacks_.on_reset();
    return;
  }

  switch (state_) {
    case TcpState::kSynSent: {
      if (seg.syn && seg.ack_flag && seg.ack == snd_nxt_) {
        irs_ = seg.seq;
        rcv_nxt_ = seg.seq + 1;
        snd_una_ = seg.ack;
        snd_wnd_ = seg.window;
        state_ = TcpState::kEstablished;
        update_rtt(loop_.now() - syn_time_);  // handshake RTT sample
        disarm_rto();
        send_ack();  // completes the 3-way handshake
        if (callbacks_.on_connected) callbacks_.on_connected();
        try_send_data();
        maybe_send_fin();
      }
      return;
    }
    case TcpState::kSynReceived: {
      if (seg.ack_flag && seg.ack == snd_nxt_) {
        snd_una_ = seg.ack;
        snd_wnd_ = seg.window;
        state_ = TcpState::kEstablished;
        disarm_rto();
        if (accept_handler_) {
          accept_handler_(shared_from_this());
          accept_handler_ = nullptr;
        }
        if (callbacks_.on_connected) callbacks_.on_connected();
        // The handshake ACK may carry data (TCP Fast Open style flows);
        // process it through the normal path.
        if (!seg.payload.empty() || seg.fin) process_payload(seg);
        try_send_data();
      } else if (seg.syn && !seg.ack_flag) {
        // Retransmitted SYN: resend SYN-ACK.
        send_segment(true, false, true, {}, iss_);
      }
      return;
    }
    case TcpState::kClosed:
      return;
    default:
      break;
  }

  process_ack(seg);
  if (state_ == TcpState::kClosed) return;  // ack completed a close
  process_payload(seg);
  if (state_ == TcpState::kClosed) return;
  try_send_data();
}

void TcpConnection::enter_closed() {
  state_ = TcpState::kClosed;
  disarm_timers();
  send_buffer_.clear();
  send_buffer_bytes_ = 0;
  slab_.reset();
  inflight_.clear();
  out_of_order_.clear();
  host_.tcp_unregister(Host::tcp_key(local_port_, remote_.node, remote_.port));
}

}  // namespace dohperf::simnet
