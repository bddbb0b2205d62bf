// TCP over the simulated network: 3-way handshake, MSS segmentation,
// cumulative + delayed ACKs, retransmission (RTO per RFC 6298 + fast
// retransmit), slow start / congestion avoidance, and orderly FIN teardown.
//
// The implementation models everything the paper's byte/packet accounting
// depends on (header sizes, ack policy, handshake/teardown exchanges) while
// keeping the parts irrelevant to the experiments simple (no window scaling
// arithmetic beyond a fixed receive window, no SACK-based recovery).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>

#include "simnet/fifo.hpp"
#include "simnet/network.hpp"
#include "simnet/packet.hpp"

namespace dohperf::simnet {

class Host;

struct TcpConfig {
  std::size_t mss = 1460;
  std::size_t initial_cwnd_segments = 10;  ///< RFC 6928 IW10
  std::uint32_t receive_window = 65535;
  bool timestamps = true;      ///< adds 12 option bytes to non-SYN segments
  bool delayed_ack = true;     ///< ack every 2nd segment or after timeout
  TimeUs delayed_ack_timeout = ms(40);
  TimeUs rto_min = ms(200);
  TimeUs rto_initial = ms(1000);
  TimeUs rto_max = seconds(60);
  /// Consecutive RTO expirations before the connection gives up and errors
  /// out (on_reset), like Linux tcp_retries2. Without a cap a connection
  /// whose 5-tuple is permanently black-holed (e.g. the peer NAT-rebound to
  /// a new address) would retransmit forever and the event loop would never
  /// drain.
  int max_retransmits = 8;
};

struct TcpCounters {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t wire_bytes_sent = 0;       ///< incl. IP + TCP headers
  std::uint64_t wire_bytes_received = 0;
  std::uint64_t header_bytes_sent = 0;     ///< IP + TCP header portion only
  std::uint64_t header_bytes_received = 0;
  std::uint64_t payload_bytes_sent = 0;
  std::uint64_t payload_bytes_received = 0;
  std::uint64_t pure_acks_sent = 0;
  std::uint64_t retransmits = 0;

  /// Total wire bytes both directions — the per-resolution cost in Fig 3.
  std::uint64_t total_wire_bytes() const noexcept {
    return wire_bytes_sent + wire_bytes_received;
  }
  std::uint64_t total_packets() const noexcept {
    return packets_sent + packets_received;
  }
  /// Bytes attributable to the TCP/IP layer itself (Fig 5 "TCP" bar).
  std::uint64_t overhead_bytes() const noexcept {
    return header_bytes_sent + header_bytes_received;
  }
};

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
};

const char* to_string(TcpState s) noexcept;

struct TcpCallbacks {
  std::function<void()> on_connected;
  /// The segment's payload as it arrived: the reader may keep the slice
  /// (or a subslice), which keeps the sender's storage alive.
  std::function<void(const BufferSlice&)> on_data;
  std::function<void()> on_remote_closed;  ///< peer sent FIN
  std::function<void()> on_closed;         ///< both directions closed
  std::function<void()> on_reset;          ///< connection reset
};

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  /// Use Host::tcp_connect / Host::tcp_listen; this is internal.
  TcpConnection(Host& host, std::uint16_t local_port, Address remote,
                TcpConfig config, bool is_server);

  /// Cancels any armed timer: a destroyed connection leaves no event
  /// behind that could call into it.
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  void set_callbacks(TcpCallbacks callbacks) {
    callbacks_ = std::move(callbacks);
  }

  /// Queue stream data for transmission. Valid from SYN_SENT onwards
  /// (data is held until the handshake completes). The slice is referenced,
  /// not copied: segmentation sends subslices of the caller's buffer.
  void send(BufferSlice data);

  /// Queue several slices as one logical write: all slices are appended to
  /// the send buffer before segmentation runs, so the wire segmentation is
  /// identical to sending one contiguous buffer with the same bytes.
  void send_chain(std::span<const BufferSlice> chain);

  /// Half-close: send FIN once all queued data has been transmitted.
  void close();

  /// Abortive close: send RST, drop all state.
  void abort();

  TcpState state() const noexcept { return state_; }
  bool established() const noexcept { return state_ == TcpState::kEstablished; }
  Address local() const noexcept;
  Address remote() const noexcept { return remote_; }

  const TcpCounters& counters() const noexcept { return counters_; }
  const TcpConfig& config() const noexcept { return config_; }

 private:
  friend class Host;

  void start_connect();                 ///< client: send SYN
  void handle_syn(const TcpSegment&);   ///< server: got SYN while LISTEN
  void on_segment(const TcpSegment& seg);

  void send_segment(bool syn, bool fin, bool force_ack, BufferSlice payload,
                    std::uint32_t seq);
  /// Hand a segment to the host unless this flow is black-holed.
  void emit(TcpSegment seg);
  void send_ack();
  void try_send_data();
  /// Detach the next `chunk` bytes of the send buffer as one slice. A chunk
  /// inside a single queued slice is a zero-copy subslice; a chunk spanning
  /// queued slices is coalesced (copied into slab_) so segment payloads
  /// stay contiguous.
  BufferSlice take_send_bytes(std::size_t chunk);
  void maybe_send_fin();
  /// Resend the oldest unacked segment (no byte copy) and mark it so it
  /// gives no RTT sample.
  void retransmit_first();
  void process_ack(const TcpSegment& seg);
  void process_payload(const TcpSegment& seg);
  void schedule_delayed_ack();
  void arm_rto();
  /// Start the retransmission timer only if it is not already running
  /// (RFC 6298 rule 5.1 for newly sent data).
  void ensure_rto();
  void disarm_rto();
  void on_rto();
  /// Cancel both timers (retransmission and delayed ACK).
  void disarm_timers() noexcept;
  void update_rtt(TimeUs measured);
  void enter_closed();
  std::size_t flight_size() const noexcept;

  Host& host_;
  EventLoop& loop_;
  std::uint16_t local_port_;
  Address remote_;
  TcpConfig config_;
  TcpCallbacks callbacks_;
  /// Server side only: invoked once the handshake completes so the listener
  /// can hand the connection to the application.
  std::function<void(std::shared_ptr<TcpConnection>)> accept_handler_;
  TcpState state_ = TcpState::kClosed;
  /// Set by Host::rebind: this flow's NAT mapping died, so its segments
  /// vanish both ways until it unregisters.
  bool blackholed_ = false;
  TcpCounters counters_;

  // --- send side -----------------------------------------------------------
  std::uint32_t iss_ = 0;       ///< initial send sequence
  std::uint32_t snd_una_ = 0;   ///< oldest unacknowledged
  std::uint32_t snd_nxt_ = 0;   ///< next to send
  std::uint32_t snd_wnd_ = 65535;
  Fifo<BufferSlice> send_buffer_;          ///< not yet segmented
  std::size_t send_buffer_bytes_ = 0;      ///< total bytes across slices
  ByteSlab slab_;                          ///< coalesced segment payloads
  /// A sent-but-unacked segment, kept for retransmission and RTT sampling.
  struct Inflight {
    std::uint32_t seq = 0;
    /// Aliases the sender's buffers, so a retransmit is a count bump.
    BufferSlice payload;
    TimeUs sent_at = 0;
    /// Karn's rule: a retransmitted segment gives no RTT sample.
    bool retransmitted = false;
  };
  /// Unacked segments in sequence order: an ACK retires a prefix.
  Fifo<Inflight> inflight_;
  bool fin_pending_ = false;    ///< close() called, FIN not yet sent
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  TimeUs syn_time_ = 0;  ///< when our SYN left, for the handshake RTT sample
  TimeUs rto_;
  EventId rto_timer_;
  int rto_backoff_ = 0;
  /// Consecutive RTO expirations with no forward progress (reset whenever
  /// new data is acked); reaching config_.max_retransmits kills the
  /// connection.
  int rto_expirations_ = 0;
  /// Go-back-N state after a retransmission timeout: while snd_una has not
  /// yet reached the recovery point, every ACK for new data releases the
  /// next retransmission.
  bool in_rto_recovery_ = false;
  std::uint32_t recovery_point_ = 0;

  // --- congestion control ---------------------------------------------------
  std::size_t cwnd_ = 0;
  std::size_t ssthresh_ = 0;
  std::uint32_t dup_acks_ = 0;

  // --- receive side ----------------------------------------------------------
  std::uint32_t irs_ = 0;       ///< initial receive sequence
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, BufferSlice> out_of_order_;
  std::uint32_t segs_since_ack_ = 0;
  EventId delayed_ack_timer_;
  bool fin_received_ = false;
};

/// Passive listener: accepts SYNs on a port and hands out connections.
class TcpListener {
 public:
  using AcceptHandler =
      std::function<void(std::shared_ptr<TcpConnection>)>;

  TcpListener(Host& host, std::uint16_t port, TcpConfig config,
              AcceptHandler on_accept)
      : host_(host), port_(port), config_(config),
        on_accept_(std::move(on_accept)) {}

  std::uint16_t port() const noexcept { return port_; }
  const TcpConfig& config() const noexcept { return config_; }

 private:
  friend class Host;
  Host& host_;
  std::uint16_t port_;
  TcpConfig config_;
  AcceptHandler on_accept_;
};

}  // namespace dohperf::simnet
