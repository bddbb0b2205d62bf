// The QUIC connection: combined transport+crypto handshake in one round
// trip (CRYPTO frames carrying the simulated TLS 1.3 messages), independent
// bidirectional streams, packet-number-based acknowledgements and
// PTO-driven loss recovery.
//
// The transport is injected as a datagram-send function so the same class
// serves the client (own UDP socket) and the server (socket shared across
// connections, demultiplexed by connection id in QuicServer).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "quicsim/packet.hpp"
#include "simnet/event_loop.hpp"
#include "tlssim/connection.hpp"  // ClientConfig/ServerConfig + handshake msgs

namespace dohperf::quicsim {

struct QuicConnectionConfig {
  simnet::TimeUs pto_initial = simnet::ms(200);  ///< probe timeout
  simnet::TimeUs pto_max = simnet::seconds(10);
  /// Server-side (QuicServer): accept connection migration — when a known
  /// connection id arrives from a new address, switch the return path to
  /// it and validate with a PATH_CHALLENGE. Off by default: the legacy
  /// server keeps replying to the address that opened the connection, so a
  /// re-addressed client is stranded until it reconnects.
  bool allow_migration = false;
};

class QuicConnection {
 public:
  using DatagramSender = std::function<void(Bytes)>;
  using StreamDataHandler =
      std::function<void(std::uint64_t stream_id,
                         std::span<const std::uint8_t> data, bool fin)>;

  enum class Role { kClient, kServer };

  /// Client role: starts the handshake immediately.
  QuicConnection(simnet::EventLoop& loop, DatagramSender sender,
                 std::uint64_t connection_id, tlssim::ClientConfig tls,
                 QuicConnectionConfig config = {});

  /// Server role: `tls` must outlive the connection.
  QuicConnection(simnet::EventLoop& loop, DatagramSender sender,
                 std::uint64_t connection_id,
                 const tlssim::ServerConfig* tls,
                 QuicConnectionConfig config = {});

  ~QuicConnection();

  QuicConnection(const QuicConnection&) = delete;
  QuicConnection& operator=(const QuicConnection&) = delete;

  void set_on_established(std::function<void()> cb) {
    on_established_ = std::move(cb);
  }
  void set_on_stream_data(StreamDataHandler cb) {
    on_stream_data_ = std::move(cb);
  }
  void set_on_closed(std::function<void()> cb) { on_closed_ = std::move(cb); }
  /// Fired when a PATH_RESPONSE matches an outstanding challenge we sent —
  /// the new path is validated and the migration is complete on this side.
  void set_on_path_validated(std::function<void()> cb) {
    on_path_validated_ = std::move(cb);
  }

  /// Replace the datagram transport mid-connection (connection migration:
  /// the peer moved; subsequent packets — including PTO retransmits of
  /// everything in flight — go out the new path).
  void set_sender(DatagramSender sender) { sender_ = std::move(sender); }

  /// RFC 9000 §8.2: start path validation — send a PATH_CHALLENGE with a
  /// fresh deterministic token on the current path. Ack-eliciting, so loss
  /// is repaired by the normal PTO machinery.
  void probe_path();

  /// Feed one received UDP payload into the connection.
  void handle_datagram(std::span<const std::uint8_t> payload);

  /// Feed one decoded packet; its frames view the datagram, which must
  /// outlive the call.
  void handle_packet(const Packet& packet);

  /// Open a new bidirectional stream (client: 0, 4, 8, ...; server: 1, 5...).
  std::uint64_t open_stream();

  /// Send stream data (queued until established). `fin` half-closes it;
  /// nothing may be sent on the stream after it. The frames share `data`
  /// until the peer acknowledges them.
  void send_stream(std::uint64_t stream_id, simnet::BufferSlice data,
                   bool fin);

  void close(std::uint64_t error_code = 0);

  bool established() const noexcept { return established_; }
  bool closed() const noexcept { return closed_; }
  std::uint64_t connection_id() const noexcept { return connection_id_; }
  const QuicCounters& counters() const noexcept { return counters_; }
  const std::string& alpn() const noexcept { return alpn_; }

 private:
  /// The receive side of a stream whose FIN has not been delivered yet and
  /// that did not arrive whole in one frame.
  struct RxStream {
    /// Data that arrived ahead of `delivered`, by offset.
    std::map<std::uint64_t, Bytes> early;
    std::uint64_t delivered = 0;
    std::uint64_t fin_offset = std::uint64_t(-1);
  };

  void start_client_handshake();
  /// Send `frame` in a packet of its own, followed by `padding` bytes of
  /// PADDING when nonzero.
  void send_packet(Frame frame, bool long_header, std::uint16_t padding = 0);
  void handle_frame(const Frame& frame);
  void handle_ack(const AckFrame& frame);
  void handle_crypto(const CryptoFrame& frame);
  void process_crypto_buffer();
  void handle_handshake_message(const tlssim::HandshakeMessage& msg);
  void handle_stream(const StreamFrame& frame);
  /// Hand up `data` (the frame at `stream.delivered`, if any) and then the
  /// early data it makes contiguous, up to the FIN.
  void deliver_stream(std::map<std::uint64_t, RxStream>::iterator it,
                      std::span<const std::uint8_t> data);
  bool rx_finished(std::uint64_t stream_id) const noexcept;
  void finish_rx(std::uint64_t stream_id);
  void schedule_ack();
  void flush_acks();
  void arm_pto();
  void on_pto();
  void become_established();
  void flush_pending_streams();

  simnet::EventLoop& loop_;
  DatagramSender sender_;
  std::uint64_t connection_id_;
  Role role_;
  tlssim::ClientConfig client_tls_;
  const tlssim::ServerConfig* server_tls_ = nullptr;
  QuicConnectionConfig config_;
  QuicCounters counters_;

  std::function<void()> on_established_;
  StreamDataHandler on_stream_data_;
  std::function<void()> on_closed_;
  std::function<void()> on_path_validated_;

  bool established_ = false;
  bool closed_ = false;
  bool handshake_done_sent_ = false;
  std::string alpn_;

  std::uint64_t next_packet_number_ = 0;
  std::uint64_t next_stream_id_;
  // Path validation: the token of the newest challenge we sent; any match
  // validates (stale responses to earlier probes are ignored).
  std::uint64_t next_path_token_ = 0;
  std::uint64_t outstanding_path_token_ = 0;

  // Crypto stream reassembly, up to kMaxCryptoBytes.
  Bytes crypto_rx_;
  std::uint64_t crypto_rx_consumed_ = 0;
  std::uint64_t crypto_tx_offset_ = 0;

  // Streams. A stream keeps state only while it is unfinished: its
  // receive side until the FIN is delivered, its send side until the FIN
  // is sent. A finished receive side is remembered compactly, per stream
  // type (the id's low two bits): every id below rx_finished_below_, and
  // the ids above it in rx_finished_ (sorted), so late duplicates of its
  // frames are dropped.
  std::map<std::uint64_t, RxStream> rx_streams_;
  std::array<std::uint64_t, 4> rx_finished_below_{0, 1, 2, 3};
  std::vector<std::uint64_t> rx_finished_;
  struct PendingStreamWrite {
    std::uint64_t stream_id;
    simnet::BufferSlice data;
    bool fin;
  };
  std::vector<PendingStreamWrite> pending_writes_;
  std::map<std::uint64_t, std::uint64_t> tx_offsets_;  ///< unfinished sends

  // Acknowledgement + loss recovery.
  Bytes ack_pending_;  ///< packet numbers to acknowledge, in AckFrame form
  bool ack_scheduled_ = false;
  /// An ack-eliciting packet awaiting its ACK: the one frame that needs
  /// it, retransmitted in a new packet if the PTO fires first.
  struct SentPacket {
    std::uint64_t packet_number = 0;
    simnet::TimeUs sent_at = 0;
    bool long_header = false;
    Frame frame;
  };
  std::vector<SentPacket> unacked_;  ///< in packet-number order
  simnet::EventId pto_timer_;
  int pto_backoff_ = 0;
  // RFC 9002-style RTT estimation driving the probe timeout.
  double srtt_us_ = 0.0;
  double rttvar_us_ = 0.0;
  simnet::TimeUs current_pto() const noexcept;
};

/// Joins each stream's data up to its FIN, for an application that reads
/// one message per stream, as DNS over QUIC does. A stream that arrives in
/// one piece is never copied.
class StreamJoiner {
 public:
  /// Feed one delivery of a connection's stream data. At the FIN, returns
  /// the stream's whole data: `data` itself when nothing came before it,
  /// else the pieces joined into a buffer that lives until the next call.
  /// Before the FIN, returns nothing.
  std::optional<std::span<const std::uint8_t>> add(
      std::uint64_t stream_id, std::span<const std::uint8_t> data, bool fin);

  /// Drop every stream's pieces (for a new connection).
  void clear() noexcept { partial_.clear(); }

 private:
  std::map<std::uint64_t, Bytes> partial_;  ///< streams still short of FIN
  Bytes joined_;
};

}  // namespace dohperf::quicsim
