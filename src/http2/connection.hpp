// The HTTP/2 connection: preface and SETTINGS exchange, stream multiplexing
// (the property that lets DoH/h2 dodge head-of-line blocking in Fig 2),
// HPACK header blocks, flow control with WINDOW_UPDATE, PING and GOAWAY.
//
// One class serves both roles; clients use request(), servers install a
// request handler whose responses may complete in any order — HTTP/2
// streams are independent, so a delayed response never blocks others.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "http2/frame.hpp"
#include "http2/hpack.hpp"
#include "simnet/fifo.hpp"
#include "simnet/stream.hpp"

namespace dohperf::http2 {

/// Byte accounting matching the paper's Fig 5 convention:
///  * header_bytes — HEADERS/CONTINUATION frames in full (9-byte frame
///    header + HPACK block)
///  * body_bytes   — DATA frame payloads (the DNS message itself)
///  * mgmt_bytes   — everything needed to run the connection: the client
///    preface, SETTINGS, WINDOW_UPDATE, PING, GOAWAY, RST_STREAM frames in
///    full, plus the 9-byte frame headers of DATA frames
struct H2Counters {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t header_bytes_sent = 0;
  std::uint64_t header_bytes_received = 0;
  std::uint64_t body_bytes_sent = 0;
  std::uint64_t body_bytes_received = 0;
  std::uint64_t mgmt_bytes_sent = 0;
  std::uint64_t mgmt_bytes_received = 0;
};

struct H2Message {
  std::vector<HeaderField> headers;
  Bytes body;
};

struct Http2Config {
  std::size_t header_table_size = 4096;
  std::uint32_t max_concurrent_streams = 100;
  std::uint32_t initial_window_size = 65535;
  std::size_t max_frame_size = kDefaultMaxFrameSize;
  bool enable_hpack_dynamic_table = true;  ///< off for the fig5 ablation
};

/// Client-side stream lifecycle notifications, used by observability
/// instrumentation to draw request/response spans with stream-id
/// attributes. Events for one stream always arrive in this order.
enum class StreamEvent {
  kRequestSent,    ///< HEADERS (+DATA) for the request left this endpoint
  kResponseBegan,  ///< first frame of the response arrived
  kStreamClosed,   ///< response complete; the handler is about to run
};

class Http2Connection {
 public:
  using ResponseHandler = std::function<void(const H2Message&)>;
  using StreamObserver = std::function<void(std::uint32_t, StreamEvent)>;
  /// Server side: respond may be called immediately or later; streams are
  /// independent so late responses do not block other streams. The
  /// handler gets the request by value: its fields and body move in.
  using Responder = std::function<void(H2Message)>;
  using RequestHandler = std::function<void(H2Message, Responder)>;
  using ErrorHandler = std::function<void()>;

  enum class Role { kClient, kServer };

  Http2Connection(std::unique_ptr<simnet::ByteStream> transport, Role role,
                  Http2Config config = {});

  Http2Connection(const Http2Connection&) = delete;
  Http2Connection& operator=(const Http2Connection&) = delete;

  /// Client: open a new stream carrying one request.
  void request(H2Message message, ResponseHandler on_response);

  /// Server: install the application handler (must be set before data).
  void set_request_handler(RequestHandler handler) {
    request_handler_ = std::move(handler);
  }

  void set_error_handler(ErrorHandler handler) {
    on_error_ = std::move(handler);
  }

  /// Client role only; pass a null observer to detach (zero cost when
  /// unset). Queued requests report kRequestSent when they actually go out,
  /// in request() call order.
  void set_stream_observer(StreamObserver observer) {
    stream_observer_ = std::move(observer);
  }

  /// Send a PING (measures connection liveness/RTT); handler fires on ACK.
  void ping(std::function<void()> on_ack);

  /// Graceful shutdown: GOAWAY then transport close.
  void close(H2Error error = H2Error::kNoError);

  bool is_open() const { return !goaway_sent_ && transport_->is_open(); }
  /// The peer announced shutdown; a client should not reuse the connection.
  bool goaway_received() const noexcept { return goaway_received_; }
  const H2Counters& counters() const noexcept { return counters_; }
  /// HPACK dynamic-table hit counters of the send direction.
  const HpackEncoderStats& encoder_stats() const noexcept {
    return encoder_.stats();
  }
  simnet::ByteStream& transport() noexcept { return *transport_; }
  std::size_t open_streams() const noexcept { return streams_.size(); }

 private:
  struct Stream {
    std::vector<HeaderField> headers;   ///< decoded once END_HEADERS arrives
    /// Fragments awaiting END_HEADERS; a block in one frame skips it.
    Bytes header_block;
    Bytes body;
    bool remote_end = false;            ///< peer sent END_STREAM
    bool local_end = false;             ///< we sent END_STREAM
    bool headers_done = false;
    ResponseHandler on_response;        ///< client side
    std::int64_t send_window = 65535;
    /// Flow-control blocked DATA: slices of the response body awaiting
    /// window, referenced (not copied) until they can go out.
    std::vector<BufferSlice> pending_body;
    bool response_began = false;        ///< kResponseBegan already reported
  };

  void on_transport_open();
  void on_transport_data(std::span<const std::uint8_t> data);
  void on_transport_close();

  /// Batch frames into one transport write while corked (so a HEADERS +
  /// DATA pair shares one TLS record, like real stacks).
  void cork();
  void uncork();

  void send_preface_and_settings();
  /// Send one frame whose payload is `copied` then `shared`. The 9-byte
  /// header and `copied` (a control payload or header block) are written
  /// together into the send slab; `shared` (a DATA payload) follows as a
  /// slice of its own, uncopied.
  void send_frame(FrameType type, std::uint8_t flags, std::uint32_t stream_id,
                  std::span<const std::uint8_t> copied,
                  BufferSlice shared = {});
  void send_settings(bool ack);
  void send_window_update(std::uint32_t stream_id, std::uint32_t increment);
  void send_headers(std::uint32_t stream_id,
                    const std::vector<HeaderField>& headers, bool end_stream);
  void send_data(std::uint32_t stream_id, BufferSlice body, bool end_stream);
  /// A message body as a slice: copied into the send slab when a block
  /// of it would hold it, so it costs no allocation of its own; a larger
  /// body travels uncopied.
  BufferSlice body_slice(Bytes body);
  void try_flush_blocked();

  void handle_frame(const Frame& frame);
  void handle_headers(const Frame& frame);
  void handle_data(const Frame& frame);
  void handle_settings(const Frame& frame);
  void handle_window_update(const Frame& frame);
  void handle_ping(const Frame& frame);
  void stream_complete(std::uint32_t stream_id);
  void protocol_error();

  std::unique_ptr<simnet::ByteStream> transport_;
  Role role_;
  Http2Config config_;
  HpackEncoder encoder_;
  HpackDecoder decoder_;
  FrameReader reader_;
  H2Counters counters_;
  RequestHandler request_handler_;
  ErrorHandler on_error_;
  StreamObserver stream_observer_;

  bool transport_open_ = false;
  bool preface_done_ = false;   ///< server: client preface consumed
  bool settings_sent_ = false;
  bool goaway_sent_ = false;
  bool goaway_received_ = false;

  std::uint32_t next_stream_id_;  ///< client: 1, 3, 5, ...
  std::map<std::uint32_t, Stream> streams_;
  simnet::Fifo<std::pair<H2Message, ResponseHandler>> queued_requests_;
  simnet::Fifo<std::function<void()>> ping_handlers_;
  simnet::Fifo<std::function<void()>> pending_pings_;  ///< sent once open

  std::int64_t connection_send_window_ = 65535;
  std::uint32_t peer_initial_window_ = 65535;

  /// Receive-side flow control: consumed bytes are granted back in bulk
  /// once half the window has been used (nghttp2-style batching), not per
  /// frame — per-frame WINDOW_UPDATEs would inflate the Mgmt bytes far
  /// beyond what the paper measured.
  std::uint64_t conn_consumed_ = 0;
  std::map<std::uint32_t, std::uint64_t> stream_consumed_;

  bool corked_ = false;
  /// Frames batched while corked, flushed as ONE logical transport write
  /// (so a HEADERS + DATA pair shares one TLS record, like real stacks);
  /// payload slices are referenced, never concatenated.
  std::vector<BufferSlice> cork_chain_;
  /// Frame headers, control payloads and header blocks, written into
  /// shared blocks instead of a buffer each.
  simnet::ByteSlab slab_;
};

}  // namespace dohperf::http2
