// The TLS connection state machine (client and server roles), layered over
// any ByteStream and exposing a ByteStream itself.
//
// Supported flows:
//   * TLS 1.3 full (1-RTT) and PSK resumption
//   * TLS 1.2 full (2-RTT) and ticket resumption
//   * version negotiation with alert on failure (used by the survey's
//     TLS-version walk, Table 2)
//   * ALPN selection (h2 vs http/1.1)
//   * session ticket issuance and client caching
#pragma once

#include <memory>
#include <set>

#include "simnet/fifo.hpp"
#include "simnet/stream.hpp"
#include "tlssim/context.hpp"
#include "tlssim/handshake.hpp"
#include "tlssim/types.hpp"

namespace dohperf::tlssim {

using simnet::BufferSlice;
using simnet::ByteStream;

struct ClientConfig {
  TlsVersion min_version = TlsVersion::kTls12;
  TlsVersion max_version = TlsVersion::kTls13;
  std::string sni;
  std::vector<std::string> alpn;         ///< e.g. {"h2", "http/1.1"}
  SessionCache* session_cache = nullptr; ///< enables resumption when set
};

struct ServerConfig {
  std::set<TlsVersion> versions = {TlsVersion::kTls12, TlsVersion::kTls13};
  std::vector<std::string> alpn_preference = {"h2", "http/1.1"};
  CertificateChain chain = CertificateChain::generic("example.net");
  bool issue_session_tickets = true;
  /// Session-ticket key generation. A restarted server process loses its
  /// ticket keys; bumping the epoch makes every previously issued ticket
  /// unresumable, so clients fall back to a full handshake.
  std::uint64_t ticket_epoch = 0;
};

enum class TlsRole { kClient, kServer };

class TlsConnection final : public ByteStream {
 public:
  /// Client: starts the handshake as soon as the transport opens.
  TlsConnection(std::unique_ptr<ByteStream> transport, ClientConfig config);

  /// Server: `config` must outlive the connection (shared across accepts).
  TlsConnection(std::unique_ptr<ByteStream> transport,
                const ServerConfig* config);

  // ByteStream interface. on_open fires when the handshake completes;
  // send() before that queues plaintext.
  void set_handlers(Handlers handlers) override;
  void send(BufferSlice data) override;
  void send_chain(std::span<const BufferSlice> chain) override;
  void close() override;  ///< close_notify then transport close
  bool is_open() const override;

  // Introspection (valid once established, or after failure).
  bool established() const noexcept { return established_; }
  bool failed() const noexcept { return failed_; }
  bool closed() const noexcept { return closed_; }
  std::optional<AlertDescription> failure_alert() const noexcept {
    return failure_alert_;
  }
  TlsVersion version() const noexcept { return version_; }
  const std::string& alpn() const noexcept { return alpn_; }
  bool resumed() const noexcept { return resumed_; }
  /// Client side: the certificate the server presented (full handshake only).
  const std::optional<CertificateMsg>& peer_certificate() const noexcept {
    return peer_certificate_;
  }

  const TlsCounters& counters() const noexcept { return counters_; }

  /// Fires when the underlying transport opens — the instant the TCP
  /// handshake finished and the first TLS flight departs. Observability
  /// instrumentation uses it to split connection setup into a
  /// tcp_handshake and a tls_handshake span.
  void set_transport_open_hook(std::function<void()> hook) {
    transport_open_hook_ = std::move(hook);
  }

  /// Fires the instant the handshake completes, before the on_open handler.
  /// Unlike Handlers (which an HTTP layer takes over), this hook stays with
  /// whoever installed it — observability uses it to close the
  /// tls_handshake span.
  void set_established_hook(std::function<void()> hook) {
    established_hook_ = std::move(hook);
  }

  /// The underlying transport (e.g. to reach TCP counters).
  ByteStream& transport() noexcept { return *transport_; }

 private:
  void on_transport_open();
  void on_transport_data(const BufferSlice& data);
  void on_transport_close();

  void send_client_hello();
  void handle_client_hello(const ClientHelloOffer& ch);
  void handle_server_hello(const ServerHelloView& sh);
  void handle_handshake_message(const HandshakeView& msg);
  /// Handle every record that `data` completes: the one gathering in rx_
  /// first, then those wholly inside `data` as windows of it; a record
  /// that runs past its end starts gathering.
  void receive(const BufferSlice& data);
  /// Append the front of `bytes` to the record gathering in rx_, up to its
  /// end; returns how many bytes were taken.
  std::size_t gather(std::span<const std::uint8_t> bytes);
  /// Count one whole record (header included) and handle its plaintext.
  void process_record(const BufferSlice& record);
  void handle_record(ContentType type, const BufferSlice& body);

  /// Count a record of `body_len` plaintext bytes about to be sent and
  /// return its AEAD expansion (nonzero once the send direction is
  /// encrypted).
  std::size_t count_sent_record(ContentType type, std::size_t body_len);
  /// Wrap and transmit one record of `body_len` plaintext bytes, which
  /// `fill(std::uint8_t* out)` writes (handshake, alert and CCS records):
  /// header, body and tag are written into the send slab together.
  template <typename Fill>
  void send_record(ContentType type, std::size_t body_len, Fill&& fill);
  void send_record(ContentType type, std::span<const std::uint8_t> body);
  /// Transmit one handshake record of `size` bytes of messages, which
  /// `write(HandshakeCursor&)` encodes.
  template <typename Write>
  void send_handshake(std::size_t size, Write&& write);
  /// Transmit one handshake record holding one field-free message.
  void send_plain(HsType type, std::size_t body_size);
  /// Transmit one application-data record from its pieces: slot 0 for the
  /// header, then the plaintext slices (`body_len` bytes in all), then a
  /// slot for the tag. Both slots are filled in here; the slices are
  /// referenced, not copied, and go to the transport as one write.
  void send_app_record(std::span<BufferSlice> record, std::size_t body_len);
  void send_alert(AlertDescription desc, bool fatal);
  void send_change_cipher_spec();
  void finish_handshake();
  void fail(AlertDescription desc);
  /// Close the transport once nothing more will be sent.
  void close_transport();
  void flush_pending_app_data();
  std::size_t send_tag_bytes() const noexcept;
  std::size_t recv_tag_bytes() const noexcept;
  /// The server's certificate chain as the Certificate message carries it.
  CertificateView certificate() const noexcept;

  std::unique_ptr<ByteStream> transport_;
  TlsRole role_;
  /// Next to role_ so it fills that field's padding: DohServer's
  /// memory estimate counts sizeof(TlsConnection) (asserted there).
  TlsVersion version_ = TlsVersion::kTls13;
  ClientConfig client_config_;
  const ServerConfig* server_config_ = nullptr;
  Handlers handlers_;
  TlsCounters counters_;
  std::function<void()> transport_open_hook_;
  std::function<void()> established_hook_;

  /// A record that arrived split across transport slices, gathered in one
  /// block sized from its header. The block is reused while no slice of an
  /// earlier record shares it, and let go of when the connection closes.
  simnet::ByteQueue rx_;
  simnet::Fifo<BufferSlice> pending_app_data_;
  /// Record headers and whole handshake/alert/CCS records are written here
  /// and sent as slices of it.
  simnet::ByteSlab send_slab_;

  std::string alpn_;
  bool resumed_ = false;
  bool established_ = false;
  bool failed_ = false;
  bool closed_ = false;
  std::optional<AlertDescription> failure_alert_;
  std::optional<CertificateMsg> peer_certificate_;

  /// Cipher state per direction: once true, records gain AEAD expansion.
  bool send_encrypted_ = false;
  bool recv_encrypted_ = false;

  // Handshake progress flags.
  bool sent_finished_ = false;
  bool received_finished_ = false;
  bool received_server_hello_done_ = false;
  /// True while a transport slice is being taken apart into records: no
  /// handler may feed this connection more bytes, which would land in rx_
  /// ahead of the rest of that slice.
  bool in_rx_ = false;
};

}  // namespace dohperf::tlssim
