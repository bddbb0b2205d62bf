#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim_fixture.hpp"
#include "simnet/trace.hpp"
#include "stats/rng.hpp"
#include "tlssim/connection.hpp"

namespace dohperf::tlssim {
namespace {

using dohperf::testing::TwoHostFixture;
using simnet::Bytes;

/// Fixture wiring a TLS echo server and a TLS client over simulated TCP.
class TlsTest : public TwoHostFixture {
 protected:
  ServerConfig server_config;
  std::unique_ptr<TlsConnection> server_tls;
  std::unique_ptr<TlsConnection> client_tls;

  void start_server(std::uint16_t port = 443) {
    server.tcp_listen(port, [this](std::shared_ptr<simnet::TcpConnection> c) {
      server_tls = std::make_unique<TlsConnection>(
          std::make_unique<simnet::TcpByteStream>(std::move(c)),
          &server_config);
      TlsConnection::Handlers h;
      h.on_data = [this](const simnet::BufferSlice& d) {
        server_tls->send(Bytes(d.begin(), d.end()));  // echo
      };
      server_tls->set_handlers(std::move(h));
    });
  }

  TlsConnection& connect(ClientConfig config, std::uint16_t port = 443) {
    client_tls = std::make_unique<TlsConnection>(
        std::make_unique<simnet::TcpByteStream>(
            client.tcp_connect({server.id(), port})),
        std::move(config));
    return *client_tls;
  }
};

TEST_F(TlsTest, Tls13FullHandshake) {
  start_server();
  auto& tls = connect({});
  bool opened = false;
  TlsConnection::Handlers h;
  h.on_open = [&]() { opened = true; };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(opened);
  EXPECT_TRUE(tls.established());
  EXPECT_EQ(tls.version(), TlsVersion::kTls13);
  EXPECT_FALSE(tls.resumed());
  ASSERT_TRUE(tls.peer_certificate().has_value());
  EXPECT_EQ(tls.peer_certificate()->subject, "example.net");
}

TEST_F(TlsTest, EchoAppData) {
  start_server();
  auto& tls = connect({});
  Bytes echoed;
  TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.send(Bytes{1, 2, 3}); };
  h.on_data = [&](const simnet::BufferSlice& d) {
    echoed.assign(d.begin(), d.end());
  };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_EQ(echoed, (Bytes{1, 2, 3}));
}

TEST_F(TlsTest, SendBeforeEstablishedIsQueued) {
  start_server();
  auto& tls = connect({});
  Bytes echoed;
  TlsConnection::Handlers h;
  h.on_data = [&](const simnet::BufferSlice& d) {
    echoed.assign(d.begin(), d.end());
  };
  tls.set_handlers(std::move(h));
  tls.send(Bytes{7, 8, 9});  // handshake has not even started
  loop.run();
  EXPECT_EQ(echoed, (Bytes{7, 8, 9}));
}

TEST_F(TlsTest, Tls12FullHandshakeTwoRtt) {
  server_config.versions = {TlsVersion::kTls12};
  start_server();
  ClientConfig cc;
  cc.min_version = TlsVersion::kTls10;
  cc.max_version = TlsVersion::kTls13;
  auto& tls = connect(std::move(cc));
  simnet::TimeUs established_at = 0;
  TlsConnection::Handlers h;
  h.on_open = [&]() { established_at = loop.now(); };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_EQ(tls.version(), TlsVersion::kTls12);
  // TCP handshake (1 RTT) + TLS 1.2 (2 RTT) = 3 RTT = 30ms with 5ms one-way.
  EXPECT_GE(established_at, simnet::ms(30));
}

TEST_F(TlsTest, Tls13IsOneRttFasterThan12) {
  start_server();
  auto& tls = connect({});
  simnet::TimeUs established_at = 0;
  TlsConnection::Handlers h;
  h.on_open = [&]() { established_at = loop.now(); };
  tls.set_handlers(std::move(h));
  loop.run();
  // TCP (1 RTT) + TLS 1.3 (1 RTT) = 20ms.
  EXPECT_EQ(established_at, simnet::ms(20));
}

TEST_F(TlsTest, VersionNegotiationPicksHighestCommon) {
  server_config.versions = {TlsVersion::kTls10, TlsVersion::kTls11,
                            TlsVersion::kTls12};
  start_server();
  ClientConfig cc;
  cc.min_version = TlsVersion::kTls10;
  cc.max_version = TlsVersion::kTls13;
  auto& tls = connect(std::move(cc));
  tls.set_handlers({});
  loop.run();
  EXPECT_EQ(tls.version(), TlsVersion::kTls12);
}

TEST_F(TlsTest, NoCommonVersionFailsWithAlert) {
  server_config.versions = {TlsVersion::kTls10};
  start_server();
  ClientConfig cc;
  cc.min_version = TlsVersion::kTls12;
  cc.max_version = TlsVersion::kTls13;
  auto& tls = connect(std::move(cc));
  bool closed = false;
  TlsConnection::Handlers h;
  h.on_close = [&]() { closed = true; };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(tls.established());
  ASSERT_TRUE(tls.failure_alert().has_value());
  EXPECT_EQ(*tls.failure_alert(), AlertDescription::kHandshakeFailure);
}

TEST_F(TlsTest, AlpnSelection) {
  server_config.alpn_preference = {"h2", "http/1.1"};
  start_server();
  ClientConfig cc;
  cc.alpn = {"http/1.1", "h2"};
  auto& tls = connect(std::move(cc));
  tls.set_handlers({});
  loop.run();
  EXPECT_EQ(tls.alpn(), "h2");  // server preference wins
}

TEST_F(TlsTest, AlpnMismatchFails) {
  server_config.alpn_preference = {"h2"};
  start_server();
  ClientConfig cc;
  cc.alpn = {"spdy/3"};
  auto& tls = connect(std::move(cc));
  tls.set_handlers({});
  loop.run();
  EXPECT_TRUE(tls.failed());
  EXPECT_EQ(*tls.failure_alert(), AlertDescription::kNoApplicationProtocol);
}

TEST_F(TlsTest, NoAlpnOfferedIsAccepted) {
  start_server();  // DoT-style: no ALPN
  auto& tls = connect({});
  tls.set_handlers({});
  loop.run();
  EXPECT_TRUE(tls.established());
  EXPECT_TRUE(tls.alpn().empty());
}

TEST_F(TlsTest, SessionResumptionSkipsCertificate) {
  server_config.chain = CertificateChain::google();
  start_server();
  SessionCache cache;

  ClientConfig first;
  first.sni = "dns.google.com";
  first.session_cache = &cache;
  auto& tls1 = connect(std::move(first));
  tls1.set_handlers({});
  loop.run();
  EXPECT_TRUE(tls1.established());
  EXPECT_FALSE(tls1.resumed());
  EXPECT_EQ(cache.size(), 1u);
  const auto full_handshake_bytes = tls1.counters().handshake_bytes_received;

  ClientConfig second;
  second.sni = "dns.google.com";
  second.session_cache = &cache;
  auto& tls2 = connect(std::move(second));
  tls2.set_handlers({});
  loop.run();
  EXPECT_TRUE(tls2.established());
  EXPECT_TRUE(tls2.resumed());
  EXPECT_FALSE(tls2.peer_certificate().has_value());
  // No certificate on the wire: handshake is far smaller.
  EXPECT_LT(tls2.counters().handshake_bytes_received,
            full_handshake_bytes - server_config.chain.wire_bytes / 2);
}

TEST_F(TlsTest, CertificateSizeShowsOnWire) {
  // Google's chain (3,101 B) vs Cloudflare's (1,960 B), as measured in §4.
  server_config.chain = CertificateChain::google();
  start_server();
  auto& tls_google = connect({});
  tls_google.set_handlers({});
  loop.run();
  const auto google_bytes = tls_google.counters().handshake_bytes_received;

  server_config.chain = CertificateChain::cloudflare();
  auto& tls_cf = connect({});
  tls_cf.set_handlers({});
  loop.run();
  const auto cf_bytes = tls_cf.counters().handshake_bytes_received;

  EXPECT_EQ(google_bytes - cf_bytes, 3101u - 1960u);
}

TEST_F(TlsTest, RecordOverheadPerSend) {
  start_server();
  auto& tls = connect({});
  int echoes = 0;
  TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.send(Bytes(100, 1)); };
  h.on_data = [&](const simnet::BufferSlice&) {
    if (++echoes < 3) tls.send(Bytes(100, 1));
  };
  tls.set_handlers(std::move(h));
  loop.run();
  const auto& c = tls.counters();
  EXPECT_EQ(c.app_bytes_sent, 300u);
  // TLS 1.3: 5B header + 16B tag + 1B inner type per record.
  EXPECT_EQ(c.record_overhead_sent, 3 * 22u);
  EXPECT_EQ(c.app_bytes_received, 300u);
}

TEST_F(TlsTest, LargePayloadFragmentsIntoRecords) {
  start_server();
  auto& tls = connect({});
  std::size_t received = 0;
  TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.send(Bytes(40000, 5)); };
  h.on_data = [&](const simnet::BufferSlice& d) { received += d.size(); };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_EQ(received, 40000u);
  // 40000 / 16384 -> 3 records each way at least.
  EXPECT_GE(tls.counters().records_sent, 3u);
}

TEST_F(TlsTest, CloseNotifyPropagates) {
  start_server();
  auto& tls = connect({});
  bool closed = false;
  TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.close(); };
  h.on_close = [&]() { closed = true; };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_FALSE(tls.is_open());
  (void)closed;  // our own close() does not re-notify
  EXPECT_FALSE(server_tls->is_open());
}

TEST_F(TlsTest, Tls12ResumptionOneRtt) {
  server_config.versions = {TlsVersion::kTls12};
  start_server();
  SessionCache cache;
  ClientConfig first;
  first.sni = "example.net";
  first.session_cache = &cache;
  first.max_version = TlsVersion::kTls12;
  auto& tls1 = connect(std::move(first));
  tls1.set_handlers({});
  loop.run();
  ASSERT_TRUE(tls1.established());

  ClientConfig second = {};
  second.sni = "example.net";
  second.session_cache = &cache;
  second.max_version = TlsVersion::kTls12;
  // The first connection's trailing timers advanced the clock; measure the
  // second handshake relative to its start.
  const simnet::TimeUs start = loop.now();
  auto& tls2 = connect(std::move(second));
  simnet::TimeUs established_at = 0;
  TlsConnection::Handlers h;
  h.on_open = [&]() { established_at = loop.now(); };
  tls2.set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(tls2.resumed());
  // Abbreviated handshake: TCP (1 RTT) + TLS (1 RTT) = 20 ms, vs 30 ms full.
  EXPECT_LE(established_at - start, simnet::ms(25));
}

// --- Handshake encoders against the two-writer reference -------------------
//
// Before the encoders sized each message from its fields, each wrote its
// fields into a ByteWriter of their own, then a header with a reserve for
// the body into the output, then the body and its padding. That encoding
// is kept here as the reference the bytes must match.

namespace reference {

void write_header(ByteWriter& w, HsType type, std::size_t body_len) {
  if (body_len > 0xffffff) throw WireError("handshake message too large");
  w.reserve(w.size() + 4 + body_len);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>((body_len >> 16) & 0xff));
  w.u16(static_cast<std::uint16_t>(body_len & 0xffff));
}

void pad_body(ByteWriter& w, std::size_t body_start, std::size_t target) {
  const std::size_t written = w.size() - body_start;
  if (written < target) w.zeros(target - written);
}

void write_lv_string(ByteWriter& w, const std::string& s) {
  if (s.size() > 0xffff) throw WireError("string too long");
  w.u16(static_cast<std::uint16_t>(s.size()));
  w.string(s);
}

/// Header, then `body`, padded to at least `target`.
void write_message(ByteWriter& w, HsType type, const ByteWriter& body,
                   std::size_t target) {
  const std::size_t body_len = std::max(body.size(), target);
  write_header(w, type, body_len);
  const std::size_t start = w.size();
  w.bytes(body.data());
  pad_body(w, start, body_len);
}

void encode_client_hello(ByteWriter& w, const ClientHello& ch) {
  ByteWriter body;
  body.u16(static_cast<std::uint16_t>(ch.min_version));
  body.u16(static_cast<std::uint16_t>(ch.max_version));
  write_lv_string(body, ch.sni);
  body.u8(static_cast<std::uint8_t>(ch.alpn.size()));
  for (const auto& proto : ch.alpn) write_lv_string(body, proto);
  body.u16(static_cast<std::uint16_t>(ch.session_ticket.size()));
  body.bytes(ch.session_ticket);
  write_message(w, HsType::kClientHello, body, kClientHelloBody);
}

void encode_server_hello(ByteWriter& w, const ServerHello& sh) {
  ByteWriter body;
  body.u16(static_cast<std::uint16_t>(sh.version));
  write_lv_string(body, sh.alpn);
  body.u8(sh.resumed ? 1 : 0);
  write_message(w, HsType::kServerHello, body,
                sh.version == TlsVersion::kTls13 ? kServerHello13Body
                                                 : kServerHello12Body);
}

void encode_certificate(ByteWriter& w, const CertificateMsg& cert) {
  ByteWriter body;
  write_lv_string(body, cert.subject);
  body.u8(cert.certificate_count);
  body.u8(cert.ct_logged ? 1 : 0);
  body.u8(cert.ocsp_must_staple ? 1 : 0);
  body.u32(cert.chain_bytes);
  write_message(w, HsType::kCertificate, body, cert.chain_bytes);
}

void encode_new_session_ticket(ByteWriter& w, const NewSessionTicketMsg& t) {
  ByteWriter body;
  body.u16(static_cast<std::uint16_t>(t.ticket.size()));
  body.bytes(t.ticket);
  write_message(w, HsType::kNewSessionTicket, body, kNewSessionTicketBody);
}

void encode_plain(ByteWriter& w, HsType type, std::size_t body_size) {
  write_header(w, type, body_size);
  const std::size_t start = w.size();
  pad_body(w, start, body_size);
}

}  // namespace reference

std::string random_text(stats::SplitMix64& rng, std::size_t max_size) {
  std::string out(rng.next() % (max_size + 1), 'x');
  for (char& c : out) c = static_cast<char>('a' + rng.next() % 26);
  return out;
}

Bytes random_bytes(stats::SplitMix64& rng, std::size_t max_size) {
  Bytes out(rng.next() % (max_size + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TlsVersion random_version(stats::SplitMix64& rng) {
  return rng.next() % 2 == 0 ? TlsVersion::kTls12 : TlsVersion::kTls13;
}

/// `encode` must append `expected` to a writer holding other bytes, and
/// write exactly `expected` over `size` bytes at a cursor.
template <typename ByWriter, typename ByCursor>
void expect_same_encoding(const Bytes& expected, std::size_t size,
                          ByWriter by_writer, ByCursor by_cursor) {
  ByteWriter w;
  w.u8(0xee);
  by_writer(w);
  ASSERT_EQ(w.size(), 1 + expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         w.data().begin() + 1));
  ASSERT_EQ(size, expected.size());
  Bytes out(size + 1, 0xa5);
  HandshakeCursor cursor(out.data());
  by_cursor(cursor);
  EXPECT_EQ(cursor.position(), out.data() + size);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()));
  EXPECT_EQ(out.back(), 0xa5) << "wrote past the sized message";
}

TEST(HandshakeEncoders, MatchTheTwoWriterReference) {
  for (const std::uint64_t seed : {1u, 7u, 13u, 41u, 97u}) {
    stats::SplitMix64 rng(seed);
    for (int round = 0; round < 60; ++round) {
      ClientHello ch;
      ch.min_version = random_version(rng);
      ch.max_version = random_version(rng);
      ch.sni = random_text(rng, rng.next() % 4 == 0 ? 600 : 40);
      const std::size_t protocols = rng.next() % 6;
      for (std::size_t i = 0; i < protocols; ++i) {
        ch.alpn.push_back(random_text(rng, rng.next() % 3 == 0 ? 300 : 12));
      }
      ch.session_ticket = random_bytes(rng, rng.next() % 3 == 0 ? 700 : 0);
      ByteWriter client_hello;
      reference::encode_client_hello(client_hello, ch);
      expect_same_encoding(
          client_hello.data(), encoded_size(ch.view()),
          [&](ByteWriter& w) { encode_client_hello(w, ch); },
          [&](HandshakeCursor& w) { encode_client_hello(w, ch.view()); });

      ServerHello sh;
      sh.version = random_version(rng);
      sh.alpn = random_text(rng, rng.next() % 3 == 0 ? 300 : 12);
      sh.resumed = rng.next() % 2 == 0;
      ByteWriter server_hello;
      reference::encode_server_hello(server_hello, sh);
      expect_same_encoding(
          server_hello.data(), encoded_size(sh),
          [&](ByteWriter& w) { encode_server_hello(w, sh); },
          [&](HandshakeCursor& w) { encode_server_hello(w, sh); });

      CertificateMsg cert;
      cert.subject = random_text(rng, rng.next() % 3 == 0 ? 400 : 30);
      cert.certificate_count = static_cast<std::uint8_t>(rng.next());
      cert.ct_logged = rng.next() % 2 == 0;
      cert.ocsp_must_staple = rng.next() % 2 == 0;
      // Chains shorter than the fields are padded to nothing.
      cert.chain_bytes = static_cast<std::uint32_t>(rng.next() % 5000);
      ByteWriter certificate;
      reference::encode_certificate(certificate, cert);
      expect_same_encoding(
          certificate.data(), encoded_size(cert.view()),
          [&](ByteWriter& w) { encode_certificate(w, cert); },
          [&](HandshakeCursor& w) { encode_certificate(w, cert.view()); });

      NewSessionTicketMsg ticket;
      ticket.ticket = random_bytes(rng, rng.next() % 3 == 0 ? 700 : 60);
      ByteWriter new_session_ticket;
      reference::encode_new_session_ticket(new_session_ticket, ticket);
      expect_same_encoding(
          new_session_ticket.data(), encoded_size(ticket.view()),
          [&](ByteWriter& w) { encode_new_session_ticket(w, ticket); },
          [&](HandshakeCursor& w) {
            encode_new_session_ticket(w, ticket.view());
          });

      const HsType type = rng.next() % 2 == 0 ? HsType::kFinished
                                              : HsType::kServerKeyExchange;
      const std::size_t body = rng.next() % 400;
      ByteWriter plain;
      reference::encode_plain(plain, type, body);
      expect_same_encoding(
          plain.data(), plain_size(body),
          [&](ByteWriter& w) { encode_plain(w, type, body); },
          [&](HandshakeCursor& w) { encode_plain(w, type, body); });
    }
  }
}

TEST(HandshakeEncoders, OverlongFieldsThrowBeforeWriting) {
  ClientHello ch;
  ch.sni = std::string(0x10000, 'a');
  ByteWriter reference_out;
  EXPECT_THROW(reference::encode_client_hello(reference_out, ch), WireError);
  EXPECT_THROW((void)encoded_size(ch.view()), WireError);
  ByteWriter w;
  EXPECT_THROW(encode_client_hello(w, ch), WireError);
  EXPECT_EQ(w.size(), 0u);
  ch.sni = "ok";
  ch.alpn = {std::string(0x10000, 'h')};
  EXPECT_THROW((void)encoded_size(ch.view()), WireError);
  EXPECT_THROW((void)plain_size(std::size_t{1} << 24), WireError);
}

// --- Whole flights against the reference -------------------------------------

/// Two in-memory ByteStream ends: what one end sends, the other receives
/// when the pipe is pumped. Every byte each end sends is recorded.
class Pipe {
 public:
  class End final : public simnet::ByteStream {
   public:
    End(Pipe& pipe, int side) : pipe_(pipe), side_(side) {}
    void set_handlers(Handlers handlers) override {
      handlers_ = std::move(handlers);
    }
    void send(simnet::BufferSlice data) override {
      Bytes& sent = pipe_.sent[side_];
      sent.insert(sent.end(), data.begin(), data.end());
      pipe_.queue_.emplace_back(1 - side_, data.to_bytes());
    }
    void close() override { open_ = false; }
    bool is_open() const override { return open_; }

   private:
    friend class Pipe;
    Pipe& pipe_;
    int side_;
    Handlers handlers_;
    bool open_ = true;
  };

  std::unique_ptr<simnet::ByteStream> end(int side) {
    auto e = std::make_unique<End>(*this, side);
    ends_[side] = e.get();
    return e;
  }

  /// Open both ends, then deliver until nothing is left to deliver.
  void run() {
    for (End* e : ends_) {
      if (e->handlers_.on_open) e->handlers_.on_open();
    }
    deliver();
  }

  /// Deliver until nothing is left to deliver.
  void deliver() {
    while (!queue_.empty()) {
      auto [side, bytes] = std::move(queue_.front());
      queue_.erase(queue_.begin());
      const auto& on_data = ends_[side]->handlers_.on_data;
      if (on_data) on_data(bytes);
    }
  }

  Bytes sent[2];  ///< everything the client (0) and server (1) sent

 private:
  std::vector<std::pair<int, Bytes>> queue_;
  End* ends_[2] = {nullptr, nullptr};
};

/// One record as a connection frames it: type, version 0x0303, length,
/// the body and `tag` zero bytes.
void append_record(Bytes& out, ContentType type, const Bytes& body,
                   std::size_t tag) {
  const std::size_t length = body.size() + tag;
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0x03);
  out.push_back(0x03);
  out.push_back(static_cast<std::uint8_t>(length >> 8));
  out.push_back(static_cast<std::uint8_t>(length & 0xff));
  out.insert(out.end(), body.begin(), body.end());
  out.insert(out.end(), tag, 0);
}

Bytes plain(HsType type, std::size_t body) {
  ByteWriter w;
  reference::encode_plain(w, type, body);
  return w.take();
}

/// What each side of a handshake sends, built with the reference encoders.
struct Flights {
  Bytes client;
  Bytes server;
};

Flights expected_flights(const ServerConfig& server, const ClientHello& ch,
                         TlsVersion version, bool resumed) {
  const Bytes ccs{1};
  const std::size_t tag =
      version == TlsVersion::kTls13 ? kAeadTagBytes + 1 : kTls12RecordOverhead;
  CertificateMsg cert;
  cert.subject = server.chain.subject;
  cert.chain_bytes = static_cast<std::uint32_t>(server.chain.wire_bytes);
  NewSessionTicketMsg ticket;
  ticket.ticket = dns::to_bytes("TKT|" + server.chain.subject);
  Flights out;
  ByteWriter w;
  reference::encode_client_hello(w, ch);
  append_record(out.client, ContentType::kHandshake, w.take(), 0);
  w = ByteWriter();
  reference::encode_server_hello(w, ServerHello{version, "h2", resumed});
  append_record(out.server, ContentType::kHandshake, w.take(), 0);
  w = ByteWriter();
  if (version == TlsVersion::kTls13) {
    append_record(out.server, ContentType::kChangeCipherSpec, ccs, 0);
    reference::encode_plain(w, HsType::kEncryptedExtensions,
                            kEncryptedExtensionsBody);
    if (!resumed) {
      reference::encode_certificate(w, cert);
      reference::encode_plain(w, HsType::kCertificateVerify,
                              kCertificateVerifyBody);
    }
    reference::encode_plain(w, HsType::kFinished, kFinishedBody);
    append_record(out.server, ContentType::kHandshake, w.take(), tag);
    append_record(out.client, ContentType::kChangeCipherSpec, ccs, 0);
    append_record(out.client, ContentType::kHandshake,
                  plain(HsType::kFinished, kFinishedBody), tag);
  } else if (resumed) {
    append_record(out.server, ContentType::kChangeCipherSpec, ccs, 0);
    append_record(out.server, ContentType::kHandshake,
                  plain(HsType::kFinished, kFinishedBody), tag);
    append_record(out.client, ContentType::kChangeCipherSpec, ccs, 0);
    append_record(out.client, ContentType::kHandshake,
                  plain(HsType::kFinished, kFinishedBody), tag);
  } else {
    reference::encode_certificate(w, cert);
    reference::encode_plain(w, HsType::kServerKeyExchange,
                            kServerKeyExchangeBody);
    reference::encode_plain(w, HsType::kServerHelloDone, kServerHelloDoneBody);
    append_record(out.server, ContentType::kHandshake, w.take(), 0);
    append_record(out.client, ContentType::kHandshake,
                  plain(HsType::kClientKeyExchange, kClientKeyExchangeBody),
                  0);
    append_record(out.client, ContentType::kChangeCipherSpec, ccs, 0);
    append_record(out.client, ContentType::kHandshake,
                  plain(HsType::kFinished, kFinishedBody), tag);
    append_record(out.server, ContentType::kChangeCipherSpec, ccs, 0);
    append_record(out.server, ContentType::kHandshake,
                  plain(HsType::kFinished, kFinishedBody), tag);
  }
  w = ByteWriter();
  reference::encode_new_session_ticket(w, ticket);
  append_record(out.server, ContentType::kHandshake, w.take(), tag);
  return out;
}

TEST(HandshakeFlights, ByteIdenticalToTheReference) {
  for (const TlsVersion version : {TlsVersion::kTls12, TlsVersion::kTls13}) {
    ServerConfig server_config;
    server_config.versions = {version};
    server_config.chain = CertificateChain::generic(
        "a-subject-longer-than-any-inline-string.example", 3101);
    SessionCache cache;
    for (const bool resumed : {false, true}) {
      ClientHello ch;
      ch.sni = "resolver-with-a-long-server-name.example";
      ch.alpn = {"h2", "http/1.1"};
      if (resumed) {
        ch.session_ticket = dns::to_bytes("TKT|" + server_config.chain.subject);
      }
      Pipe pipe;
      TlsConnection server(pipe.end(1), &server_config);
      ClientConfig client_config;
      client_config.sni = ch.sni;
      client_config.alpn = ch.alpn;
      client_config.session_cache = &cache;
      TlsConnection client(pipe.end(0), std::move(client_config));
      pipe.run();
      ASSERT_TRUE(client.established());
      ASSERT_TRUE(server.established());
      EXPECT_EQ(client.resumed(), resumed);
      EXPECT_EQ(client.version(), version);
      const Flights expected =
          expected_flights(server_config, ch, version, resumed);
      EXPECT_EQ(pipe.sent[0], expected.client)
          << to_string(version) << (resumed ? " resumed" : " full");
      EXPECT_EQ(pipe.sent[1], expected.server)
          << to_string(version) << (resumed ? " resumed" : " full");
      if (!resumed) {
        ASSERT_TRUE(client.peer_certificate().has_value());
        EXPECT_EQ(client.peer_certificate()->subject,
                  server_config.chain.subject);
      }
    }
  }
}

// --- The receive path: records from slices ------------------------------------

/// A transport that swallows what its connection sends and delivers the
/// slices a test feeds it.
class Feed final : public simnet::ByteStream {
 public:
  void set_handlers(Handlers handlers) override {
    handlers_ = std::move(handlers);
  }
  void send(simnet::BufferSlice) override {}
  void close() override { open_ = false; }
  bool is_open() const override { return open_; }

  void open() { handlers_.on_open(); }
  void deliver(const simnet::BufferSlice& data) { handlers_.on_data(data); }

 private:
  Handlers handlers_;
  bool open_ = true;
};

/// What a client made of a server's byte stream.
struct Outcome {
  Bytes app;                   ///< application bytes, in order
  std::size_t app_slices = 0;  ///< on_data calls: one per record
  std::vector<std::uint64_t> counters;
  bool established = false;
  bool failed = false;
  bool closed = false;
  std::optional<AlertDescription> alert;
  TlsVersion version = TlsVersion::kTls13;
  std::string alpn;

  bool operator==(const Outcome&) const = default;
};

ClientConfig replay_client() {
  ClientConfig config;
  config.sni = "origin.example";
  config.alpn = {"http/1.1"};
  return config;
}

/// Everything a server sends over one connection: the handshake flights,
/// application records of assorted sizes (one larger than a record, so it
/// fragments), a ticket and close_notify.
Bytes record_server_stream(TlsVersion version) {
  ServerConfig server_config;
  server_config.versions = {version};
  server_config.alpn_preference = {"http/1.1"};
  server_config.chain = CertificateChain::generic("origin.example");
  Pipe pipe;
  TlsConnection server(pipe.end(1), &server_config);
  TlsConnection client(pipe.end(0), replay_client());
  TlsConnection::Handlers h;
  h.on_open = [&server]() {
    std::uint8_t next = 0;
    for (const std::size_t size : {1, 300, 5000, 20000, 16384, 7}) {
      Bytes data(size);
      for (auto& b : data) b = next++;
      server.send(std::move(data));
    }
  };
  server.set_handlers(std::move(h));
  pipe.run();
  // Closed once the handshake is over: a server that closes inside
  // on_open sends no ticket.
  server.close();
  pipe.deliver();
  EXPECT_TRUE(client.closed());
  return pipe.sent[1];
}

/// Offsets at which each record of `stream` starts.
std::vector<std::size_t> record_starts(const Bytes& stream) {
  std::vector<std::size_t> out;
  for (std::size_t at = 0; at + kRecordHeaderBytes <= stream.size();) {
    out.push_back(at);
    at += kRecordHeaderBytes + ((std::size_t{stream[at + 3]} << 8) |
                                stream[at + 4]);
  }
  return out;
}

/// Feed `stream` to a fresh client as slices of one buffer, cut at the
/// increasing offsets `cuts`.
Outcome replay(const Bytes& stream, const std::vector<std::size_t>& cuts) {
  const auto buffer = std::make_shared<const Bytes>(stream);
  auto transport = std::make_unique<Feed>();
  Feed& feed = *transport;
  TlsConnection client(std::move(transport), replay_client());
  Outcome out;
  TlsConnection::Handlers h;
  h.on_data = [&out](const simnet::BufferSlice& d) {
    out.app.insert(out.app.end(), d.begin(), d.end());
    ++out.app_slices;
  };
  client.set_handlers(std::move(h));
  feed.open();
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    if (cut > from) feed.deliver(simnet::BufferSlice(buffer, from, cut - from));
    from = std::max(from, cut);
  }
  if (from < stream.size()) {
    feed.deliver(simnet::BufferSlice(buffer, from, stream.size() - from));
  }
  const TlsCounters& c = client.counters();
  out.counters = {c.handshake_bytes_sent,   c.handshake_bytes_received,
                  c.record_overhead_sent,   c.record_overhead_received,
                  c.app_bytes_sent,         c.app_bytes_received,
                  c.records_sent,           c.records_received};
  out.established = client.established();
  out.failed = client.failed();
  out.closed = client.closed();
  out.alert = client.failure_alert();
  out.version = client.version();
  out.alpn = client.alpn();
  return out;
}

/// The ways to cut a stream: one byte at a time, at each offset inside
/// every record header, several records to a slice, and seeded sizes.
std::vector<std::pair<std::string, std::vector<std::size_t>>> splits(
    const Bytes& stream) {
  std::vector<std::pair<std::string, std::vector<std::size_t>>> out;
  std::vector<std::size_t> bytes;
  for (std::size_t i = 1; i < stream.size(); ++i) bytes.push_back(i);
  out.emplace_back("one byte", std::move(bytes));
  const auto starts = record_starts(stream);
  for (std::size_t k = 1; k < kRecordHeaderBytes; ++k) {
    std::vector<std::size_t> cuts;
    for (const std::size_t at : starts) cuts.push_back(at + k);
    out.emplace_back("header byte " + std::to_string(k), std::move(cuts));
  }
  std::vector<std::size_t> three;
  for (std::size_t i = 3; i < starts.size(); i += 3) three.push_back(starts[i]);
  out.emplace_back("three records", std::move(three));
  stats::SplitMix64 rng(29);
  std::vector<std::size_t> seeded;
  for (std::size_t at = 1 + rng.next_below(3000); at < stream.size();
       at += 1 + rng.next_below(3000)) {
    seeded.push_back(at);
  }
  out.emplace_back("seeded", std::move(seeded));
  return out;
}

TEST(TlsReceive, EverySplitMatchesOneContiguousSlice) {
  for (const TlsVersion version : {TlsVersion::kTls12, TlsVersion::kTls13}) {
    const Bytes stream = record_server_stream(version);
    // It ends with the ticket, then close_notify.
    const auto starts = record_starts(stream);
    ASSERT_GE(starts.size(), 2u);
    EXPECT_EQ(stream[starts[starts.size() - 2]],
              static_cast<std::uint8_t>(ContentType::kHandshake));
    EXPECT_EQ(stream[starts.back()],
              static_cast<std::uint8_t>(ContentType::kAlert));
    const Outcome whole = replay(stream, {});
    ASSERT_TRUE(whole.established);
    EXPECT_TRUE(whole.closed);
    EXPECT_FALSE(whole.failed);
    EXPECT_EQ(whole.version, version);
    EXPECT_EQ(whole.alpn, "http/1.1");
    EXPECT_EQ(whole.app.size(), 1u + 300 + 5000 + 20000 + 16384 + 7);
    EXPECT_EQ(whole.app_slices, 7u) << "20,000 bytes take two records";
    for (const auto& [name, cuts] : splits(stream)) {
      EXPECT_EQ(replay(stream, cuts), whole)
          << to_string(version) << ", " << name;
    }
  }
}

TEST(TlsReceive, EverySplitOfACorruptStreamFailsAlike) {
  const Bytes stream = record_server_stream(TlsVersion::kTls13);
  const auto starts = record_starts(stream);
  // Corrupt the body of a handshake message (the first message of the
  // encrypted flight claims more bytes than its record holds), and
  // separately the header of the fifth record, after application data.
  Bytes bad_message = stream;
  bad_message[starts[2] + kRecordHeaderBytes + 1] = 0xff;
  Bytes bad_header = stream;
  bad_header[starts[5]] = 0x47;
  for (const Bytes& corrupt : {bad_message, bad_header}) {
    const Outcome whole = replay(corrupt, {});
    EXPECT_TRUE(whole.failed);
    EXPECT_EQ(whole.alert, AlertDescription::kDecodeError);
    for (const auto& [name, cuts] : splits(corrupt)) {
      EXPECT_EQ(replay(corrupt, cuts), whole) << name;
    }
  }
}

TEST(TlsReceive, ARecordInsideTheSliceGoesUpAsAWindowOfIt) {
  const Bytes stream = record_server_stream(TlsVersion::kTls13);
  std::vector<std::size_t> app;
  for (const std::size_t at : record_starts(stream)) {
    if (stream[at] == static_cast<std::uint8_t>(ContentType::kApplicationData)) {
      app.push_back(at);
    }
  }
  // Up to the 300-byte application record, then that record alone, then
  // the 5,000-byte one in two pieces.
  const std::size_t small = app[1];
  const std::size_t large = app[2];
  const std::size_t rest = app[3];
  const auto buffer = std::make_shared<const Bytes>(stream);
  auto transport = std::make_unique<Feed>();
  Feed& feed = *transport;
  TlsConnection client(std::move(transport), replay_client());
  std::vector<simnet::BufferSlice> up;
  TlsConnection::Handlers h;
  h.on_data = [&up](const simnet::BufferSlice& d) { up.push_back(d); };
  client.set_handlers(std::move(h));
  feed.open();
  feed.deliver(simnet::BufferSlice(buffer, 0, small));
  ASSERT_TRUE(client.established());
  ASSERT_EQ(up.size(), 1u);
  up.clear();

  const simnet::BufferSlice whole(buffer, small, large - small);
  feed.deliver(whole);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].size(), 300u);
  EXPECT_EQ(up[0].data(), whole.data() + kRecordHeaderBytes)
      << "handed up in place, not copied";
  EXPECT_EQ(up[0].use_count(), whole.use_count());
  EXPECT_GE(up[0].use_count(), 3) << "the buffer, the fed slice and this";

  const std::size_t half = (rest - large) / 2;
  const simnet::BufferSlice first(buffer, large, half);
  const simnet::BufferSlice second(buffer, large + half, rest - large - half);
  feed.deliver(first);
  EXPECT_EQ(up.size(), 1u) << "nothing goes up before the record's last byte";
  feed.deliver(second);
  ASSERT_EQ(up.size(), 2u);
  EXPECT_EQ(up[1].size(), 5000u);
  EXPECT_EQ(up[1], simnet::BufferSlice(buffer, large + kRecordHeaderBytes,
                                       5000));
  EXPECT_TRUE(up[1].data() < buffer->data() ||
              up[1].data() >= buffer->data() + buffer->size())
      << "gathered into a block of the connection's";
  EXPECT_EQ(up[1].use_count(), 2) << "that block and this slice";
}

TEST(TlsReceive, AnImpossibleHeaderFailsBeforeItsBodyArrives) {
  const Bytes stream = record_server_stream(TlsVersion::kTls13);
  const std::size_t established_at = record_starts(stream)[4];
  const Bytes handshake(stream.begin(),
                        stream.begin() +
                            static_cast<std::ptrdiff_t>(established_at));
  const auto outcome_of = [&](Bytes header) {
    Bytes fed = handshake;
    fed.insert(fed.end(), header.begin(), header.end());
    return replay(fed, {established_at});
  };
  // The longest record the send side makes: waits for its body.
  const Outcome longest = outcome_of({0x17, 0x03, 0x03, 0x41, 0x00});
  EXPECT_TRUE(longest.established);
  EXPECT_FALSE(longest.failed);
  // One byte longer, or a content type outside 20-23: fails at once.
  for (const Bytes& header : {Bytes{0x17, 0x03, 0x03, 0x41, 0x01},
                              Bytes{0x17, 0x03, 0x03, 0xff, 0xff},
                              Bytes{0x47, 0x45, 0x54, 0x20, 0x2f},
                              Bytes{0x13, 0x03, 0x03, 0x00, 0x01}}) {
    const Outcome outcome = outcome_of(header);
    EXPECT_TRUE(outcome.failed);
    EXPECT_EQ(outcome.alert, AlertDescription::kDecodeError);
  }
}

// A server whose application closes the connection as it opens ends with
// its close_notify: no session ticket follows it. Over simnet TCP the
// ticket used to be written on the closed transport, which threw out of
// the event loop.
TEST_F(TlsTest, ServerClosingInOnOpenEndsWithCloseNotify) {
  std::uint16_t port = 443;
  for (const TlsVersion version : {TlsVersion::kTls12, TlsVersion::kTls13}) {
    SCOPED_TRACE(to_string(version));
    server_config.versions = {version};
    std::unique_ptr<TlsConnection> closing;
    server.tcp_listen(port, [&](std::shared_ptr<simnet::TcpConnection> c) {
      closing = std::make_unique<TlsConnection>(
          std::make_unique<simnet::TcpByteStream>(std::move(c)),
          &server_config);
      TlsConnection::Handlers h;
      h.on_open = [&closing]() { closing->close(); };
      closing->set_handlers(std::move(h));
    });
    simnet::RecordingTap tap(server.id());
    net.add_tap(&tap);
    auto& tls = connect({}, port);
    bool client_closed = false;
    TlsConnection::Handlers h;
    h.on_close = [&client_closed]() { client_closed = true; };
    tls.set_handlers(std::move(h));
    EXPECT_NO_THROW(loop.run());
    net.remove_tap(&tap);
    EXPECT_TRUE(client_closed);
    EXPECT_FALSE(tls.is_open());

    Bytes sent;  // the server's stream, in wire order
    for (const auto& entry : tap.entries()) {
      if (entry.packet.src_node != server.id() || entry.dropped) continue;
      const auto& segment = std::get<simnet::TcpSegment>(entry.packet.body);
      sent.insert(sent.end(), segment.payload.begin(), segment.payload.end());
    }
    const auto starts = record_starts(sent);
    ASSERT_FALSE(starts.empty());
    EXPECT_EQ(sent[starts.back()],
              static_cast<std::uint8_t>(ContentType::kAlert));
    ++port;
  }
}

}  // namespace
}  // namespace dohperf::tlssim
