// Server hardening against malformed and abusive input: the TCP-DNS and
// DoT front-ends' length-prefix validation, the TLS terminator's handling
// of raw garbage, the DoH server's bad-HTTP/2 and oversized-body paths, and
// the DoH session cap with oldest-idle eviction. Every case must end in a
// deterministic reply or reset — never a hang, crash, or unbounded buffer.
#include <gtest/gtest.h>

#include "core/doh_client.hpp"
#include "dns/message.hpp"
#include "http1/client.hpp"
#include "resolver/doh_server.hpp"
#include "resolver/dot_server.hpp"
#include "resolver/engine.hpp"
#include "sim_fixture.hpp"
#include "tlssim/connection.hpp"

namespace dohperf {
namespace {

using dohperf::testing::TwoHostFixture;
using simnet::Bytes;

dns::Name name(const char* n) { return dns::Name::parse(n); }

// --- TCP-DNS length-prefix validation --------------------------------------

class TcpDnsHardeningTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;
  std::unique_ptr<resolver::DotServer> tcp_server;

  /// Start the plain DNS-over-TCP front-end (DotServer with plain_tcp).
  void start(resolver::DotServerConfig config = {}) {
    config.plain_tcp = true;
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    tcp_server =
        std::make_unique<resolver::DotServer>(server, *engine, config, 53);
  }

  /// Open a raw connection and send `bytes` once connected; returns the
  /// connection and collects whatever the server sends back.
  std::shared_ptr<simnet::TcpConnection> send_raw(Bytes bytes, Bytes* reply) {
    auto conn = client.tcp_connect({server.id(), 53});
    simnet::TcpCallbacks cbs;
    // The connection owns its callbacks: capturing its shared_ptr would
    // make a cycle that leaks it, so they hold a raw pointer.
    cbs.on_connected = [raw = conn.get(), bytes = std::move(bytes)]() {
      raw->send(bytes);
    };
    cbs.on_data = [reply](const simnet::BufferSlice& d) {
      if (reply) reply->insert(reply->end(), d.begin(), d.end());
    };
    conn->set_callbacks(std::move(cbs));
    return conn;
  }
};

TEST_F(TcpDnsHardeningTest, ZeroLengthPrefixResetsConnection) {
  start();
  Bytes reply;
  auto conn = send_raw({0x00, 0x00}, &reply);
  loop.run();
  EXPECT_EQ(tcp_server->malformed(), 1u);
  EXPECT_FALSE(conn->established());
  EXPECT_TRUE(reply.empty());
}

TEST_F(TcpDnsHardeningTest, OversizedLengthPrefixResetsConnection) {
  resolver::DotServerConfig config;
  config.max_message_bytes = 512;
  start(config);
  Bytes reply;
  // Prefix declares 0xffff bytes — far past the cap; the server must close
  // immediately rather than buffer 64 KiB of attacker-paced bytes.
  auto conn = send_raw({0xff, 0xff}, &reply);
  loop.run();
  EXPECT_EQ(tcp_server->malformed(), 1u);
  EXPECT_FALSE(conn->established());
  EXPECT_TRUE(reply.empty());
}

TEST_F(TcpDnsHardeningTest, UndecodableFrameResetsConnection) {
  start();
  auto conn = send_raw({0x00, 0x03, 0xde, 0xad, 0xbe}, nullptr);
  loop.run();
  EXPECT_EQ(tcp_server->malformed(), 1u);
  EXPECT_FALSE(conn->established());
}

TEST_F(TcpDnsHardeningTest, TruncatedFrameIsBufferedNotFatal) {
  start();
  // A valid prefix for 100 bytes with only 3 sent: incomplete, not
  // malformed. The server waits for the rest; the client gives up and
  // closes; everything unwinds cleanly.
  auto conn = send_raw({0x00, 0x64, 0x01, 0x02, 0x03}, nullptr);
  loop.schedule_at(simnet::ms(200), [conn]() { conn->close(); });
  loop.run();
  EXPECT_EQ(tcp_server->malformed(), 0u);
}

TEST_F(TcpDnsHardeningTest, WellFormedQueryStillAnswered) {
  start();
  const dns::Bytes query = dns::Message::make_query(7, name("ok.example"))
                               .encode();
  Bytes framed{static_cast<std::uint8_t>(query.size() >> 8),
               static_cast<std::uint8_t>(query.size() & 0xff)};
  framed.insert(framed.end(), query.begin(), query.end());
  Bytes reply;
  send_raw(std::move(framed), &reply);
  loop.run();
  ASSERT_GT(reply.size(), 2u);
  const std::size_t len =
      (static_cast<std::size_t>(reply[0]) << 8) | reply[1];
  ASSERT_EQ(reply.size(), 2 + len);
  const dns::Message response =
      dns::Message::decode({reply.begin() + 2, reply.end()});
  EXPECT_EQ(response.id, 7);
  EXPECT_EQ(response.flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(tcp_server->malformed(), 0u);
}

// --- DoT: same framing rules inside TLS ------------------------------------

TEST_F(TwoHostFixture, DotZeroLengthFrameInsideTlsResetsConnection) {
  resolver::Engine engine(loop, {});
  resolver::DotServer dot_server(server, engine, {}, 853);

  tlssim::ClientConfig tls_config;
  tls_config.sni = "example.net";
  auto tls = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(
          client.tcp_connect({server.id(), 853})),
      std::move(tls_config));
  simnet::ByteStream::Handlers h;
  h.on_open = [&tls]() { tls->send(Bytes{0x00, 0x00}); };
  tls->set_handlers(std::move(h));
  loop.run();

  EXPECT_EQ(dot_server.malformed(), 1u);
  EXPECT_FALSE(tls->is_open());
}

// --- TLS terminator vs raw garbage ------------------------------------------

class DohHardeningTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;
  std::unique_ptr<resolver::DohServer> doh_server;

  void start(resolver::DohServerConfig config = {}) {
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    doh_server =
        std::make_unique<resolver::DohServer>(server, *engine, config, 443);
  }

  /// One raw HTTP/1.1-over-TLS request; returns the status code (-1 if the
  /// server never answered).
  int raw_request(const std::string& method, const std::string& target,
                  const std::string& content_type, Bytes body) {
    tlssim::ClientConfig tls_config;
    tls_config.sni = "example.net";
    tls_config.alpn = {"http/1.1"};
    auto tls = std::make_unique<tlssim::TlsConnection>(
        std::make_unique<simnet::TcpByteStream>(
            client.tcp_connect({server.id(), 443})),
        std::move(tls_config));
    http1::Http1Client http(std::move(tls));
    http1::Request request;
    request.method = method;
    request.target = target;
    request.headers.add("Host", "example.net");
    request.headers.add("Accept", "application/dns-message");
    if (!content_type.empty()) {
      request.headers.add("Content-Type", content_type);
    }
    request.body = std::move(body);
    int status = -1;
    http.request(std::move(request),
                 [&](const http1::Response& r) { status = r.status; });
    loop.run();
    return status;
  }
};

TEST_F(DohHardeningTest, RawGarbageToTlsPortIsRejectedNotFatal) {
  start();
  auto conn = client.tcp_connect({server.id(), 443});
  simnet::TcpCallbacks cbs;
  cbs.on_connected = [raw = conn.get()]() {
    // A complete record whose body is not a TLS handshake message: the
    // terminator must answer with a decode_error alert and close, not
    // propagate an exception or crash.
    raw->send(Bytes{0x16, 0x03, 0x03, 0x00, 0x03, 0xde, 0xad, 0xbe});
  };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_FALSE(conn->established());

  // The listener survives: a well-formed request afterwards resolves fine.
  EXPECT_EQ(raw_request("POST", "/dns-query", "application/dns-message",
                        dns::Message::make_query(1, name("x.example"))
                            .encode()),
            200);
}

TEST_F(DohHardeningTest, PlaintextHttpToTlsPortIsRejectedAtOnce) {
  start();
  auto conn = client.tcp_connect({server.id(), 443});
  Bytes reply;
  bool closed = false;
  simnet::TcpCallbacks cbs;
  cbs.on_connected = [raw = conn.get()]() {
    // Its first five bytes read as a record header of type 0x47 ('G'):
    // no TLS peer sends that, so the terminator must answer now, not wait
    // for the 8,239 bytes the header claims while the client waits too.
    raw->send(dns::to_bytes("GET /dns-query HTTP/1.1\r\nHost: example.net\r\n\r\n"));
  };
  cbs.on_data = [&reply](const simnet::BufferSlice& d) {
    reply.insert(reply.end(), d.begin(), d.end());
  };
  cbs.on_remote_closed = [&closed]() { closed = true; };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  // One fatal decode_error alert, then the server's FIN.
  EXPECT_EQ(reply, (Bytes{0x15, 0x03, 0x03, 0x00, 0x02, 0x02, 0x32}));
  EXPECT_TRUE(closed);
}

TEST_F(DohHardeningTest, BadHttp2PrefaceAfterTlsResetsSession) {
  start();
  tlssim::ClientConfig tls_config;
  tls_config.sni = "example.net";
  tls_config.alpn = {"h2"};
  auto tls = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(
          client.tcp_connect({server.id(), 443})),
      std::move(tls_config));
  simnet::ByteStream::Handlers h;
  h.on_open = [&tls]() {
    tls->send(dns::to_bytes("this is not the h2 connection preface"));
  };
  tls->set_handlers(std::move(h));
  loop.run();
  EXPECT_FALSE(tls->is_open());

  EXPECT_EQ(raw_request("POST", "/dns-query", "application/dns-message",
                        dns::Message::make_query(2, name("y.example"))
                            .encode()),
            200);
}

TEST_F(DohHardeningTest, OverflowingContentLengthClosesOnlyThatConnection) {
  start();
  tlssim::ClientConfig tls_config;
  tls_config.sni = "example.net";
  tls_config.alpn = {"http/1.1"};
  auto tls = std::make_unique<tlssim::TlsConnection>(
      std::make_unique<simnet::TcpByteStream>(
          client.tcp_connect({server.id(), 443})),
      std::move(tls_config));
  bool closed = false;
  simnet::ByteStream::Handlers h;
  h.on_open = [&tls]() {
    // 2^64 - 1 wraps when added to the head length: the parser must call
    // it malformed, not build a body from an inverted range and throw.
    tls->send(dns::to_bytes("POST /dns-query HTTP/1.1\r\nHost: example.net\r\n"
                            "Content-Length: 18446744073709551615\r\n\r\n"));
  };
  h.on_close = [&closed]() { closed = true; };
  tls->set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(tls->is_open());

  // The server stays up for everyone else.
  EXPECT_EQ(raw_request("POST", "/dns-query", "application/dns-message",
                        dns::Message::make_query(3, name("z.example"))
                            .encode()),
            200);
}

// --- DoH resource limits ----------------------------------------------------

TEST_F(DohHardeningTest, OversizedBodyAnswers413WithoutResolving) {
  resolver::DohServerConfig config;
  config.max_body_bytes = 64;
  start(config);
  EXPECT_EQ(raw_request("POST", "/dns-query", "application/dns-message",
                        Bytes(128, 0x00)),
            413);
  EXPECT_EQ(doh_server->oversized_bodies(), 1u);
}

TEST_F(DohHardeningTest, SessionCapEvictsOldestIdle) {
  resolver::DohServerConfig config;
  config.max_sessions = 2;
  start(config);

  core::DohClientConfig client_config;
  client_config.server_name = "example.net";
  core::DohClient first(client, {server.id(), 443}, client_config);
  core::DohClient second(client, {server.id(), 443}, client_config);
  core::DohClient third(client, {server.id(), 443}, client_config);

  // Connect in order; each resolve holds its session open (persistent).
  const auto a = first.resolve(name("a.example"), dns::RType::kA, {});
  loop.run();
  const auto b = second.resolve(name("b.example"), dns::RType::kA, {});
  loop.run();
  EXPECT_TRUE(first.result(a).success);
  EXPECT_TRUE(second.result(b).success);
  EXPECT_EQ(doh_server->session_count(), 2u);
  EXPECT_GT(doh_server->memory_estimate_bytes(), 0u);

  // A third connection breaches the cap: the oldest-idle session (the
  // first client's) is RST to make room.
  const auto c = third.resolve(name("c.example"), dns::RType::kA, {});
  loop.run();
  EXPECT_TRUE(third.result(c).success);
  EXPECT_EQ(doh_server->evicted_sessions(), 1u);
  EXPECT_LE(doh_server->session_count(), 2u);
  EXPECT_EQ(doh_server->peak_sessions(), 2u);
}

}  // namespace
}  // namespace dohperf
