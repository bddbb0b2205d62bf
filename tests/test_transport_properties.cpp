// Parameterized transport sweeps: TCP transfer correctness across payload
// sizes x loss rates x ack policies, TLS negotiation across the full
// client-range x server-set matrix, and failure injection.
#include <gtest/gtest.h>

#include <numeric>

#include "sim_fixture.hpp"
#include "simnet/stream.hpp"
#include "tlssim/connection.hpp"

namespace dohperf {
namespace {

using simnet::Bytes;

// --- TCP transfer matrix -------------------------------------------------------

struct TcpCase {
  std::size_t bytes;
  double loss;
  bool delayed_ack;
  bool timestamps;
};

void PrintTo(const TcpCase& c, std::ostream* os) {
  *os << c.bytes << "B loss=" << c.loss
      << (c.delayed_ack ? " dack" : " nodack")
      << (c.timestamps ? " ts" : " nots");
}

class TcpTransferMatrix : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpTransferMatrix, DeliversExactlyOnceInOrder) {
  const auto param = GetParam();
  simnet::EventLoop loop;
  simnet::Network net(loop, 1234);
  simnet::Host a(net, "a");
  simnet::Host b(net, "b");
  simnet::LinkConfig link;
  link.latency = simnet::ms(5);
  link.loss_rate = param.loss;
  net.connect(a.id(), b.id(), link);

  simnet::TcpConfig config;
  config.delayed_ack = param.delayed_ack;
  config.timestamps = param.timestamps;

  Bytes received;
  std::shared_ptr<simnet::TcpConnection> accepted;
  b.tcp_listen(
      80,
      [&](std::shared_ptr<simnet::TcpConnection> c) {
        accepted = c;
        simnet::TcpCallbacks cbs;
        cbs.on_data = [&received](const simnet::BufferSlice& d) {
          received.insert(received.end(), d.begin(), d.end());
        };
        c->set_callbacks(std::move(cbs));
      },
      config);

  Bytes sent(param.bytes);
  std::iota(sent.begin(), sent.end(), 0);
  auto conn = a.tcp_connect({b.id(), 80}, config);
  simnet::TcpCallbacks cbs;
  cbs.on_connected = [&conn, &sent]() { conn->send(sent); };
  conn->set_callbacks(std::move(cbs));
  loop.run();

  EXPECT_EQ(received, sent);
  // Conservation: payload bytes received at B equal payload delivered.
  EXPECT_GE(accepted->counters().payload_bytes_received, param.bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TcpTransferMatrix,
    ::testing::Values(
        TcpCase{1, 0.0, true, true}, TcpCase{1459, 0.0, true, true},
        TcpCase{1460, 0.0, true, true}, TcpCase{1461, 0.0, true, true},
        TcpCase{50000, 0.0, true, true}, TcpCase{50000, 0.0, false, true},
        TcpCase{50000, 0.0, true, false}, TcpCase{20000, 0.1, true, true},
        TcpCase{20000, 0.3, true, true}, TcpCase{5000, 0.3, false, false},
        TcpCase{200000, 0.05, true, true}));

// --- bidirectional transfer under loss --------------------------------------------

class TcpBidirectional : public ::testing::TestWithParam<double> {};

TEST_P(TcpBidirectional, EchoSurvivesLoss) {
  simnet::EventLoop loop;
  simnet::Network net(loop, 777);
  simnet::Host a(net, "a");
  simnet::Host b(net, "b");
  simnet::LinkConfig link;
  link.latency = simnet::ms(3);
  link.loss_rate = GetParam();
  net.connect(a.id(), b.id(), link);

  b.tcp_listen(80, [](std::shared_ptr<simnet::TcpConnection> c) {
    simnet::TcpCallbacks cbs;
    // Raw pointer: the connection owns its callbacks, and capturing its
    // shared_ptr would make a cycle that leaks it.
    cbs.on_data = [raw = c.get()](const simnet::BufferSlice& d) {
      raw->send(Bytes(d.begin(), d.end()));
    };
    c->set_callbacks(std::move(cbs));
  });

  Bytes sent(30000, 0x3c);
  Bytes echoed;
  auto conn = a.tcp_connect({b.id(), 80});
  simnet::TcpCallbacks cbs;
  cbs.on_connected = [&conn, &sent]() { conn->send(sent); };
  cbs.on_data = [&echoed](const simnet::BufferSlice& d) {
    echoed.insert(echoed.end(), d.begin(), d.end());
  };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_EQ(echoed, sent);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpBidirectional,
                         ::testing::Values(0.0, 0.05, 0.15, 0.3));

// --- TLS negotiation matrix ---------------------------------------------------------

using tlssim::TlsVersion;

struct TlsMatrixCase {
  TlsVersion client_min;
  TlsVersion client_max;
  std::set<TlsVersion> server;
  bool expect_success;
  TlsVersion expect_version;  // meaningful when success
};

void PrintTo(const TlsMatrixCase& c, std::ostream* os) {
  *os << tlssim::to_string(c.client_min) << ".."
      << tlssim::to_string(c.client_max) << " vs server{" << c.server.size()
      << "}";
}

class TlsNegotiationMatrix : public ::testing::TestWithParam<TlsMatrixCase> {
};

TEST_P(TlsNegotiationMatrix, OutcomeMatchesSpec) {
  const auto param = GetParam();
  simnet::EventLoop loop;
  simnet::Network net(loop);
  simnet::Host client(net, "c");
  simnet::Host server(net, "s");
  net.connect(client.id(), server.id(), {});

  tlssim::ServerConfig server_config;
  server_config.versions = param.server;
  std::unique_ptr<tlssim::TlsConnection> server_tls;
  server.tcp_listen(443, [&](std::shared_ptr<simnet::TcpConnection> c) {
    server_tls = std::make_unique<tlssim::TlsConnection>(
        std::make_unique<simnet::TcpByteStream>(std::move(c)),
        &server_config);
    server_tls->set_handlers({});
  });

  tlssim::ClientConfig client_config;
  client_config.min_version = param.client_min;
  client_config.max_version = param.client_max;
  tlssim::TlsConnection tls(
      std::make_unique<simnet::TcpByteStream>(
          client.tcp_connect({server.id(), 443})),
      std::move(client_config));
  tls.set_handlers({});
  loop.run();

  EXPECT_EQ(tls.established(), param.expect_success);
  if (param.expect_success) {
    EXPECT_EQ(tls.version(), param.expect_version);
    ASSERT_TRUE(server_tls);
    EXPECT_EQ(server_tls->version(), param.expect_version);
  } else {
    EXPECT_TRUE(tls.failed());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TlsNegotiationMatrix,
    ::testing::Values(
        // Modern client vs modern server: 1.3.
        TlsMatrixCase{TlsVersion::kTls12, TlsVersion::kTls13,
                      {TlsVersion::kTls12, TlsVersion::kTls13},
                      true, TlsVersion::kTls13},
        // Modern client vs 1.2-only server (CleanBrowsing).
        TlsMatrixCase{TlsVersion::kTls12, TlsVersion::kTls13,
                      {TlsVersion::kTls12}, true, TlsVersion::kTls12},
        // Legacy-tolerant client vs legacy server picks the highest common.
        TlsMatrixCase{TlsVersion::kTls10, TlsVersion::kTls13,
                      {TlsVersion::kTls10, TlsVersion::kTls11,
                       TlsVersion::kTls12},
                      true, TlsVersion::kTls12},
        // Strict 1.3-only client vs 1.2-only server: failure.
        TlsMatrixCase{TlsVersion::kTls13, TlsVersion::kTls13,
                      {TlsVersion::kTls12}, false, TlsVersion::kTls12},
        // Single-version probe, supported (the Table 2 walk).
        TlsMatrixCase{TlsVersion::kTls11, TlsVersion::kTls11,
                      {TlsVersion::kTls10, TlsVersion::kTls11,
                       TlsVersion::kTls12, TlsVersion::kTls13},
                      true, TlsVersion::kTls11},
        // Single-version probe, unsupported.
        TlsMatrixCase{TlsVersion::kTls10, TlsVersion::kTls10,
                      {TlsVersion::kTls12, TlsVersion::kTls13}, false,
                      TlsVersion::kTls12},
        // Disjoint non-contiguous server set still negotiates in range.
        TlsMatrixCase{TlsVersion::kTls10, TlsVersion::kTls12,
                      {TlsVersion::kTls11, TlsVersion::kTls13}, true,
                      TlsVersion::kTls11}));

// --- failure injection ---------------------------------------------------------------

class FailureInjection : public dohperf::testing::TwoHostFixture {};

TEST_F(FailureInjection, TlsHandshakeSurvivesHeavyLoss) {
  simnet::LinkConfig lossy;
  lossy.latency = simnet::ms(5);
  lossy.loss_rate = 0.25;
  net.reconfigure(client.id(), server.id(), lossy);

  tlssim::ServerConfig server_config;
  std::unique_ptr<tlssim::TlsConnection> server_tls;
  server.tcp_listen(443, [&](std::shared_ptr<simnet::TcpConnection> c) {
    server_tls = std::make_unique<tlssim::TlsConnection>(
        std::make_unique<simnet::TcpByteStream>(std::move(c)),
        &server_config);
    tlssim::TlsConnection::Handlers sh;
    sh.on_data = [&](const simnet::BufferSlice& d) {
      server_tls->send(Bytes(d.begin(), d.end()));  // echo
    };
    server_tls->set_handlers(std::move(sh));
  });

  Bytes echoed;
  tlssim::TlsConnection tls(
      std::make_unique<simnet::TcpByteStream>(
          client.tcp_connect({server.id(), 443})),
      tlssim::ClientConfig{});
  tlssim::TlsConnection::Handlers h;
  h.on_open = [&tls]() { tls.send(Bytes{1, 2, 3}); };
  h.on_data = [&](const simnet::BufferSlice& d) {
    echoed.assign(d.begin(), d.end());
  };
  tls.set_handlers(std::move(h));
  loop.run();
  // TCP retransmission makes TLS oblivious to the loss.
  EXPECT_TRUE(tls.established());
  EXPECT_EQ(echoed, (Bytes{1, 2, 3}));
}

TEST_F(FailureInjection, TcpResetMidHandshakeFailsTlsCleanly) {
  // No listener on 443: the SYN is answered with RST; the TLS client must
  // report closure, not hang or crash.
  bool closed = false;
  tlssim::TlsConnection tls(
      std::make_unique<simnet::TcpByteStream>(
          client.tcp_connect({server.id(), 443})),
      tlssim::ClientConfig{});
  tlssim::TlsConnection::Handlers h;
  h.on_close = [&]() { closed = true; };
  tls.set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(tls.established());
}

TEST_F(FailureInjection, AbortDuringTransferReportsReset) {
  std::shared_ptr<simnet::TcpConnection> accepted;
  server.tcp_listen(80, [&](std::shared_ptr<simnet::TcpConnection> c) {
    accepted = c;
    c->set_callbacks({});
  });
  auto conn = client.tcp_connect({server.id(), 80});
  bool reset = false;
  simnet::TcpCallbacks cbs;
  cbs.on_connected = [&conn]() { conn->send(Bytes(100000, 1)); };
  cbs.on_reset = [&]() { reset = true; };
  conn->set_callbacks(std::move(cbs));
  loop.run_until(simnet::ms(25));
  ASSERT_TRUE(accepted);
  accepted->abort();  // RST mid-transfer
  loop.run();
  EXPECT_TRUE(reset);
  EXPECT_EQ(conn->state(), simnet::TcpState::kClosed);
}

TEST_F(FailureInjection, GarbageToTlsServerIsRejected) {
  tlssim::ServerConfig server_config;
  std::unique_ptr<tlssim::TlsConnection> server_tls;
  server.tcp_listen(443, [&](std::shared_ptr<simnet::TcpConnection> c) {
    server_tls = std::make_unique<tlssim::TlsConnection>(
        std::make_unique<simnet::TcpByteStream>(std::move(c)),
        &server_config);
    server_tls->set_handlers({});
  });
  // Raw TCP client sends non-TLS garbage.
  auto conn = client.tcp_connect({server.id(), 443});
  simnet::TcpCallbacks cbs;
  cbs.on_connected = [&conn]() {
    conn->send(dns::to_bytes("GET / HTTP/1.1\r\n\r\n"));
  };
  conn->set_callbacks(std::move(cbs));
  // The server will throw WireError inside the event loop — a real server
  // would tear the connection down; here we just require no crash/UB and
  // that the handshake never completes.
  try {
    loop.run();
  } catch (const dns::WireError&) {
    // acceptable: surfaced garbage
  }
  ASSERT_TRUE(server_tls);
  EXPECT_FALSE(server_tls->established());
}

}  // namespace
}  // namespace dohperf
