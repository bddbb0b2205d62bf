// Tests for the QUIC simulation and DNS-over-QUIC (RFC 9250) extension.
#include <gtest/gtest.h>

#include "core/doq_client.hpp"
#include "obs/registry.hpp"
#include "quicsim/endpoint.hpp"
#include "resolver/engine.hpp"
#include "resolver/doq_server.hpp"
#include "sim_fixture.hpp"

namespace dohperf::quicsim {
namespace {

using dohperf::testing::TwoHostFixture;

// --- packet codec ---------------------------------------------------------------

/// An ACK frame's numbers in their wire form.
Bytes acked_numbers(std::initializer_list<std::uint64_t> packet_numbers) {
  Bytes out;
  for (const std::uint64_t pn : packet_numbers) add_acked(out, pn);
  return out;
}

TEST(QuicPacket, RoundTripAllFrameTypes) {
  const Bytes acked = acked_numbers({1, 2, 5});
  Packet p;
  p.long_header = true;
  p.connection_id = 0xdeadbeefcafe;
  p.packet_number = 42;
  p.frames = {
      PingFrame{},
      AckFrame{acked},
      CryptoFrame{100, Bytes{9, 9, 9}},
      StreamFrame{4, 10, true, Bytes{1, 2}},
      PaddingFrame{32},
      HandshakeDoneFrame{},
      ConnectionCloseFrame{7},
  };
  const Bytes wire = p.encode();
  EXPECT_EQ(wire.size(), p.payload_size());
  const Packet out = Packet::decode(wire);
  EXPECT_EQ(out.long_header, true);
  EXPECT_EQ(out.connection_id, p.connection_id);
  EXPECT_EQ(out.packet_number, 42u);
  ASSERT_EQ(out.frames.size(), p.frames.size());
  const auto& ack = std::get<AckFrame>(out.frames[1]);
  ASSERT_EQ(ack.size(), 3u);
  EXPECT_EQ(ack[0], 1u);
  EXPECT_EQ(ack[1], 2u);
  EXPECT_EQ(ack[2], 5u);
  EXPECT_EQ(std::get<CryptoFrame>(out.frames[2]).offset, 100u);
  EXPECT_EQ(std::get<CryptoFrame>(out.frames[2]).data, (Bytes{9, 9, 9}));
  const auto& sf = std::get<StreamFrame>(out.frames[3]);
  EXPECT_EQ(sf.stream_id, 4u);
  EXPECT_TRUE(sf.fin);
  EXPECT_EQ(sf.data, (Bytes{1, 2}));
  EXPECT_EQ(std::get<ConnectionCloseFrame>(out.frames[6]).error_code, 7u);
}

TEST(QuicPacket, AckElicitingClassification) {
  const Bytes acked = acked_numbers({1});
  Packet acks_only;
  acks_only.frames = {AckFrame{acked}, PaddingFrame{10}};
  EXPECT_FALSE(acks_only.ack_eliciting());
  Packet with_data;
  with_data.frames = {AckFrame{acked}, StreamFrame{0, 0, false, Bytes{1}}};
  EXPECT_TRUE(with_data.ack_eliciting());
}

TEST(QuicPacket, GarbageRejected) {
  Bytes garbage{1, 2, 3};
  EXPECT_THROW(Packet::decode(garbage), dns::WireError);
}

// --- connection handshake & streams ------------------------------------------------

class QuicTest : public TwoHostFixture {
 protected:
  tlssim::ServerConfig server_tls;
  std::unique_ptr<QuicServer> quic_server;
  QuicConnection* accepted = nullptr;

  void start_echo_server(std::uint16_t port = 853) {
    quic_server = std::make_unique<QuicServer>(
        server, port, &server_tls, [this](QuicConnection& conn) {
          accepted = &conn;
          conn.set_on_stream_data([&conn](std::uint64_t id,
                                          std::span<const std::uint8_t> d,
                                          bool fin) {
            if (!d.empty() || fin) {
              conn.send_stream(id, Bytes(d.begin(), d.end()), fin);
            }
          });
        });
  }
};

TEST_F(QuicTest, HandshakeIsOneRoundTrip) {
  start_echo_server();
  QuicClientEndpoint endpoint(client, {server.id(), 853}, {});
  simnet::TimeUs established_at = 0;
  endpoint.connection().set_on_established(
      [&]() { established_at = loop.now(); });
  loop.run();
  EXPECT_TRUE(endpoint.connection().established());
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(accepted->established());
  // One RTT (10ms with 5ms one-way): the defining QUIC advantage over
  // TCP+TLS1.3's two round trips.
  EXPECT_EQ(established_at, simnet::ms(10));
  EXPECT_EQ(endpoint.connection().alpn(), "doq");
}

TEST_F(QuicTest, InitialIsPaddedTo1200) {
  start_echo_server();
  simnet::CountingTap tap;
  net.add_tap(&tap);
  QuicClientEndpoint endpoint(client, {server.id(), 853}, {});
  loop.step();  // only the first send
  net.remove_tap(&tap);
  EXPECT_GE(tap.bytes(), kMinInitialPayload);
  loop.run();
}

TEST_F(QuicTest, StreamEcho) {
  start_echo_server();
  QuicClientEndpoint endpoint(client, {server.id(), 853}, {});
  auto& conn = endpoint.connection();
  Bytes echoed;
  bool fin_seen = false;
  conn.set_on_stream_data(
      [&](std::uint64_t, std::span<const std::uint8_t> d, bool fin) {
        echoed.insert(echoed.end(), d.begin(), d.end());
        fin_seen |= fin;
      });
  const auto id = conn.open_stream();
  conn.send_stream(id, Bytes{1, 2, 3}, true);  // queued until established
  loop.run();
  EXPECT_EQ(echoed, (Bytes{1, 2, 3}));
  EXPECT_TRUE(fin_seen);
}

TEST_F(QuicTest, ManyIndependentStreams) {
  start_echo_server();
  QuicClientEndpoint endpoint(client, {server.id(), 853}, {});
  auto& conn = endpoint.connection();
  std::map<std::uint64_t, Bytes> received;
  conn.set_on_stream_data(
      [&](std::uint64_t id, std::span<const std::uint8_t> d, bool) {
        received[id].insert(received[id].end(), d.begin(), d.end());
      });
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto id = conn.open_stream();
    ids.push_back(id);
    conn.send_stream(id, Bytes(static_cast<std::size_t>(i + 1),
                               static_cast<std::uint8_t>(i)),
                     true);
  }
  loop.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(received[ids[static_cast<std::size_t>(i)]].size(),
              static_cast<std::size_t>(i + 1));
  }
}

TEST_F(QuicTest, LargeStreamSplitsAcrossPackets) {
  start_echo_server();
  QuicClientEndpoint endpoint(client, {server.id(), 853}, {});
  auto& conn = endpoint.connection();
  Bytes echoed;
  conn.set_on_stream_data(
      [&](std::uint64_t, std::span<const std::uint8_t> d, bool) {
        echoed.insert(echoed.end(), d.begin(), d.end());
      });
  Bytes big(10000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  conn.send_stream(conn.open_stream(), big, true);
  loop.run();
  EXPECT_EQ(echoed, big);
  EXPECT_GT(conn.counters().packets_sent, big.size() / kMaxPacketPayload);
}

TEST_F(QuicTest, RecoversFromLoss) {
  simnet::LinkConfig lossy;
  lossy.latency = simnet::ms(5);
  lossy.loss_rate = 0.25;
  net.reconfigure(client.id(), server.id(), lossy);
  start_echo_server();
  QuicClientEndpoint endpoint(client, {server.id(), 853}, {});
  auto& conn = endpoint.connection();
  Bytes echoed;
  conn.set_on_stream_data(
      [&](std::uint64_t, std::span<const std::uint8_t> d, bool) {
        echoed.insert(echoed.end(), d.begin(), d.end());
      });
  Bytes data(5000, 0x7e);
  conn.send_stream(conn.open_stream(), data, true);
  loop.run();
  EXPECT_EQ(echoed, data);
  EXPECT_GT(conn.counters().retransmits + accepted->counters().retransmits,
            0u);
}

TEST_F(QuicTest, FrameResentAfterItsStreamFinishedIsDeliveredOnce) {
  std::size_t server_deliveries = 0;
  quic_server = std::make_unique<QuicServer>(
      server, 853, &server_tls, [&](QuicConnection& conn) {
        accepted = &conn;
        conn.set_on_stream_data([&conn, &server_deliveries](
                                    std::uint64_t id,
                                    std::span<const std::uint8_t> d,
                                    bool fin) {
          ++server_deliveries;
          conn.send_stream(id, Bytes(d.begin(), d.end()), fin);
        });
      });
  QuicClientEndpoint endpoint(client, {server.id(), 853}, {});
  loop.run();
  auto& conn = endpoint.connection();
  ASSERT_TRUE(conn.established());
  // The link drops everything sent in the millisecond the request arrives:
  // the server's ACK of it and the echo. The client's PTO then sends the
  // request again after the server finished that stream, and the server's
  // PTO sends the echo again.
  simnet::FaultSchedule faults;
  faults.add_outage(loop.now() + simnet::ms(5), simnet::ms(1));
  net.inject_faults(client.id(), server.id(), std::move(faults));
  Bytes echoed;
  std::size_t client_fins = 0;
  conn.set_on_stream_data(
      [&](std::uint64_t, std::span<const std::uint8_t> d, bool fin) {
        echoed.insert(echoed.end(), d.begin(), d.end());
        client_fins += fin ? 1 : 0;
      });
  conn.send_stream(conn.open_stream(), Bytes{1, 2, 3}, true);
  loop.run();
  EXPECT_GT(net.fault_drops(), 0u);
  EXPECT_GT(conn.counters().retransmits, 0u);
  EXPECT_GT(accepted->counters().retransmits, 0u);
  EXPECT_EQ(server_deliveries, 1u);
  EXPECT_EQ(echoed, (Bytes{1, 2, 3}));
  EXPECT_EQ(client_fins, 1u);
}

TEST_F(QuicTest, CloseNotifiesBothSides) {
  start_echo_server();
  QuicClientEndpoint endpoint(client, {server.id(), 853}, {});
  bool server_closed = false;
  loop.run();
  ASSERT_NE(accepted, nullptr);
  accepted->set_on_closed([&]() { server_closed = true; });
  endpoint.connection().close();
  loop.run();
  EXPECT_TRUE(endpoint.connection().closed());
  EXPECT_TRUE(server_closed);
}

// --- DoQ end to end ------------------------------------------------------------------

class DoqTest : public TwoHostFixture {
 protected:
  resolver::EngineConfig engine_config;
  std::unique_ptr<resolver::Engine> engine;
  std::unique_ptr<resolver::DoqServer> doq_server;

  void start_server() {
    engine = std::make_unique<resolver::Engine>(loop, engine_config);
    resolver::DoqServerConfig config;
    config.tls.chain = tlssim::CertificateChain::generic("doq.example");
    doq_server =
        std::make_unique<resolver::DoqServer>(server, *engine, config, 853);
  }
};

TEST_F(DoqTest, EndToEndResolution) {
  start_server();
  core::DoqClient client_stub(client, {server.id(), 853});
  core::ResolutionResult observed;
  client_stub.resolve(dns::Name::parse("abcde.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) { observed = r; });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_EQ(std::get<dns::ARdata>(observed.response.answers.at(0).rdata)
                .to_string(),
            "192.0.2.1");
  // 1-RTT handshake + 1-RTT query = 20ms (+processing): one RTT faster
  // than DoT over TCP+TLS1.3.
  EXPECT_LT(observed.resolution_time(), simnet::ms(25));
}

TEST_F(DoqTest, WarmConnectionIsSingleRtt) {
  start_server();
  core::DoqClient client_stub(client, {server.id(), 853});
  client_stub.resolve(dns::Name::parse("warm.example.com"), dns::RType::kA,
                      {});
  loop.run();
  core::ResolutionResult observed;
  client_stub.resolve(dns::Name::parse("next.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) { observed = r; });
  loop.run();
  ASSERT_TRUE(observed.success);
  EXPECT_LT(observed.resolution_time(), simnet::ms(11));
  EXPECT_EQ(doq_server->connection_count(), 1u);
}

TEST_F(DoqTest, DelayedQueryDoesNotBlockOthers) {
  engine_config.delay_policy.every_n = 2;
  engine_config.delay_policy.delay = simnet::ms(500);
  start_server();
  core::DoqClient client_stub(client, {server.id(), 853});
  simnet::TimeUs slow = 0, fast = 0;
  client_stub.resolve(dns::Name::parse("one.example.com"), dns::RType::kA,
                      {});
  client_stub.resolve(dns::Name::parse("two.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) {
                        slow = r.completed_at;
                      });
  client_stub.resolve(dns::Name::parse("three.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) {
                        fast = r.completed_at;
                      });
  loop.run();
  EXPECT_LT(fast, slow);  // streams are independent, like DoH/2
}

TEST_F(DoqTest, SurvivesPacketLoss) {
  simnet::LinkConfig lossy;
  lossy.latency = simnet::ms(5);
  lossy.loss_rate = 0.2;
  net.reconfigure(client.id(), server.id(), lossy);
  start_server();
  core::DoqClient client_stub(client, {server.id(), 853});
  int succeeded = 0;
  for (int i = 0; i < 10; ++i) {
    client_stub.resolve(
        dns::Name::parse("q" + std::to_string(i) + ".example.com"),
        dns::RType::kA, [&](const core::ResolutionResult& r) {
          if (r.success) ++succeeded;
        });
  }
  loop.run();
  EXPECT_EQ(succeeded, 10);
}

TEST_F(DoqTest, DisconnectFailsOutstanding) {
  engine_config.delay_policy.every_n = 1;
  engine_config.delay_policy.delay = simnet::seconds(30);
  start_server();
  core::DoqClient client_stub(client, {server.id(), 853});
  core::ResolutionResult observed;
  client_stub.resolve(dns::Name::parse("x.example.com"), dns::RType::kA,
                      [&](const core::ResolutionResult& r) { observed = r; });
  loop.run_until(simnet::ms(100));
  client_stub.disconnect();
  loop.run_until(simnet::seconds(1));
  EXPECT_FALSE(observed.success);
  EXPECT_EQ(client_stub.completed(), 1u);
}

/// Answers every query with one TXT record of kTxtBytes octets: a response
/// longer than one QUIC packet's payload.
class LongTxtHandler final : public resolver::QueryHandler {
 public:
  static constexpr std::size_t kTxtBytes = 3000;

  explicit LongTxtHandler(simnet::EventLoop& loop) : loop_(loop) {}

  void handle(const dns::Message& query, const resolver::QueryContext&,
              Continuation done) override {
    dns::Message response = dns::Message::make_response(
        query, {dns::ResourceRecord::txt(query.questions.front().qname,
                                         std::string(kTxtBytes, 't'))});
    loop_.schedule_in(simnet::ms(1), [response = std::move(response),
                                      done = std::move(done)]() mutable {
      done(std::move(response));
    });
  }

 private:
  simnet::EventLoop& loop_;
};

TEST_F(DoqTest, ResponseSplitOverStreamFramesDecodesAndCountsOnce) {
  LongTxtHandler handler(loop);
  resolver::DoqServerConfig server_config;
  server_config.tls.chain = tlssim::CertificateChain::generic("doq.example");
  resolver::DoqServer txt_server(server, handler, server_config, 853);
  obs::Registry registry;
  core::DoqClientConfig config;
  config.obs.metrics = &registry;
  core::DoqClient client_stub(client, {server.id(), 853}, config);

  const dns::Name name = dns::Name::parse("long.example.com");
  core::ResolutionResult observed;
  client_stub.resolve(name, dns::RType::kTXT,
                      [&](const core::ResolutionResult& r) { observed = r; });
  loop.run();

  ASSERT_TRUE(observed.success);
  const auto& txt =
      std::get<dns::TxtRdata>(observed.response.answers.at(0).rdata);
  std::size_t text_bytes = 0;
  for (const std::string& segment : txt.strings) text_bytes += segment.size();
  EXPECT_EQ(text_bytes, LongTxtHandler::kTxtBytes);
  const std::size_t query_bytes =
      dns::Message::make_query(0, name, dns::RType::kTXT).encode().size();
  const std::size_t response_bytes = observed.response.encode().size();
  EXPECT_GT(response_bytes, kMaxPacketPayload);
  EXPECT_EQ(observed.cost.dns_message_bytes, query_bytes + response_bytes);
  EXPECT_EQ(registry.counter("bytes.dns"), query_bytes + response_bytes);
}

}  // namespace
}  // namespace dohperf::quicsim
