#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim_fixture.hpp"
#include "simnet/stream.hpp"

namespace dohperf::simnet {
namespace {

using testing::TwoHostFixture;

// --- event loop ---------------------------------------------------------------

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_in(ms(30), [&]() { order.push_back(3); });
  loop.schedule_in(ms(10), [&]() { order.push_back(1); });
  loop.schedule_in(ms(20), [&]() { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), ms(30));
}

TEST(EventLoop, SameInstantFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_in(ms(10), [&order, i]() { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  const auto id = loop.schedule_in(ms(10), [&]() { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(fired);
  loop.cancel(id);  // double-cancel is a no-op
}

TEST(EventLoop, RunUntilLeavesLaterEvents) {
  EventLoop loop;
  int count = 0;
  loop.schedule_in(ms(10), [&]() { ++count; });
  loop.schedule_in(ms(50), [&]() { ++count; });
  loop.run_until(ms(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), ms(20));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, EventsScheduledDuringRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) loop.schedule_in(ms(1), recurse);
  };
  loop.schedule_in(0, recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.executed(), 5u);
}

TEST(EventLoop, PastScheduleClampsToNow) {
  EventLoop loop;
  loop.schedule_in(ms(10), [&loop]() {
    bool fired = false;
    loop.schedule_at(0, [&]() { fired = true; });  // in the past
    (void)fired;
  });
  loop.run();
  EXPECT_EQ(loop.now(), ms(10));
}

// --- UDP ------------------------------------------------------------------------

class UdpTest : public TwoHostFixture {};

TEST_F(UdpTest, DatagramDeliveredWithLatency) {
  auto& server_sock = server.udp_open(53);
  auto& client_sock = client.udp_open();
  TimeUs received_at = -1;
  Bytes received;
  server_sock.set_receiver([&](const Bytes& payload, Address from) {
    received = payload;
    received_at = loop.now();
    server_sock.send_to(from, Bytes{9, 9});
  });
  Bytes reply;
  client_sock.set_receiver([&](const Bytes& payload, Address) {
    reply = payload;
  });
  client_sock.send_to({server.id(), 53}, Bytes{1, 2, 3});
  loop.run();
  EXPECT_EQ(received, (Bytes{1, 2, 3}));
  EXPECT_EQ(received_at, ms(5));          // one-way latency
  EXPECT_EQ(reply, (Bytes{9, 9}));
  EXPECT_EQ(loop.now(), ms(10));          // round trip
}

TEST_F(UdpTest, CountersTrackWire) {
  auto& server_sock = server.udp_open(53);
  auto& client_sock = client.udp_open();
  server_sock.set_receiver([](const Bytes&, Address) {});
  client_sock.send_to({server.id(), 53}, Bytes(100, 0));
  loop.run();
  EXPECT_EQ(client_sock.counters().datagrams_sent, 1u);
  EXPECT_EQ(client_sock.counters().payload_bytes_sent, 100u);
  EXPECT_EQ(client_sock.counters().wire_bytes_sent, 128u);  // +20 IP +8 UDP
  EXPECT_EQ(server_sock.counters().wire_bytes_received, 128u);
}

TEST_F(UdpTest, UnboundPortDropsSilently) {
  auto& client_sock = client.udp_open();
  client_sock.send_to({server.id(), 9999}, Bytes{1});
  loop.run();  // must not crash
  EXPECT_EQ(net.packets_sent(), 1u);
}

TEST_F(UdpTest, OversizedPayloadRejected) {
  auto& sock = client.udp_open();
  EXPECT_THROW(sock.send_to({server.id(), 53}, Bytes(70000, 0)),
               std::length_error);
}

TEST_F(UdpTest, PortCollisionThrows) {
  client.udp_open(5000);
  EXPECT_THROW(client.udp_open(5000), std::logic_error);
}

// --- Network fabric ---------------------------------------------------------------

TEST(Network, NoLinkThrows) {
  EventLoop loop;
  Network net(loop);
  Host a(net, "a");
  Host b(net, "b");  // no link a<->b
  auto& sock = a.udp_open();
  EXPECT_THROW(sock.send_to({b.id(), 1}, Bytes{1}), std::logic_error);
}

TEST(Network, LossDropsPackets) {
  EventLoop loop;
  Network net(loop, 123);
  Host a(net, "a");
  Host b(net, "b");
  LinkConfig link;
  link.latency = ms(1);
  link.loss_rate = 0.5;
  net.connect(a.id(), b.id(), link);
  auto& tx = a.udp_open();
  auto& rx = b.udp_open(7);
  int received = 0;
  rx.set_receiver([&](const Bytes&, Address) { ++received; });
  for (int i = 0; i < 1000; ++i) tx.send_to({b.id(), 7}, Bytes{1});
  loop.run();
  EXPECT_GT(received, 400);
  EXPECT_LT(received, 600);
  EXPECT_EQ(net.packets_dropped(), 1000u - static_cast<unsigned>(received));
}

TEST(Network, BandwidthSerializes) {
  EventLoop loop;
  Network net(loop);
  Host a(net, "a");
  Host b(net, "b");
  LinkConfig link;
  link.latency = 0;
  link.bandwidth_bps = 8000.0;  // 1000 bytes/sec
  net.connect(a.id(), b.id(), link);
  auto& tx = a.udp_open();
  auto& rx = b.udp_open(7);
  std::vector<TimeUs> arrivals;
  rx.set_receiver([&](const Bytes&, Address) { arrivals.push_back(loop.now()); });
  // Two 972-byte payloads = 1000 wire bytes each = 1 second each.
  tx.send_to({b.id(), 7}, Bytes(972, 0));
  tx.send_to({b.id(), 7}, Bytes(972, 0));
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], seconds(1));
  EXPECT_EQ(arrivals[1], seconds(2));  // FIFO queueing behind the first
}

TEST(Network, TapSeesPackets) {
  EventLoop loop;
  Network net(loop);
  Host a(net, "a");
  Host b(net, "b");
  net.connect(a.id(), b.id(), {});
  CountingTap tap;
  net.add_tap(&tap);
  auto& tx = a.udp_open();
  b.udp_open(7).set_receiver([](const Bytes&, Address) {});
  tx.send_to({b.id(), 7}, Bytes(10, 0));
  loop.run();
  EXPECT_EQ(tap.packets(), 1u);
  EXPECT_EQ(tap.bytes(), 38u);
  net.remove_tap(&tap);
  tx.send_to({b.id(), 7}, Bytes(10, 0));
  loop.run();
  EXPECT_EQ(tap.packets(), 1u);  // unchanged after removal
}

TEST(Network, HubWithManySpokesKeepsEachDirectionOnItsOwnChannel) {
  // 1000 B/s links: a 1000-byte datagram takes a second to serialise, so a
  // packet put on a channel another packet already holds arrives late.
  EventLoop loop;
  Network net(loop);
  Host hub(net, "hub");
  LinkConfig link;
  link.latency = 0;
  link.bandwidth_bps = 8000.0;
  constexpr std::size_t kSpokes = 1000;
  std::vector<std::unique_ptr<Host>> spokes;
  for (std::size_t i = 0; i < kSpokes; ++i) {
    spokes.push_back(std::make_unique<Host>(net, "spoke" + std::to_string(i)));
    net.connect(hub.id(), spokes.back()->id(), link);
  }
  std::vector<TimeUs> at_hub;
  std::vector<TimeUs> at_spokes;
  hub.udp_open(7).set_receiver(
      [&](const Bytes&, Address) { at_hub.push_back(loop.now()); });
  auto& hub_tx = hub.udp_open();
  for (auto& spoke : spokes) {
    spoke->udp_open(7).set_receiver(
        [&](const Bytes&, Address) { at_spokes.push_back(loop.now()); });
    // Both directions of every link carry one datagram at the same instant.
    spoke->udp_open().send_to({hub.id(), 7}, Bytes(972, 0));
    hub_tx.send_to({spoke->id(), 7}, Bytes(972, 0));
  }
  loop.run();
  ASSERT_EQ(at_hub.size(), kSpokes);
  ASSERT_EQ(at_spokes.size(), kSpokes);
  for (const TimeUs t : at_hub) EXPECT_EQ(t, seconds(1));
  for (const TimeUs t : at_spokes) EXPECT_EQ(t, seconds(1));
}

TEST(Network, ConnectingAgainReplacesTheLink) {
  EventLoop loop;
  Network net(loop);
  Host a(net, "a");
  Host b(net, "b");
  LinkConfig slow;
  slow.latency = ms(1);
  slow.bandwidth_bps = 8000.0;  // 1000 bytes/sec
  net.connect(a.id(), b.id(), slow);
  std::vector<TimeUs> at_a;
  std::vector<TimeUs> at_b;
  auto& tx_a = a.udp_open(7);
  auto& tx_b = b.udp_open(7);
  tx_a.set_receiver([&](const Bytes&, Address) { at_a.push_back(loop.now()); });
  tx_b.set_receiver([&](const Bytes&, Address) { at_b.push_back(loop.now()); });
  tx_a.send_to({b.id(), 7}, Bytes(972, 0));  // holds a -> b for a second

  // Connecting again, endpoints swapped, replaces config and state of both
  // directions: the new channels start idle.
  LinkConfig fast;
  fast.latency = ms(7);
  net.connect(b.id(), a.id(), fast);
  tx_a.send_to({b.id(), 7}, Bytes(972, 0));
  tx_b.send_to({a.id(), 7}, Bytes(972, 0));
  loop.run();
  EXPECT_EQ(at_b, (std::vector<TimeUs>{ms(7), seconds(1) + ms(1)}));
  EXPECT_EQ(at_a, (std::vector<TimeUs>{ms(7)}));
}

// --- TCP ---------------------------------------------------------------------------

class TcpTest : public TwoHostFixture {
 protected:
  /// Accepted connection + echo-server wiring.
  std::shared_ptr<TcpConnection> accepted;

  void listen_echo(std::uint16_t port = 80) {
    server.tcp_listen(port, [this](std::shared_ptr<TcpConnection> conn) {
      accepted = conn;
      TcpCallbacks cbs;
      // The connection owns its callbacks: capturing its shared_ptr would
      // make a cycle that leaks it, so they hold a raw pointer.
      cbs.on_data = [raw = conn.get()](const simnet::BufferSlice& data) {
        raw->send(Bytes(data.begin(), data.end()));
      };
      conn->set_callbacks(std::move(cbs));
    });
  }
};

TEST_F(TcpTest, HandshakeCompletes) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  bool connected = false;
  TcpCallbacks cbs;
  cbs.on_connected = [&]() { connected = true; };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_TRUE(connected);
  EXPECT_TRUE(conn->established());
  ASSERT_TRUE(accepted);
  EXPECT_TRUE(accepted->established());
  // 3-way handshake: client sent SYN + ACK, server sent SYN-ACK.
  EXPECT_EQ(conn->counters().packets_sent, 2u);
  EXPECT_EQ(conn->counters().packets_received, 1u);
}

TEST_F(TcpTest, EchoSmallPayload) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  Bytes echoed;
  TcpCallbacks cbs;
  cbs.on_connected = [&conn]() { conn->send(Bytes{1, 2, 3, 4}); };
  cbs.on_data = [&](const simnet::BufferSlice& d) {
    echoed.assign(d.begin(), d.end());
  };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_EQ(echoed, (Bytes{1, 2, 3, 4}));
}

TEST_F(TcpTest, LargeTransferSegmentsAndReassembles) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  Bytes sent(100000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  Bytes echoed;
  TcpCallbacks cbs;
  cbs.on_connected = [&]() { conn->send(sent); };
  cbs.on_data = [&](const simnet::BufferSlice& d) {
    echoed.insert(echoed.end(), d.begin(), d.end());
  };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_EQ(echoed, sent);
  // Payload must have been split into MSS-sized segments.
  EXPECT_GT(conn->counters().packets_sent, sent.size() / 1460);
}

TEST_F(TcpTest, SendBeforeEstablishedIsQueued) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  Bytes echoed;
  TcpCallbacks cbs;
  cbs.on_data = [&](const simnet::BufferSlice& d) {
    echoed.assign(d.begin(), d.end());
  };
  conn->set_callbacks(std::move(cbs));
  conn->send(Bytes{5, 6});  // before the handshake finished
  loop.run();
  EXPECT_EQ(echoed, (Bytes{5, 6}));
}

TEST_F(TcpTest, OrderlyCloseBothSides) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  bool closed = false;
  bool remote_closed_on_server = false;
  TcpCallbacks cbs;
  cbs.on_connected = [&conn]() { conn->close(); };
  cbs.on_closed = [&]() { closed = true; };
  conn->set_callbacks(std::move(cbs));

  server.tcp_stop_listening(80);
  server.tcp_listen(80, [&](std::shared_ptr<TcpConnection> c) {
    accepted = c;
    TcpCallbacks scbs;
    scbs.on_remote_closed = [&remote_closed_on_server, raw = c.get()]() {
      remote_closed_on_server = true;
      raw->close();  // close our side too
    };
    c->set_callbacks(std::move(scbs));
  });

  loop.run();
  EXPECT_TRUE(closed);
  EXPECT_TRUE(remote_closed_on_server);
  EXPECT_EQ(conn->state(), TcpState::kClosed);
  EXPECT_EQ(client.tcp_connection_count(), 0u);
  EXPECT_EQ(server.tcp_connection_count(), 0u);
}

TEST_F(TcpTest, ConnectToClosedPortResets) {
  auto conn = client.tcp_connect({server.id(), 81});  // nobody listening
  bool reset = false;
  TcpCallbacks cbs;
  cbs.on_reset = [&]() { reset = true; };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_TRUE(reset);
  EXPECT_EQ(conn->state(), TcpState::kClosed);
}

TEST_F(TcpTest, RetransmissionRecoversFromLoss) {
  // 20% loss both ways; TCP must still deliver everything.
  LinkConfig lossy;
  lossy.latency = ms(5);
  lossy.loss_rate = 0.2;
  net.reconfigure(client.id(), server.id(), lossy);

  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  Bytes sent(20000, 0xab);
  Bytes echoed;
  TcpCallbacks cbs;
  cbs.on_connected = [&]() { conn->send(sent); };
  cbs.on_data = [&](const simnet::BufferSlice& d) {
    echoed.insert(echoed.end(), d.begin(), d.end());
  };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_EQ(echoed, sent);
  EXPECT_GT(conn->counters().retransmits + accepted->counters().retransmits,
            0u);
}

TEST_F(TcpTest, HeaderAccounting) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  TcpCallbacks cbs;
  cbs.on_connected = [&conn]() { conn->send(Bytes(100, 1)); };
  cbs.on_data = [](const simnet::BufferSlice&) {};
  conn->set_callbacks(std::move(cbs));
  loop.run();
  const auto& c = conn->counters();
  // Every sent byte is either header or payload.
  EXPECT_EQ(c.wire_bytes_sent, c.header_bytes_sent + c.payload_bytes_sent);
  EXPECT_EQ(c.payload_bytes_sent, 100u);
  // SYN carries 40+20 header bytes, data segment 40+12 (timestamps).
  EXPECT_GE(c.header_bytes_sent, 60u + 52u);
}

TEST_F(TcpTest, CountersSymmetric) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  TcpCallbacks cbs;
  cbs.on_connected = [&conn]() { conn->send(Bytes(5000, 2)); };
  cbs.on_data = [](const simnet::BufferSlice&) {};
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_EQ(conn->counters().wire_bytes_sent,
            accepted->counters().wire_bytes_received);
  EXPECT_EQ(conn->counters().packets_sent,
            accepted->counters().packets_received);
}

TEST_F(TcpTest, SendOnClosedThrows) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  loop.run();
  conn->close();
  EXPECT_THROW(conn->send(Bytes{1}), std::logic_error);
}

TEST_F(TcpTest, AbortSendsReset) {
  listen_echo();
  auto conn = client.tcp_connect({server.id(), 80});
  bool server_reset = false;
  server.tcp_stop_listening(80);
  server.tcp_listen(80, [&](std::shared_ptr<TcpConnection> c) {
    accepted = c;
    TcpCallbacks scbs;
    scbs.on_reset = [&]() { server_reset = true; };
    c->set_callbacks(std::move(scbs));
  });
  TcpCallbacks cbs;
  cbs.on_connected = [&conn]() { conn->abort(); };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_TRUE(server_reset);
}

/// Records when each client data segment enters the link, by sequence
/// number, and counts the server's pure ACKs.
class SegmentTap : public PacketTap {
 public:
  explicit SegmentTap(NodeId client) : client_(client) {}

  void on_packet(TimeUs when, const Packet& packet, bool) override {
    const auto* seg = std::get_if<TcpSegment>(&packet.body);
    if (seg == nullptr) return;
    if (packet.src_node == client_ && !seg->payload.empty()) {
      sends[seg->seq].push_back(when);
      ++data_segments;
    } else if (packet.src_node != client_ && seg->is_pure_ack()) {
      ++acks;
    }
  }

  std::map<std::uint32_t, std::vector<TimeUs>> sends;
  std::size_t data_segments = 0;
  std::size_t acks = 0;

 private:
  NodeId client_;
};

TEST_F(TcpTest, CumulativeAckRetiresSeveralSegmentsInOrder) {
  // With delayed ACKs one ACK covers two segments. Every ACK must retire
  // all it covers, or stale segments linger and the RTO resends them.
  std::size_t received = 0;
  server.tcp_listen(80, [&](std::shared_ptr<TcpConnection> c) {
    accepted = c;
    TcpCallbacks cbs;
    cbs.on_data = [&received](const simnet::BufferSlice& d) {
      received += d.size();
    };
    c->set_callbacks(std::move(cbs));
  });
  SegmentTap tap(client.id());
  net.add_tap(&tap);
  auto conn = client.tcp_connect({server.id(), 80});
  const Bytes sent(8 * 1460, 0x5a);
  TcpCallbacks cbs;
  cbs.on_connected = [&]() { conn->send(sent); };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  net.remove_tap(&tap);
  EXPECT_EQ(received, sent.size());
  EXPECT_EQ(tap.data_segments, 8u);
  EXPECT_LE(tap.acks, 5u);  // cumulative: fewer ACKs than segments
  EXPECT_EQ(conn->counters().retransmits, 0u);
  for (const auto& [seq, times] : tap.sends) EXPECT_EQ(times.size(), 1u);
}

TEST_F(TcpTest, RetransmittedSegmentGivesNoRttSample) {
  // RTT 10 ms; with rto_min at 1 ms the handshake sample sets RTO = 10 ms +
  // 4 * 5 ms = 30 ms. The first segment is lost twice and acked 100 ms
  // after it first left. Sampling that (Karn's rule forbids it) would push
  // the RTO to 126 ms; the second lost segment shows which one is in force.
  TcpConfig config;
  config.rto_min = ms(1);
  config.delayed_ack = false;
  server.tcp_listen(80, [&](std::shared_ptr<TcpConnection> c) {
    accepted = c;
  }, config);
  FaultSchedule faults;
  faults.add_outage(ms(20), ms(70));
  faults.add_outage(ms(200), ms(10));
  net.inject_faults(client.id(), server.id(), std::move(faults));
  SegmentTap tap(client.id());
  net.add_tap(&tap);
  auto conn = client.tcp_connect({server.id(), 80}, config);
  loop.schedule_at(ms(20), [&]() { conn->send(Bytes(100, 1)); });
  loop.schedule_at(ms(200), [&]() { conn->send(Bytes(100, 2)); });
  loop.run();
  net.remove_tap(&tap);
  ASSERT_EQ(tap.sends.size(), 2u);
  const auto& first = tap.sends.begin()->second;
  const auto& second = std::next(tap.sends.begin())->second;
  // Lost at 20 ms, resent at 50 ms (RTO) and 110 ms (backed off), acked.
  EXPECT_EQ(first, (std::vector<TimeUs>{ms(20), ms(50), ms(110)}));
  EXPECT_EQ(second, (std::vector<TimeUs>{ms(200), ms(230)}));
}

// --- Connection lifetimes ---------------------------------------------------------
//
// The host calls connections through raw pointers, and timers capture
// `this`: these pin down who keeps a connection alive, and that no event
// outlives the connection it would call.

TEST_F(TcpTest, DroppingTheLastReferenceInOnResetFreesAfterTheCall) {
  auto conn = client.tcp_connect({server.id(), 81});  // nobody listening: RST
  const std::weak_ptr<TcpConnection> weak = conn;
  TcpConnection* raw = conn.get();
  bool checked = false;
  TcpCallbacks cbs;
  cbs.on_reset = [&]() {
    conn.reset();  // the application's last reference
    // The host parked the connection: it lives until this call returns.
    EXPECT_FALSE(weak.expired());
    EXPECT_EQ(raw->state(), TcpState::kClosed);
    checked = true;
  };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(client.tcp_connection_count(), 0u);
}

TEST_F(TcpTest, DroppingTheLastReferenceInOnClosedFreesAfterTheCall) {
  server.tcp_listen(80, [this](std::shared_ptr<TcpConnection> c) {
    accepted = c;
    TcpCallbacks scbs;
    scbs.on_remote_closed = [raw = c.get()]() { raw->close(); };
    c->set_callbacks(std::move(scbs));
  });
  auto conn = client.tcp_connect({server.id(), 80});
  const std::weak_ptr<TcpConnection> weak = conn;
  TcpConnection* raw = conn.get();
  bool checked = false;
  TcpCallbacks cbs;
  cbs.on_connected = [raw]() { raw->close(); };
  cbs.on_closed = [&]() {
    conn.reset();
    EXPECT_FALSE(weak.expired());
    EXPECT_EQ(raw->state(), TcpState::kClosed);
    checked = true;
  };
  conn->set_callbacks(std::move(cbs));
  loop.run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(weak.expired());
}

TEST_F(TcpTest, DestroyedConnectionTakesBothTimersOffTheLoop) {
  std::optional<Host> edge;
  edge.emplace(net, "edge");
  LinkConfig link;
  link.latency = ms(5);
  net.connect(edge->id(), server.id(), link);
  // The server answers the handshake with data; the edge sends data once
  // connected. At 20 ms the edge has received that data (delayed ACK
  // armed) while its own data is still unacknowledged (RTO armed).
  server.tcp_listen(80, [this](std::shared_ptr<TcpConnection> c) {
    accepted = c;
    c->send(Bytes(100, 1));
  });
  auto conn = edge->tcp_connect({server.id(), 80});
  TcpCallbacks cbs;
  cbs.on_connected = [raw = conn.get()]() { raw->send(Bytes(100, 2)); };
  conn->set_callbacks(std::move(cbs));
  const std::weak_ptr<TcpConnection> weak = conn;
  conn.reset();  // only the edge host holds it now
  loop.run_until(ms(30));
  ASSERT_EQ(weak.lock()->state(), TcpState::kEstablished);

  const std::size_t before = loop.pending();
  edge.reset();  // frees the connection
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(loop.pending(), before - 2);  // its RTO and delayed-ACK timers
}

TEST(TcpLifetime, CallerHeldConnectionOutlivesItsHostAndLoop) {
  // The loop, network and hosts live in storage the test overwrites once
  // they are destroyed: a connection that still reached into its host or
  // its loop would follow garbage pointers and crash.
  alignas(EventLoop) std::byte loop_mem[sizeof(EventLoop)];
  alignas(Network) std::byte net_mem[sizeof(Network)];
  alignas(Host) std::byte a_mem[sizeof(Host)];
  alignas(Host) std::byte b_mem[sizeof(Host)];
  // detlint: allow(HYG002) placement new into storage the test poisons after destruction
  auto* loop = ::new (loop_mem) EventLoop;
  // detlint: allow(HYG002) placement new into storage the test poisons after destruction
  auto* net = ::new (net_mem) Network(*loop, 7);
  // detlint: allow(HYG002) placement new into storage the test poisons after destruction
  auto* a = ::new (a_mem) Host(*net, "a");
  // detlint: allow(HYG002) placement new into storage the test poisons after destruction
  auto* b = ::new (b_mem) Host(*net, "b");
  LinkConfig link;
  link.latency = ms(5);
  net->connect(a->id(), b->id(), link);
  b->tcp_listen(80, [](std::shared_ptr<TcpConnection> c) {
    c->send(Bytes(100, 1));
  });
  std::shared_ptr<TcpConnection> kept = a->tcp_connect({b->id(), 80});
  TcpCallbacks cbs;
  cbs.on_connected = [raw = kept.get()]() { raw->send(Bytes(100, 2)); };
  kept->set_callbacks(std::move(cbs));
  loop->run_until(ms(30));  // both of kept's timers armed, as above
  ASSERT_EQ(kept->state(), TcpState::kEstablished);

  const auto poison = [](std::byte* mem, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      mem[i] = static_cast<std::byte>(i * 37 + 11);
    }
  };
  a->~Host();
  poison(a_mem, sizeof a_mem);
  b->~Host();
  poison(b_mem, sizeof b_mem);
  net->~Network();
  poison(net_mem, sizeof net_mem);
  loop->~EventLoop();
  poison(loop_mem, sizeof loop_mem);

  EXPECT_EQ(kept.use_count(), 1);
  kept.reset();  // touches neither the dead host nor the dead loop
}

/// Builds a server with listeners on ports 80 and 81 and four client hosts
/// that connect in an order matching neither node nor port order.
class TcpKeyOrderTest : public ::testing::Test {
 protected:
  using Key = std::tuple<std::uint16_t, NodeId, std::uint16_t>;

  TcpKeyOrderTest() : net(loop, 7), server(net, "server") {
    for (int i = 0; i < 4; ++i) {
      clients.push_back(std::make_unique<Host>(net, "c" + std::to_string(i)));
      LinkConfig link;
      link.latency = ms(1 + i);
      net.connect(clients.back()->id(), server.id(), link);
    }
    const auto on_accept = [this](std::shared_ptr<TcpConnection> c) {
      TcpCallbacks cbs;
      cbs.on_reset = [this, raw = c.get()]() { resets.push_back(key(*raw)); };
      c->set_callbacks(std::move(cbs));
      reference.emplace(key(*c), 0);
      accepted.push_back(std::move(c));
    };
    server.tcp_listen(80, on_accept);
    server.tcp_listen(81, on_accept);
    const int plan[][2] = {{3, 81}, {1, 80}, {2, 81}, {0, 80}, {3, 80},
                           {1, 81}, {2, 80}, {0, 81}, {3, 80}};
    for (const auto& [c, port] : plan) {
      conns.push_back(clients[c]->tcp_connect(
          {server.id(), static_cast<std::uint16_t>(port)}));
    }
    loop.run();
  }

  static Key key(const TcpConnection& c) {
    return {c.local().port, c.remote().node, c.remote().port};
  }

  EventLoop loop;
  Network net;
  Host server;
  std::vector<std::unique_ptr<Host>> clients;
  std::vector<std::shared_ptr<TcpConnection>> conns;
  std::vector<std::shared_ptr<TcpConnection>> accepted;
  /// The server's connections in std::map<TcpKey> order.
  std::map<Key, int> reference;
  std::vector<Key> resets;
};

TEST_F(TcpKeyOrderTest, RebindResetsInKeyOrder) {
  ASSERT_EQ(reference.size(), 9u);
  server.rebind(/*rst_old_flows=*/true);
  std::vector<Key> expected;
  for (const auto& [k, unused] : reference) expected.push_back(k);
  EXPECT_EQ(resets, expected);
  EXPECT_EQ(server.tcp_connection_count(), 0u);
}

/// Records the RST segments a node emits, in send order.
class RstTap : public PacketTap {
 public:
  explicit RstTap(NodeId node) : node_(node) {}
  void on_packet(TimeUs, const Packet& packet, bool) override {
    const auto* seg = std::get_if<TcpSegment>(&packet.body);
    if (seg == nullptr || !seg->rst || packet.src_node != node_) return;
    sent.emplace_back(seg->src_port, packet.dst_node, seg->dst_port);
  }
  std::vector<std::tuple<std::uint16_t, NodeId, std::uint16_t>> sent;

 private:
  NodeId node_;
};

TEST_F(TcpKeyOrderTest, ResetPortAbortsInKeyOrder) {
  RstTap tap(server.id());
  net.add_tap(&tap);
  server.tcp_reset_port(80);
  std::vector<Key> expected;
  for (const auto& [k, unused] : reference) {
    if (std::get<0>(k) == 80) expected.push_back(k);
  }
  ASSERT_EQ(expected.size(), 5u);
  EXPECT_EQ(tap.sent, expected);
  EXPECT_EQ(server.tcp_connection_count(), 4u);  // port 81 untouched
  net.remove_tap(&tap);
}

// --- TcpByteStream adapter ------------------------------------------------------

TEST_F(TcpTest, ByteStreamAdapterRoundTrip) {
  listen_echo();
  auto stream =
      std::make_unique<TcpByteStream>(client.tcp_connect({server.id(), 80}));
  Bytes received;
  bool opened = false;
  ByteStream::Handlers h;
  h.on_open = [&]() {
    opened = true;
    stream->send(Bytes{42});
  };
  h.on_data = [&](const simnet::BufferSlice& d) {
    received.assign(d.begin(), d.end());
  };
  auto* raw = stream.get();
  raw->set_handlers(std::move(h));
  loop.run();
  EXPECT_TRUE(opened);
  EXPECT_EQ(received, (Bytes{42}));
}

}  // namespace
}  // namespace dohperf::simnet
