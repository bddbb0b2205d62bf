#include <gtest/gtest.h>

#include "http2/connection.hpp"
#include "sim_fixture.hpp"

namespace dohperf::http2 {
namespace {

using dohperf::testing::TwoHostFixture;
using simnet::Bytes;

// --- frame codec -------------------------------------------------------------------

TEST(FrameCodec, RoundTrip) {
  Frame f;
  f.type = FrameType::kHeaders;
  f.flags = kFlagEndHeaders | kFlagEndStream;
  f.stream_id = 7;
  f.payload = Bytes{1, 2, 3};
  const Bytes wire = encode_frame(f);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + 3);

  FrameReader reader;
  reader.feed(wire);
  const auto out = reader.next();
  ASSERT_TRUE(out);
  EXPECT_EQ(out->type, FrameType::kHeaders);
  EXPECT_EQ(out->flags, f.flags);
  EXPECT_EQ(out->stream_id, 7u);
  EXPECT_EQ(out->payload, f.payload);
}

TEST(FrameCodec, IncrementalFeed) {
  Frame f;
  f.type = FrameType::kData;
  f.stream_id = 3;
  f.payload = Bytes(100, 9);
  const Bytes wire = encode_frame(f);
  FrameReader reader;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(reader.next().has_value() && i + 1 < wire.size());
    reader.feed(std::span(&wire[i], 1));
  }
  EXPECT_TRUE(reader.next().has_value());
}

TEST(FrameCodec, OversizedFrameThrows) {
  Frame f;
  f.type = FrameType::kData;
  f.payload = Bytes(20000, 0);
  FrameReader reader;
  reader.feed(encode_frame(f));
  EXPECT_THROW(reader.next(kDefaultMaxFrameSize), WireError);
}

TEST(FrameCodec, ReturnedFramesKeepTheirPayloadsPastFeedsAndReader) {
  // perfbench's replay keeps the frames after their reader is gone.
  Frame small;
  small.type = FrameType::kHeaders;
  small.stream_id = 1;
  small.payload = Bytes(40, 0xaa);
  Frame big;
  big.type = FrameType::kData;
  big.stream_id = 1;
  big.payload = Bytes(3000, 0xbb);
  const Bytes big_wire = encode_frame(big);
  std::vector<Frame> kept;
  {
    FrameReader reader;
    reader.feed(encode_frame(small));
    // Half a frame waits behind the first: more bytes arrive while the
    // first frame is still held.
    reader.feed(std::span(big_wire).first(100));
    kept.push_back(*reader.next());
    EXPECT_FALSE(reader.next().has_value());
    reader.feed(std::span(big_wire).subspan(100));
    for (int i = 0; i < 4; ++i) {
      reader.feed(encode_frame(small));
      reader.feed(big_wire);
    }
    while (auto frame = reader.next()) kept.push_back(std::move(*frame));
    EXPECT_EQ(reader.buffered(), 0u);
  }
  ASSERT_EQ(kept.size(), 10u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].payload, i % 2 == 0 ? small.payload : big.payload) << i;
  }
}

TEST(FrameCodec, PrefaceConsumption) {
  FrameReader reader;
  reader.feed(dns::to_bytes(std::string(kConnectionPreface)));
  EXPECT_TRUE(reader.consume_preface());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodec, BadPrefaceThrows) {
  FrameReader reader;
  reader.feed(dns::to_bytes("GET / HTTP/1.1\r\n\r\nxxxxxxxx"));
  EXPECT_THROW(reader.consume_preface(), WireError);
}

// --- connection ---------------------------------------------------------------------

class Http2Test : public TwoHostFixture {
 protected:
  std::unique_ptr<Http2Connection> server_conn;

  /// Echo-style server: answers with the request body, optionally delayed
  /// for paths ending in "/slow".
  void start_server(simnet::TimeUs slow_delay = simnet::ms(500)) {
    server.tcp_listen(443, [this, slow_delay](
                               std::shared_ptr<simnet::TcpConnection> c) {
      server_conn = std::make_unique<Http2Connection>(
          std::make_unique<simnet::TcpByteStream>(std::move(c)),
          Http2Connection::Role::kServer);
      server_conn->set_request_handler(
          [this, slow_delay](const H2Message& request,
                             Http2Connection::Responder respond) {
            std::string path;
            for (const auto& f : request.headers) {
              if (f.name == ":path") path = f.value;
            }
            H2Message response;
            response.headers.push_back({":status", "200"});
            response.headers.push_back({"server", "test"});
            response.body = request.body.empty()
                                ? dns::to_bytes("echo:" + path)
                                : request.body;
            if (path == "/slow") {
              loop.schedule_in(slow_delay,
                               [respond = std::move(respond),
                                r = std::move(response)]() mutable {
                                 respond(std::move(r));
                               });
            } else {
              respond(std::move(response));
            }
          });
    });
  }

  std::unique_ptr<Http2Connection> make_client(Http2Config config = {}) {
    return std::make_unique<Http2Connection>(
        std::make_unique<simnet::TcpByteStream>(
            client.tcp_connect({server.id(), 443})),
        Http2Connection::Role::kClient, config);
  }

  static H2Message request_for(const std::string& path, Bytes body = {}) {
    H2Message m;
    m.headers = {{":method", body.empty() ? "GET" : "POST"},
                 {":scheme", "https"},
                 {":authority", "test"},
                 {":path", path}};
    if (!body.empty()) {
      m.headers.push_back({"content-length", std::to_string(body.size())});
    }
    m.body = std::move(body);
    return m;
  }
};

TEST_F(Http2Test, SimpleExchange) {
  start_server();
  auto http = make_client();
  std::string body;
  std::string status;
  http->request(request_for("/x"), [&](const H2Message& resp) {
    body = dns::to_string(resp.body);
    for (const auto& f : resp.headers) {
      if (f.name == ":status") status = f.value;
    }
  });
  loop.run();
  EXPECT_EQ(body, "echo:/x");
  EXPECT_EQ(status, "200");
}

TEST_F(Http2Test, PostBodyRoundTrip) {
  start_server();
  auto http = make_client();
  Bytes echoed;
  http->request(request_for("/post", Bytes{9, 8, 7}),
                [&](const H2Message& resp) { echoed = resp.body; });
  loop.run();
  EXPECT_EQ(echoed, (Bytes{9, 8, 7}));
}

TEST_F(Http2Test, ManyStreamsOneConnection) {
  start_server();
  auto http = make_client();
  int responses = 0;
  for (int i = 0; i < 20; ++i) {
    http->request(request_for("/r" + std::to_string(i)),
                  [&](const H2Message&) { ++responses; });
  }
  loop.run();
  EXPECT_EQ(responses, 20);
  EXPECT_EQ(http->open_streams(), 0u);
}

TEST_F(Http2Test, NoHeadOfLineBlocking) {
  // The defining difference from HTTP/1.1 (Fig 2): a delayed stream does
  // NOT hold back later streams.
  start_server(simnet::ms(500));
  auto http = make_client();
  simnet::TimeUs slow_done = 0;
  simnet::TimeUs fast_done = 0;
  http->request(request_for("/slow"),
                [&](const H2Message&) { slow_done = loop.now(); });
  http->request(request_for("/fast"),
                [&](const H2Message&) { fast_done = loop.now(); });
  loop.run();
  EXPECT_LT(fast_done, slow_done);       // fast overtakes
  EXPECT_LT(fast_done, simnet::ms(100)); // not delayed at all
  EXPECT_GT(slow_done, simnet::ms(500));
}

TEST_F(Http2Test, LargeBodyFlowControlled) {
  start_server();
  auto http = make_client();
  // 200 KB exceeds the 64 KB connection/stream windows: requires
  // WINDOW_UPDATE round trips to drain.
  Bytes big(200 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i % 251);
  }
  Bytes echoed;
  http->request(request_for("/big", big),
                [&](const H2Message& resp) { echoed = resp.body; });
  loop.run();
  EXPECT_EQ(echoed, big);
  // Flow control must have generated WINDOW_UPDATE traffic.
  EXPECT_GT(http->counters().mgmt_bytes_received, 100u);
}

TEST_F(Http2Test, PingRoundTrip) {
  start_server();
  auto http = make_client();
  bool acked = false;
  http->ping([&]() { acked = true; });
  loop.run();
  EXPECT_TRUE(acked);
}

TEST_F(Http2Test, GoawayClosesTransport) {
  start_server();
  auto http = make_client();
  http->request(request_for("/x"), [](const H2Message&) {});
  loop.run();
  http->close();
  loop.run();
  EXPECT_FALSE(http->is_open());
}

TEST_F(Http2Test, CounterConvention) {
  start_server();
  auto http = make_client();
  http->request(request_for("/post", Bytes(100, 1)),
                [](const H2Message&) {});
  loop.run();
  const auto& c = http->counters();
  EXPECT_EQ(c.body_bytes_sent, 100u);
  EXPECT_GT(c.header_bytes_sent, 0u);
  // Preface + SETTINGS + SETTINGS-ack + DATA frame header.
  EXPECT_GE(c.mgmt_bytes_sent,
            kConnectionPreface.size() + 2 * kFrameHeaderBytes);
  EXPECT_EQ(c.requests, 1u);
  EXPECT_EQ(c.responses, 1u);
}

TEST_F(Http2Test, HpackShrinksRepeatedRequests) {
  start_server();
  auto http = make_client();
  // Realistic DoH-sized header set (what Fig 5's "differential headers"
  // effect acts on).
  const auto rich_request = []() {
    H2Message m = request_for("/dns-query");
    m.headers.push_back({"accept", "application/dns-message"});
    m.headers.push_back({"user-agent", "dohperf/1.0 (experiment-rig)"});
    m.headers.push_back({"accept-language", "en-US,en;q=0.5"});
    return m;
  };
  http->request(rich_request(), [](const H2Message&) {});
  loop.run();
  const auto first_headers = http->counters().header_bytes_sent;
  http->request(rich_request(), [](const H2Message&) {});
  loop.run();
  const auto second_headers =
      http->counters().header_bytes_sent - first_headers;
  EXPECT_LT(second_headers, first_headers / 2);
}

TEST_F(Http2Test, DisabledHpackTableNoShrink) {
  start_server();
  Http2Config config;
  config.enable_hpack_dynamic_table = false;
  auto http = make_client(config);
  http->request(request_for("/same"), [](const H2Message&) {});
  loop.run();
  const auto first_headers = http->counters().header_bytes_sent;
  http->request(request_for("/same"), [](const H2Message&) {});
  loop.run();
  const auto second_headers =
      http->counters().header_bytes_sent - first_headers;
  // Still static-table compressed, but no differential win.
  EXPECT_GT(second_headers, first_headers / 2);
}

TEST_F(Http2Test, RequestBeforeTransportOpenIsQueued) {
  start_server();
  auto http = make_client();
  // Immediately request, before TCP/SETTINGS complete.
  std::string body;
  http->request(request_for("/early"), [&](const H2Message& resp) {
    body = dns::to_string(resp.body);
  });
  loop.run();
  EXPECT_EQ(body, "echo:/early");
}

TEST_F(Http2Test, ErrorHandlerFiresOnTransportLoss) {
  start_server(simnet::ms(1000));
  auto http = make_client();
  bool error = false;
  http->set_error_handler([&]() { error = true; });
  http->request(request_for("/slow"), [](const H2Message&) {});
  loop.run_until(simnet::ms(200));
  server_conn->close();  // GOAWAY + close with a stream outstanding
  loop.run();
  EXPECT_TRUE(error);
}

}  // namespace
}  // namespace dohperf::http2
