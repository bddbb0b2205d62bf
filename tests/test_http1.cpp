#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http1/client.hpp"
#include "http1/server.hpp"
#include "sim_fixture.hpp"
#include "stats/rng.hpp"

namespace dohperf::http1 {
namespace {

using dohperf::testing::TwoHostFixture;
using simnet::Bytes;

// --- message serialization / parsing --------------------------------------------

TEST(HeaderMap, CaseInsensitiveLookup) {
  HeaderMap h;
  h.add("Content-Type", "text/plain");
  EXPECT_EQ(h.get("content-type"), "text/plain");
  EXPECT_EQ(h.get("CONTENT-TYPE"), "text/plain");
  EXPECT_FALSE(h.get("missing").has_value());
}

TEST(HeaderMap, SetReplacesFirst) {
  HeaderMap h;
  h.add("X", "1");
  h.set("x", "2");
  EXPECT_EQ(h.get("X"), "2");
  EXPECT_EQ(h.size(), 1u);
  h.set("Y", "3");
  EXPECT_EQ(h.size(), 2u);
}

/// The header list as the vector of (name, value) pairs HeaderMap kept
/// before it moved into one buffer, as the reference: add appends, set
/// replaces the value of the first case-insensitive match or appends, get
/// and has look for the first match.
class ReferenceHeaders {
 public:
  void add(std::string name, std::string value) {
    entries.emplace_back(std::move(name), std::move(value));
  }
  void set(std::string name, std::string value) {
    for (auto& [n, v] : entries) {
      if (iequals(n, name)) {
        v = std::move(value);
        return;
      }
    }
    add(std::move(name), std::move(value));
  }
  std::optional<std::string> get(std::string_view name) const {
    for (const auto& [n, v] : entries) {
      if (iequals(n, name)) return v;
    }
    return std::nullopt;
  }
  bool has(std::string_view name) const { return get(name).has_value(); }

  std::vector<std::pair<std::string, std::string>> entries;

 private:
  static bool iequals(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(a[i])) !=
          std::tolower(static_cast<unsigned char>(b[i]))) {
        return false;
      }
    }
    return true;
  }
};

/// `name` with each letter's case flipped at random.
std::string random_case(std::string_view name, stats::SplitMix64& rng) {
  std::string out(name);
  for (char& c : out) {
    if (rng.next() % 2 == 0) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

/// A value of 0 to 40 bytes, some of them NUL, ':' or spaces.
std::string random_value(stats::SplitMix64& rng) {
  static constexpr std::string_view kAlphabet{"ab:Z 09-/\0;=", 12};
  std::string out(rng.next() % 41, ' ');
  for (char& c : out) c = kAlphabet[rng.next() % kAlphabet.size()];
  return out;
}

TEST(HeaderMap, MatchesTheVectorOfPairs) {
  static constexpr std::string_view kNames[] = {
      "Host", "Content-Type", "Content-Length", "Accept", "X-Empty",
      "Set-Cookie", "a", "x-long-header-name-past-the-inline-buffer"};
  for (const std::uint64_t seed : {1u, 7u, 13u, 41u}) {
    stats::SplitMix64 rng(seed);
    HeaderMap map;
    ReferenceHeaders reference;
    for (int step = 0; step < 300; ++step) {
      const std::string name =
          random_case(kNames[rng.next() % std::size(kNames)], rng);
      const std::string value = rng.next() % 5 == 0 ? "" : random_value(rng);
      if (rng.next() % 3 == 0) {
        map.set(name, value);
        reference.set(name, value);
      } else {
        map.add(name, value);
        reference.add(name, value);
      }
      ASSERT_EQ(map.size(), reference.entries.size()) << "seed " << seed;
      for (const std::string_view probe : kNames) {
        const std::string asked = random_case(probe, rng);
        ASSERT_EQ(map.get(asked), reference.get(asked)) << asked;
        ASSERT_EQ(map.has(asked), reference.has(asked)) << asked;
      }
      EXPECT_FALSE(map.has("missing"));
    }
    std::size_t i = 0;
    for (const auto [name, value] : map) {
      ASSERT_LT(i, reference.entries.size());
      EXPECT_EQ(name, reference.entries[i].first);
      EXPECT_EQ(value, reference.entries[i].second);
      ++i;
    }
    EXPECT_EQ(i, reference.entries.size());
  }
}

TEST(HeaderMap, SetKeepsTheFirstNameAndLaterHeaders) {
  HeaderMap h;
  h.add("X-Dup", "first");
  h.add("Other", "");
  h.add("x-dup", "second");
  h.set("X-DUP", "replaced with a much longer value: a:b");
  std::vector<std::pair<std::string, std::string>> seen;
  for (const auto [name, value] : h) seen.emplace_back(name, value);
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, std::string>>{
                      {"X-Dup", "replaced with a much longer value: a:b"},
                      {"Other", ""},
                      {"x-dup", "second"}}));
  h.set("x-DUP", "");
  EXPECT_EQ(h.get("X-Dup"), "");
  EXPECT_TRUE(h.has("other"));
  EXPECT_EQ(h.size(), 3u);
  // Names and values may view the list itself, across growth too.
  for (int i = 0; i < 40; ++i) {
    const auto [name, value] = *h.begin();
    h.add(name, (*++h.begin()).name);
  }
  EXPECT_EQ(h.size(), 43u);
  std::size_t copies = 0;
  for (const auto [name, value] : h) {
    if (name == "X-Dup") {
      ++copies;
      if (copies > 1) {
        EXPECT_EQ(value, "Other");
      }
    }
  }
  EXPECT_EQ(copies, 41u);
}

TEST(HeaderMap, ParsedHeadKeepsOrderDuplicatesAndColons) {
  Parser parser(Parser::Mode::kResponse);
  parser.feed(dns::to_bytes(
      "HTTP/1.1 200 OK\r\nVia: a\r\nEmpty:\r\nvia: b\r\n"
      "Time: 12:30:00 \r\nContent-Length: 0\r\n\r\n"));
  const auto response = parser.next_response();
  ASSERT_TRUE(response.has_value());
  std::vector<std::pair<std::string, std::string>> seen;
  for (const auto [name, value] : response->headers) {
    seen.emplace_back(name, value);
  }
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, std::string>>{
                      {"Via", "a"},
                      {"Empty", ""},
                      {"via", "b"},
                      {"Time", "12:30:00"},
                      {"Content-Length", "0"}}));
  EXPECT_EQ(response->headers.get("VIA"), "a");
}

TEST(Message, RequestSerialization) {
  Request req;
  req.method = "POST";
  req.target = "/dns-query";
  req.headers.add("Host", "doh.example");
  req.body = dns::to_bytes("payload");
  WireSizes sizes;
  const Bytes wire = serialize(req, &sizes);
  const std::string text = dns::to_string(wire);
  EXPECT_EQ(text.find("POST /dns-query HTTP/1.1\r\n"), 0u);
  EXPECT_NE(text.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(text.find("\r\n\r\npayload"), std::string::npos);
  EXPECT_EQ(sizes.body_bytes, 7u);
  EXPECT_EQ(sizes.header_bytes + sizes.body_bytes, wire.size());
}

TEST(Message, ParserHandlesArbitraryChunking) {
  Response resp;
  resp.status = 200;
  resp.headers.add("Content-Type", "application/dns-message");
  resp.body = Bytes{1, 2, 3, 4, 5};
  const Bytes wire = serialize(resp);

  // Feed one byte at a time.
  Parser parser(Parser::Mode::kResponse);
  std::optional<Response> out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    parser.feed(Bytes{wire[i]});
    if (auto r = parser.next_response()) out = std::move(r);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body, (Bytes{1, 2, 3, 4, 5}));
}

TEST(Message, ParserHandlesPipelinedMessages) {
  Request a;
  a.method = "GET";
  a.target = "/first";
  Request b;
  b.method = "GET";
  b.target = "/second";
  Bytes wire = serialize(a);
  const Bytes wb = serialize(b);
  wire.insert(wire.end(), wb.begin(), wb.end());

  Parser parser(Parser::Mode::kRequest);
  parser.feed(wire);
  auto first = parser.next_request();
  auto second = parser.next_request();
  auto third = parser.next_request();
  ASSERT_TRUE(first);
  ASSERT_TRUE(second);
  EXPECT_FALSE(third);
  EXPECT_EQ(first->target, "/first");
  EXPECT_EQ(second->target, "/second");
}

TEST(Message, ParserRejectsGarbage) {
  Parser parser(Parser::Mode::kResponse);
  parser.feed(dns::to_bytes("NOT HTTP AT ALL\r\n\r\n"));
  EXPECT_FALSE(parser.next_response().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(Message, ParserRejectsBadContentLength) {
  Parser parser(Parser::Mode::kResponse);
  parser.feed(dns::to_bytes("HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n"));
  EXPECT_FALSE(parser.next_response().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(Message, ParserRejectsContentLengthPastTheSliceWindow) {
  // 2^64 - 1 wraps "head + Content-Length"; 2^32 no longer fits the 32-bit
  // window of the BufferSlice a body travels in. Both are malformed.
  for (const std::string length : {"18446744073709551615", "4294967296"}) {
    Parser requests(Parser::Mode::kRequest);
    requests.feed(dns::to_bytes("POST / HTTP/1.1\r\nContent-Length: " +
                                length + "\r\n\r\nxyz"));
    EXPECT_FALSE(requests.next_request().has_value()) << length;
    EXPECT_TRUE(requests.error()) << length;

    Parser responses(Parser::Mode::kResponse);
    responses.feed(dns::to_bytes("HTTP/1.1 200 OK\r\nContent-Length: " +
                                 length + "\r\n\r\nxyz"));
    EXPECT_FALSE(responses.next_response().has_value()) << length;
    EXPECT_TRUE(responses.error()) << length;
  }
  // The largest length that fits is well-formed: the parser waits for it.
  Parser parser(Parser::Mode::kResponse);
  parser.feed(dns::to_bytes(
      "HTTP/1.1 200 OK\r\nContent-Length: 4294967295\r\n\r\nxyz"));
  EXPECT_FALSE(parser.next_response().has_value());
  EXPECT_FALSE(parser.error());
}

/// What a response parser made of a stream: each message with its wire
/// sizes, then whether it met malformed input.
struct Parsed {
  struct Message {
    int status = 0;
    std::string reason;
    std::vector<std::pair<std::string, std::string>> headers;
    Bytes body;
    std::size_t header_bytes = 0;
    std::size_t body_bytes = 0;
    bool operator==(const Message&) const = default;
  };
  std::vector<Message> messages;
  bool error = false;
  bool operator==(const Parsed&) const = default;
};

/// Feed `wire` as slices of one buffer, cut at the increasing offsets
/// `cuts`, polling after each feed as a connection does.
Parsed parse_split(const Bytes& wire, const std::vector<std::size_t>& cuts) {
  const auto buffer = std::make_shared<const Bytes>(wire);
  Parser parser(Parser::Mode::kResponse);
  Parsed out;
  std::size_t from = 0;
  const auto feed_to = [&](std::size_t to) {
    if (to <= from) return;
    parser.feed(simnet::BufferSlice(buffer, from, to - from));
    from = to;
    while (auto r = parser.next_response()) {
      Parsed::Message m{r->status, r->reason, {}, r->body.to_bytes(),
                        parser.last_sizes().header_bytes,
                        parser.last_sizes().body_bytes};
      for (const auto [name, value] : r->headers) {
        m.headers.emplace_back(name, value);
      }
      out.messages.push_back(std::move(m));
    }
  };
  for (const std::size_t cut : cuts) feed_to(cut);
  feed_to(wire.size());
  out.error = parser.error();
  return out;
}

/// Pipelined responses: Content-Length bodies inside and across record
/// sizes, an empty body, and a chunked body with another after it.
Bytes pipelined_responses() {
  Bytes wire;
  const auto append = [&wire](const Bytes& more) {
    wire.insert(wire.end(), more.begin(), more.end());
  };
  for (const std::size_t size : {5, 0, 3000}) {
    Response r;
    r.status = size == 0 ? 204 : 200;
    r.reason = size == 0 ? "No Content" : "OK";
    r.headers.add("Content-Type", "application/octet-stream");
    Bytes body(size);
    for (std::size_t i = 0; i < size; ++i) {
      body[i] = static_cast<std::uint8_t>(i * 7);
    }
    r.body = std::move(body);
    append(serialize(r));
  }
  Response chunked;
  chunked.headers.add("Server", "origin");
  chunked.body = Bytes(300, 0x63);
  append(serialize_chunked(chunked, 64));
  Response last;
  last.status = 404;
  last.reason = "Not Found";
  last.body = dns::to_bytes("no such object...");
  append(serialize(last));
  return wire;
}

TEST(Message, ParserGivesTheSameMessagesForEverySplit) {
  const Bytes wire = pipelined_responses();
  const Parsed whole = parse_split(wire, {});
  ASSERT_EQ(whole.messages.size(), 5u);
  EXPECT_FALSE(whole.error);
  EXPECT_EQ(whole.messages[2].body.size(), 3000u);
  EXPECT_EQ(whole.messages[3].body, Bytes(300, 0x63));
  EXPECT_EQ(whole.messages[4].status, 404);
  // Every two-piece split (so every head split across feeds), three
  // pieces around each head, and one byte at a time.
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    EXPECT_EQ(parse_split(wire, {cut}), whole) << "cut at " << cut;
  }
  const std::string text = dns::to_string(wire);
  for (std::size_t head = text.find("HTTP/1.1"); head != std::string::npos;
       head = text.find("HTTP/1.1", head + 1)) {
    const std::size_t end = text.find("\r\n\r\n", head) + 4;
    for (std::size_t a = head; a < end; a += 7) {
      EXPECT_EQ(parse_split(wire, {a, a + 3, end - 1, end + 2}), whole)
          << "around the head at " << head;
    }
  }
  std::vector<std::size_t> bytes;
  for (std::size_t i = 1; i < wire.size(); ++i) bytes.push_back(i);
  EXPECT_EQ(parse_split(wire, bytes), whole);
}

TEST(Message, ParserMeetsMalformedInputAloneForEverySplit) {
  Bytes wire = pipelined_responses();
  const Bytes garbage = dns::to_bytes("NOT HTTP AT ALL\r\n\r\nHTTP/1.1 200 OK");
  wire.insert(wire.end(), garbage.begin(), garbage.end());
  const Parsed whole = parse_split(wire, {});
  EXPECT_EQ(whole.messages.size(), 5u);
  EXPECT_TRUE(whole.error);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    EXPECT_EQ(parse_split(wire, {cut}), whole) << "cut at " << cut;
  }
}

TEST(Message, BodyInsideTheFedSliceIsAWindowOfIt) {
  Response r;
  r.headers.add("Content-Type", "application/octet-stream");
  r.body = Bytes(3000, 0x42);
  WireSizes sizes;
  const BufferSlice wire = serialize(r, &sizes);
  Parser parser(Parser::Mode::kResponse);
  parser.feed(wire);
  const auto response = parser.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body.data(), wire.data() + sizes.header_bytes);
  EXPECT_EQ(response->body.size(), 3000u);
  EXPECT_EQ(wire.use_count(), 2) << "the fed slice and the body";
}

/// serialize(message) must be `head` followed by the body.
template <typename Message>
void expect_head_then_body(const Message& message, const std::string& head) {
  WireSizes sizes;
  const Bytes wire = serialize(message, &sizes);
  std::string expected = head;
  expected.append(message.body.begin(), message.body.end());
  EXPECT_EQ(dns::to_string(wire), expected);
  EXPECT_EQ(sizes.header_bytes, head.size());
  EXPECT_EQ(sizes.body_bytes, message.body.size());
}

TEST(Message, SerializeIsHeadThenBody) {
  // Start line, headers with Content-Length set from the body when there is
  // a body or a Content-Type, blank line, body. A server sends
  // {serialize_head, body} as one write, so serialize_head must be exactly
  // the head serialize() starts with.
  for (const bool content_type : {false, true}) {
    for (const bool body : {false, true}) {
      Request request;
      request.method = "POST";
      request.target = "/dns-query";
      request.headers.add("Host", "doh.example");
      std::string request_head =
          "POST /dns-query HTTP/1.1\r\nHost: doh.example\r\n";
      Response response;
      response.status = 404;
      response.reason = "Not Found";
      response.headers.add("Server", "test");
      std::string response_head = "HTTP/1.1 404 Not Found\r\nServer: test\r\n";
      if (content_type) {
        request.headers.add("Content-Type", "application/dns-message");
        request_head += "Content-Type: application/dns-message\r\n";
        response.headers.add("content-type", "text/plain");
        response_head += "content-type: text/plain\r\n";
      }
      if (body) {
        request.body = dns::to_bytes("query");
        response.body = Bytes(300, 0x42);
      }
      if (content_type || body) {
        request_head += "Content-Length: " +
                        std::to_string(request.body.size()) + "\r\n";
        response_head += "Content-Length: " +
                         std::to_string(response.body.size()) + "\r\n";
      }
      request_head += "\r\n";
      response_head += "\r\n";
      expect_head_then_body(request, request_head);
      expect_head_then_body(response, response_head);
      WireSizes sizes;
      EXPECT_EQ(dns::to_string(serialize_head(response, &sizes)),
                response_head);
      EXPECT_EQ(sizes.header_bytes, response_head.size());
      EXPECT_EQ(sizes.body_bytes, response.body.size());
    }
  }
}

// --- client/server over simulated TCP ---------------------------------------------

class Http1Test : public TwoHostFixture {
 protected:
  std::unique_ptr<Http1ServerConnection> server_conn;

  /// Server answering /slow after `slow_delay`, everything else instantly.
  void start_server(simnet::TimeUs slow_delay = simnet::ms(500)) {
    server.tcp_listen(80, [this, slow_delay](
                              std::shared_ptr<simnet::TcpConnection> c) {
      server_conn = std::make_unique<Http1ServerConnection>(
          std::make_unique<simnet::TcpByteStream>(std::move(c)),
          [this, slow_delay](const Request& req,
                             Http1ServerConnection::Responder respond) {
            Response resp;
            resp.status = 200;
            resp.headers.add("Content-Type", "text/plain");
            resp.body = dns::to_bytes("answer:" + req.target);
            if (req.target == "/slow") {
              loop.schedule_in(slow_delay,
                               [respond = std::move(respond),
                                r = std::move(resp)]() mutable {
                                 respond(std::move(r));
                               });
            } else {
              respond(std::move(resp));
            }
          });
    });
  }

  std::unique_ptr<Http1Client> make_client(bool pipelining = true) {
    return std::make_unique<Http1Client>(
        std::make_unique<simnet::TcpByteStream>(
            client.tcp_connect({server.id(), 80})),
        pipelining);
  }

  static Request get(const std::string& target) {
    Request r;
    r.method = "GET";
    r.target = target;
    r.headers.add("Host", "test");
    return r;
  }
};

TEST_F(Http1Test, SimpleRequestResponse) {
  start_server();
  auto http = make_client();
  std::string body;
  http->request(get("/hello"), [&](const Response& resp) {
    body = dns::to_string(resp.body);
  });
  loop.run();
  EXPECT_EQ(body, "answer:/hello");
  EXPECT_EQ(http->counters().requests, 1u);
  EXPECT_EQ(http->counters().responses, 1u);
}

TEST_F(Http1Test, PersistentConnectionMultipleRequests) {
  start_server();
  auto http = make_client();
  int responses = 0;
  for (int i = 0; i < 5; ++i) {
    http->request(get("/r" + std::to_string(i)),
                  [&](const Response&) { ++responses; });
  }
  loop.run();
  EXPECT_EQ(responses, 5);
  EXPECT_EQ(http->counters().responses, 5u);
}

TEST_F(Http1Test, ResponsesMatchedInOrder) {
  start_server();
  auto http = make_client();
  std::vector<std::string> bodies;
  for (const char* t : {"/a", "/b", "/c"}) {
    http->request(get(t), [&bodies](const Response& resp) {
      bodies.push_back(dns::to_string(resp.body));
    });
  }
  loop.run();
  EXPECT_EQ(bodies,
            (std::vector<std::string>{"answer:/a", "answer:/b", "answer:/c"}));
}

TEST_F(Http1Test, HeadOfLineBlockingWithPipelining) {
  // A slow first request must delay the (fast) second response: HTTP/1.1
  // responses are ordered (this is the Fig 2 HTTP/1.1 behaviour).
  start_server(simnet::ms(500));
  auto http = make_client(/*pipelining=*/true);
  simnet::TimeUs slow_done = 0;
  simnet::TimeUs fast_done = 0;
  http->request(get("/slow"),
                [&](const Response&) { slow_done = loop.now(); });
  http->request(get("/fast"),
                [&](const Response&) { fast_done = loop.now(); });
  loop.run();
  EXPECT_GT(slow_done, simnet::ms(500));
  EXPECT_GE(fast_done, slow_done);  // blocked behind the slow one
  EXPECT_EQ(server_conn->counters().responses, 2u);
}

TEST_F(Http1Test, WithoutPipeliningRequestsSerialize) {
  start_server(simnet::ms(100));
  auto http = make_client(/*pipelining=*/false);
  simnet::TimeUs first_done = 0;
  simnet::TimeUs second_sent_after = 0;
  http->request(get("/slow"), [&](const Response&) {
    first_done = loop.now();
  });
  http->request(get("/fast"), [&](const Response&) {
    second_sent_after = loop.now();
  });
  // Once the connection is up, only one request may be in flight.
  loop.run_until(simnet::ms(50));
  EXPECT_EQ(http->outstanding(), 1u);
  loop.run();
  EXPECT_GT(second_sent_after, first_done);
}

TEST_F(Http1Test, ServerBuffersOutOfOrderCompletions) {
  start_server(simnet::ms(300));
  auto http = make_client();
  std::vector<std::string> order;
  http->request(get("/slow"),
                [&](const Response&) { order.push_back("slow"); });
  http->request(get("/fast"),
                [&](const Response&) { order.push_back("fast"); });
  // Let the fast response become ready at the server but blocked.
  loop.run_until(simnet::ms(100));
  EXPECT_EQ(server_conn->blocked_responses(), 1u);
  loop.run();
  EXPECT_EQ(order, (std::vector<std::string>{"slow", "fast"}));
}

TEST_F(Http1Test, CountersSplitHeadersAndBody) {
  start_server();
  auto http = make_client();
  http->request(get("/x"), [](const Response&) {});
  loop.run();
  const auto& c = http->counters();
  EXPECT_GT(c.header_bytes_sent, 0u);
  EXPECT_EQ(c.body_bytes_sent, 0u);  // GET has no body
  EXPECT_GT(c.header_bytes_received, 0u);
  EXPECT_EQ(c.body_bytes_received, std::string("answer:/x").size());
}

TEST_F(Http1Test, ConnectionCloseWithOutstandingRequestsErrors) {
  start_server();
  auto http = make_client();
  bool error = false;
  http->set_error_handler([&]() { error = true; });
  http->request(get("/slow"), [](const Response&) {});
  loop.run_until(simnet::ms(50));
  server_conn->close();
  loop.run();
  EXPECT_TRUE(error);
}

}  // namespace
}  // namespace dohperf::http1
