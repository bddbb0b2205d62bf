// HTTP/1.1 chunked transfer-encoding (RFC 7230 §4.1).
#include <gtest/gtest.h>

#include "http1/message.hpp"

namespace dohperf::http1 {
namespace {

using dns::Bytes;

Response sample_response(std::size_t body_size) {
  Response r;
  r.status = 200;
  r.reason = "OK";
  r.headers.add("Content-Type", "application/octet-stream");
  Bytes body(body_size);
  for (std::size_t i = 0; i < body_size; ++i) {
    body[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  r.body = std::move(body);
  return r;
}

TEST(Chunked, SerializeShape) {
  const auto wire = serialize_chunked(sample_response(5), 4);
  const std::string text = dns::to_string(wire);
  EXPECT_NE(text.find("Transfer-Encoding: chunked\r\n"), std::string::npos);
  EXPECT_NE(text.find("\r\n4\r\n"), std::string::npos);  // first chunk size
  EXPECT_NE(text.find("\r\n1\r\n"), std::string::npos);  // second chunk
  EXPECT_NE(text.find("0\r\n\r\n"), std::string::npos);  // terminator
}

TEST(Chunked, RoundTripWholeBuffer) {
  const auto original = sample_response(1000);
  const auto wire = serialize_chunked(original, 256);
  Parser parser(Parser::Mode::kResponse);
  parser.feed(wire);
  const auto out = parser.next_response();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->status, 200);
  EXPECT_EQ(out->body, original.body);
  EXPECT_FALSE(parser.error());
}

TEST(Chunked, RoundTripByteByByte) {
  const auto original = sample_response(300);
  const auto wire = serialize_chunked(original, 64);
  Parser parser(Parser::Mode::kResponse);
  std::optional<Response> out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    parser.feed(Bytes{wire[i]});
    if (auto r = parser.next_response()) out = std::move(r);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->body, original.body);
}

TEST(Chunked, EmptyBodyIsJustTerminator) {
  const auto wire = serialize_chunked(sample_response(0), 64);
  Parser parser(Parser::Mode::kResponse);
  parser.feed(wire);
  const auto out = parser.next_response();
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->body.empty());
}

TEST(Chunked, FollowedByContentLengthMessage) {
  // A chunked response followed by a content-length response on the same
  // connection: the parser must reset its chunked state between messages.
  Bytes wire = serialize_chunked(sample_response(100), 30);
  Response plain = sample_response(7);
  const auto second = serialize(plain);
  wire.insert(wire.end(), second.begin(), second.end());

  Parser parser(Parser::Mode::kResponse);
  parser.feed(wire);
  const auto first = parser.next_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->body.size(), 100u);
  const auto next = parser.next_response();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->body.size(), 7u);
}

TEST(Chunked, BadChunkSizeLineIsError) {
  Parser parser(Parser::Mode::kResponse);
  parser.feed(dns::to_bytes(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n"));
  EXPECT_FALSE(parser.next_response().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(Chunked, SizesCountFramingAsBody) {
  WireSizes sizes;
  const auto wire = serialize_chunked(sample_response(100), 10);
  Parser parser(Parser::Mode::kResponse);
  parser.feed(wire);
  ASSERT_TRUE(parser.next_response().has_value());
  // De-chunked body is 100 bytes but the wire framing is bigger.
  EXPECT_GT(parser.last_sizes().body_bytes, 100u);
  EXPECT_EQ(parser.last_sizes().header_bytes +
                parser.last_sizes().body_bytes,
            wire.size());
  (void)sizes;
}

}  // namespace
}  // namespace dohperf::http1
