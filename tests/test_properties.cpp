// Property-based tests: invariants checked over parameterized sweeps and
// seeded random inputs rather than hand-picked cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <vector>

#include "dns/base64url.hpp"
#include "dns/json.hpp"
#include "dns/message.hpp"
#include "http1/message.hpp"
#include "http2/frame.hpp"
#include "http2/hpack.hpp"
#include "stats/rng.hpp"

namespace dohperf {
namespace {

using dns::Bytes;

// --- DNS message round-trip over a generated message space --------------------

struct MessageShape {
  std::size_t answers;
  std::size_t labels;
  bool compress;
};

class DnsRoundTrip : public ::testing::TestWithParam<MessageShape> {};

TEST_P(DnsRoundTrip, EncodeDecodeIsIdentity) {
  const auto shape = GetParam();
  stats::SplitMix64 rng(shape.answers * 131 + shape.labels);

  dns::Name owner = dns::Name::root();
  for (std::size_t i = 0; i < shape.labels; ++i) {
    owner = owner.child("l" + std::to_string(rng.next_below(100)));
  }
  auto query = dns::Message::make_query(
      static_cast<std::uint16_t>(rng.next()), owner);
  dns::Message response = dns::Message::make_response(query, {});
  for (std::size_t i = 0; i < shape.answers; ++i) {
    response.answers.push_back(dns::ResourceRecord::a(
        owner, "10." + std::to_string(rng.next_below(256)) + ".0.1",
        static_cast<std::uint32_t>(rng.next_below(86400))));
  }
  const auto decoded =
      dns::Message::decode(response.encode(shape.compress));
  EXPECT_EQ(decoded, response);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DnsRoundTrip,
    ::testing::Values(MessageShape{0, 1, true}, MessageShape{0, 1, false},
                      MessageShape{1, 3, true}, MessageShape{5, 2, true},
                      MessageShape{5, 2, false}, MessageShape{20, 4, true},
                      MessageShape{50, 6, true}, MessageShape{50, 6, false},
                      MessageShape{200, 5, true}));

// --- DNS decoder never crashes on garbage ---------------------------------------

class DnsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DnsFuzz, RandomBytesEitherDecodeOrThrowWireError) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(rng.next_below(120));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    try {
      const auto m = dns::Message::decode(garbage);
      // Decoding may legitimately succeed; re-encoding must not throw.
      (void)m.encode();
    } catch (const dns::WireError&) {
      // expected for malformed input
    }
  }
}

TEST_P(DnsFuzz, TruncationsOfValidMessagesThrow) {
  stats::SplitMix64 rng(GetParam() ^ 0xfeed);
  auto query = dns::Message::make_query(
      7, dns::Name::parse("a.b.example.com"), dns::RType::kA);
  query.answers.push_back(
      dns::ResourceRecord::txt(dns::Name::parse("example.com"), "hello"));
  const auto wire = query.encode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes partial(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_THROW(dns::Message::decode(partial), dns::WireError)
        << "cut=" << cut;
  }
}

TEST_P(DnsFuzz, BitFlipsNeverCrash) {
  stats::SplitMix64 rng(GetParam() ^ 0xbeef);
  const auto base = dns::Message::make_query(
      7, dns::Name::parse("www.example.com")).encode();
  for (int round = 0; round < 1000; ++round) {
    Bytes mutated = base;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    try {
      (void)dns::Message::decode(mutated);
    } catch (const dns::WireError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsFuzz,
                         ::testing::Values(1ULL, 42ULL, 2019ULL, 8484ULL));

// --- base64url round-trip over random data --------------------------------------

class Base64Property : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Base64Property, RoundTripsRandomPayloads) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    Bytes data(GetParam() + rng.next_below(7));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const auto encoded = dns::base64url_encode(data);
    // No padding, URL-safe alphabet only.
    for (char c : encoded) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                  c == '_')
          << c;
    }
    EXPECT_EQ(dns::base64url_decode(encoded), data);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, Base64Property,
                         ::testing::Values(0u, 1u, 2u, 3u, 17u, 64u, 255u));

// --- HPACK round-trip over random header lists -----------------------------------

class HpackProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<http2::HeaderField> random_headers(stats::SplitMix64& rng) {
  static const char* kNames[] = {":path",      "accept",      "content-type",
                                 "user-agent", "x-custom",    "cookie",
                                 "etag",       "cache-control"};
  std::vector<http2::HeaderField> headers;
  const std::size_t n = 1 + rng.next_below(10);
  for (std::size_t i = 0; i < n; ++i) {
    http2::HeaderField f;
    f.name = kNames[rng.next_below(std::size(kNames))];
    const std::size_t len = rng.next_below(40);
    for (std::size_t j = 0; j < len; ++j) {
      f.value += static_cast<char>('!' + rng.next_below(94));
    }
    headers.push_back(std::move(f));
  }
  return headers;
}

TEST_P(HpackProperty, RandomBlocksRoundTripThroughSharedTables) {
  stats::SplitMix64 rng(GetParam());
  http2::HpackEncoder encoder;
  http2::HpackDecoder decoder;
  for (int round = 0; round < 300; ++round) {
    const auto headers = random_headers(rng);
    EXPECT_EQ(decoder.decode(encoder.encode(headers)), headers)
        << "round " << round;
  }
  // Tables stayed in lock-step.
  EXPECT_EQ(encoder.table().size(), decoder.table().size());
  EXPECT_EQ(encoder.table().entry_count(), decoder.table().entry_count());
}

TEST_P(HpackProperty, SmallTablesForceEvictionButStayCorrect) {
  stats::SplitMix64 rng(GetParam() ^ 0x77);
  http2::HpackEncoder encoder(128);  // tiny table: constant eviction
  http2::HpackDecoder decoder(128);
  for (int round = 0; round < 300; ++round) {
    const auto headers = random_headers(rng);
    EXPECT_EQ(decoder.decode(encoder.encode(headers)), headers);
    EXPECT_LE(decoder.table().size(), 128u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpackProperty,
                         ::testing::Values(3ULL, 99ULL, 7541ULL));

// --- Huffman round-trip over random strings ---------------------------------------

class HuffmanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanProperty, RandomStringsRoundTrip) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    std::string s;
    const std::size_t len = rng.next_below(200);
    for (std::size_t i = 0; i < len; ++i) {
      s += static_cast<char>(rng.next_below(256));
    }
    const auto encoded = http2::huffman_encode(s);
    EXPECT_EQ(http2::huffman_decode(encoded), s);
    EXPECT_EQ(http2::huffman_encoded_size(s), encoded.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProperty,
                         ::testing::Values(5ULL, 1234ULL));

// --- HTTP/2 frames and HPACK blocks never crash on hostile input ---------------
//
// Every input either decodes or throws WireError or HpackError. Anything else
// fails the case: another exception, or, under the asan-ubsan preset, a
// memory error.

/// A stream of `frames` frames with seeded types (unknown ones included),
/// flags, stream ids and payloads, mostly small, sometimes past 4 KiB.
Bytes random_frames(stats::SplitMix64& rng, std::size_t frames) {
  Bytes wire;
  for (std::size_t i = 0; i < frames; ++i) {
    http2::Frame f;
    f.type = static_cast<http2::FrameType>(rng.next_below(12));
    f.flags = static_cast<std::uint8_t>(rng.next());
    f.stream_id = static_cast<std::uint32_t>(rng.next());
    Bytes payload(rng.next_below(8) == 0 ? rng.next_below(6000)
                                         : rng.next_below(60));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    f.payload = std::move(payload);
    const Bytes frame = http2::encode_frame(f);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  return wire;
}

/// Feed `wire` to a FrameReader in seeded chunks, keeping every frame it
/// yields. Once the reader is gone, each payload must still equal the bytes
/// it was cut from. Returns the frame count, or nothing if the reader threw
/// WireError.
std::optional<std::size_t> read_frames(std::span<const std::uint8_t> wire,
                                       stats::SplitMix64& rng) {
  std::vector<std::pair<std::size_t, http2::Frame>> frames;  // at payload
  std::size_t consumed = 0;
  {
    http2::FrameReader reader;
    try {
      for (std::size_t fed = 0; fed < wire.size();) {
        const std::size_t n =
            std::min<std::size_t>(wire.size() - fed, 1 + rng.next_below(700));
        reader.feed(wire.subspan(fed, n));
        fed += n;
        while (auto frame = reader.next()) {
          consumed += http2::kFrameHeaderBytes;
          EXPECT_LE(frame->payload.size(), http2::kDefaultMaxFrameSize);
          frames.emplace_back(consumed, std::move(*frame));
          consumed += frames.back().second.payload.size();
        }
      }
    } catch (const dns::WireError&) {
      return std::nullopt;
    }
    EXPECT_EQ(consumed + reader.buffered(), wire.size());
  }
  for (const auto& [at, frame] : frames) {
    EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                           wire.begin() + static_cast<std::ptrdiff_t>(at)))
        << "payload at " << at;
  }
  return frames.size();
}

class H2FrameFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(H2FrameFuzz, ValidStreamsFrameUnderAnyChunking) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const std::size_t count = rng.next_below(12);
    const Bytes wire = random_frames(rng, count);
    EXPECT_EQ(read_frames(wire, rng), count) << "round " << round;
  }
}

TEST_P(H2FrameFuzz, MutatedStreamsEitherFrameOrThrowWireError) {
  stats::SplitMix64 rng(GetParam() ^ 0xbeef);
  for (int round = 0; round < 300; ++round) {
    Bytes wire = random_frames(rng, 1 + rng.next_below(6));
    // Flip bits (length fields included), then maybe cut the stream short.
    for (std::uint64_t flips = 1 + rng.next_below(4); flips > 0; --flips) {
      wire[rng.next_below(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    if (rng.next_below(2) == 0) wire.resize(rng.next_below(wire.size() + 1));
    (void)read_frames(wire, rng);
  }
}

TEST_P(H2FrameFuzz, RandomBytesEitherFrameOrThrowWireError) {
  stats::SplitMix64 rng(GetParam() ^ 0xfeed);
  for (int round = 0; round < 300; ++round) {
    Bytes garbage(rng.next_below(200));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    // A zero high length byte keeps some garbage frames under the limit.
    if (!garbage.empty() && rng.next_below(2) == 0) garbage[0] = 0;
    (void)read_frames(garbage, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, H2FrameFuzz,
                         ::testing::Values(1ULL, 42ULL, 2019ULL, 7540ULL));

/// Decode `block` with `decoder`: true if it decoded, false if it threw
/// WireError or HpackError.
bool decodes(http2::HpackDecoder& decoder,
             std::span<const std::uint8_t> block) {
  try {
    (void)decoder.decode(block);
    return true;
  } catch (const dns::WireError&) {
  } catch (const http2::HpackError&) {
  }
  return false;
}

class HpackFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HpackFuzz, MutatedBlocksEitherDecodeOrThrow) {
  stats::SplitMix64 rng(GetParam());
  http2::HpackEncoder encoder;
  http2::HpackDecoder decoder;
  for (int round = 0; round < 300; ++round) {
    const auto headers = random_headers(rng);
    const Bytes block = encoder.encode(headers);
    // A trial decoder takes the hostile copy; the real one stays in step
    // with the encoder, so later rounds mutate blocks that index a warm
    // dynamic table.
    Bytes mutated = block;
    switch (rng.next_below(3)) {
      case 0:
        for (std::uint64_t flips = 1 + rng.next_below(3); flips > 0; --flips) {
          mutated[rng.next_below(mutated.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      case 1:
        mutated.resize(rng.next_below(mutated.size()));
        break;
      default:
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(
                                             rng.next_below(mutated.size())),
                       static_cast<std::uint8_t>(rng.next()));
        break;
    }
    http2::HpackDecoder trial = decoder;
    (void)decodes(trial, mutated);
    EXPECT_EQ(decoder.decode(block), headers) << "round " << round;
  }
}

TEST_P(HpackFuzz, RandomBlocksEitherDecodeOrThrow) {
  stats::SplitMix64 rng(GetParam() ^ 0x5eed);
  http2::HpackEncoder encoder;
  http2::HpackDecoder warm;
  for (int i = 0; i < 20; ++i) (void)warm.decode(encoder.encode(random_headers(rng)));
  for (int round = 0; round < 500; ++round) {
    Bytes garbage(rng.next_below(80));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    http2::HpackDecoder trial = warm;
    (void)decodes(trial, garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpackFuzz,
                         ::testing::Values(1ULL, 42ULL, 2019ULL, 7541ULL));

TEST(HpackHostile, AdversarialRepresentationsThrow) {
  const auto rejects = [](const Bytes& block) {
    http2::HpackDecoder decoder;
    return !decodes(decoder, block);
  };
  // Table indices: 0, one past the static table with an empty dynamic
  // table, and one far past both.
  EXPECT_TRUE(rejects({0x80}));
  EXPECT_TRUE(rejects({0xbe}));
  EXPECT_TRUE(rejects({0xff, 0xff, 0xff, 0xff, 0x7f}));
  // A literal whose name index points past the tables.
  EXPECT_TRUE(rejects({0x7f, 0x40, 0x01, 'v'}));
  // An integer whose continuation never ends within 64 bits, and one cut
  // off mid-continuation.
  Bytes overlong(12, 0xff);
  overlong.push_back(0x01);
  EXPECT_TRUE(rejects(overlong));
  EXPECT_TRUE(rejects({0xff, 0x80}));
  // String lengths past the end of the block, raw and Huffman, small and
  // near 2^35.
  EXPECT_TRUE(rejects({0x40, 0x0a, 'a', 'b'}));
  EXPECT_TRUE(rejects({0x00, 0x01, 'n', 0x85, 0x11}));
  EXPECT_TRUE(rejects({0x40, 0x7f, 0xff, 0xff, 0xff, 0xff, 0x7f}));
  // Huffman padding: eight 1 bits, and padding of 0 bits (not a prefix of
  // EOS).
  EXPECT_TRUE(rejects({0x00, 0x81, 0xff, 0x01, 'v'}));
  Bytes name = http2::huffman_encode("a");
  ASSERT_EQ(name.size(), 1u);
  const std::size_t code_bits = 8 - static_cast<std::size_t>(std::countr_one(
                                        static_cast<unsigned>(name[0])));
  ASSERT_LT(code_bits, 8u);
  EXPECT_THROW(http2::huffman_decode(Bytes{static_cast<std::uint8_t>(
                   name[0] & (0xff << (8 - code_bits)))}),
               http2::HpackError);
  // The same string padded with 1s decodes.
  EXPECT_EQ(http2::huffman_decode(name), "a");
}

// --- HTTP/1.1 parser: any chunking of any message sequence ------------------------

class H1ChunkingProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(H1ChunkingProperty, ParserInvariantUnderChunkSize) {
  const std::size_t chunk = GetParam();
  // Three responses with varied body sizes back to back.
  Bytes wire;
  std::vector<std::size_t> body_sizes{0, 13, 1024};
  for (const auto size : body_sizes) {
    http1::Response r;
    r.status = 200;
    r.headers.add("Content-Type", "application/octet-stream");
    r.body = Bytes(size, 0x5a);
    const auto one = http1::serialize(r);
    wire.insert(wire.end(), one.begin(), one.end());
  }

  http1::Parser parser(http1::Parser::Mode::kResponse);
  std::vector<std::size_t> seen;
  for (std::size_t off = 0; off < wire.size(); off += chunk) {
    const std::size_t n = std::min(chunk, wire.size() - off);
    parser.feed(Bytes(wire.begin() + static_cast<std::ptrdiff_t>(off),
                      wire.begin() + static_cast<std::ptrdiff_t>(off + n)));
    while (auto r = parser.next_response()) seen.push_back(r->body.size());
  }
  EXPECT_EQ(seen, body_sizes);
  EXPECT_FALSE(parser.error());
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, H1ChunkingProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 16u, 64u, 1000u,
                                           100000u));

// --- dns-json round-trip over the record space --------------------------------------

class JsonRoundTrip : public ::testing::TestWithParam<dns::RType> {};

TEST_P(JsonRoundTrip, AnswerSurvivesJson) {
  const auto type = GetParam();
  const auto owner = dns::Name::parse("record.example.com");
  dns::ResourceRecord rr;
  switch (type) {
    case dns::RType::kA:
      rr = dns::ResourceRecord::a(owner, "198.51.100.7");
      break;
    case dns::RType::kCNAME:
      rr = dns::ResourceRecord::cname(owner, dns::Name::parse("t.example"));
      break;
    case dns::RType::kTXT:
      rr = dns::ResourceRecord::txt(owner, "v=spf1 -all");
      break;
    case dns::RType::kNS:
      rr = {owner, dns::RType::kNS, dns::RClass::kIN, 300,
            dns::NsRdata{dns::Name::parse("ns.example")}};
      break;
    default:
      GTEST_SKIP();
  }
  const auto query = dns::Message::make_query(0, owner, type);
  const auto response = dns::Message::make_response(query, {rr});
  const auto parsed = dns::from_dns_json(dns::to_dns_json(response));
  ASSERT_EQ(parsed.answers.size(), 1u);
  EXPECT_EQ(parsed.answers[0].type, type);
  EXPECT_EQ(parsed.answers[0].name, owner);
}

INSTANTIATE_TEST_SUITE_P(Types, JsonRoundTrip,
                         ::testing::Values(dns::RType::kA, dns::RType::kCNAME,
                                           dns::RType::kTXT,
                                           dns::RType::kNS));

// --- name invariants -------------------------------------------------------------

class NameProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NameProperty, ParsePrintParseIsStable) {
  stats::SplitMix64 rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    std::string text;
    const std::size_t labels = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < labels; ++i) {
      if (i) text += '.';
      const std::size_t len = 1 + rng.next_below(12);
      for (std::size_t j = 0; j < len; ++j) {
        text += static_cast<char>('a' + rng.next_below(26));
      }
    }
    const auto name = dns::Name::parse(text);
    EXPECT_EQ(dns::Name::parse(name.to_string()), name);
    // Wire round trip preserves equality too.
    dns::ByteWriter w;
    dns::NameCompressor c;
    c.write(w, name);
    dns::ByteReader r(w.data());
    EXPECT_EQ(dns::read_name(r), name);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NameProperty, ::testing::Values(11ULL, 97ULL));

}  // namespace
}  // namespace dohperf
