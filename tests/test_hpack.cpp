#include <gtest/gtest.h>

#include <string>

#include "http2/hpack.hpp"

namespace dohperf::http2 {
namespace {

using dns::ByteReader;
using dns::Bytes;

// --- integers (RFC 7541 §5.1) ----------------------------------------------------

TEST(HpackInteger, FitsInPrefix) {
  Bytes out;
  encode_integer(out, 5, 0x00, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 10);
  ByteReader r(out);
  EXPECT_EQ(decode_integer(r, 5), 10u);
}

TEST(HpackInteger, Rfc7541ExampleC11) {
  // C.1.2: encoding 1337 with a 5-bit prefix -> 1f 9a 0a.
  Bytes out;
  encode_integer(out, 5, 0x00, 1337);
  EXPECT_EQ(out, (Bytes{0x1f, 0x9a, 0x0a}));
  ByteReader r(out);
  EXPECT_EQ(decode_integer(r, 5), 1337u);
}

TEST(HpackInteger, PreservesFlagBits) {
  Bytes out;
  encode_integer(out, 7, 0x80, 2);
  EXPECT_EQ(out[0], 0x82);
  ByteReader r(out);
  std::uint8_t flags = 0;
  EXPECT_EQ(decode_integer(r, 7, &flags), 2u);
  EXPECT_EQ(flags, 0x80);
}

TEST(HpackInteger, RoundTripSweep) {
  for (std::uint8_t prefix = 1; prefix <= 8; ++prefix) {
    for (std::uint64_t value : {0ULL, 1ULL, 30ULL, 127ULL, 128ULL, 255ULL,
                                16384ULL, 1000000ULL}) {
      Bytes out;
      encode_integer(out, prefix, 0, value);
      ByteReader r(out);
      EXPECT_EQ(decode_integer(r, prefix), value)
          << "prefix=" << int{prefix} << " value=" << value;
    }
  }
}

// --- Huffman ---------------------------------------------------------------------

TEST(Huffman, RoundTripCommonStrings) {
  for (const char* s :
       {"", "a", "www.example.com", "application/dns-message",
        "no-cache", ":authority", "GET", "accept-encoding",
        "Mozilla/5.0 (X11; Linux x86_64)", "max-age=300"}) {
    const Bytes encoded = huffman_encode(s);
    EXPECT_EQ(huffman_decode(encoded), s) << s;
    EXPECT_EQ(huffman_encoded_size(s), encoded.size()) << s;
  }
}

TEST(Huffman, RoundTripAllByteValues) {
  std::string all;
  for (int i = 0; i < 256; ++i) all += static_cast<char>(i);
  EXPECT_EQ(huffman_decode(huffman_encode(all)), all);
}

TEST(Huffman, CompressesHeaderText) {
  // Typical header text (lowercase + digits + punctuation) must shrink.
  const std::string text = "cache-control: max-age=300, stale-while-revalidate";
  EXPECT_LT(huffman_encoded_size(text), text.size());
}

TEST(Huffman, RejectsBrokenPadding) {
  // A full byte of EOS-padding (0xff after a complete symbol boundary is
  // more than 7 bits of padding).
  Bytes encoded = huffman_encode("hi");
  for (int i = 0; i < 6; ++i) encoded.push_back(0xff);
  EXPECT_THROW(huffman_decode(encoded), HpackError);
}

// --- dynamic table ------------------------------------------------------------------

TEST(DynamicTable, InsertAndIndex) {
  DynamicTable t(4096);
  t.insert({"a", "1"});
  t.insert({"b", "2"});
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.at(1).name, "b");  // most recent first
  EXPECT_EQ(t.at(2).name, "a");
  EXPECT_THROW(t.at(3), HpackError);
  EXPECT_THROW(t.at(0), HpackError);
}

TEST(DynamicTable, SizeAccountingAndEviction) {
  // Entry size = name + value + 32.
  DynamicTable t(100);
  t.insert({"aaaa", "bbbb"});  // 40
  t.insert({"cccc", "dddd"});  // 40 -> total 80
  EXPECT_EQ(t.size(), 80u);
  t.insert({"eeee", "ffff"});  // 40 -> evicts oldest
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.at(2).name, "cccc");
}

TEST(DynamicTable, OversizedEntryClearsTable) {
  DynamicTable t(50);
  t.insert({"a", "b"});
  t.insert({std::string(100, 'x'), "y"});
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(DynamicTable, ShrinkEvicts) {
  DynamicTable t(4096);
  t.insert({"aaaa", "bbbb"});
  t.insert({"cccc", "dddd"});
  t.set_max_size(40);
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_EQ(t.at(1).name, "cccc");
}

// --- encoder/decoder ------------------------------------------------------------------

std::vector<HeaderField> doh_request_headers() {
  return {
      {":method", "POST"},
      {":scheme", "https"},
      {":authority", "cloudflare-dns.com"},
      {":path", "/dns-query"},
      {"accept", "application/dns-message"},
      {"content-type", "application/dns-message"},
      {"content-length", "47"},
      {"user-agent", "dohperf/1.0"},
  };
}

TEST(Hpack, RoundTripBasic) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  const auto headers = doh_request_headers();
  const Bytes block = encoder.encode(headers);
  EXPECT_EQ(decoder.decode(block), headers);
}

TEST(Hpack, StaticTableFullMatchIsOneByte) {
  HpackEncoder encoder;
  const Bytes block = encoder.encode({{":method", "GET"}});
  EXPECT_EQ(block.size(), 1u);
  EXPECT_EQ(block[0], 0x82);  // static index 2
}

TEST(Hpack, DifferentialHeadersShrinkOnRepeat) {
  // The HPACK dynamic table means the second identical request costs a
  // fraction of the first — the paper's "differential transmission"
  // mechanism that shrinks persistent-connection header overhead (Fig 5).
  HpackEncoder encoder;
  HpackDecoder decoder;
  const auto headers = doh_request_headers();
  const Bytes first = encoder.encode(headers);
  const Bytes second = encoder.encode(headers);
  EXPECT_EQ(decoder.decode(first), headers);
  EXPECT_EQ(decoder.decode(second), headers);
  EXPECT_LT(second.size(), first.size() / 4);
}

TEST(Hpack, RepeatIsAllIndexed) {
  HpackEncoder encoder;
  const auto headers = doh_request_headers();
  encoder.encode(headers);
  const Bytes second = encoder.encode(headers);
  // Every field collapses to a 1-2 byte indexed representation.
  EXPECT_LE(second.size(), headers.size() * 2);
}

TEST(Hpack, ValueChangeReusesName) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  const Bytes first = encoder.encode({{"content-length", "100"}});
  const Bytes second = encoder.encode({{"content-length", "101"}});
  EXPECT_EQ(decoder.decode(first),
            (std::vector<HeaderField>{{"content-length", "100"}}));
  EXPECT_EQ(decoder.decode(second),
            (std::vector<HeaderField>{{"content-length", "101"}}));
  // Name comes from the static table, so the second block is just the
  // name index + the new value.
  EXPECT_LT(second.size(), first.size() + 2);
}

TEST(Hpack, DisabledDynamicTableStaysVerbose) {
  HpackEncoder encoder;
  encoder.disable_dynamic_table();
  HpackDecoder decoder;
  const auto headers = doh_request_headers();
  const Bytes first = encoder.encode(headers);
  const Bytes second = encoder.encode(headers);
  EXPECT_EQ(decoder.decode(first), headers);
  EXPECT_EQ(decoder.decode(second), headers);
  // Without the dynamic table there is no differential win.
  EXPECT_GE(second.size() + 2, first.size());
}

TEST(Hpack, DecoderTracksTableSizeUpdate) {
  HpackEncoder encoder;
  encoder.disable_dynamic_table();
  HpackDecoder decoder;
  // The size update (0) is carried at the start of the next block.
  EXPECT_EQ(decoder.decode(encoder.encode({{"x-custom", "v"}})),
            (std::vector<HeaderField>{{"x-custom", "v"}}));
  EXPECT_EQ(decoder.table().max_size(), 0u);
  EXPECT_EQ(decoder.table().entry_count(), 0u);
}

/// A header block that sets the dynamic table's size to `size`, then adds
/// `literals` distinct fields with incremental indexing (new names).
Bytes size_update_then_literals(std::uint64_t size, int literals) {
  Bytes block;
  encode_integer(block, 5, 0x20, size);
  for (int i = 0; i < literals; ++i) {
    const std::string index = std::to_string(i);
    const std::string name = "x-field-" + index;
    const std::string value = "value-" + index;
    block.push_back(0x40);  // literal with incremental indexing, new name
    encode_integer(block, 7, 0x00, name.size());
    block.insert(block.end(), name.begin(), name.end());
    encode_integer(block, 7, 0x00, value.size());
    block.insert(block.end(), value.begin(), value.end());
  }
  return block;
}

TEST(Hpack, DecoderRejectsTableSizeAboveItsLimit) {
  // RFC 7541 §4.2 and §6.3: an update may not exceed the size this end
  // advertised. Accepting one let a peer grow the table without bound.
  HpackDecoder decoder(4096);
  EXPECT_THROW(decoder.decode(size_update_then_literals(1u << 28, 2000)),
               HpackError);
  EXPECT_LE(decoder.table().size(), 4096u);
  EXPECT_THROW(decoder.decode(size_update_then_literals(4097, 1)),
               HpackError);
  for (const std::uint64_t size : {std::uint64_t{0}, std::uint64_t{4096}}) {
    HpackDecoder fresh(4096);
    const auto fields = fresh.decode(size_update_then_literals(size, 2000));
    EXPECT_EQ(fields.size(), 2000u);
    EXPECT_EQ(fresh.table().max_size(), size);
    EXPECT_LE(fresh.table().size(), size);
  }
}

TEST(Hpack, LongValuesRoundTrip) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  const std::vector<HeaderField> headers{
      {":path", "/dns-query?dns=" + std::string(500, 'A')}};
  EXPECT_EQ(decoder.decode(encoder.encode(headers)), headers);
}

TEST(Hpack, ManyBlocksKeepTablesInSync) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  for (int i = 0; i < 200; ++i) {
    const std::vector<HeaderField> headers{
        {":method", "POST"},
        {"x-request-id", std::to_string(i)},
        {"x-batch", std::to_string(i / 10)},
    };
    EXPECT_EQ(decoder.decode(encoder.encode(headers)), headers) << i;
  }
  EXPECT_EQ(encoder.table().entry_count(), decoder.table().entry_count());
  EXPECT_EQ(encoder.table().size(), decoder.table().size());
}

TEST(Hpack, DecoderRejectsBadIndex) {
  HpackDecoder decoder;
  const Bytes bogus{0xff, 0xff, 0x0f};  // indexed field, enormous index
  EXPECT_THROW(decoder.decode(bogus), HpackError);
}

TEST(Hpack, StaticTableMatchesRfcAppendixA) {
  const auto& table = static_table();
  ASSERT_EQ(table.size(), 61u);
  EXPECT_EQ(table[0], (HeaderField{":authority", ""}));
  EXPECT_EQ(table[1], (HeaderField{":method", "GET"}));
  EXPECT_EQ(table[7], (HeaderField{":status", "200"}));
  EXPECT_EQ(table[53], (HeaderField{"server", ""}));
  EXPECT_EQ(table[60], (HeaderField{"www-authenticate", ""}));
}

}  // namespace
}  // namespace dohperf::http2
