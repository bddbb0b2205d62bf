#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <compare>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/base64url.hpp"
#include "dns/json.hpp"
#include "dns/json_value.hpp"
#include "dns/message.hpp"
#include "simnet/buffer.hpp"
#include "stats/rng.hpp"

namespace dohperf::dns {
namespace {

TEST(Name, ParseAndPrint) {
  const auto n = Name::parse("www.Example.COM");
  EXPECT_EQ(n.label_count(), 3u);
  EXPECT_EQ(n.to_string(), "www.Example.COM");
}

TEST(Name, TrailingDotAccepted) {
  EXPECT_EQ(Name::parse("example.com."), Name::parse("example.com"));
}

TEST(Name, RootName) {
  const auto root = Name::parse(".");
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(root.wire_length(), 1u);
}

TEST(Name, CaseInsensitiveEquality) {
  EXPECT_EQ(Name::parse("EXAMPLE.com"), Name::parse("example.COM"));
  EXPECT_NE(Name::parse("a.example.com"), Name::parse("b.example.com"));
}

TEST(Name, InvalidNamesRejected) {
  EXPECT_THROW(Name::parse(""), WireError);
  EXPECT_THROW(Name::parse("a..b"), WireError);
  EXPECT_THROW(Name::parse(std::string(64, 'x') + ".com"), WireError);
  // > 255 octets total
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcdef.";
  long_name += "com";
  EXPECT_THROW(Name::parse(long_name), WireError);
}

TEST(Name, ParentAndChild) {
  const auto n = Name::parse("www.example.com");
  EXPECT_EQ(n.parent(), Name::parse("example.com"));
  EXPECT_EQ(Name::parse("example.com").child("www"), n);
  EXPECT_TRUE(Name::root().parent().is_root());
}

TEST(Name, SubdomainChecks) {
  const auto child = Name::parse("a.b.example.com");
  EXPECT_TRUE(child.is_subdomain_of(Name::parse("example.com")));
  EXPECT_TRUE(child.is_subdomain_of(child));
  EXPECT_FALSE(Name::parse("example.com").is_subdomain_of(child));
  EXPECT_FALSE(child.is_subdomain_of(Name::parse("example.org")));
}

TEST(Name, WireRoundTripNoCompression) {
  ByteWriter w;
  NameCompressor c(/*enabled=*/false);
  const auto n = Name::parse("mail.example.org");
  c.write(w, n);
  ByteReader r(w.data());
  EXPECT_EQ(read_name(r), n);
  EXPECT_EQ(r.offset(), n.wire_length());
}

TEST(Name, CompressionPointersShrinkRepeats) {
  ByteWriter w;
  NameCompressor c;
  const auto a = Name::parse("www.example.com");
  const auto b = Name::parse("mail.example.com");
  c.write(w, a);
  const std::size_t after_first = w.size();
  c.write(w, b);  // should reuse "example.com" via a pointer
  const std::size_t second_len = w.size() - after_first;
  EXPECT_LT(second_len, b.wire_length());
  EXPECT_EQ(second_len, 1 + 4 + 2u);  // "mail" label + pointer

  ByteReader r(w.data());
  EXPECT_EQ(read_name(r), a);
  EXPECT_EQ(read_name(r), b);
}

TEST(Name, CompressionLoopDetected) {
  // A pointer that points at itself.
  Bytes evil{0xc0, 0x00};
  ByteReader r(evil);
  EXPECT_THROW(read_name(r), WireError);
}

TEST(ARdata, ParseAndFormat) {
  const auto a = ARdata::parse("192.0.2.1");
  EXPECT_EQ(a.to_string(), "192.0.2.1");
  EXPECT_THROW(ARdata::parse("256.1.1.1"), WireError);
  EXPECT_THROW(ARdata::parse("1.2.3"), WireError);
  EXPECT_THROW(ARdata::parse("a.b.c.d"), WireError);
}

TEST(Message, QueryRoundTrip) {
  const auto query =
      Message::make_query(0x1234, Name::parse("example.com"), RType::kA);
  const auto wire = query.encode();
  const auto decoded = Message::decode(wire);
  EXPECT_EQ(decoded.id, 0x1234);
  EXPECT_FALSE(decoded.flags.qr);
  EXPECT_TRUE(decoded.flags.rd);
  ASSERT_EQ(decoded.questions.size(), 1u);
  EXPECT_EQ(decoded.questions[0].qname, Name::parse("example.com"));
  EXPECT_EQ(decoded.questions[0].qtype, RType::kA);
  ASSERT_NE(decoded.edns(), nullptr);
  EXPECT_EQ(decoded, query);
}

TEST(Message, ResponseRoundTrip) {
  const auto query =
      Message::make_query(7, Name::parse("www.example.com"), RType::kA);
  auto response = Message::make_response(
      query, {ResourceRecord::a(Name::parse("www.example.com"), "203.0.113.9",
                                600)});
  const auto decoded = Message::decode(response.encode());
  EXPECT_TRUE(decoded.flags.qr);
  EXPECT_EQ(decoded.flags.rcode, Rcode::kNoError);
  ASSERT_EQ(decoded.answers.size(), 1u);
  const auto& rr = decoded.answers[0];
  EXPECT_EQ(rr.ttl, 600u);
  EXPECT_EQ(std::get<ARdata>(rr.rdata).to_string(), "203.0.113.9");
}

TEST(Message, ErrorResponse) {
  const auto query = Message::make_query(9, Name::parse("nx.example"));
  const auto err = Message::make_error(query, Rcode::kNxDomain);
  const auto decoded = Message::decode(err.encode());
  EXPECT_EQ(decoded.flags.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(decoded.answers.empty());
}

TEST(Message, AllRecordTypesRoundTrip) {
  const auto owner = Name::parse("example.com");
  Message m;
  m.id = 1;
  m.flags.qr = true;
  m.answers = {
      ResourceRecord::a(owner, "192.0.2.1"),
      ResourceRecord::cname(Name::parse("alias.example.com"), owner),
      ResourceRecord::txt(owner, "hello world"),
      ResourceRecord::caa(owner, 0, "issue", "ca.example.net"),
      {owner, RType::kNS, RClass::kIN, 300, NsRdata{Name::parse("ns1.example.com")}},
      {owner, RType::kMX, RClass::kIN, 300, MxRdata{10, Name::parse("mx.example.com")}},
      {owner, RType::kPTR, RClass::kIN, 300, PtrRdata{Name::parse("host.example.com")}},
      {owner, RType::kSOA, RClass::kIN, 300,
       SoaRdata{Name::parse("ns1.example.com"), Name::parse("admin.example.com"),
                2024010101, 3600, 600, 86400, 300}},
  };
  AaaaRdata aaaa;
  aaaa.addr = {0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  m.answers.push_back({owner, RType::kAAAA, RClass::kIN, 300, aaaa});

  const auto decoded = Message::decode(m.encode());
  EXPECT_EQ(decoded, m);
}

TEST(Message, CompressionShrinksRepeatedNames) {
  const auto owner = Name::parse("subdomain.example.com");
  Message m;
  m.answers.assign(5, ResourceRecord::a(owner, "192.0.2.1"));
  const auto compressed = m.encode(true);
  const auto uncompressed = m.encode(false);
  EXPECT_LT(compressed.size(), uncompressed.size());
  EXPECT_EQ(Message::decode(compressed), Message::decode(uncompressed));
}

TEST(Message, TruncatedInputThrows) {
  const auto wire =
      Message::make_query(1, Name::parse("example.com")).encode();
  for (std::size_t cut = 1; cut < wire.size(); cut += 7) {
    Bytes partial(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_THROW(Message::decode(partial), WireError) << "cut=" << cut;
  }
}

TEST(Message, EdnsPaddingBlocksSize) {
  auto query = Message::make_query(5, Name::parse("a.example.com"));
  query.pad_to_multiple(128);
  const auto wire = query.encode();
  EXPECT_EQ(wire.size() % 128, 0u);
  // Idempotent: re-padding keeps one padding option.
  query.pad_to_multiple(128);
  EXPECT_EQ(query.encode().size(), wire.size());
  // Round-trips.
  EXPECT_EQ(Message::decode(wire), query);
}

TEST(Message, PaddingWithoutEdnsThrows) {
  auto query = Message::make_query(5, Name::parse("a.example.com"));
  query.additionals.clear();  // drop the OPT record
  EXPECT_THROW(query.pad_to_multiple(128), WireError);
}

TEST(Flags, EncodeDecodeAllBits) {
  Flags f;
  f.qr = true;
  f.aa = true;
  f.tc = true;
  f.rd = false;
  f.ra = true;
  f.ad = true;
  f.cd = true;
  f.rcode = Rcode::kRefused;
  EXPECT_EQ(Flags::decode(f.encode()), f);
}

TEST(JsonValue, ParsePrimitives) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(JsonValue::parse("\"a\\nb\"").as_string(), "a\nb");
}

TEST(JsonValue, ParseNested) {
  const auto v = JsonValue::parse(R"({"a":[1,2,{"b":"c"}],"d":{}})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").as_object().empty());
}

TEST(JsonValue, RejectsGarbage) {
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("tru"), JsonError);
  EXPECT_THROW(JsonValue::parse("{}x"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
}

TEST(JsonValue, DumpParseRoundTrip) {
  const auto v = JsonValue::parse(
      R"({"Status":0,"Answer":[{"name":"x.","data":"1.2.3.4"}],"TC":false})");
  EXPECT_EQ(JsonValue::parse(v.dump()), v);
}

TEST(DnsJson, ResponseRoundTrip) {
  const auto query =
      Message::make_query(0, Name::parse("example.com"), RType::kA);
  auto response = Message::make_response(
      query, {ResourceRecord::a(Name::parse("example.com"), "93.184.216.34")});
  const std::string json = to_dns_json(response);
  EXPECT_NE(json.find("\"Status\":0"), std::string::npos);
  EXPECT_NE(json.find("93.184.216.34"), std::string::npos);

  const auto parsed = from_dns_json(json);
  EXPECT_EQ(parsed.flags.rcode, Rcode::kNoError);
  ASSERT_EQ(parsed.answers.size(), 1u);
  EXPECT_EQ(std::get<ARdata>(parsed.answers[0].rdata).to_string(),
            "93.184.216.34");
  EXPECT_EQ(parsed.questions.at(0).qname, Name::parse("example.com"));
}

TEST(DnsJson, QueryString) {
  EXPECT_EQ(dns_json_query_string(Name::parse("example.com"), RType::kAAAA),
            "name=example.com&type=AAAA");
}

TEST(Base64Url, KnownVectors) {
  EXPECT_EQ(base64url_encode(to_bytes("")), "");
  EXPECT_EQ(base64url_encode(to_bytes("f")), "Zg");
  EXPECT_EQ(base64url_encode(to_bytes("fo")), "Zm8");
  EXPECT_EQ(base64url_encode(to_bytes("foo")), "Zm9v");
  EXPECT_EQ(base64url_encode(to_bytes("foob")), "Zm9vYg");
}

TEST(Base64Url, RoundTripAllBytes) {
  Bytes data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(base64url_decode(base64url_encode(data)), data);
}

TEST(Base64Url, UrlSafeAlphabet) {
  Bytes data{0xfb, 0xff, 0xbf};  // would produce +/ in standard base64
  const auto encoded = base64url_encode(data);
  EXPECT_EQ(encoded.find('+'), std::string::npos);
  EXPECT_EQ(encoded.find('/'), std::string::npos);
  EXPECT_EQ(base64url_decode(encoded), data);
}

TEST(Base64Url, RejectsInvalid) {
  EXPECT_THROW(base64url_decode("a"), WireError);     // impossible length
  EXPECT_THROW(base64url_decode("ab=="), WireError);  // padding not allowed
  EXPECT_THROW(base64url_decode("a+b/"), WireError);  // wrong alphabet
}

TEST(Wire, ReaderBounds) {
  Bytes data{1, 2, 3};
  ByteReader r(data);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(r.u16(), 0x0203);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.u8(), WireError);
}

TEST(Wire, WriterPatch) {
  ByteWriter w;
  w.u16(0);
  w.u32(0xdeadbeef);
  w.patch_u16(0, 0x1234);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeef);
  EXPECT_THROW(w.patch_u16(5, 1), WireError);
}

// --- the two-byte length framing of DNS over TCP, TLS and QUIC ----------------

/// Seeded queries and responses whose names share suffixes, so compression
/// pointers reach back across records.
std::vector<Message> framing_messages(std::uint64_t seed) {
  stats::SplitMix64 rng(seed);
  std::vector<Message> out;
  for (int i = 0; i < 12; ++i) {
    // Numbers bound to locals first: GCC 12 misreads "lit" + to_string().
    const std::string host = std::to_string(rng.next_below(500));
    const std::string zone = std::to_string(i % 3);
    const std::string octet = std::to_string(i);
    const Name name = Name::parse("h" + host + ".zone" + zone + ".example");
    Message query = Message::make_query(static_cast<std::uint16_t>(i), name,
                                        i % 2 == 0 ? RType::kA : RType::kAAAA);
    if (i % 3 == 0) {
      out.push_back(std::move(query));
      continue;
    }
    const Name alias = Name::parse("cdn.zone" + zone + ".example");
    out.push_back(Message::make_response(
        query, {ResourceRecord::cname(name, alias),
                ResourceRecord::a(alias, "192.0.2." + octet)}));
  }
  return out;
}

TEST(Framing, WriterBytesAreTheLengthThenTheMessage) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const Message& m : framing_messages(seed)) {
      const Bytes wire = m.encode();
      ByteWriter expected;
      expected.u16(static_cast<std::uint16_t>(wire.size()));
      expected.bytes(wire);
      EXPECT_EQ(m.encode_framed(), expected.data());
    }
  }
}

TEST(Framing, EverySplitOfAStreamYieldsTheSameMessages) {
  const std::vector<Message> messages = framing_messages(7);
  Bytes stream;
  for (const Message& m : messages) {
    const Bytes frame = m.encode_framed();
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  // Every chunk size, and every single cut into two chunks.
  std::vector<std::vector<std::size_t>> splits;
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    std::vector<std::size_t> cuts;
    for (std::size_t at = chunk; at < stream.size(); at += chunk) {
      cuts.push_back(at);
    }
    splits.push_back(std::move(cuts));
  }
  for (std::size_t at = 1; at < stream.size(); ++at) splits.push_back({at});
  for (const std::vector<std::size_t>& cuts : splits) {
    simnet::ByteQueue rx;
    std::vector<Message> read;
    std::size_t from = 0;
    const auto feed = [&](std::size_t to) {
      rx.append(std::span<const std::uint8_t>(stream).subspan(from, to - from));
      from = to;
      while (const auto wire = next_frame(rx.bytes())) {
        rx.skip(kFramePrefix + wire->size());
        read.push_back(Message::decode(*wire));
      }
    };
    for (const std::size_t cut : cuts) feed(cut);
    feed(stream.size());
    ASSERT_EQ(read, messages);
    EXPECT_EQ(rx.size(), 0u);
  }
}

TEST(Framing, ReaderWaitsForTheWholeFrame) {
  const Bytes frame = Message::make_query(9, Name::parse("a.example"))
                          .encode_framed();
  const std::span<const std::uint8_t> all(frame);
  EXPECT_FALSE(frame_length(all.first(1)));
  EXPECT_EQ(frame_length(all.first(2)), frame.size() - kFramePrefix);
  EXPECT_FALSE(next_frame(all.first(frame.size() - 1)));
  ASSERT_TRUE(next_frame(all));
  EXPECT_EQ(next_frame(all)->data(), frame.data() + kFramePrefix);
}

// --- Name against the vector-of-labels reference -----------------------------
//
// ref::Name is the Name this library used before names were stored flat: one
// std::string per label, with every comparison folding a copy of each label
// it touches. std::map<Name> iteration order and every codec byte reach the
// bench outputs, so the flat Name must agree with it on seeded names.
namespace ref {

std::string fold(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

struct Name {
  std::vector<std::string> labels;

  static Name parse(std::string_view text) {
    Name name;
    if (text.empty()) throw WireError("empty domain name");
    if (text == ".") return name;
    if (text.back() == '.') text.remove_suffix(1);
    std::size_t start = 0;
    while (start <= text.size()) {
      const std::size_t dot = text.find('.', start);
      const std::string_view label = dot == std::string_view::npos
                                         ? text.substr(start)
                                         : text.substr(start, dot - start);
      if (label.empty()) {
        throw WireError("empty label in name: " + std::string(text));
      }
      if (label.size() > 63) {
        throw WireError("label exceeds 63 octets: " + std::string(label));
      }
      name.labels.emplace_back(label);
      if (dot == std::string_view::npos) break;
      start = dot + 1;
    }
    if (name.wire_length() > 255) {
      throw WireError("name exceeds 255 octets: " + std::string(text));
    }
    return name;
  }

  std::string to_string() const {
    if (labels.empty()) return ".";
    std::string out;
    for (const auto& l : labels) {
      if (!out.empty()) out += '.';
      out += l;
    }
    return out;
  }

  std::size_t wire_length() const {
    std::size_t len = 1;
    for (const auto& l : labels) len += 1 + l.size();
    return len;
  }

  Name parent() const {
    Name p;
    if (labels.size() > 1) p.labels.assign(labels.begin() + 1, labels.end());
    return p;
  }

  Name child(std::string_view label) const {
    if (label.empty() || label.size() > 63) {
      throw WireError("invalid child label");
    }
    Name c;
    c.labels.emplace_back(label);
    c.labels.insert(c.labels.end(), labels.begin(), labels.end());
    if (c.wire_length() > 255) throw WireError("child name too long");
    return c;
  }

  bool is_subdomain_of(const Name& ancestor) const {
    if (ancestor.labels.size() > labels.size()) return false;
    const std::size_t offset = labels.size() - ancestor.labels.size();
    for (std::size_t i = 0; i < ancestor.labels.size(); ++i) {
      if (fold(labels[offset + i]) != fold(ancestor.labels[i])) return false;
    }
    return true;
  }

  bool operator==(const Name& other) const {
    if (labels.size() != other.labels.size()) return false;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (fold(labels[i]) != fold(other.labels[i])) return false;
    }
    return true;
  }

  bool operator<(const Name& other) const {
    const std::size_t n = std::min(labels.size(), other.labels.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto a = fold(labels[i]);
      const auto b = fold(other.labels[i]);
      if (a != b) return a < b;
    }
    return labels.size() < other.labels.size();
  }
};

/// Suffix key from label i on: folded labels joined by '.'. Labels that
/// themselves hold a '.' make it ambiguous (see DottedLabelsKeepTheirOwnKeys).
std::string suffix_key(const std::vector<std::string>& labels, std::size_t i) {
  std::string key;
  for (std::size_t j = i; j < labels.size(); ++j) {
    if (!key.empty()) key += '.';
    key += fold(labels[j]);
  }
  return key;
}

class Compressor {
 public:
  explicit Compressor(bool enabled) : enabled_(enabled) {}

  void write(ByteWriter& w, const Name& name) {
    for (std::size_t i = 0; i < name.labels.size(); ++i) {
      const std::string key = suffix_key(name.labels, i);
      if (enabled_) {
        const auto it = offsets_.find(key);
        if (it != offsets_.end() && it->second <= 0x3fff) {
          w.u16(static_cast<std::uint16_t>(0xc000 | it->second));
          return;
        }
      }
      if (w.size() <= 0x3fff) offsets_.emplace(key, w.size());
      w.u8(static_cast<std::uint8_t>(name.labels[i].size()));
      w.string(name.labels[i]);
    }
    w.u8(0);
  }

 private:
  bool enabled_;
  std::map<std::string, std::size_t> offsets_;
};

Name read_name(ByteReader& r) {
  std::vector<std::string> labels;
  std::size_t total_len = 1;
  std::size_t jumps = 0;
  const std::size_t max_jumps = r.data().size() + 1;
  bool jumped = false;
  std::size_t resume = 0;
  for (;;) {
    const std::uint8_t len = r.u8();
    if ((len & 0xc0) == 0xc0) {
      const std::uint8_t lo = r.u8();
      const std::size_t target = (static_cast<std::size_t>(len & 0x3f) << 8) | lo;
      if (!jumped) {
        resume = r.offset();
        jumped = true;
      }
      if (++jumps > max_jumps) throw WireError("compression pointer loop");
      r.seek(target);
      continue;
    }
    if ((len & 0xc0) != 0) throw WireError("reserved label type");
    if (len == 0) break;
    total_len += 1 + len;
    if (total_len > 255) throw WireError("decoded name exceeds 255 octets");
    labels.push_back(r.string(len));
  }
  if (jumped) r.seek(resume);
  Name out;
  for (auto it = labels.rbegin(); it != labels.rend(); ++it) {
    out = out.child(*it);
  }
  return out;
}

}  // namespace ref

/// The flat Name holding exactly `r`'s labels. It is built with child(), so
/// labels may hold any byte, '.' and 0x00 included, as decoded ones can.
Name flat(const ref::Name& r) {
  Name n;
  for (auto it = r.labels.rbegin(); it != r.labels.rend(); ++it) {
    n = n.child(*it);
  }
  return n;
}

std::vector<std::string> labels_of(const Name& n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n.label_count(); ++i) out.emplace_back(n.label(i));
  return out;
}

/// Seeded names that stress the order: mixed case, labels that are
/// prefixes of one another ("ab" < "abc"), bytes >= 0x80, label counts from
/// 0 to many, long labels that push names past the inline capacity, and (for
/// `wire` names) labels holding '.' or 0x00.
class NameGen {
 public:
  explicit NameGen(std::uint64_t seed) : rng_(seed) {}

  std::string label(bool wire) {
    static const std::vector<std::string> kStems = {
        "a", "A", "ab", "AB", "abc", "aBc", "ab-", "b", "www", "WWW",
        "com", "Com", "example", "EXAMPLE", "z", "xn--bcher-kva"};
    const std::uint64_t kind = rng_.next_below(wire ? 10 : 9);
    std::string out;
    if (kind < 4) {
      out = kStems[rng_.next_below(kStems.size())];
      for (std::uint64_t i = rng_.next_below(3); i > 0; --i) out += pick("bcBC9-");
    } else if (kind < 7) {
      for (std::uint64_t i = 1 + rng_.next_below(8); i > 0; --i) {
        out += pick("abcxyzABCXYZ09-_");
      }
    } else if (kind == 7) {
      for (std::uint64_t i = 1 + rng_.next_below(5); i > 0; --i) {
        out += static_cast<char>(kHighBytes[rng_.next_below(kHighBytes.size())]);
      }
    } else if (kind == 8) {
      for (std::uint64_t i = 40 + rng_.next_below(24); i > 0; --i) {
        out += pick("abcdefghijKLMNOP");
      }
    } else {
      static const std::vector<std::string> kWireOnly = {
          "a.b", ".", "ab.", std::string("a\0b", 3), std::string(1, '\0'),
          std::string("\0.", 2)};
      out = kWireOnly[rng_.next_below(kWireOnly.size())];
    }
    return out;
  }

  ref::Name name(bool wire) {
    ref::Name n;
    const std::uint64_t labels = rng_.next_below(8);
    for (std::uint64_t i = 0; i < labels; ++i) {
      std::string l = label(wire);
      if (n.wire_length() + 1 + l.size() > 255) break;
      n.labels.push_back(std::move(l));
    }
    return n;
  }

  /// A pool of names plus case flips, parents and children of its members,
  /// so equal, prefix and ancestor pairs are common.
  std::vector<ref::Name> pool(std::size_t base, bool wire) {
    std::vector<ref::Name> out;
    for (std::size_t i = 0; i < base; ++i) out.push_back(name(wire));
    for (std::size_t i = 0; i < base; ++i) {
      const ref::Name& src = out[rng_.next_below(base)];
      ref::Name variant = src;
      switch (rng_.next_below(4)) {
        case 0:
          for (auto& l : variant.labels) {
            for (auto& c : l) {
              if (std::isalpha(static_cast<unsigned char>(c)) &&
                  rng_.next_below(2) == 0) {
                c = static_cast<char>(c ^ 0x20);
              }
            }
          }
          break;
        case 1:
          variant = src.parent();
          break;
        case 2: {
          std::string l = label(wire);
          if (src.wire_length() + 1 + l.size() <= 255) variant = src.child(l);
          break;
        }
        default:
          break;  // an exact duplicate
      }
      out.push_back(std::move(variant));
    }
    return out;
  }

  std::uint64_t below(std::uint64_t n) { return rng_.next_below(n); }

 private:
  static constexpr std::array<std::uint8_t, 6> kHighBytes = {
      0x80, 0xc1, 0xe9, 0xff, 'a', 'A'};

  char pick(std::string_view alphabet) {
    return alphabet[rng_.next_below(alphabet.size())];
  }

  stats::SplitMix64 rng_;
};

constexpr std::array<std::uint64_t, 3> kDiffSeeds = {1, 7, 2019};

TEST(NameDifferential, AgreesWithReferenceOnSeededNames) {
  for (const std::uint64_t seed : kDiffSeeds) {
    NameGen gen(seed);
    const std::vector<ref::Name> refs = gen.pool(120, /*wire=*/true);
    std::vector<Name> names;
    for (const auto& r : refs) names.push_back(flat(r));

    for (std::size_t i = 0; i < refs.size(); ++i) {
      const ref::Name& r = refs[i];
      const Name& n = names[i];
      ASSERT_EQ(labels_of(n), r.labels) << "seed " << seed << " name " << i;
      EXPECT_EQ(n.to_string(), r.to_string());
      EXPECT_EQ(n.wire_length(), r.wire_length());
      EXPECT_EQ(n.label_count(), r.labels.size());
      EXPECT_EQ(n.is_root(), r.labels.empty());
      EXPECT_EQ(labels_of(n.parent()), r.parent().labels);
      for (const std::string& l :
           {std::string("x"), std::string("Ab"), std::string(63, 'q')}) {
        bool ref_threw = false;
        ref::Name rc;
        try {
          rc = r.child(l);
        } catch (const WireError&) {
          ref_threw = true;
        }
        if (ref_threw) {
          EXPECT_THROW(n.child(l), WireError);
        } else {
          EXPECT_EQ(labels_of(n.child(l)), rc.labels);
        }
      }
    }

    for (std::size_t i = 0; i < refs.size(); ++i) {
      for (std::size_t j = 0; j < refs.size(); ++j) {
        ASSERT_EQ(names[i] < names[j], refs[i] < refs[j])
            << "seed " << seed << ": " << refs[i].to_string() << " vs "
            << refs[j].to_string();
        ASSERT_EQ(names[i] == names[j], refs[i] == refs[j]);
        ASSERT_EQ(names[i].is_subdomain_of(names[j]),
                  refs[i].is_subdomain_of(refs[j]));
      }
    }

    // The order std::map<Name> iterates in, which reaches bench outputs.
    std::map<Name, std::size_t> flat_map;
    std::map<ref::Name, std::size_t> ref_map;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      flat_map.emplace(names[i], i);
      ref_map.emplace(refs[i], i);
    }
    ASSERT_EQ(flat_map.size(), ref_map.size());
    auto it = ref_map.begin();
    for (const auto& [name, index] : flat_map) {
      EXPECT_EQ(index, it->second);
      EXPECT_EQ(labels_of(name), it->first.labels);
      ++it;
    }
  }
}

TEST(NameDifferential, ThreeWayCompareAgreesWithLessAndEqual) {
  for (const std::uint64_t seed : kDiffSeeds) {
    NameGen gen(seed);
    const std::vector<ref::Name> refs = gen.pool(120, /*wire=*/true);
    std::vector<Name> names;
    for (const auto& r : refs) names.push_back(flat(r));
    for (std::size_t i = 0; i < refs.size(); ++i) {
      for (std::size_t j = 0; j < refs.size(); ++j) {
        const int order = names[i].compare(names[j]);
        const std::weak_ordering spaceship = names[i] <=> names[j];
        ASSERT_EQ(order < 0, refs[i] < refs[j])
            << "seed " << seed << ": " << refs[i].to_string() << " vs "
            << refs[j].to_string();
        ASSERT_EQ(order == 0, refs[i] == refs[j]);
        ASSERT_EQ(order > 0, refs[j] < refs[i]);
        ASSERT_EQ(order < 0, names[i] < names[j]);
        ASSERT_EQ(order == 0, names[i] == names[j]);
        ASSERT_EQ(spaceship < 0, order < 0);
        ASSERT_EQ(spaceship == 0, order == 0);
        ASSERT_EQ(spaceship > 0, order > 0);
      }
    }
  }
}

TEST(NameDifferential, OrderKeyNeverContradictsCompare) {
  // Besides the seeded pools: the root, 0x00 and 0x01 bytes inside and just
  // past a short label, first labels of 7 to 9 bytes, and heap-sized names.
  const std::vector<std::vector<std::string>> extra = {
      {},
      {"ab"},
      {"abc"},
      {"AB", "x"},
      {std::string("ab\0", 3), "x"},
      {std::string("ab\0\0\0\0\0\0", 8)},
      {"ab\x01"},
      {std::string(1, '\0')},
      {"\x01"},
      {"\x80"},
      {"a\xff"},
      {"abcdefg"},
      {"abcdefgh"},
      {"ABCDEFGHi"},
      {"abcdefgh\x01"},
      {std::string("abcdefgh\0", 9)},
      {std::string(63, 'a'), std::string(63, 'b')},
      {std::string(63, 'A'), "x"},
  };
  for (const std::uint64_t seed : kDiffSeeds) {
    NameGen gen(seed);
    std::vector<ref::Name> refs = gen.pool(120, /*wire=*/true);
    for (const auto& labels : extra) refs.push_back(ref::Name{labels});
    std::vector<Name> names;
    for (const auto& r : refs) names.push_back(flat(r));
    std::size_t ordered_by_key = 0;
    std::size_t tied_but_different = 0;
    for (const Name& a : names) {
      for (const Name& b : names) {
        const std::uint64_t ka = a.order_key();
        const std::uint64_t kb = b.order_key();
        if (ka < kb) {
          ++ordered_by_key;
          ASSERT_LT(a.compare(b), 0)
              << "seed " << seed << ": " << a.to_string() << " vs "
              << b.to_string();
        }
        if (a == b) {
          ASSERT_EQ(ka, kb) << a.to_string() << " vs " << b.to_string();
        }
        if (ka == kb && a != b) ++tied_but_different;
      }
    }
    // Both cases a keyed sort meets: keys decide, and keys tie.
    EXPECT_GT(ordered_by_key, 0u);
    EXPECT_GT(tied_but_different, 0u);
  }
}

TEST(NameDifferential, PairKeysOrderAsTwoLessCompares) {
  // std::pair<Name, RType> (RecursiveTier's cache key) compares through
  // Name's <=>; its order must be the one the pair had through two <.
  using Key = std::pair<Name, RType>;
  const auto two_less = [](const Key& a, const Key& b) {
    if (a.first < b.first) return true;
    if (b.first < a.first) return false;
    return a.second < b.second;
  };
  for (const std::uint64_t seed : kDiffSeeds) {
    NameGen gen(seed);
    std::vector<Key> keys;
    for (const auto& r : gen.pool(60, /*wire=*/true)) {
      keys.emplace_back(flat(r), gen.below(2) == 0 ? RType::kA : RType::kAAAA);
    }
    for (const Key& a : keys) {
      for (const Key& b : keys) {
        ASSERT_EQ(a < b, two_less(a, b))
            << "seed " << seed << ": " << a.first.to_string() << " vs "
            << b.first.to_string();
        ASSERT_EQ(a == b, !two_less(a, b) && !two_less(b, a));
      }
    }
  }
}

TEST(NameDifferential, ParseAcceptsAndRejectsLikeReference) {
  for (const std::uint64_t seed : kDiffSeeds) {
    NameGen gen(seed);
    std::vector<std::string> texts = {"", ".", "..", "a.", "a..", ".a",
                                      std::string(63, 'a'),
                                      std::string(64, 'a') + ".com"};
    for (int i = 0; i < 400; ++i) {
      std::string text = gen.name(/*wire=*/false).to_string();
      switch (gen.below(6)) {
        case 0:
          text += '.';
          break;
        case 1: {
          const std::size_t at = gen.below(text.size() + 1);
          text = text.substr(0, at) + '.' + text.substr(at);
          break;
        }
        case 2:
          text += '.';
          text.append(gen.below(3) == 0 ? 64 : 63, 'L');
          break;
        case 3:
          while (text.size() < 250 + gen.below(10)) text += ".abcdefgh";
          break;
        default:
          break;
      }
      texts.push_back(std::move(text));
    }
    for (const std::string& text : texts) {
      std::string ref_error;
      std::string flat_error;
      ref::Name r;
      Name n;
      try {
        r = ref::Name::parse(text);
      } catch (const WireError& e) {
        ref_error = e.what();
      }
      try {
        n = Name::parse(text);
      } catch (const WireError& e) {
        flat_error = e.what();
      }
      ASSERT_EQ(flat_error, ref_error) << text;
      EXPECT_EQ(labels_of(n), r.labels) << text;
    }
  }
}

TEST(NameDifferential, CompressorWritesReferenceBytes) {
  for (const std::uint64_t seed : kDiffSeeds) {
    NameGen gen(seed);
    // Labels without '.' only: those keep the reference's text keys apart.
    const std::vector<ref::Name> refs = gen.pool(60, /*wire=*/false);
    for (int message = 0; message < 150; ++message) {
      for (const bool enabled : {true, false}) {
        ByteWriter ref_w;
        ByteWriter flat_w;
        // Some messages start past the 14-bit pointer range.
        const std::size_t pad = message % 10 == 0 ? 0x3ff0 : gen.below(40);
        for (std::size_t i = 0; i < pad; ++i) {
          ref_w.u8(0xee);
          flat_w.u8(0xee);
        }
        ref::Compressor ref_c(enabled);
        NameCompressor flat_c(enabled);
        std::vector<std::size_t> starts;
        std::vector<std::size_t> picked;
        for (std::uint64_t k = 1 + gen.below(10); k > 0; --k) {
          picked.push_back(gen.below(refs.size()));
          starts.push_back(flat_w.size());
          ref_c.write(ref_w, refs[picked.back()]);
          flat_c.write(flat_w, flat(refs[picked.back()]));
        }
        ASSERT_EQ(flat_w.data(), ref_w.data()) << "seed " << seed;
        for (std::size_t k = 0; k < starts.size(); ++k) {
          ByteReader r(flat_w.data());
          r.seek(starts[k]);
          EXPECT_EQ(read_name(r), flat(refs[picked[k]]));
        }
      }
    }
  }
}

TEST(NameDifferential, DottedLabelsKeepTheirOwnKeys) {
  // ["a.b", "c"] and ["a", "b", "c"] shared the reference's text key
  // "a.b.c", so it compressed the second into a pointer to the first. The
  // flat compressor keys on wire form and writes it in full.
  const ref::Name dotted{{"a.b", "c"}};
  const ref::Name plain{{"a", "b", "c"}};
  ByteWriter w;
  NameCompressor c;
  c.write(w, flat(dotted));
  const std::size_t second = w.size();
  c.write(w, flat(plain));
  ByteReader r(w.data());
  r.seek(second);
  EXPECT_EQ(labels_of(read_name(r)), plain.labels);

  ByteWriter ref_w;
  ref::Compressor ref_c(true);
  ref_c.write(ref_w, dotted);
  ref_c.write(ref_w, plain);
  ByteReader ref_r(ref_w.data());
  ref_r.seek(second);
  EXPECT_EQ(ref::read_name(ref_r).labels, dotted.labels);
}

TEST(NameDifferential, ReadNameMatchesReferenceOnMutatedMessages) {
  for (const std::uint64_t seed : kDiffSeeds) {
    NameGen gen(seed);
    const std::vector<ref::Name> refs = gen.pool(40, /*wire=*/true);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int round = 0; round < 1500; ++round) {
      // A valid message body: padding, then names written with compression.
      ByteWriter w;
      for (std::uint64_t i = gen.below(12); i > 0; --i) {
        w.u8(static_cast<std::uint8_t>(gen.below(256)));
      }
      ref::Compressor c(gen.below(2) == 0);
      std::vector<std::size_t> starts;
      for (std::uint64_t k = 1 + gen.below(5); k > 0; --k) {
        starts.push_back(w.size());
        c.write(w, refs[gen.below(refs.size())]);
      }
      Bytes bytes = w.data();
      for (std::uint64_t m = gen.below(4); m > 0; --m) {
        const std::size_t at = gen.below(bytes.size());
        switch (gen.below(6)) {
          case 0:  // bit flip
            bytes[at] ^= static_cast<std::uint8_t>(1u << gen.below(8));
            break;
          case 1: {  // pointer to a name start: chains, and loops back
            const std::size_t target = starts[gen.below(starts.size())];
            bytes[at] = static_cast<std::uint8_t>(0xc0 | (target >> 8));
            if (at + 1 < bytes.size()) {
              bytes[at + 1] = static_cast<std::uint8_t>(target & 0xff);
            }
            break;
          }
          case 2: {  // pointer anywhere, past the end included
            const std::size_t target = gen.below(bytes.size() + 8);
            bytes[at] = static_cast<std::uint8_t>(0xc0 | (target >> 8));
            if (at + 1 < bytes.size()) {
              bytes[at + 1] = static_cast<std::uint8_t>(target & 0xff);
            }
            break;
          }
          case 3:  // reserved label types 01 and 10
            bytes[at] = static_cast<std::uint8_t>(
                (bytes[at] & 0x3f) | (gen.below(2) == 0 ? 0x40 : 0x80));
            break;
          case 4:  // truncation
            bytes.resize(at);
            break;
          default: {  // a long label that may take a chain past 255 octets
            bytes[at] = static_cast<std::uint8_t>(40 + gen.below(24));
            break;
          }
        }
        if (bytes.empty()) break;
      }
      starts.push_back(gen.below(bytes.size() + 1));
      for (const std::size_t start : starts) {
        if (start > bytes.size()) continue;
        ByteReader ref_r(bytes);
        ByteReader flat_r(bytes);
        ref_r.seek(start);
        flat_r.seek(start);
        std::string ref_error;
        std::string flat_error;
        ref::Name r;
        Name n;
        try {
          r = ref::read_name(ref_r);
        } catch (const WireError& e) {
          ref_error = e.what();
        }
        try {
          n = read_name(flat_r);
        } catch (const WireError& e) {
          flat_error = e.what();
        }
        ASSERT_EQ(flat_error, ref_error) << "seed " << seed << " round " << round;
        ASSERT_EQ(labels_of(n), r.labels);
        if (ref_error.empty()) {
          EXPECT_EQ(flat_r.offset(), ref_r.offset());
          ++accepted;
        } else {
          ++rejected;
        }
      }
    }
    // Both outcomes are well represented.
    EXPECT_GT(accepted, 1000u) << "seed " << seed;
    EXPECT_GT(rejected, 1000u) << "seed " << seed;
  }
}

TEST(NameDifferential, ReadNameStopsAtExactly255Octets) {
  // Four 62-octet labels make a 253-octet name. A one-octet label in front
  // of a pointer to it makes 255 octets, the limit; a two-octet one, 256.
  ref::Name base;
  for (char c : {'a', 'b', 'c', 'd'}) base.labels.push_back(std::string(62, c));
  for (const std::size_t extra : {1u, 2u}) {
    ByteWriter w;
    ref::Compressor(false).write(w, base);
    const std::size_t start = w.size();
    w.u8(static_cast<std::uint8_t>(extra));
    for (std::size_t i = 0; i < extra; ++i) w.u8('x');
    w.u16(0xc000);  // pointer to the base name at offset 0
    ByteReader ref_r(w.data());
    ByteReader flat_r(w.data());
    ref_r.seek(start);
    flat_r.seek(start);
    if (extra == 1) {
      const Name n = read_name(flat_r);
      EXPECT_EQ(n.wire_length(), 255u);
      EXPECT_EQ(labels_of(n), ref::read_name(ref_r).labels);
    } else {
      EXPECT_THROW(read_name(flat_r), WireError);
      EXPECT_THROW(ref::read_name(ref_r), WireError);
    }
  }
}

}  // namespace
}  // namespace dohperf::dns
