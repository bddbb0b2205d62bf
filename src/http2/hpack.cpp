#include "http2/hpack.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <queue>

namespace dohperf::http2 {

// --- static table (RFC 7541 Appendix A) --------------------------------------

const std::vector<HeaderField>& static_table() {
  static const std::vector<HeaderField> kTable = {
      {":authority", ""},
      {":method", "GET"},
      {":method", "POST"},
      {":path", "/"},
      {":path", "/index.html"},
      {":scheme", "http"},
      {":scheme", "https"},
      {":status", "200"},
      {":status", "204"},
      {":status", "206"},
      {":status", "304"},
      {":status", "400"},
      {":status", "404"},
      {":status", "500"},
      {"accept-charset", ""},
      {"accept-encoding", "gzip, deflate"},
      {"accept-language", ""},
      {"accept-ranges", ""},
      {"accept", ""},
      {"access-control-allow-origin", ""},
      {"age", ""},
      {"allow", ""},
      {"authorization", ""},
      {"cache-control", ""},
      {"content-disposition", ""},
      {"content-encoding", ""},
      {"content-language", ""},
      {"content-length", ""},
      {"content-location", ""},
      {"content-range", ""},
      {"content-type", ""},
      {"cookie", ""},
      {"date", ""},
      {"etag", ""},
      {"expect", ""},
      {"expires", ""},
      {"from", ""},
      {"host", ""},
      {"if-match", ""},
      {"if-modified-since", ""},
      {"if-none-match", ""},
      {"if-range", ""},
      {"if-unmodified-since", ""},
      {"last-modified", ""},
      {"link", ""},
      {"location", ""},
      {"max-forwards", ""},
      {"proxy-authenticate", ""},
      {"proxy-authorization", ""},
      {"range", ""},
      {"referer", ""},
      {"refresh", ""},
      {"retry-after", ""},
      {"server", ""},
      {"set-cookie", ""},
      {"strict-transport-security", ""},
      {"transfer-encoding", ""},
      {"user-agent", ""},
      {"vary", ""},
      {"via", ""},
      {"www-authenticate", ""},
  };
  return kTable;
}

// --- dynamic table ------------------------------------------------------------

void DynamicTable::insert(HeaderField field) {
  const std::size_t entry_size = field.table_size();
  if (entry_size > max_size_) {
    // RFC 7541 §4.4: an entry larger than the table empties it.
    entries_.clear();
    size_ = 0;
    return;
  }
  size_ += entry_size;
  entries_.push_front(std::move(field));
  evict();
}

void DynamicTable::evict() {
  while (size_ > max_size_ && !entries_.empty()) {
    size_ -= entries_.back().table_size();
    entries_.pop_back();
  }
}

const HeaderField& DynamicTable::at(std::size_t index) const {
  if (index == 0 || index > entries_.size()) {
    throw HpackError("dynamic table index out of range");
  }
  return entries_[index - 1];
}

void DynamicTable::set_max_size(std::size_t max_size) {
  max_size_ = max_size;
  evict();
}

std::optional<std::size_t> DynamicTable::find(const HeaderField& field,
                                              bool* name_only) const {
  std::optional<std::size_t> name_match;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == field.name) {
      if (entries_[i].value == field.value) {
        if (name_only != nullptr) *name_only = false;
        return i + 1;
      }
      if (!name_match) name_match = i + 1;
    }
  }
  if (name_match && name_only != nullptr) {
    *name_only = true;
    return name_match;
  }
  return std::nullopt;
}

// --- prefix integers (RFC 7541 §5.1) -----------------------------------------

void encode_integer(Bytes& out, std::uint8_t prefix_bits,
                    std::uint8_t first_byte_flags, std::uint64_t value) {
  assert(prefix_bits >= 1 && prefix_bits <= 8);
  const std::uint64_t limit = (1ULL << prefix_bits) - 1;
  if (value < limit) {
    out.push_back(static_cast<std::uint8_t>(first_byte_flags | value));
    return;
  }
  out.push_back(static_cast<std::uint8_t>(first_byte_flags | limit));
  value -= limit;
  while (value >= 128) {
    out.push_back(static_cast<std::uint8_t>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t decode_integer(dns::ByteReader& r, std::uint8_t prefix_bits,
                             std::uint8_t* first_byte_flags) {
  assert(prefix_bits >= 1 && prefix_bits <= 8);
  const std::uint8_t first = r.u8();
  const std::uint64_t limit = (1ULL << prefix_bits) - 1;
  if (first_byte_flags != nullptr) {
    *first_byte_flags = static_cast<std::uint8_t>(first & ~limit);
  }
  std::uint64_t value = first & limit;
  if (value < limit) return value;
  std::uint64_t shift = 0;
  for (;;) {
    const std::uint8_t byte = r.u8();
    value += static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 62) throw HpackError("integer overflow");
  }
  return value;
}

// --- Huffman coding -----------------------------------------------------------
//
// A canonical Huffman code built once from a symbol-weight model of header
// text: lowercase letters, digits and the URL/header punctuation that
// dominates HTTP headers get short codes. Symbol 256 is EOS.

namespace {

constexpr std::size_t kSymbols = 257;

struct HuffmanCode {
  std::uint32_t bits = 0;   ///< left-aligned in `length` low bits
  std::uint8_t length = 0;  ///< code length in bits
};

/// Weight model: larger weight = shorter code.
std::array<std::uint32_t, kSymbols> symbol_weights() {
  std::array<std::uint32_t, kSymbols> w;
  w.fill(1);  // rare bytes
  auto set = [&](unsigned char c, std::uint32_t weight) { w[c] = weight; };
  for (char c = 'a'; c <= 'z'; ++c) set(static_cast<unsigned char>(c), 600);
  for (char c = '0'; c <= '9'; ++c) set(static_cast<unsigned char>(c), 700);
  for (char c = 'A'; c <= 'Z'; ++c) set(static_cast<unsigned char>(c), 60);
  // The heavy hitters of header text.
  set('e', 1200); set('t', 1000); set('a', 1000); set('o', 900);
  set('n', 900); set('s', 900); set('i', 900); set('r', 800); set('c', 800);
  set('/', 900); set('.', 800); set('-', 700); set(':', 500); set('=', 400);
  set(',', 400); set(' ', 500); set(';', 300); set('%', 200); set('?', 200);
  set('&', 300); set('_', 200); set('"', 100); set('*', 100); set('+', 100);
  // Weight 0 forces EOS to maximum depth; being the largest symbol value
  // it then receives the all-ones canonical code, so long runs of 1-bit
  // padding deterministically hit EOS and are rejected (like RFC 7541).
  w[256] = 0;
  return w;
}

struct Node {
  std::uint64_t weight;
  int index;  ///< tie-break for determinism
  int symbol; ///< -1 for internal
  int left = -1, right = -1;
};

/// Build code lengths with a deterministic Huffman construction, then assign
/// canonical codes (shorter codes first, ties by symbol value).
std::array<HuffmanCode, kSymbols> build_codes() {
  const auto weights = symbol_weights();
  std::vector<Node> nodes;
  nodes.reserve(kSymbols * 2);
  using QItem = std::pair<std::pair<std::uint64_t, int>, int>;  // ((w, idx), node)
  std::priority_queue<QItem, std::vector<QItem>, std::greater<>> heap;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    nodes.push_back(Node{weights[s], static_cast<int>(s),
                         static_cast<int>(s)});
    heap.push({{weights[s], static_cast<int>(s)},
               static_cast<int>(nodes.size() - 1)});
  }
  int next_index = kSymbols;
  while (heap.size() > 1) {
    const auto a = heap.top(); heap.pop();
    const auto b = heap.top(); heap.pop();
    Node parent{a.first.first + b.first.first, next_index++, -1,
                a.second, b.second};
    nodes.push_back(parent);
    heap.push({{parent.weight, parent.index},
               static_cast<int>(nodes.size() - 1)});
  }

  // Depth-first traversal to get code lengths.
  std::array<std::uint8_t, kSymbols> lengths{};
  struct Frame { int node; std::uint8_t depth; };
  std::vector<Frame> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(f.node)];
    if (n.symbol >= 0) {
      lengths[static_cast<std::size_t>(n.symbol)] =
          std::max<std::uint8_t>(f.depth, 1);
      continue;
    }
    stack.push_back({n.left, static_cast<std::uint8_t>(f.depth + 1)});
    stack.push_back({n.right, static_cast<std::uint8_t>(f.depth + 1)});
  }

  // Canonical code assignment.
  std::vector<int> order(kSymbols);
  for (std::size_t i = 0; i < kSymbols; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto la = lengths[static_cast<std::size_t>(a)];
    const auto lb = lengths[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });
  std::array<HuffmanCode, kSymbols> codes{};
  std::uint32_t code = 0;
  std::uint8_t prev_len = 0;
  for (int sym : order) {
    const std::uint8_t len = lengths[static_cast<std::size_t>(sym)];
    code <<= (len - prev_len);
    codes[static_cast<std::size_t>(sym)] = HuffmanCode{code, len};
    ++code;
    prev_len = len;
  }
  return codes;
}

const std::array<HuffmanCode, kSymbols>& codes() {
  static const auto kCodes = build_codes();
  return kCodes;
}

/// Decode tree node: branch[0]/branch[1] index into the tree vector, or
/// symbol >= 0 at leaves.
struct DecodeNode {
  int branch[2] = {-1, -1};
  int symbol = -1;
};

const std::vector<DecodeNode>& decode_tree() {
  static const std::vector<DecodeNode> kTree = [] {
    std::vector<DecodeNode> tree(1);
    const auto& cs = codes();
    for (std::size_t sym = 0; sym < kSymbols; ++sym) {
      const auto& c = cs[sym];
      int node = 0;
      for (int bit = c.length - 1; bit >= 0; --bit) {
        const int b = (c.bits >> bit) & 1;
        if (tree[static_cast<std::size_t>(node)].branch[b] < 0) {
          tree[static_cast<std::size_t>(node)].branch[b] =
              static_cast<int>(tree.size());
          tree.emplace_back();
        }
        node = tree[static_cast<std::size_t>(node)].branch[b];
      }
      tree[static_cast<std::size_t>(node)].symbol = static_cast<int>(sym);
    }
    return tree;
  }();
  return kTree;
}

/// Write `text`'s Huffman code at `out`, which has room for
/// huffman_encoded_size(text) bytes, padding the last byte with 1s (the
/// EOS prefix, RFC 7541 §5.2).
void huffman_encode_to(std::uint8_t* out, std::string_view text) {
  const auto& cs = codes();
  std::uint64_t pending = 0;  ///< bits not yet stored, right-aligned
  int filled = 0;             ///< how many
  for (unsigned char c : text) {
    pending = pending << cs[c].length | cs[c].bits;
    filled += cs[c].length;
    while (filled >= 8) {
      filled -= 8;
      *out++ = static_cast<std::uint8_t>(pending >> filled);
    }
  }
  if (filled > 0) {
    *out = static_cast<std::uint8_t>(pending << (8 - filled) |
                                     ((1u << (8 - filled)) - 1));
  }
}

}  // namespace

Bytes huffman_encode(std::string_view text) {
  Bytes out(huffman_encoded_size(text));
  huffman_encode_to(out.data(), text);
  return out;
}

std::size_t huffman_encoded_size(std::string_view text) {
  std::size_t bits = 0;
  const auto& cs = codes();
  for (unsigned char c : text) bits += cs[c].length;
  return (bits + 7) / 8;
}

std::string huffman_decode(std::span<const std::uint8_t> data) {
  const auto& tree = decode_tree();
  std::string out;
  int node = 0;
  int depth = 0;
  bool ones = true;  ///< every bit since the last symbol was a 1
  for (std::uint8_t byte : data) {
    for (int i = 7; i >= 0; --i) {
      const int b = (byte >> i) & 1;
      const int next = tree[static_cast<std::size_t>(node)].branch[b];
      if (next < 0) throw HpackError("invalid Huffman sequence");
      node = next;
      ++depth;
      ones = ones && b == 1;
      const int sym = tree[static_cast<std::size_t>(node)].symbol;
      if (sym >= 0) {
        if (sym == 256) throw HpackError("unexpected EOS symbol");
        out += static_cast<char>(sym);
        node = 0;
        depth = 0;
        ones = true;
      }
    }
  }
  // Trailing bits must be a prefix of EOS (all 1s) shorter than a byte
  // (RFC 7541 §5.2).
  if (depth >= 8) throw HpackError("excessive Huffman padding");
  if (!ones) throw HpackError("Huffman padding is not a prefix of EOS");
  return out;
}

// --- encoder -------------------------------------------------------------------

void HpackEncoder::disable_dynamic_table() {
  pending_table_update_ = true;
  pending_table_size_ = 0;
  table_.set_max_size(0);
}

void HpackEncoder::encode_string(Bytes& out, std::string_view text) {
  const std::size_t huffman_size = huffman_encoded_size(text);
  if (huffman_size < text.size()) {
    encode_integer(out, 7, 0x80, huffman_size);
    const std::size_t at = out.size();
    out.resize(at + huffman_size);
    huffman_encode_to(out.data() + at, text);
  } else {
    encode_integer(out, 7, 0x00, text.size());
    out.insert(out.end(), text.begin(), text.end());
  }
}

void HpackEncoder::encode_field(Bytes& out, const HeaderField& field) {
  ++stats_.fields;
  // 1. Full match in static table -> indexed.
  const auto& st = static_table();
  std::optional<std::size_t> static_name_match;
  for (std::size_t i = 0; i < st.size(); ++i) {
    if (st[i].name == field.name) {
      if (st[i].value == field.value) {
        encode_integer(out, 7, 0x80, i + 1);
        ++stats_.indexed_static;
        return;
      }
      if (!static_name_match) static_name_match = i + 1;
    }
  }
  // 2. Full match in dynamic table -> indexed.
  bool name_only = false;
  if (const auto idx = table_.find(field, &name_only)) {
    if (!name_only) {
      encode_integer(out, 7, 0x80, st.size() + *idx);
      ++stats_.indexed_dynamic;
      return;
    }
  }
  ++stats_.literals;
  // 3. Literal with incremental indexing.
  std::size_t name_index = 0;
  if (static_name_match) {
    name_index = *static_name_match;
  } else if (const auto idx = table_.find(field, &name_only);
             idx && name_only) {
    name_index = st.size() + *idx;
  }
  encode_integer(out, 6, 0x40, name_index);
  if (name_index == 0) encode_string(out, field.name);
  encode_string(out, field.value);
  if (table_.max_size() > 0) {
    table_.insert(field);
    ++stats_.table_inserts;
  }
}

const Bytes& HpackEncoder::encode(const std::vector<HeaderField>& headers) {
  block_.clear();
  if (pending_table_update_) {
    encode_integer(block_, 5, 0x20, pending_table_size_);
    pending_table_update_ = false;
  }
  for (const auto& field : headers) encode_field(block_, field);
  return block_;
}

// --- decoder --------------------------------------------------------------------

const HeaderField& HpackDecoder::lookup(std::size_t index) const {
  const auto& st = static_table();
  if (index == 0) throw HpackError("index 0");
  if (index <= st.size()) return st[index - 1];
  return table_.at(index - st.size());
}

std::string HpackDecoder::decode_string(dns::ByteReader& r) {
  std::uint8_t flags = 0;
  const std::uint64_t length = decode_integer(r, 7, &flags);
  const auto raw = r.view(length);
  if (flags & 0x80) return huffman_decode(raw);
  return dns::to_string(raw);
}

std::vector<HeaderField> HpackDecoder::decode(
    std::span<const std::uint8_t> block) {
  std::vector<HeaderField> out;
  decode(block, out);
  return out;
}

void HpackDecoder::decode(std::span<const std::uint8_t> block,
                          std::vector<HeaderField>& out) {
  const std::size_t before = out.size();
  out.reserve(before + last_fields_);
  dns::ByteReader r(block);
  while (!r.exhausted()) {
    const std::uint8_t first = r.peek_at(r.offset());
    if (first & 0x80) {
      // Indexed field.
      const std::uint64_t index = decode_integer(r, 7);
      out.push_back(lookup(index));
    } else if ((first & 0x20) != 0 && (first & 0x40) == 0) {
      // Dynamic table size update.
      const std::uint64_t new_size = decode_integer(r, 5);
      if (new_size > limit_) {
        throw HpackError("dynamic table size update above the limit");
      }
      table_.set_max_size(new_size);
    } else {
      // A literal: with incremental indexing (0x40, 6-bit name index), or
      // without indexing / never indexed (0x00 / 0x10, 4-bit name index).
      const bool indexing = (first & 0x40) != 0;
      const std::uint64_t name_index = decode_integer(r, indexing ? 6 : 4);
      HeaderField& field = out.emplace_back();
      field.name = name_index == 0 ? decode_string(r)
                                   : lookup(name_index).name;
      field.value = decode_string(r);
      if (indexing && table_.max_size() > 0) table_.insert(field);
    }
  }
  last_fields_ = out.size() - before;
}

}  // namespace dohperf::http2
