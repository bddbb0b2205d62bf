// HPACK header compression (RFC 7541): indexed representations against the
// 61-entry static table, a dynamic table with size-based eviction, prefix
// integer coding and Huffman string coding.
//
// HPACK's dynamic table is what produces the paper's "differential headers"
// effect (Fig 5): on a persistent connection, repeated headers collapse to
// one-byte indexed representations after the first request.
//
// SUBSTITUTION NOTE: the Huffman code is a canonical Huffman code generated
// from a documented header-text symbol-weight model instead of the literal
// RFC 7541 Appendix B table. Both endpoints are in this repository, so no
// interop is required; compression ratios on real header strings are
// comparable (common header characters get 5-6 bit codes).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "dns/wire.hpp"

namespace dohperf::http2 {

using dns::Bytes;

struct HeaderField {
  std::string name;   ///< lowercase (HTTP/2 requirement)
  std::string value;

  bool operator==(const HeaderField&) const = default;

  /// RFC 7541 §4.1: table-accounting size of an entry.
  std::size_t table_size() const noexcept {
    return name.size() + value.size() + 32;
  }
};

class HpackError : public std::runtime_error {
 public:
  explicit HpackError(const std::string& what) : std::runtime_error(what) {}
};

/// The shared dynamic table logic (encoder and decoder each own one and the
/// representations keep them in lock-step).
class DynamicTable {
 public:
  explicit DynamicTable(std::size_t max_size = 4096) : max_size_(max_size) {}

  void insert(HeaderField field);
  /// 1-based index into the dynamic table (1 = most recent entry).
  const HeaderField& at(std::size_t index) const;
  std::size_t entry_count() const noexcept { return entries_.size(); }
  std::size_t size() const noexcept { return size_; }
  std::size_t max_size() const noexcept { return max_size_; }
  void set_max_size(std::size_t max_size);

  /// Find an entry matching name+value, or name only; returns 1-based index.
  std::optional<std::size_t> find(const HeaderField& field,
                                  bool* name_only) const;

 private:
  void evict();

  std::size_t max_size_;
  std::size_t size_ = 0;
  std::deque<HeaderField> entries_;  ///< front = most recent
};

/// RFC 7541 §5.1 prefix integer coding.
void encode_integer(Bytes& out, std::uint8_t prefix_bits,
                    std::uint8_t first_byte_flags, std::uint64_t value);
std::uint64_t decode_integer(dns::ByteReader& r, std::uint8_t prefix_bits,
                             std::uint8_t* first_byte_flags = nullptr);

/// Huffman string coding (canonical code; see substitution note above).
Bytes huffman_encode(std::string_view text);
std::string huffman_decode(std::span<const std::uint8_t> data);
/// Encoded size without producing the bytes (for the shorter-of-two choice).
std::size_t huffman_encoded_size(std::string_view text);

/// How each encoded field was represented — the dynamic-table hit counters
/// behind the paper's "differential headers" effect (Fig 5): on a
/// persistent connection, repeated headers collapse to indexed_dynamic.
struct HpackEncoderStats {
  std::uint64_t fields = 0;           ///< header fields encoded in total
  std::uint64_t indexed_static = 0;   ///< full match in the static table
  std::uint64_t indexed_dynamic = 0;  ///< full match in the dynamic table
  std::uint64_t literals = 0;         ///< literal representations
  std::uint64_t table_inserts = 0;    ///< entries added to the dynamic table
};

class HpackEncoder {
 public:
  explicit HpackEncoder(std::size_t max_table_size = 4096)
      : table_(max_table_size) {}

  /// Encode a header list into one header block. The block is a buffer
  /// the encoder reuses: it is valid until the next call.
  const Bytes& encode(const std::vector<HeaderField>& headers);

  /// Disable the dynamic table (encodes a 0 size update on the next block);
  /// used by the fig5 HPACK ablation.
  void disable_dynamic_table();

  const DynamicTable& table() const noexcept { return table_; }
  const HpackEncoderStats& stats() const noexcept { return stats_; }

 private:
  void encode_field(Bytes& out, const HeaderField& field);
  void encode_string(Bytes& out, std::string_view text);

  DynamicTable table_;
  HpackEncoderStats stats_;
  Bytes block_;  ///< the last block encoded; its capacity carries over
  bool pending_table_update_ = false;
  std::size_t pending_table_size_ = 0;
};

class HpackDecoder {
 public:
  /// `max_table_size` is the SETTINGS_HEADER_TABLE_SIZE this end
  /// advertised: the most a peer's size update may ask for (RFC 7541 §4.2).
  explicit HpackDecoder(std::size_t max_table_size = 4096)
      : table_(max_table_size), limit_(max_table_size) {}

  /// Decode one complete header block. A dynamic table size update above
  /// the advertised size throws HpackError (RFC 7541 §6.3).
  std::vector<HeaderField> decode(std::span<const std::uint8_t> block);
  /// Decode one complete header block, appending its fields to `out`.
  void decode(std::span<const std::uint8_t> block,
              std::vector<HeaderField>& out);

  const DynamicTable& table() const noexcept { return table_; }

 private:
  const HeaderField& lookup(std::size_t index) const;
  std::string decode_string(dns::ByteReader& r);

  DynamicTable table_;
  std::size_t limit_;  ///< the largest table a size update may set
  /// Fields in the last block: room reserved for the next one, as the
  /// blocks of one connection direction tend to carry the same headers.
  std::size_t last_fields_ = 0;
};

/// The RFC 7541 Appendix A static table (1-based, 61 entries).
const std::vector<HeaderField>& static_table();

}  // namespace dohperf::http2
