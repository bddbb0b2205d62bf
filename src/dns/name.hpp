// Domain names (RFC 1035 §3.1) with full wire-format support including
// message compression (RFC 1035 §4.1.4).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "dns/wire.hpp"

namespace dohperf::dns {

/// A fully-qualified domain name stored flat in wire form: each label is a
/// length octet followed by its bytes, with no terminating zero octet. A
/// name whose flat form fits kInlineCapacity bytes lives inside the object;
/// a longer one (up to the 254 bytes a 255-octet name allows) takes one
/// heap block. Comparison is case-insensitive per RFC 1035 §2.3.3 and
/// allocates nothing; the original casing is preserved for presentation.
class Name {
 public:
  /// Flat bytes stored inline, sized so that sizeof(Name) is 48.
  static constexpr std::size_t kInlineCapacity = 46;

  Name() = default;  ///< the root name "."
  Name(const Name& other);
  Name(Name&& other) noexcept;
  Name& operator=(const Name& other);
  Name& operator=(Name&& other) noexcept;
  ~Name() { release(); }

  /// Parse from presentation format ("www.example.com", trailing dot
  /// optional). Throws WireError on invalid names (empty labels, label
  /// > 63 octets, total length > 255 octets).
  static Name parse(std::string_view text);

  /// The root name ".".
  static Name root() { return Name{}; }

  bool is_root() const noexcept { return count_ == 0; }
  std::size_t label_count() const noexcept { return count_; }
  /// Label `i` (0 = leftmost) as stored; requires i < label_count().
  std::string_view label(std::size_t i) const noexcept;

  /// Presentation form without trailing dot (root renders as ".").
  std::string to_string() const;

  /// Length of the uncompressed wire encoding in octets (labels + lengths
  /// + terminating zero octet).
  std::size_t wire_length() const noexcept { return size_ + 1u; }

  /// The name with its first label removed ("www.example.com" -> "example.com").
  /// The parent of the root is the root.
  Name parent() const;

  /// Prepend a label ("www" + "example.com" -> "www.example.com").
  Name child(std::string_view label) const;

  /// True if this name equals `ancestor` or is a subdomain of it.
  bool is_subdomain_of(const Name& ancestor) const noexcept;

  bool operator==(const Name& other) const noexcept;
  bool operator!=(const Name& other) const noexcept { return !(*this == other); }
  /// Canonical order so Name can key std::map: labels left to right, each
  /// compared as case-folded unsigned bytes (a prefix sorts first), then
  /// fewer labels first. Returns a negative value, zero or a positive value
  /// as this name sorts before, equal to (==) or after `other`, in one walk.
  int compare(const Name& other) const noexcept;
  bool operator<(const Name& other) const noexcept {
    return compare(other) < 0;
  }
  /// Weak, not strong: names that differ only in case are equivalent. Lets
  /// std::pair and std::tuple keys compare a Name once, not twice with <.
  std::weak_ordering operator<=>(const Name& other) const noexcept {
    return compare(other) <=> 0;
  }
  /// The first label's first 8 case-folded bytes, big-endian, zero-padded
  /// (the root's key is 0): a prefix of compare()'s order. If
  /// order_key(a) < order_key(b) then a < b, and equal names have equal
  /// keys, so a sort can order by key and compare names only on a tie.
  std::uint64_t order_key() const noexcept;

 private:
  friend class NameCompressor;
  friend Name read_name(ByteReader& r);

  bool on_heap() const noexcept { return size_ > kInlineCapacity; }
  std::uint8_t* heap() const noexcept;
  const std::uint8_t* data() const noexcept {
    return on_heap() ? heap() : inline_;
  }
  /// Drop the current bytes and make room for `size` flat bytes (the label
  /// count is the caller's to set); returns where to write them.
  std::uint8_t* allocate(std::size_t size);
  /// Free the heap block, if any, leaving the root name.
  void release() noexcept;

  std::uint8_t size_ = 0;   ///< flat bytes in use
  std::uint8_t count_ = 0;  ///< labels
  /// The flat bytes, or (past kInlineCapacity) the heap block's address.
  std::uint8_t inline_[kInlineCapacity] = {};
};

/// Tracks where each name suffix was first written in a message so later
/// occurrences of it can be encoded as compression pointers. The suffixes
/// live in an open-addressed table of (hash, offset, size) entries, inline
/// for an ordinary message; a hit is confirmed against the bytes already
/// written, so the table keeps no copy of any name. Only a message with
/// more than kInlineEntries / 2 distinct suffixes moves it to the heap.
class NameCompressor {
 public:
  /// When `enabled` is false every name is written in full. The message
  /// starts `base` bytes into the writer (after a length prefix, say), and
  /// pointers are offsets from there.
  explicit NameCompressor(bool enabled = true, std::size_t base = 0)
      : enabled_(enabled), base_(base) {}
  NameCompressor(const NameCompressor&) = delete;
  NameCompressor& operator=(const NameCompressor&) = delete;

  /// Write `name` at the writer's current position, reusing previously
  /// written suffixes via pointers where possible (offsets must fit in the
  /// 14-bit pointer field). A compressor writes to one writer only.
  void write(ByteWriter& w, const Name& name);

 private:
  /// A suffix written in full at `offset`: `size` flat bytes whose
  /// case-folded hash is `hash` (0 marks a free slot).
  struct Entry {
    std::uint32_t hash = 0;
    std::uint16_t offset = 0;
    std::uint8_t size = 0;
  };
  static constexpr std::size_t kInlineEntries = 32;

  /// The slot holding the suffix `flat[0, size)` hashed to `hash`, or the
  /// free slot where it belongs.
  Entry& slot(std::span<const std::uint8_t> message, std::uint32_t hash,
              const std::uint8_t* flat, std::size_t size);
  /// Double the table once it is half full.
  void grow();

  bool enabled_;
  std::size_t base_;  ///< where the message starts in the writer
  std::size_t used_ = 0;
  std::size_t mask_ = kInlineEntries - 1;
  Entry* table_ = inline_;
  Entry inline_[kInlineEntries];
  std::unique_ptr<Entry[]> spill_;  ///< the table once it outgrows inline_
};

/// Read a possibly-compressed name starting at the reader's position.
/// Follows compression pointers with loop protection; the reader is left
/// positioned just after the name's in-line portion.
Name read_name(ByteReader& r);

}  // namespace dohperf::dns
