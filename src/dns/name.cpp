#include "dns/name.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>

namespace dohperf::dns {

namespace {

constexpr std::size_t kMaxLabel = 63;
constexpr std::size_t kMaxName = 255;
constexpr std::uint8_t kPointerMask = 0xc0;

static_assert(sizeof(Name) == 48);
static_assert(kMaxLabel < 'A', "folding must leave length octets alone");

/// ASCII case folding, as std::tolower in the "C" locale.
constexpr std::uint8_t fold(std::uint8_t c) noexcept {
  return static_cast<std::uint8_t>(
      static_cast<unsigned>(c - 'A') < 26u ? c | 0x20 : c);
}

bool folded_equal(const std::uint8_t* a, const std::uint8_t* b,
                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    if (fold(a[i]) != fold(b[i])) return false;
  }
  return true;
}

/// True if the name written at `at` in `out` (following its pointers) is
/// `flat[0, size)` up to case.
bool written_equal(std::span<const std::uint8_t> out, std::size_t at,
                   const std::uint8_t* flat, std::size_t size) noexcept {
  const std::uint8_t* const end = flat + size;
  while (at < out.size()) {
    const std::uint8_t len = out[at];
    if ((len & kPointerMask) == kPointerMask) {
      // This compressor's pointers lead back to suffixes written earlier.
      if (at + 1 >= out.size()) return false;
      const std::size_t target = (std::size_t{len} & 0x3f) << 8 | out[at + 1];
      if (target >= at) return false;
      at = target;
      continue;
    }
    if (len == 0) return flat == end;
    if (flat == end || *flat != len || at + 1 + len > out.size() ||
        !folded_equal(flat + 1, out.data() + at + 1, len)) {
      return false;
    }
    flat += 1u + len;
    at += 1u + len;
  }
  return false;
}

}  // namespace

std::uint8_t* Name::heap() const noexcept {
  std::uint8_t* block = nullptr;
  std::memcpy(&block, inline_, sizeof block);
  return block;
}

void Name::release() noexcept {
  if (on_heap()) std::allocator<std::uint8_t>{}.deallocate(heap(), size_);
  size_ = 0;
  count_ = 0;
}

std::uint8_t* Name::allocate(std::size_t size) {
  release();
  if (size <= kInlineCapacity) {
    size_ = static_cast<std::uint8_t>(size);
    return inline_;
  }
  std::uint8_t* block = std::allocator<std::uint8_t>{}.allocate(size);
  std::memcpy(inline_, &block, sizeof block);
  size_ = static_cast<std::uint8_t>(size);
  return block;
}

Name::Name(const Name& other) { *this = other; }

Name::Name(Name&& other) noexcept { *this = std::move(other); }

Name& Name::operator=(const Name& other) {
  if (this == &other) return *this;
  if (other.on_heap()) {
    std::memcpy(allocate(other.size_), other.heap(), other.size_);
  } else {
    release();
    size_ = other.size_;
    std::memcpy(inline_, other.inline_, kInlineCapacity);
  }
  count_ = other.count_;
  return *this;
}

Name& Name::operator=(Name&& other) noexcept {
  if (this == &other) return *this;
  release();
  size_ = other.size_;
  count_ = other.count_;
  // Takes over the heap block's address along with the inline bytes.
  std::memcpy(inline_, other.inline_, kInlineCapacity);
  other.size_ = 0;
  other.count_ = 0;
  return *this;
}

Name Name::parse(std::string_view text) {
  Name name;
  if (text.empty()) throw WireError("empty domain name");
  if (text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);
  // Each dot becomes the next label's length octet, plus one for the first
  // label: the flat form is one octet longer than the text. Labels are
  // still checked when it is too long, so those errors come first.
  const std::size_t size = text.size() + 1;
  const bool fits = size + 1 <= kMaxName;
  std::uint8_t* out = fits ? name.allocate(size) : nullptr;
  std::size_t count = 0;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label = dot == std::string_view::npos
                                       ? text.substr(start)
                                       : text.substr(start, dot - start);
    if (label.empty()) throw WireError("empty label in name: " + std::string(text));
    if (label.size() > kMaxLabel) {
      throw WireError("label exceeds 63 octets: " + std::string(label));
    }
    if (out != nullptr) {
      *out++ = static_cast<std::uint8_t>(label.size());
      std::memcpy(out, label.data(), label.size());
      out += label.size();
    }
    ++count;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  if (!fits) throw WireError("name exceeds 255 octets: " + std::string(text));
  name.count_ = static_cast<std::uint8_t>(count);
  return name;
}

std::string_view Name::label(std::size_t i) const noexcept {
  const std::uint8_t* p = data();
  for (; i > 0; --i) p += 1 + *p;
  return {reinterpret_cast<const char*>(p + 1), *p};
}

std::string Name::to_string() const {
  if (count_ == 0) return ".";
  // Label bytes keep their offsets; each length octet after the first
  // becomes the dot in front of its label.
  std::string out(size_ - 1u, '.');
  const std::uint8_t* p = data();
  for (std::size_t at = 0; at < size_; at += 1u + p[at]) {
    std::memcpy(out.data() + at, p + at + 1, p[at]);
  }
  return out;
}

Name Name::parent() const {
  Name p;
  if (count_ > 1) {
    const std::uint8_t* d = data();
    const std::size_t skip = 1u + d[0];
    std::memcpy(p.allocate(size_ - skip), d + skip, size_ - skip);
    p.count_ = static_cast<std::uint8_t>(count_ - 1);
  }
  return p;
}

Name Name::child(std::string_view label) const {
  if (label.empty() || label.size() > kMaxLabel) {
    throw WireError("invalid child label");
  }
  const std::size_t size = 1 + label.size() + size_;
  if (size + 1 > kMaxName) throw WireError("child name too long");
  Name c;
  std::uint8_t* out = c.allocate(size);
  out[0] = static_cast<std::uint8_t>(label.size());
  std::memcpy(out + 1, label.data(), label.size());
  std::memcpy(out + 1 + label.size(), data(), size_);
  c.count_ = static_cast<std::uint8_t>(count_ + 1);
  return c;
}

bool Name::is_subdomain_of(const Name& ancestor) const noexcept {
  if (ancestor.count_ > count_) return false;
  const std::uint8_t* d = data();
  std::size_t at = 0;
  for (std::size_t skip = count_ - ancestor.count_; skip > 0; --skip) {
    at += 1u + d[at];
  }
  return size_ - at == ancestor.size_ &&
         folded_equal(d + at, ancestor.data(), ancestor.size_);
}

bool Name::operator==(const Name& other) const noexcept {
  return size_ == other.size_ && count_ == other.count_ &&
         folded_equal(data(), other.data(), size_);
}

int Name::compare(const Name& other) const noexcept {
  const std::uint8_t* a = data();
  const std::uint8_t* b = other.data();
  const std::uint8_t* const a_end = a + size_;
  const std::uint8_t* const b_end = b + other.size_;
  while (a != a_end && b != b_end) {
    const std::size_t a_len = *a++;
    const std::size_t b_len = *b++;
    const std::size_t n = std::min(a_len, b_len);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t x = fold(a[i]);
      const std::uint8_t y = fold(b[i]);
      if (x != y) return x < y ? -1 : 1;
    }
    if (a_len != b_len) return a_len < b_len ? -1 : 1;
    a += a_len;
    b += b_len;
  }
  return (a != a_end) - (b != b_end);
}

std::uint64_t Name::order_key() const noexcept {
  std::uint64_t key = 0;
  const std::size_t n = count_ == 0 ? 0 : std::min<std::size_t>(data()[0], 8);
  const std::uint8_t* label = data() + 1;
  // A label shorter than 8 bytes pads with zeros, which sort no later than
  // any byte, as a shorter label sorts before a longer one it prefixes.
  for (std::size_t i = 0; i < 8; ++i) {
    key = key << 8 | (i < n ? fold(label[i]) : 0u);
  }
  return key;
}

NameCompressor::Entry& NameCompressor::slot(
    std::span<const std::uint8_t> message, std::uint32_t hash,
    const std::uint8_t* flat, std::size_t size) {
  for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
    Entry& e = table_[i];
    if (e.hash == 0 || (e.hash == hash && e.size == size &&
                        written_equal(message, e.offset, flat, size))) {
      return e;
    }
  }
}

void NameCompressor::grow() {
  const std::size_t capacity = 2 * (mask_ + 1);
  auto bigger = std::make_unique<Entry[]>(capacity);
  for (std::size_t i = 0; i <= mask_; ++i) {
    const Entry& e = table_[i];
    if (e.hash == 0) continue;
    std::size_t j = e.hash & (capacity - 1);
    while (bigger[j].hash != 0) j = (j + 1) & (capacity - 1);
    bigger[j] = e;
  }
  spill_ = std::move(bigger);
  table_ = spill_.get();
  mask_ = capacity - 1;
}

void NameCompressor::write(ByteWriter& w, const Name& name) {
  const std::uint8_t* flat = name.data();
  const std::size_t size = name.size_;
  if (!enabled_) {
    w.bytes(std::span<const std::uint8_t>(flat, size));
    w.u8(0);
    return;
  }
  // FNV-1a over the case-folded bytes, right to left: suffix_hash[i]
  // covers the suffix flat[i, size).
  std::uint32_t suffix_hash[kMaxName];
  std::uint32_t h = 2166136261u;
  for (std::size_t i = size; i-- > 0;) {
    h = (h ^ fold(flat[i])) * 16777619u;
    suffix_hash[i] = h;
  }
  for (std::size_t at = 0; at < size; at += 1u + flat[at]) {
    const std::uint32_t hash = suffix_hash[at] == 0 ? 1 : suffix_hash[at];
    const auto written = std::span<const std::uint8_t>(w.data());
    Entry& e = slot(written.subspan(base_), hash, flat + at, size - at);
    if (e.hash != 0) {
      // Emit a two-octet pointer to the earlier occurrence and stop.
      w.u16(static_cast<std::uint16_t>(0xc000 | e.offset));
      return;
    }
    // Record this suffix's offset for future reuse (only if it fits the
    // 14-bit pointer field).
    const std::size_t offset = w.size() - base_;
    if (offset <= 0x3fff) {
      e = Entry{hash, static_cast<std::uint16_t>(offset),
                static_cast<std::uint8_t>(size - at)};
      if (2 * ++used_ > mask_ + 1) grow();
    }
    w.bytes(std::span<const std::uint8_t>(flat + at, 1u + flat[at]));
  }
  w.u8(0);  // root label terminator
}

Name read_name(ByteReader& r) {
  std::uint8_t flat[kMaxName] = {};
  std::size_t size = 0;
  std::size_t count = 0;
  // Loop protection: a valid chain can never visit more positions than the
  // message has bytes.
  std::size_t jumps = 0;
  const std::size_t max_jumps = r.data().size() + 1;
  bool jumped = false;
  std::size_t resume = 0;

  for (;;) {
    const std::uint8_t len = r.u8();
    if ((len & kPointerMask) == kPointerMask) {
      // Compression pointer: 14-bit offset into the message.
      const std::uint8_t lo = r.u8();
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3f) << 8) | lo;
      if (!jumped) {
        resume = r.offset();
        jumped = true;
      }
      if (++jumps > max_jumps) throw WireError("compression pointer loop");
      r.seek(target);
      continue;
    }
    if ((len & kPointerMask) != 0) {
      throw WireError("reserved label type");
    }
    if (len == 0) break;  // root terminator
    // Wire length so far: these labels, this one, the terminator.
    if (size + 1 + len + 1 > kMaxName) {
      throw WireError("decoded name exceeds 255 octets");
    }
    const std::size_t at = r.offset();
    r.skip(len);
    flat[size] = len;
    std::memcpy(flat + size + 1, r.data().data() + at, len);
    size += 1u + len;
    ++count;
  }
  if (jumped) r.seek(resume);

  Name out;
  std::memcpy(out.allocate(size), flat, size);
  out.count_ = static_cast<std::uint8_t>(count);
  return out;
}

}  // namespace dohperf::dns
