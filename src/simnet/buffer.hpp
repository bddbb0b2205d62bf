// BufferSlice: an immutable, ref-counted view over a shared byte buffer.
//
// The zero-copy spine of the simulator: a response body (or any protocol
// payload) is materialized into a Bytes exactly once, wrapped in a
// BufferSlice, and every layer below — HTTP/2 DATA framing, TLS record
// fragmentation, TCP segmentation, the packet in flight, and the
// receiver's reassembly — works with subslices of that one allocation
// instead of copying the bytes at each crossing. Copying a slice bumps a
// reference count; subslicing adjusts an (offset, length) window.
//
// Slices are immutable by construction (the underlying Bytes is const), so
// aliasing is always safe: a retransmitted TCP segment and the original
// in-flight copy may view the same storage from different virtual times.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "dns/wire.hpp"  // Bytes

namespace dohperf::simnet {

class BufferSlice {
 public:
  using Bytes = dns::Bytes;

  BufferSlice() noexcept = default;

  /// Materialize a buffer (implicit on purpose: every legacy call site that
  /// built a Bytes and sent it keeps compiling, now sharing instead of
  /// copying downstream).
  BufferSlice(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : buffer_(std::make_shared<const Bytes>(std::move(bytes))),
        offset_(0), length_(static_cast<std::uint32_t>(buffer_->size())) {}

  BufferSlice(std::shared_ptr<const Bytes> buffer, std::size_t offset,
              std::size_t length) noexcept
      : buffer_(std::move(buffer)),
        offset_(static_cast<std::uint32_t>(offset)),
        length_(static_cast<std::uint32_t>(length)) {}

  /// A window into the same storage; never copies payload bytes.
  /// `length` is clamped to the slice end.
  BufferSlice subslice(std::size_t offset,
                       std::size_t length = SIZE_MAX) const noexcept {
    if (offset > length_) offset = length_;
    const std::size_t avail = length_ - offset;
    return BufferSlice{buffer_, offset_ + offset,
                       length < avail ? length : avail};
  }

  std::size_t size() const noexcept { return length_; }
  bool empty() const noexcept { return length_ == 0; }

  const std::uint8_t* data() const noexcept {
    return buffer_ ? buffer_->data() + offset_ : nullptr;
  }
  const std::uint8_t* begin() const noexcept { return data(); }
  const std::uint8_t* end() const noexcept { return data() + length_; }

  std::uint8_t operator[](std::size_t i) const noexcept {
    return *(data() + i);
  }

  operator std::span<const std::uint8_t>() const noexcept {  // NOLINT
    return {data(), length_};
  }
  std::span<const std::uint8_t> span() const noexcept {
    return {data(), length_};
  }

  /// Copy the viewed bytes into a fresh Bytes (the one deliberate copy).
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Number of slices sharing this storage (1 when sole owner, 0 when
  /// empty-default or a view of storage nobody owns, such as TLS's static
  /// tag zeros); test/diagnostic aid for refcount-lifetime assertions.
  long use_count() const noexcept { return buffer_.use_count(); }

  /// Content equality (byte-wise), not identity: two slices over different
  /// buffers with the same bytes are equal, matching Bytes semantics.
  friend bool operator==(const BufferSlice& a, const BufferSlice& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const BufferSlice& a, const Bytes& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const Bytes& a, const BufferSlice& b) noexcept {
    return b == a;
  }

 private:
  std::shared_ptr<const Bytes> buffer_;
  /// 32-bit window keeps a slice at 24 bytes — the same size as the Bytes
  /// it replaced, so packets (and the per-packet delivery closure, which
  /// must fit SmallFn's inline buffer) do not grow. Simulated payloads are
  /// bounded far below 4 GiB.
  std::uint32_t offset_ = 0;
  std::uint32_t length_ = 0;
};

static_assert(sizeof(BufferSlice) == sizeof(dns::Bytes),
              "a slice must not be bigger than the buffer it views");

/// Concatenate a chain of slices into one contiguous buffer. Used where a
/// logical multi-slice write must be flattened (rare slow paths that must
/// stay byte-identical to the historical contiguous-buffer behaviour).
inline dns::Bytes coalesce(std::span<const BufferSlice> chain) {
  std::size_t total = 0;
  for (const auto& s : chain) total += s.size();
  dns::Bytes out;
  out.reserve(total);
  for (const auto& s : chain) out.insert(out.end(), s.begin(), s.end());
  return out;
}

}  // namespace dohperf::simnet
