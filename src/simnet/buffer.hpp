// BufferSlice: an immutable, counted view over a byte buffer.
//
// The zero-copy spine of the simulator: a response body (or any protocol
// payload) is materialized into a Bytes exactly once, wrapped in a
// BufferSlice, and every layer below — HTTP/2 DATA framing, TLS record
// fragmentation, TCP segmentation, the packet in flight, and the
// receiver's reassembly — works with subslices of that one allocation
// instead of copying the bytes at each crossing. Copying a slice bumps a
// plain (non-atomic) count kept in the storage block it views; subslicing
// moves a (pointer, length) window.
//
// Slices are immutable by construction (nothing writes through a slice),
// so aliasing is always safe: a retransmitted TCP segment and the original
// in-flight copy may view the same storage from different virtual times.
//
// One thread at a time: a slice and every copy of it belong to one thread.
// The count is a plain integer, so two threads must never copy or drop
// slices of one block concurrently. Slices may change threads only across
// a happens-before edge such as a thread join, which is how run_sharded
// hands shard results back. Non-owning slices (`unowned()`, such as TLS's
// static tag zeros) carry no count and may be shared freely. detlint
// CONC004 reports a slice declared outside a shard functor and used in it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <utility>

#include "dns/wire.hpp"  // Bytes

namespace dohperf::simnet {

class BufferSlice;
class ByteSlab;

namespace detail {

/// A block of bytes that slices own: it counts the slices (and the slab
/// writer) referring to it and frees itself with the last of them.
class SliceStorage {
 public:
  SliceStorage() = default;
  SliceStorage(const SliceStorage&) = delete;
  SliceStorage& operator=(const SliceStorage&) = delete;

  void retain() noexcept { ++refs_; }
  void release() noexcept {
    // detlint: allow(HYG002) intrusive count: the last reference frees the block
    if (--refs_ == 0) delete this;
  }
  /// Slices sharing the block, plus any owners of the bytes outside it.
  long use_count() const noexcept { return refs_ + other_owners(); }

 protected:
  virtual ~SliceStorage() = default;
  virtual long other_owners() const noexcept { return 0; }

 private:
  long refs_ = 1;
};

/// A Bytes handed to a slice by value.
class OwnedBytes final : public SliceStorage {
 public:
  explicit OwnedBytes(dns::Bytes bytes) noexcept : bytes(std::move(bytes)) {}
  const dns::Bytes bytes;
};

/// A buffer a shared_ptr owns: the block holds one reference for all of
/// its slices, so use_count() reads as if each slice held its own.
class SharedBytes final : public SliceStorage {
 public:
  explicit SharedBytes(std::shared_ptr<const dns::Bytes> owner) noexcept
      : owner(std::move(owner)) {}
  const std::shared_ptr<const dns::Bytes> owner;

 private:
  long other_owners() const noexcept override {
    return owner.use_count() - 1;
  }
};

/// Header of a ByteSlab or ByteQueue block; its `capacity` bytes follow in
/// the same allocation.
class SlabBlock final : public SliceStorage {
 public:
  static SlabBlock* create(std::size_t capacity) {
    void* raw = ::operator new(sizeof(SlabBlock) + capacity);
    // detlint: allow(HYG002) placement new of the header in front of its own bytes
    return ::new (raw) SlabBlock(capacity);
  }
  /// Pairs with create()'s ::operator new (the block is larger than the
  /// class, so the sized global form must not be used).
  static void operator delete(void* raw) noexcept { ::operator delete(raw); }

  std::uint8_t* bytes() noexcept {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }

  const std::size_t capacity;
  std::size_t used = 0;

 private:
  explicit SlabBlock(std::size_t capacity) noexcept : capacity(capacity) {}
};

}  // namespace detail

class BufferSlice {
 public:
  using Bytes = dns::Bytes;

  BufferSlice() noexcept = default;

  /// Materialize a buffer (implicit on purpose: every legacy call site that
  /// built a Bytes and sent it keeps compiling, now sharing instead of
  /// copying downstream). An empty buffer allocates nothing.
  BufferSlice(Bytes bytes) {  // NOLINT(google-explicit-constructor)
    if (bytes.empty()) return;
    // detlint: allow(HYG002) intrusive count: the last slice frees the block
    auto* block = new detail::OwnedBytes(std::move(bytes));
    data_ = block->bytes.data();
    owner_ = block;
    length_ = static_cast<std::uint32_t>(block->bytes.size());
  }

  /// A window of a shared buffer. A shared_ptr that owns nothing (an
  /// aliasing pointer with an empty owner) makes a non-owning slice.
  BufferSlice(std::shared_ptr<const Bytes> buffer, std::size_t offset,
              std::size_t length) {
    if (!buffer) return;
    data_ = buffer->data() + offset;
    length_ = static_cast<std::uint32_t>(length);
    if (buffer.use_count() != 0) {
      // detlint: allow(HYG002) intrusive count: the last slice frees the block
      owner_ = new detail::SharedBytes(std::move(buffer));
    }
  }

  /// A slice of bytes nobody owns, such as static storage that outlives
  /// every slice. It carries no count, so copying it on any thread is free.
  static BufferSlice unowned(std::span<const std::uint8_t> bytes) noexcept {
    return BufferSlice(nullptr, bytes.data(), bytes.size());
  }

  BufferSlice(const BufferSlice& other) noexcept
      : BufferSlice(other.owner_, other.data_, other.length_) {}

  BufferSlice(BufferSlice&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        owner_(std::exchange(other.owner_, nullptr)),
        length_(std::exchange(other.length_, 0)) {}

  BufferSlice& operator=(const BufferSlice& other) noexcept {
    if (other.owner_ != nullptr) other.owner_->retain();  // first: self-copy
    if (owner_ != nullptr) owner_->release();
    data_ = other.data_;
    owner_ = other.owner_;
    length_ = other.length_;
    return *this;
  }

  BufferSlice& operator=(BufferSlice&& other) noexcept {
    if (this != &other) {
      if (owner_ != nullptr) owner_->release();
      data_ = std::exchange(other.data_, nullptr);
      owner_ = std::exchange(other.owner_, nullptr);
      length_ = std::exchange(other.length_, 0);
    }
    return *this;
  }

  ~BufferSlice() {
    if (owner_ != nullptr) owner_->release();
  }

  /// A window into the same storage; never copies payload bytes.
  /// `length` is clamped to the slice end.
  BufferSlice subslice(std::size_t offset,
                       std::size_t length = SIZE_MAX) const noexcept {
    if (offset > length_) offset = length_;
    const std::size_t avail = length_ - offset;
    return BufferSlice(owner_, data_ + offset,
                       length < avail ? length : avail);
  }

  std::size_t size() const noexcept { return length_; }
  bool empty() const noexcept { return length_ == 0; }

  const std::uint8_t* data() const noexcept { return data_; }
  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + length_; }

  std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }

  operator std::span<const std::uint8_t>() const noexcept {  // NOLINT
    return {data_, length_};
  }
  std::span<const std::uint8_t> span() const noexcept {
    return {data_, length_};
  }

  /// Copy the viewed bytes into a fresh Bytes (the one deliberate copy).
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// Number of slices sharing this storage, plus the other holders of a
  /// shared_ptr it was built from (1 when sole owner, 0 when empty-default
  /// or non-owning); test/diagnostic aid for lifetime assertions.
  long use_count() const noexcept {
    return owner_ != nullptr ? owner_->use_count() : 0;
  }

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
  friend class ByteSlab;
  friend class ByteQueue;

  /// A window of `owner`'s bytes (or of unowned bytes when null); takes a
  /// reference of its own.
  BufferSlice(detail::SliceStorage* owner, const std::uint8_t* data,
              std::size_t length) noexcept
      : data_(data), owner_(owner),
        length_(static_cast<std::uint32_t>(length)) {
    if (owner_ != nullptr) owner_->retain();
  }

  const std::uint8_t* data_ = nullptr;
  detail::SliceStorage* owner_ = nullptr;
  /// A 32-bit length keeps a slice at 24 bytes — the same size as the Bytes
  /// it replaced, so packets (and the per-packet delivery closure, which
  /// must fit the event loop's inline storage) do not grow. Simulated
  /// payloads are bounded far below 4 GiB.
  std::uint32_t length_ = 0;
};

static_assert(sizeof(BufferSlice) == sizeof(dns::Bytes),
              "a slice must not be bigger than the buffer it views");

/// An append-only writer of small buffers — record headers, handshake
/// records, coalesced segments — into shared blocks, one allocation per
/// block instead of a Bytes per buffer. A block stays alive while any
/// slice of it does. Bytes handed out are never written again: a write
/// that does not fit in the current block starts a new one.
class ByteSlab {
 public:
  /// Allocation sizes of the blocks, headers included. Most connections
  /// write a few hundred bytes, so the first block is small; each next one
  /// doubles, up to the largest. A bigger write gets a block of its size.
  static constexpr std::size_t kFirstBlockAlloc = std::size_t{2} << 10;
  static constexpr std::size_t kMaxBlockAlloc = std::size_t{16} << 10;
  /// Room left in each allocation for the block and allocator headers.
  static constexpr std::size_t kHeaderRoom = 64;

  ByteSlab() noexcept = default;
  ByteSlab(const ByteSlab&) = delete;
  ByteSlab& operator=(const ByteSlab&) = delete;
  ~ByteSlab() { reset(); }

  /// Let go of the current block (slices of it keep it alive); the next
  /// write starts a new one.
  void reset() noexcept {
    if (block_ != nullptr) block_->release();
    block_ = nullptr;
  }

  /// Append `size` bytes, written by `fill(std::uint8_t* out)`, and return
  /// a slice of them.
  template <typename Fill>
  BufferSlice write(std::size_t size, Fill&& fill) {
    if (size == 0) return {};
    if (block_ == nullptr || block_->capacity - block_->used < size) {
      const std::size_t alloc =
          block_ == nullptr
              ? kFirstBlockAlloc
              : std::min(2 * (block_->capacity + kHeaderRoom), kMaxBlockAlloc);
      reset();
      block_ = detail::SlabBlock::create(std::max(size, alloc - kHeaderRoom));
    }
    std::uint8_t* out = block_->bytes() + block_->used;
    fill(out);
    block_->used += size;
    return BufferSlice(block_, out, size);
  }

  /// Append a copy of `bytes` and return a slice of it.
  BufferSlice copy(std::span<const std::uint8_t> bytes) {
    return write(bytes.size(), [bytes](std::uint8_t* out) {
      std::memcpy(out, bytes.data(), bytes.size());
    });
  }

 private:
  detail::SlabBlock* block_ = nullptr;
};

/// A receive buffer: bytes are appended at the back and consumed at the
/// front, and consumed bytes may leave as slices that share its block, so
/// a parsed message owns its bytes without a copy of its own and outlives
/// the queue. Bytes a slice may view are never written again: an append
/// fills the block's free tail, moves the unconsumed bytes to the front
/// only while no slice shares the block, and otherwise starts a new block
/// that the old one's slices do not see.
class ByteQueue {
 public:
  /// Capacity of the first block, as ByteSlab's.
  static constexpr std::size_t kFirstBlockBytes =
      ByteSlab::kFirstBlockAlloc - ByteSlab::kHeaderRoom;

  ByteQueue() noexcept = default;
  ByteQueue(const ByteQueue&) = delete;
  ByteQueue& operator=(const ByteQueue&) = delete;
  ~ByteQueue() { release(); }

  /// Unconsumed bytes.
  std::size_t size() const noexcept {
    return block_ != nullptr ? block_->used - head_ : 0;
  }
  std::span<const std::uint8_t> bytes() const noexcept {
    return block_ != nullptr
               ? std::span<const std::uint8_t>(block_->bytes() + head_, size())
               : std::span<const std::uint8_t>();
  }

  void append(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    const std::size_t pending = size();
    if (!make_room(pending + data.size())) {
      // A block too small for everything grows twofold; a shared one is
      // replaced by one of its size.
      const std::size_t least =
          block_ == nullptr ? kFirstBlockBytes
          : shared()        ? block_->capacity
                            : 2 * block_->capacity;
      replace(std::max(pending + data.size(), least));
    }
    std::memcpy(block_->bytes() + block_->used, data.data(), data.size());
    block_->used += data.size();
  }

  /// Make room for `total` unconsumed bytes, so that appends up to that
  /// many allocate nothing: the block stays when it can hold them and no
  /// slice shares it, else one of exactly `total` bytes replaces it.
  void reserve(std::size_t total) {
    total = std::max(total, size());
    if (!make_room(total)) replace(total);
  }

  /// Consume `n` unconsumed bytes (n <= size()).
  void skip(std::size_t n) noexcept { head_ += n; }

  /// Consume `n` unconsumed bytes (n <= size()) as a slice sharing the
  /// block; an empty slice shares nothing.
  BufferSlice take(std::size_t n) noexcept {
    if (n == 0) return {};
    BufferSlice out(block_, block_->bytes() + head_, n);
    head_ += n;
    return out;
  }

  /// Drop the unconsumed bytes and let go of the block (slices of it keep
  /// it alive); the next append starts a new one.
  void release() noexcept {
    if (block_ != nullptr) block_->release();
    block_ = nullptr;
    head_ = 0;
  }

 private:
  bool shared() const noexcept { return block_->use_count() > 1; }

  /// Whether `total` unconsumed bytes fit without a new block. Nothing
  /// views the consumed prefix of a block no slice shares, so that prefix
  /// is reclaimed when the free tail alone is too short.
  bool make_room(std::size_t total) noexcept {
    if (block_ == nullptr) return false;
    if (block_->capacity - head_ >= total) return true;
    if (shared() || block_->capacity < total) return false;
    const std::size_t pending = size();
    std::memmove(block_->bytes(), block_->bytes() + head_, pending);
    block_->used = pending;
    head_ = 0;
    return true;
  }

  /// Move the unconsumed bytes into a new block of `capacity` bytes.
  void replace(std::size_t capacity) {
    const std::size_t pending = size();
    auto* fresh = detail::SlabBlock::create(capacity);
    if (pending > 0) {
      std::memcpy(fresh->bytes(), block_->bytes() + head_, pending);
    }
    fresh->used = pending;
    if (block_ != nullptr) block_->release();
    block_ = fresh;
    head_ = 0;
  }

  detail::SlabBlock* block_ = nullptr;
  std::size_t head_ = 0;  ///< consumed prefix of the block
};

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
