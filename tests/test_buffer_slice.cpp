// BufferSlice: the zero-copy invariants the byte path depends on —
// subslices alias (never copy), slices keep the storage alive, counts stay
// right through every copy and move, slab bytes never change once handed
// out, and equality is by content like the Bytes it replaced.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "simnet/buffer.hpp"

namespace dohperf::simnet {
namespace {

using Bytes = dns::Bytes;

Bytes iota_bytes(std::size_t n) {
  Bytes b(n);
  std::iota(b.begin(), b.end(), std::uint8_t{0});
  return b;
}

TEST(BufferSlice, WrapsBytesWithoutChangingContent) {
  const Bytes original = iota_bytes(64);
  const BufferSlice slice{Bytes(original)};
  ASSERT_EQ(slice.size(), 64u);
  EXPECT_TRUE(slice == original);
  EXPECT_EQ(slice[0], 0);
  EXPECT_EQ(slice[63], 63);
}

TEST(BufferSlice, SubsliceAliasesSameStorage) {
  const BufferSlice whole{iota_bytes(100)};
  const BufferSlice mid = whole.subslice(10, 20);
  ASSERT_EQ(mid.size(), 20u);
  // Aliasing, not copying: the subslice points into the parent's storage.
  EXPECT_EQ(mid.data(), whole.data() + 10);
  EXPECT_EQ(mid[0], 10);
  EXPECT_EQ(mid[19], 29);

  // Subslice of a subslice composes offsets against the same storage.
  const BufferSlice inner = mid.subslice(5, 5);
  EXPECT_EQ(inner.data(), whole.data() + 15);
  EXPECT_EQ(inner[0], 15);
}

TEST(BufferSlice, SubsliceClampsToBounds) {
  const BufferSlice whole{iota_bytes(10)};
  EXPECT_EQ(whole.subslice(4).size(), 6u);         // open-ended tail
  EXPECT_EQ(whole.subslice(4, 100).size(), 6u);    // length clamped
  EXPECT_EQ(whole.subslice(10).size(), 0u);        // at the end
  EXPECT_EQ(whole.subslice(100, 5).size(), 0u);    // past the end
}

TEST(BufferSlice, SlicesKeepStorageAliveAfterParentDies) {
  BufferSlice tail;
  {
    BufferSlice whole{iota_bytes(32)};
    tail = whole.subslice(16);
    EXPECT_EQ(whole.use_count(), 2);
  }  // parent slice destroyed; storage must survive via tail's reference
  EXPECT_EQ(tail.use_count(), 1);
  ASSERT_EQ(tail.size(), 16u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i], 16 + i);
  }
}

TEST(BufferSlice, CopyBumpsRefcountInsteadOfCopyingBytes) {
  const BufferSlice a{iota_bytes(1024)};
  const BufferSlice b = a;  // slice copy: refcount bump, no byte copy
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.data(), a.data());
}

TEST(BufferSlice, CountsFollowCopyMoveSubsliceAndSelfAssignment) {
  BufferSlice a{iota_bytes(64)};
  EXPECT_EQ(a.use_count(), 1);
  BufferSlice b = a;  // copy
  EXPECT_EQ(a.use_count(), 2);
  BufferSlice c = std::move(b);  // move: no new reference
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.use_count(), 0);
  {
    const BufferSlice d = c.subslice(8, 8);
    EXPECT_EQ(a.use_count(), 3);
  }
  EXPECT_EQ(a.use_count(), 2);

  BufferSlice& alias = c;
  c = alias;  // self copy-assignment
  EXPECT_EQ(a.use_count(), 2);
  c = std::move(alias);  // self move-assignment
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(c.size(), 64u);

  BufferSlice other{iota_bytes(8)};
  other = c;  // drops its own block, joins a's
  EXPECT_EQ(a.use_count(), 3);
  other = BufferSlice{};
  c = BufferSlice{};
  EXPECT_EQ(a.use_count(), 1);
  EXPECT_EQ(a[63], 63);
}

TEST(BufferSlice, SharedPtrAndNonOwningCountsReadAsAShared_ptrWould) {
  auto owner = std::make_shared<const Bytes>(iota_bytes(32));
  {
    const BufferSlice s(owner, 4, 8);
    EXPECT_EQ(s.use_count(), 2);  // the caller's shared_ptr and the slice
    EXPECT_EQ(s[0], 4);
    const BufferSlice t = s.subslice(2);
    EXPECT_EQ(s.use_count(), 3);
    owner.reset();
    EXPECT_EQ(s.use_count(), 2);  // the bytes live on in the slices
    EXPECT_EQ(t[0], 6);
  }

  // An aliasing pointer with an empty owner views bytes nobody owns.
  static const Bytes kStatic = iota_bytes(4);
  const BufferSlice view(
      std::shared_ptr<const Bytes>(std::shared_ptr<const Bytes>(), &kStatic),
      1, 2);
  EXPECT_EQ(view.use_count(), 0);
  EXPECT_EQ(view.data(), kStatic.data() + 1);
  const BufferSlice unowned = BufferSlice::unowned(kStatic);
  const BufferSlice copy = unowned;
  EXPECT_EQ(copy.use_count(), 0);
  EXPECT_EQ(copy.size(), 4u);
}

TEST(ByteSlab, HandedOutBytesNeverChangeWhileLaterWritesFillIt) {
  std::vector<std::pair<BufferSlice, std::uint8_t>> out;
  {
    ByteSlab slab;
    // Enough writes, of varied sizes, to fill several blocks, including
    // one larger than any block.
    for (int i = 0; i < 400; ++i) {
      const auto fill = static_cast<std::uint8_t>(i);
      const std::size_t size = i == 200 ? ByteSlab::kMaxBlockAlloc * 2
                                        : 1 + static_cast<std::size_t>(i * 37 % 300);
      out.emplace_back(slab.write(size,
                                  [&](std::uint8_t* p) {
                                    std::memset(p, fill, size);
                                  }),
                       fill);
      ASSERT_EQ(out.back().first.size(), size);
    }
  }  // the slab is gone; its blocks live on in the slices
  for (const auto& [slice, fill] : out) {
    for (const std::uint8_t byte : slice) ASSERT_EQ(byte, fill);
  }
  // Consecutive small writes share a block.
  ByteSlab slab;
  const BufferSlice first =
      slab.write(3, [](std::uint8_t* p) { std::memset(p, 1, 3); });
  const BufferSlice second =
      slab.write(2, [](std::uint8_t* p) { std::memset(p, 2, 2); });
  EXPECT_EQ(second.data(), first.data() + 3);
  EXPECT_EQ(first.use_count(), 3);  // both slices and the slab
  slab.reset();
  EXPECT_EQ(first.use_count(), 2);
  EXPECT_TRUE(slab.write(0, [](std::uint8_t*) {}).empty());
}

TEST(ByteQueue, ReserveReusesAnUnsharedBlockAndSizesANewOneExactly) {
  const Bytes record(3000, 0x17);
  ByteQueue queue;
  queue.reserve(record.size());
  queue.append(std::span(record).first(1000));
  const std::uint8_t* block = queue.bytes().data();
  queue.append(std::span(record).subspan(1000));
  EXPECT_EQ(queue.bytes().data(), block) << "reserved room needs no regrowth";
  BufferSlice kept = queue.take(record.size());
  EXPECT_EQ(kept, record);
  EXPECT_EQ(kept.use_count(), 2);  // the slice and the queue

  // A slice still shares the block: its bytes stay put, a new block takes
  // the next record.
  queue.reserve(100);
  queue.append(std::span(record).first(100));
  EXPECT_NE(queue.bytes().data(), block);
  EXPECT_EQ(kept, record);
  queue.skip(100);

  // Once nothing shares a block big enough, it is used again from its
  // front.
  const std::uint8_t* second = queue.bytes().data() - 100;
  queue.reserve(80);
  queue.append(std::span(record).first(80));
  EXPECT_EQ(queue.bytes().data(), second);
  EXPECT_EQ(queue.size(), 80u);

  queue.release();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.bytes().empty());
  EXPECT_EQ(kept.use_count(), 1) << "the slice alone keeps the first block";
}

TEST(BufferSlice, EqualityIsByContentNotIdentity) {
  const BufferSlice a{Bytes{1, 2, 3}};
  const BufferSlice b{Bytes{1, 2, 3}};  // different storage, same bytes
  const BufferSlice c{Bytes{1, 2, 4}};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);

  // Windows with the same content compare equal wherever they live.
  const BufferSlice whole{Bytes{9, 1, 2, 3, 9}};
  EXPECT_TRUE(whole.subslice(1, 3) == a);
  EXPECT_TRUE(whole.subslice(1, 3) == Bytes({1, 2, 3}));
}

TEST(BufferSlice, EmptyAndDefaultSlices) {
  const BufferSlice def;
  EXPECT_TRUE(def.empty());
  EXPECT_EQ(def.size(), 0u);
  EXPECT_EQ(def.use_count(), 0);
  EXPECT_TRUE(def == BufferSlice{Bytes{}});
}

TEST(BufferSlice, SpanViewCoversExactWindow) {
  const BufferSlice whole{iota_bytes(16)};
  const std::span<const std::uint8_t> view = whole.subslice(4, 8);
  ASSERT_EQ(view.size(), 8u);
  EXPECT_EQ(view.data(), whole.data() + 4);
  EXPECT_EQ(view[0], 4);
}

TEST(BufferSlice, ToBytesIsTheOneDeliberateCopy) {
  const BufferSlice whole{iota_bytes(8)};
  const Bytes copy = whole.subslice(2, 4).to_bytes();
  EXPECT_EQ(copy, Bytes({2, 3, 4, 5}));
}

TEST(BufferSlice, CoalesceConcatenatesChainInOrder) {
  const BufferSlice body{iota_bytes(10)};
  const std::vector<BufferSlice> chain = {
      body.subslice(0, 3), body.subslice(3, 4), body.subslice(7)};
  EXPECT_EQ(coalesce(chain), iota_bytes(10));

  const std::vector<BufferSlice> with_empty = {BufferSlice{},
                                               body.subslice(0, 2)};
  EXPECT_EQ(coalesce(with_empty), Bytes({0, 1}));
}

}  // namespace
}  // namespace dohperf::simnet
