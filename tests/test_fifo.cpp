// simnet::Fifo against std::deque, the queue it replaced: seeded sequences
// of pushes, pops and clears must leave both holding the same elements in
// the same order, destroy each element exactly once, and release a slice's
// count the moment it is popped.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "simnet/buffer.hpp"
#include "simnet/fifo.hpp"
#include "stats/rng.hpp"

namespace dohperf::simnet {
namespace {

/// Counts the live instances of itself, so a leaked or doubly destroyed
/// element shows.
class Counted {
 public:
  static inline long live = 0;

  explicit Counted(int value) : value_(value) { ++live; }
  Counted(const Counted& other) : value_(other.value_) { ++live; }
  Counted(Counted&& other) noexcept : value_(other.value_) { ++live; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() { --live; }

  int value() const noexcept { return value_; }

 private:
  int value_;
};

/// Runs one seeded sequence against a Fifo and a std::deque of the same
/// elements; `make(v)` builds an element from `v`, `read(e)` reads it back.
template <typename T, typename Make, typename Read>
void run_differential(std::uint64_t seed, Make make, Read read) {
  stats::SplitMix64 rng(seed);
  Fifo<T> fifo;
  std::deque<T> reference;
  int next = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t roll = rng.next() % 100;
    if (roll < 55) {
      // Bursts of pushes grow the ring while its head is anywhere.
      const std::uint64_t burst = 1 + rng.next() % 9;
      for (std::uint64_t i = 0; i < burst; ++i) {
        fifo.push_back(make(next));
        reference.push_back(make(next));
        ++next;
      }
    } else if (roll < 98) {
      const std::uint64_t burst = 1 + rng.next() % 7;
      for (std::uint64_t i = 0; i < burst && !reference.empty(); ++i) {
        ASSERT_FALSE(fifo.empty());
        ASSERT_EQ(read(fifo.front()), read(reference.front()));
        fifo.pop_front();
        reference.pop_front();
      }
    } else {
      fifo.clear();
      reference.clear();
    }
    ASSERT_EQ(fifo.size(), reference.size()) << "seed " << seed;
    ASSERT_EQ(fifo.empty(), reference.empty());
    if (!reference.empty()) {
      ASSERT_EQ(read(fifo.front()), read(reference.front()));
    }
  }
  // Drain what is left and compare the whole order.
  while (!reference.empty()) {
    ASSERT_EQ(read(fifo.front()), read(reference.front()));
    fifo.pop_front();
    reference.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, MatchesDequeOnSeededSequences) {
  for (const std::uint64_t seed : {1u, 7u, 13u, 41u}) {
    run_differential<int>(
        seed, [](int v) { return v; }, [](int v) { return v; });
  }
}

TEST(Fifo, MoveOnlyElements) {
  for (const std::uint64_t seed : {3u, 29u}) {
    run_differential<std::unique_ptr<int>>(
        seed, [](int v) { return std::make_unique<int>(v); },
        [](const std::unique_ptr<int>& p) { return *p; });
  }
}

TEST(Fifo, DestroysEveryElementExactlyOnce) {
  for (const std::uint64_t seed : {5u, 11u, 47u}) {
    {
      run_differential<Counted>(
          seed, [](int v) { return Counted(v); },
          [](const Counted& c) { return c.value(); });
    }
    EXPECT_EQ(Counted::live, 0) << "seed " << seed;
  }
  {
    // Elements still queued when the ring is destroyed, wrapped around the
    // end of its buffer.
    Fifo<Counted> fifo;
    for (int i = 0; i < 3; ++i) fifo.push_back(Counted(i));
    fifo.pop_front();
    fifo.pop_front();
    for (int i = 3; i < 6; ++i) fifo.emplace_back(i);  // wraps, no growth
    EXPECT_EQ(fifo.front().value(), 2);
    EXPECT_EQ(Counted::live, 4);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(Fifo, GrowsWhileWrappedAndKeepsOrder) {
  Fifo<int> fifo;
  for (int i = 0; i < 4; ++i) fifo.push_back(i);
  fifo.pop_front();
  fifo.pop_front();
  fifo.push_back(4);
  fifo.push_back(5);  // the ring is full and its head is mid-buffer
  fifo.push_back(6);  // grows
  for (int i = 7; i < 10; ++i) fifo.push_back(i);
  fifo.push_back(fifo.front());  // grows, from an element of the ring
  for (const int expected : {2, 3, 4, 5, 6, 7, 8, 9, 2}) {
    ASSERT_FALSE(fifo.empty());
    EXPECT_EQ(fifo.front(), expected);
    fifo.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, PopAndClearReleaseSliceCountsAtOnce) {
  const BufferSlice slice(dns::Bytes{1, 2, 3});
  Fifo<BufferSlice> fifo;
  fifo.push_back(slice);
  fifo.push_back(slice.subslice(1));
  EXPECT_EQ(slice.use_count(), 3);
  fifo.pop_front();
  EXPECT_EQ(slice.use_count(), 2);
  fifo.push_back(slice);
  fifo.clear();
  EXPECT_EQ(slice.use_count(), 1);
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, MovesItsBuffer) {
  // A moved-from ring is empty and usable.
  Fifo<int> empty;
  Fifo<int> moved(std::move(empty));
  EXPECT_TRUE(moved.empty());
  moved.push_back(1);
  Fifo<int> target;
  target = std::move(moved);
  EXPECT_EQ(target.size(), 1u);
  EXPECT_EQ(target.front(), 1);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace dohperf::simnet
