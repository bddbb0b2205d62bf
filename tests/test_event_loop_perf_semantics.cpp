// Semantics the event loop's heap fast path must preserve, exercised in the
// shapes the optimizations changed: same-instant FIFO across heap rebuilds,
// lazy cancellation with compaction, scheduling/cancelling from inside
// callbacks, pending() counting live events only, and callables that run
// where they are stored.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simnet/event_loop.hpp"
#include "stats/rng.hpp"

namespace dohperf::simnet {
namespace {

TEST(EventLoopSemantics, SameInstantFifoAcrossManyEvents) {
  EventLoop loop;
  std::vector<int> order;
  // Enough same-instant events that the heap rebalances many times; the
  // (when, seq) key must keep them in schedule order regardless.
  for (int i = 0; i < 1000; ++i) {
    loop.schedule_at(100, [&order, i]() { order.push_back(i); });
  }
  loop.run();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopSemantics, SameInstantFifoSurvivesCompaction) {
  EventLoop loop;
  std::vector<int> order;
  // Interleave far-future events (cancelled below) with same-instant ones,
  // so compaction rebuilds the heap while the FIFO run is still pending.
  std::vector<EventId> doomed;
  for (int i = 0; i < 300; ++i) {
    doomed.push_back(loop.schedule_at(1000000 + i, []() {}));
    loop.schedule_at(500, [&order, i]() { order.push_back(i); });
  }
  for (const auto& id : doomed) loop.cancel(id);  // triggers compaction
  loop.run();
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopSemantics, PendingCountsLiveEventsOnly) {
  EventLoop loop;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(loop.schedule_at(10 + i, []() {}));
  }
  EXPECT_EQ(loop.pending(), 10u);
  // Cancelled events leave tombstones in the heap, but pending() must drop
  // immediately — it reports live events, not heap occupancy.
  for (int i = 0; i < 6; ++i) loop.cancel(ids[i]);
  EXPECT_EQ(loop.pending(), 4u);
  loop.cancel(ids[0]);  // double-cancel is a no-op
  EXPECT_EQ(loop.pending(), 4u);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(loop.pending(), 3u);
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.executed(), 4u);
}

TEST(EventLoopSemantics, CancelFromInsideCallback) {
  EventLoop loop;
  bool victim_ran = false;
  EventId victim;
  loop.schedule_at(10, [&]() { loop.cancel(victim); });
  victim = loop.schedule_at(20, [&]() { victim_ran = true; });
  loop.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(loop.executed(), 1u);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopSemantics, ScheduleFromInsideCallback) {
  EventLoop loop;
  std::vector<TimeUs> fired_at;
  // Chained timers: each firing schedules the next, like protocol RTOs.
  std::uint64_t remaining = 50;
  std::function<void()> chain = [&]() {
    fired_at.push_back(loop.now());
    if (--remaining > 0) loop.schedule_in(7, [&]() { chain(); });
  };
  loop.schedule_in(7, [&]() { chain(); });
  loop.run();
  ASSERT_EQ(fired_at.size(), 50u);
  for (std::size_t i = 0; i < fired_at.size(); ++i) {
    EXPECT_EQ(fired_at[i], 7 * (i + 1));
  }
}

TEST(EventLoopSemantics, StaleIdCannotCancelReusedSlot) {
  EventLoop loop;
  int fired = 0;
  const EventId first = loop.schedule_at(10, [&]() { ++fired; });
  loop.cancel(first);
  // The slot is recycled for a new event; the stale handle (same slot,
  // older generation) must not cancel it.
  loop.schedule_at(20, [&]() { ++fired; });
  loop.cancel(first);
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventLoopSemantics, CallbackCancellingItsOwnIdIsANoOp) {
  EventLoop loop;
  int fired = 0;
  EventId self;
  self = loop.schedule_at(10, [&]() {
    loop.schedule_at(20, [&]() { ++fired; });
    loop.cancel(self);  // already fired: must not cancel anything
    ++fired;
  });
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.pending(), 0u);
}

/// Counts the moves of the closure that captures it.
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* m) : moves(m) {}
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
};

TEST(EventLoopSemantics, CallableRunsWhereItIsStoredWhileTheTableGrows) {
  EventLoop loop;
  int moves = 0;
  int moves_inside = -1;
  std::vector<std::uint32_t> fired;
  const std::uint32_t flood = 3 * EventLoop::kSlotsPerChunk;
  loop.schedule_at(1, [&, counter = MoveCounter(&moves),
                       payload = std::make_unique<int>(42)]() {
    // More events than one slot chunk holds: the table grows by chunks
    // while this callable runs, and must not move it.
    for (std::uint32_t i = 0; i < flood; ++i) {
      loop.schedule_at(2, [&fired, i]() { fired.push_back(i); });
    }
    moves_inside = *counter.moves;
    EXPECT_EQ(*payload, 42);
  });
  // Constructed in its slot: one move from the argument, none after.
  EXPECT_EQ(moves, 1);
  loop.run();
  EXPECT_EQ(moves_inside, 1);
  ASSERT_EQ(fired.size(), flood);
  for (std::uint32_t i = 0; i < flood; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventLoopSemantics, ThrowingCallbackFreesItsSlotAndTheLoopGoesOn) {
  EventLoop loop;
  const auto token = std::make_shared<int>(0);
  int after = 0;
  loop.schedule_at(1, [token]() { throw std::runtime_error("boom"); });
  loop.schedule_at(2, [&]() { ++after; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(loop.run(), std::runtime_error);
  // The thrown callable was destroyed and its slot freed.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(after, 1);
  EXPECT_EQ(loop.pending(), 0u);
}

// Differential test with callbacks that schedule and cancel: every callback
// mirrors its actions on a std::map keyed by (when, seq), and the event the
// loop runs must always be the map's first.
TEST(EventLoopSemantics, NestedScheduleCancelMatchesMapReference) {
  stats::SplitMix64 rng(77);
  EventLoop loop;
  std::map<std::pair<TimeUs, std::uint64_t>, int> reference;
  std::vector<std::pair<EventId, std::pair<TimeUs, std::uint64_t>>> issued;
  std::uint64_t seq = 0;
  int next_tag = 0;
  int ran = 0;
  int mismatches = 0;
  std::function<void(TimeUs)> add;
  const auto body = [&](int tag) {
    ASSERT_FALSE(reference.empty());
    if (reference.begin()->second != tag) ++mismatches;
    reference.erase(reference.begin());
    ++ran;
    if (next_tag < 4000) {
      for (std::uint64_t k = rng.next() % 3; k > 0; --k) {
        add(loop.now() + static_cast<TimeUs>(rng.next() % 50));
      }
    }
    if (rng.next() % 4 == 0 && !issued.empty()) {
      const auto& [id, key] = issued[rng.next() % issued.size()];
      if (reference.count(key) != 0) {
        loop.cancel(id);
        reference.erase(key);
      }
    }
  };
  add = [&](TimeUs when) {
    const int tag = next_tag++;
    const auto key = std::make_pair(when, seq++);
    const EventId id = loop.schedule_at(when, [&body, tag]() { body(tag); });
    reference.emplace(key, tag);
    issued.emplace_back(id, key);
  };
  for (int i = 0; i < 64; ++i) add(static_cast<TimeUs>(rng.next() % 20));
  loop.run();
  EXPECT_EQ(mismatches, 0);
  EXPECT_TRUE(reference.empty());
  EXPECT_GT(ran, 1000);
}

// Differential test: drive the heap-based loop and a simple reference model
// with the same randomized schedule/cancel workload and require the exact
// same execution order. This is the regression net for the sift/compaction
// fast paths — any heap bug that reorders events trips it.
TEST(EventLoopSemantics, RandomizedDifferentialOrder) {
  stats::SplitMix64 rng(2026);

  // Reference: (when, seq) pairs sorted lazily; cancellation by flag.
  struct RefEvent {
    TimeUs when;
    std::uint64_t seq;
    int tag;
    bool cancelled = false;
  };
  std::vector<RefEvent> ref;

  EventLoop loop;
  std::vector<int> loop_order;
  std::vector<EventId> ids;

  for (int tag = 0; tag < 2000; ++tag) {
    const TimeUs when = 1 + static_cast<TimeUs>(rng.next() % 97);
    ids.push_back(loop.schedule_at(
        when, [&loop_order, tag]() { loop_order.push_back(tag); }));
    ref.push_back({when, static_cast<std::uint64_t>(tag), tag});
    // Cancel a random earlier event now and then (stresses tombstones and
    // the compaction threshold).
    if (tag % 3 == 0) {
      const std::size_t victim = rng.next() % ids.size();
      loop.cancel(ids[victim]);
      ref[victim].cancelled = true;
    }
  }
  loop.run();

  std::vector<int> ref_order;
  std::vector<const RefEvent*> live;
  for (const auto& e : ref) {
    if (!e.cancelled) live.push_back(&e);
  }
  std::sort(live.begin(), live.end(),
            [](const RefEvent* a, const RefEvent* b) {
              return a->when != b->when ? a->when < b->when : a->seq < b->seq;
            });
  for (const auto* e : live) ref_order.push_back(e->tag);

  EXPECT_EQ(loop_order, ref_order);
}

}  // namespace
}  // namespace dohperf::simnet
