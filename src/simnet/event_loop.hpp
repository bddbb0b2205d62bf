// Discrete-event scheduler over virtual time.
//
// Events scheduled for the same instant fire in schedule order (a strictly
// increasing sequence number breaks ties), which keeps multi-party protocol
// exchanges deterministic.
//
// Internally the queue is a binary min-heap of POD entries keyed by
// (when, seq), with callbacks held in a side slot table. The table is a
// list of fixed-size chunks of slots whose addresses never move, and
// schedule_at constructs the callable directly in its slot (SmallFn inline
// storage), so the common timer/packet-delivery event allocates nothing
// and is never relocated: step() marks the slot fired, runs the callable
// where it is stored, then destroys it and frees the slot. A callback may
// therefore schedule any number of events (growing the table by whole
// chunks) while its own captures stay put. cancel() is O(1): it frees the
// slot and bumps its generation, leaving a tombstone in the heap that
// dispatch skips lazily; when tombstones outnumber live events the heap is
// compacted in one O(n) pass so cancel-heavy workloads (RTO/delayed-ACK
// churn) never inflate sift depth. The pop order is the total order
// (when, seq) — unique because seq never repeats — so neither lazy
// deletion nor compaction can reorder events, and seeded runs stay
// byte-identical to the previous std::map implementation.
//
// The hot path (schedule/cancel/step) is defined inline in this header
// with hand-rolled hole-insertion sifts: the comparator and the sift loops
// fold into the caller, which is worth ~2x on the schedule/fire
// microbench (see bench/micro_simcore.cpp) over out-of-line
// std::push_heap with a function-pointer comparator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simnet/small_fn.hpp"
#include "simnet/time.hpp"

namespace dohperf::simnet {

/// Handle for cancelling a scheduled event. Identifies a slot in the
/// loop's callback table plus the generation it was issued for, so a
/// handle kept past its event firing (or past a cancel) can never cancel
/// an unrelated later event that reuses the slot.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  bool valid = false;

  explicit operator bool() const noexcept { return valid; }
};

class EventLoop {
 public:
  /// Slots per chunk of the slot table; the table grows a chunk at a time.
  static constexpr std::uint32_t kSlotsPerChunk = 256;

  TimeUs now() const noexcept { return now_; }

  /// Schedule `fn` at absolute virtual time `when` (clamped to now()).
  template <typename F>
  EventId schedule_at(TimeUs when, F&& fn) {
    if (when < now_) when = now_;
    if (free_head_ == kNoSlot) add_chunk();
    const std::uint32_t index = free_head_;
    Slot& slot = slot_at(index);
    slot.fn.emplace(std::forward<F>(fn));  // if this throws, the slot stays free
    free_head_ = slot.next_free;
    slot.next_free = kNoSlot;
    slot.live = true;
    ++live_;
    sift_up(HeapEntry{when, next_seq_++, index, slot.gen});
    return EventId{index, slot.gen, true};
  }

  /// Schedule `fn` after `delay` microseconds.
  template <typename F>
  EventId schedule_in(TimeUs delay, F&& fn) {
    return schedule_at(delay > 0 ? now_ + delay : now_, std::forward<F>(fn));
  }

  /// Cancel a pending event; cancelling an already-fired or invalid id is
  /// a harmless no-op. O(1): the heap entry stays behind as a tombstone.
  // detlint: hot-loop
  void cancel(const EventId& id) {
    if (!id.valid || id.slot >= capacity()) return;
    Slot& slot = slot_at(id.slot);
    if (!slot.live || slot.gen != id.gen) return;  // fired, running, cancelled
    retire(slot);
    free_slot(id.slot);
    // Lazy deletion keeps cancel O(1), but unfired far-future tombstones
    // (a cancelled RTO is typically rescheduled long before it fires)
    // would otherwise pile up and deepen every sift. Compact once they
    // outnumber live events.
    if (heap_.size() > 64 && heap_.size() - live_ > live_) compact();
  }

  /// Run until no events remain. Returns the final virtual time.
  TimeUs run() {
    while (step()) {
    }
    return now_;
  }

  /// Run events with time <= deadline; leaves later events pending.
  /// Virtual time advances to `deadline` even if the queue drains early.
  void run_until(TimeUs deadline);

  /// Execute exactly one event if any is pending; returns false when idle.
  // detlint: hot-loop
  bool step() {
    for (;;) {
      if (heap_.empty()) return false;
      const HeapEntry top = heap_[0];
      pop_root();
      Slot& slot = slot_at(top.slot);
      if (!slot.live || slot.gen != top.gen) continue;  // tombstone
      now_ = top.when;
      // Fired: its id no longer cancels anything, but the slot stays taken
      // until the callable, which runs in place, has returned (or thrown).
      retire(slot);
      ++executed_;
      const FreeOnExit free_on_exit{*this, top.slot};
      slot.fn();
      return true;
    }
  }

  /// Number of live (scheduled and not yet fired or cancelled) events.
  /// Cancelled-but-unpopped tombstones are not counted.
  std::size_t pending() const noexcept { return live_; }

  /// Total number of events executed (useful for test assertions and for
  /// detecting runaway protocol loops).
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  /// Heap node: POD, ordered by (when, seq). `slot`/`gen` locate the
  /// callback; a stale `gen` marks a tombstone.
  struct HeapEntry {
    TimeUs when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    SmallFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };

  /// Frees a fired event's slot when its callable returns or throws.
  struct FreeOnExit {
    EventLoop& loop;
    std::uint32_t index;
    ~FreeOnExit() { loop.free_slot(index); }
  };

  std::size_t capacity() const noexcept {
    return chunks_.size() * kSlotsPerChunk;
  }
  Slot& slot_at(std::uint32_t index) noexcept {
    return chunks_[index / kSlotsPerChunk][index % kSlotsPerChunk];
  }

  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  /// Append `entry` and restore the heap property (hole insertion: parents
  /// slide down into the hole, one store each, no swaps).
  // detlint: hot-loop
  void sift_up(HeapEntry entry) {
    std::size_t hole = heap_.size();
    // detlint: allow(CONC006) amortised growth; compact() bounds the heap so steady state stays in capacity
    heap_.push_back(entry);  // reserve the space; overwritten below
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(entry, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = entry;
  }

  /// Sink `entry` from `hole` to its place (hole insertion, as above).
  // detlint: hot-loop
  void sift_down(std::size_t hole, HeapEntry entry) {
    const std::size_t size = heap_.size();
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= size) break;
      if (child + 1 < size && before(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!before(heap_[child], entry)) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = entry;
  }

  /// Remove heap_[0], refilling the hole with the last entry sifted down.
  void pop_root() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  /// Mark a slot's event fired or cancelled: stale ids and heap entries
  /// stop matching it.
  void retire(Slot& slot) noexcept {
    slot.live = false;
    ++slot.gen;
    --live_;
  }

  /// Destroy a retired slot's callable and return the slot to the free list.
  void free_slot(std::uint32_t index) noexcept {
    Slot& slot = slot_at(index);
    slot.fn.reset();
    slot.next_free = free_head_;
    free_head_ = index;
  }

  /// Append one chunk of free slots, lowest index first on the free list.
  void add_chunk();

  /// Drop every tombstone and rebuild the heap in one O(n) pass.
  void compact();
  /// Pop tombstones so heap_.front() (if any) is a live event.
  void prune();

  TimeUs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace dohperf::simnet
