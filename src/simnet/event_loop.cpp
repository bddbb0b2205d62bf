#include "simnet/event_loop.hpp"

#include <algorithm>

namespace dohperf::simnet {

void EventLoop::compact() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) {
                               const Slot& slot = slot_at(e.slot);
                               return !slot.live || slot.gen != e.gen;
                             }),
              heap_.end());
  // Floyd heapify: sift every internal node down, deepest first.
  if (heap_.size() > 1) {
    for (std::size_t i = (heap_.size() - 2) / 2 + 1; i-- > 0;) {
      sift_down(i, heap_[i]);
    }
  }
}

void EventLoop::prune() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Slot& slot = slot_at(top.slot);
    if (slot.live && slot.gen == top.gen) return;
    pop_root();
  }
}

void EventLoop::add_chunk() {
  const auto base = static_cast<std::uint32_t>(capacity());
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kSlotsPerChunk));
  Slot* chunk = chunks_.back().get();
  for (std::uint32_t i = kSlotsPerChunk; i-- > 0;) {
    chunk[i].next_free = free_head_;
    free_head_ = base + i;
  }
}

void EventLoop::run_until(TimeUs deadline) {
  for (;;) {
    prune();
    if (heap_.empty() || heap_.front().when > deadline) break;
    step();
  }
  now_ = std::max(now_, deadline);
}

}  // namespace dohperf::simnet
