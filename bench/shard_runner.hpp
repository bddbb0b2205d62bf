// Deterministic shard runner: fans independent simulations across a small
// thread pool and merges results in shard-index order.
//
// Each shard must be self-contained — its own EventLoop, Network, hosts and
// RNGs, seeded exactly as the serial code would seed them — so shards share
// no mutable state and the per-shard results are a pure function of the
// shard index. Because results are merged by index (never by completion
// order), a bench's output is byte-identical at any --jobs value; the knob
// affects wall-clock only. Serial execution (jobs <= 1) runs the shard
// functor inline on the calling thread.
//
// Memory: every worker (and the serial path) installs a private
// simnet::ShardMemory behind the replaced operator new (arena_hooks.cpp,
// linked into every bench), so a shard's millions of short-lived
// allocations never touch the global heap after warm-up — that global
// allocator contention was what made `--jobs` scale negatively before.
// Result slots are placement-constructed inside the worker that ran the
// shard (first-touch: page placement follows the worker, and the spawning
// thread never pre-faults them the way `std::vector<Result>(n)` did).
// Shard results legally outlive their worker's arena: blocks escape with a
// routing header and the orphaned arena self-destructs when the last one
// is freed. In binaries without the hooks the scopes are inert and
// behaviour is unchanged.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <new>
#include <thread>  // detlint: allow(DET004) shard fan-out; shards share no mutable state
#include <utility>
#include <vector>

#include "simnet/arena.hpp"

namespace dohperf::bench {

/// All hardware threads, for benches whose default workload is sized for
/// parallel execution (fig6). Affects wall-clock only — results are merged
/// by shard index, so output is identical at any jobs value.
inline std::size_t default_jobs() {
  // detlint: allow(DET004) thread count changes speed, never results
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Run `shard_count` independent shards, `jobs` at a time, and return their
/// results ordered by shard index. `shard_fn(index)` must not touch state
/// shared with other shards. With jobs <= 1 everything runs inline on the
/// calling thread; results (and therefore any JSON derived from them) are
/// identical either way. If shards throw, the exception from the
/// lowest-indexed failing shard is rethrown after all workers finish.
/// When `mem` is non-null, per-worker arena accounting is accumulated into
/// it (all zeros in binaries without the allocator hooks).
template <typename Result, typename Fn>
std::vector<Result> run_sharded(std::size_t shard_count, std::size_t jobs,
                                Fn&& shard_fn,
                                simnet::ShardMemoryStats* mem = nullptr) {
  std::vector<Result> results;
  if (shard_count == 0) return results;
  // The merged vector's own buffer is allocated before any arena scope is
  // active: it outlives every shard, so it belongs to the global heap.
  results.reserve(shard_count);

  if (jobs <= 1) {
    simnet::ShardMemory* arena = simnet::ShardMemory::create();
    {
      simnet::MemoryScope scope(*arena);
      const std::uint64_t g0 = simnet::scope_global_allocs();
      for (std::size_t i = 0; i < shard_count; ++i) {
        results.push_back(shard_fn(i));
      }
      if (mem != nullptr) {
        simnet::ShardMemoryStats s = arena->stats();
        s.global_allocs = simnet::scope_global_allocs() - g0;
        mem->accumulate(s);
      }
    }
    arena->release();
    return results;
  }

  if (jobs > shard_count) jobs = shard_count;
  // Each worker writes only its own shard's error/done slot, but adjacent
  // 8-byte entries would share a cache line; pad each slot to a full line,
  // same as the result types themselves (alignas(64)).
  struct alignas(64) ErrorSlot {
    std::exception_ptr error;
  };
  std::vector<ErrorSlot> errors(shard_count);
  struct alignas(64) DoneSlot {
    bool constructed = false;
  };
  std::vector<DoneSlot> done(shard_count);
  // Keep the work-distribution counter on its own cache line too, so
  // fetch_add traffic does not invalidate the first shard's slots.
  struct alignas(64) NextShard {
    std::atomic<std::size_t> value{0};
  };
  NextShard next;

  // Result slots are raw, default-initialised bytes: the spawning thread
  // allocates but never writes them, so first touch (and page placement)
  // happens in the worker that placement-constructs the shard's result.
  struct alignas(64) Slot {
    Result value;
  };
  std::unique_ptr<std::byte[]> raw_slots(
      // detlint: allow(HYG002) raw new[] keeps slots default-initialised; make_unique would value-init and first-touch every page on the spawning thread
      new std::byte[sizeof(Slot) * shard_count + alignof(Slot)]);
  std::byte* slot_base = raw_slots.get();
  const auto misalign =
      // detlint: allow(DET005) address used only for alignment math, never output
      reinterpret_cast<std::uintptr_t>(slot_base) % alignof(Slot);
  if (misalign != 0) slot_base += alignof(Slot) - misalign;
  const auto slot_at = [slot_base](std::size_t i) {
    return reinterpret_cast<Slot*>(slot_base + i * sizeof(Slot));
  };

  struct alignas(64) WorkerMem {
    simnet::ShardMemoryStats stats;
  };
  std::vector<WorkerMem> worker_mem(jobs);

  const auto worker = [&](std::size_t w) {
    simnet::ShardMemory* arena = simnet::ShardMemory::create();
    {
      simnet::MemoryScope scope(*arena);
      const std::uint64_t g0 = simnet::scope_global_allocs();
      for (;;) {
        const std::size_t i =
            next.value.fetch_add(1, std::memory_order_relaxed);
        if (i >= shard_count) break;
        try {
          // detlint: allow(HYG002) placement-new into the worker's first-touched slot; destroyed after the join
          ::new (slot_at(i)) Slot{shard_fn(i)};
          done[i].constructed = true;
        } catch (...) {
          errors[i].error = std::current_exception();
        }
      }
      worker_mem[w].stats = arena->stats();
      worker_mem[w].stats.global_allocs = simnet::scope_global_allocs() - g0;
    }
    arena->release();
  };

  // detlint: allow(DET004) worker pool over independent shards (see header comment)
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t t = 0; t < jobs; ++t) {
    // detlint: allow(DET004) worker pool over independent shards
    pool.emplace_back(worker, t);
  }
  for (auto& t : pool) t.join();

  bool failed = false;
  for (const auto& e : errors) {
    if (e.error) failed = true;
  }
  // Merge by index on the spawning thread. Moves only — no allocation, so
  // escaped arena blocks keep their worker-local placement.
  for (std::size_t i = 0; i < shard_count; ++i) {
    Slot* slot = slot_at(i);
    if (done[i].constructed) {
      if (!failed) results.push_back(std::move(slot->value));
      slot->~Slot();
    }
  }
  if (mem != nullptr) {
    for (const auto& wm : worker_mem) mem->accumulate(wm.stats);
  }
  // Deterministic error propagation: lowest shard index wins.
  for (const auto& e : errors) {
    if (e.error) std::rethrow_exception(e.error);
  }
  return results;
}

}  // namespace dohperf::bench
