// CONC004 fixture: a BufferSlice shared across shard functors.
// Expected: 1 x CONC004 — the first lambda copies the `body` slice declared
// outside it, which writes the slice's plain (non-atomic) count from every
// worker thread. The second lambda builds its own slice and is clean.
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bench {
template <typename Result, typename Fn>
std::vector<Result> run_sharded(std::size_t n, std::size_t jobs, Fn&& fn);
}  // namespace bench

namespace simnet {
struct BufferSlice {
  explicit BufferSlice(std::vector<std::uint8_t> bytes);
  BufferSlice subslice(std::size_t offset) const;
  std::size_t size() const;
};
}  // namespace simnet

struct alignas(64) Sent {
  std::size_t bytes = 0;
};

void drive(std::size_t shards, std::size_t jobs) {
  simnet::BufferSlice body(std::vector<std::uint8_t>(1024, 0x42));
  auto outs = bench::run_sharded<Sent>(shards, jobs, [&](std::size_t i) {
    Sent s;
    s.bytes = body.subslice(i).size();
    return s;
  });

  auto good = bench::run_sharded<Sent>(shards, jobs, [](std::size_t i) {
    simnet::BufferSlice local(std::vector<std::uint8_t>(1024 + i, 0x42));
    Sent s;
    s.bytes = local.size();
    return s;
  });
  (void)outs;
  (void)good;
}
