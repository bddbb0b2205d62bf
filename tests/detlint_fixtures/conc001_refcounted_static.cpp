// CONC001 fixture: `const` statics of reference-counted types reachable from
// a shard functor. Copying one writes its shared count, so `const` does not
// make it safe to share across shards.
// Expected: 3 x CONC001 (the function-local const BufferSlice in tag(), the
// function-local const shared_ptr in config(), plus the reference to the
// namespace-scope const weak_ptr g_last from tag()). The thread_local
// shared_ptr and the const int in config() are not flagged. Nothing else.
#include <cstddef>
#include <memory>
#include <vector>

namespace bench {
template <typename Result, typename Fn>
std::vector<Result> run_sharded(std::size_t n, std::size_t jobs, Fn&& fn);
}  // namespace bench

struct BufferSlice {
  std::shared_ptr<const int> buffer;
  std::size_t size() const { return buffer ? 1 : 0; }
};

static const std::weak_ptr<const int> g_last;

struct alignas(64) Out {
  std::size_t v = 0;
};

BufferSlice tag() {
  static const BufferSlice zeros{};
  return g_last.expired() ? zeros : BufferSlice{};
}

std::size_t config() {
  static const std::shared_ptr<const int> shared{};
  static thread_local std::shared_ptr<int> scratch;
  static const int kLimit = 3;
  return (shared ? 1 : 0) + (scratch ? 1 : 0) + kLimit;
}

void drive(std::size_t shards, std::size_t jobs) {
  auto outs = bench::run_sharded<Out>(shards, jobs, [](std::size_t i) {
    Out o;
    o.v = i + tag().size() + config();
    return o;
  });
  (void)outs;
}
