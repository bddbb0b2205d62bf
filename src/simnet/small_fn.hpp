// A type-erased callable constructed in place in inline small-object
// storage, used by the event loop's slots so the common simulation events —
// protocol timers capturing their connection's `this`, packet deliveries
// capturing a Packet whose payload is a counted BufferSlice — are stored
// without any heap allocation and never move once stored.
//
// Callables larger than the inline buffer are boxed behind a unique_ptr,
// which itself fits inline; correctness never depends on the size
// threshold, only speed does.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace dohperf::simnet {

class SmallFn {
 public:
  /// Inline capacity. Sized so the network's packet-delivery closure
  /// (this-pointer + Packet with slice payload) and every protocol timer
  /// stay inline; see the static_assert in network.cpp.
  static constexpr std::size_t kInlineSize = 80;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  SmallFn() noexcept = default;
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  /// Construct the callable in place; the SmallFn must be empty.
  template <typename F>
  void emplace(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>);
    if constexpr (fits_inline<D>()) {
      // detlint: allow(HYG002) placement new into inline SBO storage
      ::new (storage_) D(std::forward<F>(fn));
      vtable_ = &kVTable<D>;
    } else {
      using B = Boxed<D>;
      // detlint: allow(HYG002) placement new into inline SBO storage
      ::new (storage_) B{std::make_unique<D>(std::forward<F>(fn))};
      vtable_ = &kVTable<B>;
    }
  }

  void operator()() { vtable_->invoke(storage_); }

  /// Destroy the callable, leaving the SmallFn empty.
  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (vtable_->destroy != nullptr) vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  /// True when callables of type D are stored inline (no allocation).
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign;
  }

 private:
  using DestroyFn = void (*)(void* p) noexcept;

  struct VTable {
    void (*invoke)(void*);
    /// Null for trivially destructible callables: destruction is a no-op.
    DestroyFn destroy;
  };

  /// Heap fallback for oversized callables; the box itself is inline-sized.
  template <typename D>
  struct Boxed {
    std::unique_ptr<D> ptr;
    void operator()() { (*ptr)(); }
  };

  template <typename D>
  static constexpr VTable kVTable{
      [](void* p) { (*static_cast<D*>(p))(); },
      std::is_trivially_destructible_v<D>
          ? DestroyFn{nullptr}
          : DestroyFn{[](void* p) noexcept { static_cast<D*>(p)->~D(); }},
  };

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

}  // namespace dohperf::simnet
