// Fifo: a first-in first-out queue on one ring buffer.
//
// The queues of the protocol stack (a TCP connection's unsent slices and
// unacked segments, TLS data queued before the handshake, HTTP requests
// awaiting a response, the resolver tier's jobs) only push at the back and
// pop at the front. std::deque allocates a map and a node as soon as it is
// constructed, even if it never holds an element, and one node per 512
// bytes as it grows. A Fifo allocates nothing until its first push, then
// keeps every element in one buffer that doubles when full and is freed
// with the queue.
//
// Unlike std::deque, a push that grows the buffer moves the elements, so a
// reference to an element lives only until the next push.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace dohperf::simnet {

template <typename T>
class Fifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growing the ring moves its elements");

 public:
  /// Slots of the first buffer. Most queues hold a handful of elements,
  /// and an open connection keeps its buffers until it closes.
  static constexpr std::uint32_t kFirstCapacity = 4;

  Fifo() noexcept = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  Fifo(Fifo&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    if (this != &other) {
      release();
      slots_ = std::exchange(other.slots_, nullptr);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }
  ~Fifo() { release(); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// The oldest element (the queue must not be empty).
  T& front() noexcept { return slots_[head_]; }
  const T& front() const noexcept { return slots_[head_]; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      return grow_and_emplace(std::forward<Args>(args)...);
    }
    T* slot = slots_ + ((head_ + size_) & (capacity_ - 1));
    std::construct_at(slot, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Destroy the oldest element (the queue must not be empty).
  void pop_front() noexcept {
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  /// Destroy every element; the buffer stays for the next push.
  void clear() noexcept {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  /// Move the elements into a buffer of twice the capacity, oldest first,
  /// after building the new element there: `args` may refer to an element
  /// of the old buffer.
  template <typename... Args>
  T& grow_and_emplace(Args&&... args) {
    const std::uint32_t capacity =
        capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    T* fresh = std::allocator<T>().allocate(capacity);
    T* slot = fresh + size_;
    try {
      std::construct_at(slot, std::forward<Args>(args)...);
    } catch (...) {
      std::allocator<T>().deallocate(fresh, capacity);
      throw;
    }
    for (std::uint32_t i = 0; i < size_; ++i) {
      T* old = slots_ + ((head_ + i) & (capacity_ - 1));
      std::construct_at(fresh + i, std::move(*old));
      std::destroy_at(old);
    }
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = fresh;
    head_ = 0;
    capacity_ = capacity;
    ++size_;
    return *slot;
  }

  void release() noexcept {
    clear();
    if (slots_ != nullptr) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = nullptr;
    capacity_ = 0;
  }

  T* slots_ = nullptr;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;  ///< 0 or a power of two
};

}  // namespace dohperf::simnet
