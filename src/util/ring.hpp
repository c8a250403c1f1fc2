// Grow-only FIFO ring for the simulator's per-transaction queues.
//
// std::deque allocates and frees a block as its ends cross block
// boundaries, so a queue that stays short but churns forever still hits the
// heap. Ring keeps one power-of-two buffer, indexes it by mask, doubles it
// when full and never shrinks it, clear() included: once a queue has seen
// its peak depth, push and pop touch no allocator. A popped slot keeps its
// moved-from element until a later push assigns over it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace secbus::util {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  // i-th element from the front; i < size().
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  [[nodiscard]] T& front() noexcept { return buf_[head_]; }
  [[nodiscard]] const T& front() const noexcept { return buf_[head_]; }

  template <typename U>
  void push_back(U&& value) {
    extend_back() = std::forward<U>(value);
  }
  // Appends a slot and returns it for the caller to assign in place; it
  // still holds whatever element a pop left there.
  [[nodiscard]] T& extend_back() {
    if (size_ == buf_.size()) grow();
    return (*this)[size_++];
  }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }
  void pop_front() noexcept {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  // Grows the buffer to hold at least n elements without another allocation.
  void reserve(std::size_t n) {
    while (buf_.size() < n) grow();
  }
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(std::max<std::size_t>(4, buf_.size() * 2));
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace secbus::util
