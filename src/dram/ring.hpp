// Fixed-capacity FIFO ring for the DRAM controller's queues.
//
// The controller's queues have hard occupancy bounds (the admission cap for
// request queues, the CAS-to-data latency for in-flight transfers), so a
// buffer allocated once at construction replaces std::deque's per-node
// allocations. Overflow is a contract violation and throws.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace monde::dram {

template <typename T>
class Ring {
 public:
  /// Holds at least `min_capacity` elements (rounded up to a power of two).
  explicit Ring(std::size_t min_capacity)
      : buf_(std::bit_ceil(std::max<std::size_t>(min_capacity, 1))), mask_{buf_.size() - 1} {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Element `i` counted from the front (oldest).
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & mask_]; }
  T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T v) {
    MONDE_ASSERT(size_ < buf_.size(), "ring overflow (capacity " << buf_.size() << ")");
    buf_[(head_ + size_) & mask_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Remove element `i`, keeping the others in order. The `i` older
  /// elements shift back one slot, which is cheap for the near-front
  /// removals a FR-FCFS scheduler makes.
  void erase(std::size_t i) {
    for (; i > 0; --i) (*this)[i] = std::move((*this)[i - 1]);
    pop_front();
  }

 private:
  std::vector<T> buf_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace monde::dram
