// Append-only storage in fixed-size blocks.
//
// An element never moves once appended, so references to it stay valid for
// the store's lifetime, and growing allocates one new block instead of
// copying: a doubling std::vector briefly holds its old and its new
// capacity, which shows up as a peak-RSS spike when the store is the
// largest thing in the process.  libstdc++'s std::deque has the same
// stability but 512-byte blocks, one allocation per few elements.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace edgesim {

template <typename T>
class ChunkedStore {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;
  static constexpr std::size_t kPerBlock =
      std::max<std::size_t>(1, kBlockBytes / sizeof(T));

  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return blocks_[i / kPerBlock][i % kPerBlock]; }
  const T& operator[](std::size_t i) const {
    return blocks_[i / kPerBlock][i % kPerBlock];
  }

  /// Appends `value`; the returned reference stays valid.
  T& push_back(const T& value) {
    if (size_ == blocks_.size() * kPerBlock) {
      blocks_.push_back(std::make_unique_for_overwrite<T[]>(kPerBlock));
    }
    T& slot = (*this)[size_++];
    slot = value;
    return slot;
  }

  /// Bytes of the blocks allocated so far.
  std::size_t capacityBytes() const {
    return blocks_.size() * kPerBlock * sizeof(T);
  }

 private:
  std::vector<std::unique_ptr<T[]>> blocks_;
  std::size_t size_ = 0;
};

}  // namespace edgesim
