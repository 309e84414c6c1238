// A growable array with lock-free readers and stable element addresses.
//
// The multidomain registry problem: readers on the transition fast path must
// index the library/virtual-key tables with no lock, while registration
// appends concurrently. std::vector reallocates (readers see freed memory)
// and std::deque's block map is mutated by push_back (readers race the map).
// This container fixes the geometry instead: a static array of chunk
// pointers, chunks allocated once and never moved or freed until
// destruction. Element addresses are stable for the container's lifetime,
// so callers may hold T* across appends.
//
// Concurrency contract:
//   * at()/operator[]/size() are lock-free and safe against one concurrent
//     writer.
//   * Claim()/Publish() form the single-writer append protocol and must be
//     externally serialized (the owner's mutex): Claim() returns the slot
//     for the next element (already default-constructed), the caller fills
//     it in, Publish() makes it visible to readers. Fields written before
//     Publish() are visible to any reader that observes the new size.
//   * Elements are never erased; "dead" entries are the owner's concern.
//
// Capacity is fixed at kChunkSize * kMaxChunks; Claim() returns nullptr when
// full. The chunk pointer array costs kMaxChunks * 8 bytes up front.
#ifndef SRC_SUPPORT_STABLE_INDEX_ARRAY_H_
#define SRC_SUPPORT_STABLE_INDEX_ARRAY_H_

#include <array>
#include <atomic>
#include <cstddef>

#include "src/support/compiler.h"

namespace pkrusafe {

template <typename T, size_t kChunkSize = 64, size_t kMaxChunks = 1024>
class StableIndexArray {
 public:
  StableIndexArray() = default;

  ~StableIndexArray() {
    for (auto& slot : chunks_) {
      delete slot.load(std::memory_order_relaxed);
    }
  }

  StableIndexArray(const StableIndexArray&) = delete;
  StableIndexArray& operator=(const StableIndexArray&) = delete;

  static constexpr size_t capacity() { return kChunkSize * kMaxChunks; }

  // Published element count. Lock-free.
  PS_ALWAYS_INLINE size_t size() const { return size_.load(std::memory_order_acquire); }

  // Pointer to element i, nullptr when i is not published yet. Lock-free;
  // the pointer stays valid until the container is destroyed.
  PS_ALWAYS_INLINE T* at(size_t i) {
    if (i >= size()) {
      return nullptr;
    }
    Chunk* chunk = chunks_[i / kChunkSize].load(std::memory_order_acquire);
    return &(*chunk)[i % kChunkSize];
  }
  PS_ALWAYS_INLINE const T* at(size_t i) const {
    return const_cast<StableIndexArray*>(this)->at(i);
  }

  // Element i, which the caller knows is published (i < a size() it read).
  // Lock-free, no bounds check.
  PS_ALWAYS_INLINE T& operator[](size_t i) {
    return (*chunks_[i / kChunkSize].load(std::memory_order_acquire))[i % kChunkSize];
  }

  // Writer side (externally serialized). Claim() hands out the slot for
  // element size(); returns nullptr when the array is full. The element has
  // been default-constructed; fill it, then Publish().
  T* Claim() {
    const size_t i = size_.load(std::memory_order_relaxed);
    if (i >= capacity()) {
      return nullptr;
    }
    Chunk* chunk = chunks_[i / kChunkSize].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      chunks_[i / kChunkSize].store(chunk, std::memory_order_release);
    }
    return &(*chunk)[i % kChunkSize];
  }

  void Publish() {
    size_.store(size_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

 private:
  using Chunk = std::array<T, kChunkSize>;

  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<size_t> size_{0};
};

}  // namespace pkrusafe

#endif  // SRC_SUPPORT_STABLE_INDEX_ARRAY_H_
