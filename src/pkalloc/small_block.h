// Layout of a *free* small block, shared by every small-object path (the
// span free lists of SpanList, which FreeListHeap and the central lists
// share, and the per-thread caches).
//
// A free block carries two words:
//   [0]  FreeNode::next — the intrusive LIFO link
//   [8]  free canary    — kFreeCanary xor'd with the block address
//
// The canary is the cheap double-free trigger: Free() checks it before
// pushing, and a match escalates to an authoritative free-list membership
// scan (slow, but only taken on suspicion). The xor with the address makes
// an accidental collision with user data astronomically unlikely, and the
// scan removes even that residue of false positives. Allocation clears the
// canary so stale matches cannot survive a block's live phase.
//
// Every size class is >= 16 bytes, so both words always fit.
#ifndef SRC_PKALLOC_SMALL_BLOCK_H_
#define SRC_PKALLOC_SMALL_BLOCK_H_

#include <cstdint>

namespace pkrusafe {

struct FreeNode {
  FreeNode* next;
};

inline constexpr uint64_t kFreeCanary = 0xF5EEB10CF5EEB10Cull;

inline uint64_t* FreeCanarySlot(void* block) {
  return reinterpret_cast<uint64_t*>(reinterpret_cast<char*>(block) + sizeof(FreeNode));
}

inline void SetFreeCanary(void* block) {
  *FreeCanarySlot(block) = kFreeCanary ^ reinterpret_cast<uintptr_t>(block);
}

inline void ClearFreeCanary(void* block) { *FreeCanarySlot(block) = 0; }

inline bool HasFreeCanary(const void* block) {
  return *FreeCanarySlot(const_cast<void*>(block)) ==
         (kFreeCanary ^ reinterpret_cast<uintptr_t>(block));
}

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_SMALL_BLOCK_H_
