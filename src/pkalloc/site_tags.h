// Allocation provenance as allocator metadata: a 4-byte site tag per tracked
// block, and a wait-free, async-signal-safe map from any interior address
// back to {base, size, tag} (docs/allocator.md, "Site tags").
//
// One table per pool, reserved at the first Set and never before. In a
// small-span chunk a block's tag sits at its base granule (16 bytes); base
// and size come from the chunk map's class. Any other chunk keeps
// kSlotsPerChunk {base, size, tag} slots, one per block overlapping it;
// writers take the table's mutex, readers none: each slot is a seqlock, and
// a slot found mid-write reads as empty (its block is being allocated or
// freed). The table lives outside both pools, like the chunk map.
#ifndef SRC_PKALLOC_SITE_TAGS_H_
#define SRC_PKALLOC_SITE_TAGS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/memmap/vm_region.h"
#include "src/pkalloc/arena.h"
#include "src/pkalloc/central_free_list.h"
#include "src/support/async_signal.h"
#include "src/support/status.h"

namespace pkrusafe {

// A tagged block: its base, usable size and site tag. tag 0 means "none".
struct TaggedBlock {
  uintptr_t base = 0;
  size_t size = 0;
  uint32_t tag = 0;
};

class SiteTagTable {
 public:
  static constexpr size_t kSlotsPerChunk = 5;
  // Blocks over kMaxSmallSize overlapping one chunk: those inside it, plus
  // one straddling each edge.
  static_assert(kArenaChunkGranularity / (kMaxSmallSize + 1) + 2 <= kSlotsPerChunk);

  // The arena and its central lists (whose chunk map tells small spans
  // apart) must outlive the table.
  SiteTagTable(const Arena* arena, const CentralFreeListSet* central);

  // Tags the live, untagged block [base, base + size) with `tag` != 0.
  Status Set(uintptr_t base, size_t size, uint32_t tag);

  // Clears the tag of the block at `base`, if it has one. Inline, so a
  // pool that never tagged pays one load per free.
  void Clear(uintptr_t base) {
    if (const uintptr_t storage = storage_.load(std::memory_order_acquire); storage != 0) {
      ClearIn(storage, base);
    }
  }

  // The tagged block holding `addr`; tag 0 if none. Inline early-out, as
  // in Clear.
  PKRUSAFE_AS_SAFE TaggedBlock Find(uintptr_t addr) const {
    const uintptr_t storage = storage_.load(std::memory_order_acquire);
    return storage != 0 && addr >= map_base_ && addr < map_end_ ? FindIn(storage, addr)
                                                                : TaggedBlock{};
  }

  // Calls `fn(const TaggedBlock&)` for each tagged block overlapping
  // [lo, hi), in address order, until `fn` returns false; returns false iff
  // it stopped early.
  template <typename Fn>
  PKRUSAFE_AS_SAFE bool ForEachIn(uintptr_t lo, uintptr_t hi, Fn&& fn) const;

  // ForEachIn over every chunk the arena ever handed out (takes its lock).
  template <typename Fn>
  bool ForEach(Fn&& fn) const {
    return ForEachIn(map_base_, arena_->base() + arena_->used_bytes(), fn);
  }

 private:
  static constexpr size_t kGranule = kMinAllocAlignment;

  struct Slot {
    uint32_t seq;  // odd while being written
    uint32_t tag;  // 0: free
    uintptr_t base;
    uint64_t size;
  };
  struct ChunkSlots {
    Slot slots[kSlotsPerChunk];
  };

  template <typename T>
  static std::atomic_ref<T> Atomic(T& value) {
    return std::atomic_ref<T>(value);
  }
  // Copies a tagged slot that was not rewritten meanwhile into `out`.
  PKRUSAFE_AS_SAFE static bool ReadSlot(Slot& slot, TaggedBlock* out);
  PKRUSAFE_AS_SAFE TaggedBlock FindIn(uintptr_t storage, uintptr_t addr) const;
  void ClearIn(uintptr_t storage, uintptr_t base);
  // Rewrites `slot` as one seqlock write; the caller holds mutex_.
  static void WriteSlot(Slot& slot, uintptr_t base, uint64_t size, uint32_t tag);

  ChunkSlots& SlotsOf(uintptr_t storage, uintptr_t chunk) const {
    return reinterpret_cast<ChunkSlots*>(storage)[(chunk - map_base_) / kArenaChunkGranularity];
  }
  uint32_t& GranuleOf(uintptr_t storage, uintptr_t base) const {
    return reinterpret_cast<uint32_t*>(storage + granules_offset_)[(base - map_base_) / kGranule];
  }

  const Arena* arena_;
  const CentralFreeListSet* central_;
  uintptr_t map_base_;  // the arena's whole chunks
  uintptr_t map_end_;
  size_t granules_offset_;  // the slot array's bytes, page-rounded
  std::atomic<uintptr_t> storage_{0};
  std::mutex mutex_;  // serializes slot writers; builds region_
  VmRegion region_;
};

template <typename Fn>
bool SiteTagTable::ForEachIn(uintptr_t lo, uintptr_t hi, Fn&& fn) const {
  const uintptr_t storage = storage_.load(std::memory_order_acquire);
  lo = std::max(lo, map_base_);
  hi = std::min(hi, map_end_);
  for (uintptr_t chunk = ChunkBaseOf(lo); storage != 0 && chunk < hi;
       chunk += kArenaChunkGranularity) {
    const uintptr_t from = std::max(lo, chunk);
    const uintptr_t to = std::min(hi, chunk + kArenaChunkGranularity);
    const uint8_t class_index = central_->ClassOfChunk(chunk);
    if (class_index != CentralFreeListSet::kNoClass) {
      const size_t size = ClassSize(class_index);
      for (uintptr_t base = chunk + (from - chunk) / size * size; base < to; base += size) {
        const uint32_t tag = Atomic(GranuleOf(storage, base)).load(std::memory_order_acquire);
        if (tag != 0 && !fn(TaggedBlock{base, size, tag})) {
          return false;
        }
      }
      continue;
    }
    // A block spanning chunks is visited in the chunk holding its first
    // byte inside [lo, hi).
    TaggedBlock found[kSlotsPerChunk];
    size_t count = 0;
    for (Slot& slot : SlotsOf(storage, chunk).slots) {
      TaggedBlock block;
      if (ReadSlot(slot, &block) && block.base < to && block.base + block.size > from &&
          ChunkBaseOf(std::max(block.base, lo)) == chunk) {
        size_t i = count++;
        for (; i > 0 && found[i - 1].base > block.base; --i) {
          found[i] = found[i - 1];
        }
        found[i] = block;
      }
    }
    for (size_t i = 0; i < count; ++i) {
      if (!fn(found[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_SITE_TAGS_H_
