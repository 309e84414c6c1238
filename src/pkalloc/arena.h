// A compartment memory pool: one large reserved region handed out in
// chunk-granular pieces.
//
// Each compartment's arena is a single reservation (the paper reserves the
// trusted pool up front and relies on mmap's on-demand paging, §4.4), so
// pool membership is a constant-time range check and pages can never migrate
// between pools: a chunk freed here can only ever be reused here.
#ifndef SRC_PKALLOC_ARENA_H_
#define SRC_PKALLOC_ARENA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/memmap/vm_region.h"
#include "src/support/status.h"

namespace pkrusafe {

// All chunks are multiples of this and aligned to it, so any interior
// pointer maps to its chunk base with a mask.
inline constexpr size_t kArenaChunkGranularity = 64 * 1024;

class Arena {
 public:
  static Result<std::unique_ptr<Arena>> Create(size_t reserve_bytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns a chunk of at least `bytes`, rounded up to chunk granularity.
  Result<uintptr_t> AllocateChunk(size_t bytes);

  // Returns a chunk obtained from AllocateChunk with the same rounded size.
  void FreeChunk(uintptr_t addr, size_t bytes);

  uintptr_t base() const { return region_.base(); }
  size_t reserved_bytes() const { return region_.size(); }
  bool Contains(uintptr_t addr) const { return region_.Contains(addr); }

  // High-water mark of chunk space handed out (free chunks included).
  size_t used_bytes() const;

  // Chunk bytes currently handed out (allocated minus returned). Falls when
  // a heap releases an empty span back to the arena.
  size_t outstanding_bytes() const;

  // Returns every physical page of the pool to the OS and forgets all chunk
  // bookkeeping. The reservation survives — base()/Contains() stay valid, so
  // racing ownership scans over a dying compartment's pool never touch freed
  // address space — and the pages read zero if ever touched again. Used by
  // compartment release (MultiCompartment::ReleaseLibrary).
  Status DecommitAll();

 private:
  explicit Arena(VmRegion region) : region_(std::move(region)) {}

  VmRegion region_;
  mutable std::mutex mutex_;
  size_t bump_ = 0;  // offset of the next never-used byte
  // End of the chunk space: the aligned start plus the rounded reservation,
  // so a padded region's slack never becomes an extra chunk.
  size_t limit_ = 0;
  size_t outstanding_ = 0;  // chunk bytes handed out and not yet returned
  // Recycled chunks, bucketed by rounded size.
  std::map<size_t, std::vector<uintptr_t>> free_chunks_;
};

// All chunks are granularity-aligned, so any interior pointer maps to its
// chunk base with a mask.
inline uintptr_t ChunkBaseOf(uintptr_t addr) { return addr & ~(kArenaChunkGranularity - 1); }
inline uintptr_t ChunkBaseOf(const void* ptr) {
  return ChunkBaseOf(reinterpret_cast<uintptr_t>(ptr));
}

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_ARENA_H_
