#include "src/pkalloc/arena.h"

#include "src/memmap/page.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace pkrusafe {

Result<std::unique_ptr<Arena>> Arena::Create(size_t reserve_bytes) {
  if (reserve_bytes < kArenaChunkGranularity) {
    return InvalidArgumentError("arena reservation too small");
  }
  auto region = VmRegion::Reserve(RoundUp(reserve_bytes, kArenaChunkGranularity));
  if (!region.ok()) {
    return region.status();
  }
  // mmap returns page-aligned memory; chunk alignment needs 64 KiB. Reserve
  // enough slack to align the base upward.
  if ((region->base() & (kArenaChunkGranularity - 1)) != 0) {
    auto padded = VmRegion::Reserve(RoundUp(reserve_bytes, kArenaChunkGranularity) +
                                    kArenaChunkGranularity);
    if (!padded.ok()) {
      return padded.status();
    }
    region = std::move(padded);
  }
  auto arena = std::unique_ptr<Arena>(new Arena(std::move(*region)));
  const uintptr_t misalignment = arena->region_.base() & (kArenaChunkGranularity - 1);
  if (misalignment != 0) {
    arena->bump_ = kArenaChunkGranularity - misalignment;
  }
  return arena;
}

Result<uintptr_t> Arena::AllocateChunk(size_t bytes) {
  if (bytes == 0) {
    return InvalidArgumentError("empty chunk request");
  }
  const size_t rounded = RoundUp(bytes, kArenaChunkGranularity);
  std::lock_guard lock(mutex_);

  auto it = free_chunks_.find(rounded);
  if (it != free_chunks_.end() && !it->second.empty()) {
    const uintptr_t addr = it->second.back();
    it->second.pop_back();
    outstanding_ += rounded;
    return addr;
  }

  if (bump_ + rounded > region_.size()) {
    return ResourceExhaustedError(
        StrFormat("arena exhausted: %zu requested, %zu remaining", rounded,
                  region_.size() - bump_));
  }
  const uintptr_t addr = region_.base() + bump_;
  bump_ += rounded;
  outstanding_ += rounded;
  return addr;
}

void Arena::FreeChunk(uintptr_t addr, size_t bytes) {
  const size_t rounded = RoundUp(bytes, kArenaChunkGranularity);
  PS_CHECK(Contains(addr)) << "FreeChunk of foreign pointer";
  PS_CHECK_EQ(addr & (kArenaChunkGranularity - 1), 0u);
  std::lock_guard lock(mutex_);
  PS_CHECK_GE(outstanding_, rounded);
  outstanding_ -= rounded;
  free_chunks_[rounded].push_back(addr);
}

Status Arena::DecommitAll() {
  std::lock_guard lock(mutex_);
  PS_RETURN_IF_ERROR(region_.Decommit(0, region_.size()));
  // Restore the aligned-start bump of Create: the first chunk after the pool
  // is recycled must stay 64 KiB-aligned.
  const uintptr_t misalignment = region_.base() & (kArenaChunkGranularity - 1);
  bump_ = misalignment != 0 ? kArenaChunkGranularity - misalignment : 0;
  outstanding_ = 0;
  free_chunks_.clear();
  return Status::Ok();
}

size_t Arena::used_bytes() const {
  std::lock_guard lock(mutex_);
  return bump_;
}

size_t Arena::outstanding_bytes() const {
  std::lock_guard lock(mutex_);
  return outstanding_;
}

}  // namespace pkrusafe
