#include "src/pkalloc/site_tags.h"

#include "src/memmap/page.h"
#include "src/support/logging.h"

namespace pkrusafe {

SiteTagTable::SiteTagTable(const Arena* arena, const CentralFreeListSet* central)
    : arena_(arena),
      central_(central),
      map_base_(RoundUp(arena->base(), kArenaChunkGranularity)),
      // A padded reservation's slack past its last whole chunk is never
      // handed out; it has no slot.
      map_end_(ChunkBaseOf(arena->base() + arena->reserved_bytes())) {
  granules_offset_ = PageUp((map_end_ - map_base_) / kArenaChunkGranularity * sizeof(ChunkSlots));
}

// The slot's accesses are all sequentially consistent: a reader that sees
// any field of a write also sees the odd sequence number stored before it,
// so its closing reread differs.
bool SiteTagTable::ReadSlot(Slot& slot, TaggedBlock* out) {
  const uint32_t seq = Atomic(slot.seq).load();
  out->tag = Atomic(slot.tag).load();
  if ((seq & 1) != 0 || out->tag == 0) {
    return false;
  }
  out->base = Atomic(slot.base).load();
  out->size = Atomic(slot.size).load();
  return Atomic(slot.seq).load() == seq;
}

void SiteTagTable::WriteSlot(Slot& slot, uintptr_t base, uint64_t size, uint32_t tag) {
  const uint32_t seq = Atomic(slot.seq).load();
  Atomic(slot.seq).store(seq + 1);
  Atomic(slot.tag).store(tag);
  Atomic(slot.base).store(base);
  Atomic(slot.size).store(size);
  Atomic(slot.seq).store(seq + 2);
}

Status SiteTagTable::Set(uintptr_t base, size_t size, uint32_t tag) {
  uintptr_t storage = storage_.load(std::memory_order_acquire);
  if (storage == 0) {
    std::lock_guard lock(mutex_);
    if (!region_.valid()) {
      // One entry of each array per chunk: slots, then granule tags.
      PS_ASSIGN_OR_RETURN(region_, VmRegion::Reserve(granules_offset_ + (map_end_ - map_base_) /
                                                                            kGranule * 4));
      storage_.store(region_.base(), std::memory_order_release);
    }
    storage = region_.base();
  }
  if (central_->ClassOfChunk(ChunkBaseOf(base)) != CentralFreeListSet::kNoClass) {
    Atomic(GranuleOf(storage, base)).store(tag, std::memory_order_release);
    return Status::Ok();
  }
  std::lock_guard lock(mutex_);
  for (uintptr_t chunk = ChunkBaseOf(base); chunk < base + size;
       chunk += kArenaChunkGranularity) {
    Slot* free_slot = nullptr;
    for (Slot& slot : SlotsOf(storage, chunk).slots) {
      if (slot.tag == 0) {
        free_slot = &slot;
        break;
      }
    }
    PS_CHECK(free_slot != nullptr) << "more than " << kSlotsPerChunk
                                   << " tagged blocks overlap one chunk";
    WriteSlot(*free_slot, base, size, tag);
  }
  return Status::Ok();
}

void SiteTagTable::ClearIn(uintptr_t storage, uintptr_t base) {
  if (central_->ClassOfChunk(ChunkBaseOf(base)) != CentralFreeListSet::kNoClass) {
    Atomic(GranuleOf(storage, base)).store(0, std::memory_order_release);
    return;
  }
  // The block has a slot in each chunk it overlaps, from its first on.
  std::lock_guard lock(mutex_);
  for (uintptr_t chunk = ChunkBaseOf(base); chunk < map_end_; chunk += kArenaChunkGranularity) {
    Slot* owned = nullptr;
    for (Slot& slot : SlotsOf(storage, chunk).slots) {
      if (slot.tag != 0 && slot.base == base) {
        owned = &slot;
      }
    }
    if (owned == nullptr) {
      return;
    }
    WriteSlot(*owned, 0, 0, 0);
  }
}

TaggedBlock SiteTagTable::FindIn(uintptr_t storage, uintptr_t addr) const {
  const uintptr_t chunk = ChunkBaseOf(addr);
  const uint8_t class_index = central_->ClassOfChunk(chunk);
  if (class_index != CentralFreeListSet::kNoClass) {
    // Past a span's last block no block starts at `base`: its granule is 0.
    const size_t size = ClassSize(class_index);
    const uintptr_t base = chunk + (addr - chunk) / size * size;
    const uint32_t tag = Atomic(GranuleOf(storage, base)).load(std::memory_order_acquire);
    return tag != 0 ? TaggedBlock{base, size, tag} : TaggedBlock{};
  }
  for (Slot& slot : SlotsOf(storage, chunk).slots) {
    TaggedBlock block;
    if (ReadSlot(slot, &block) && addr - block.base < block.size) {
      return block;
    }
  }
  return {};
}

}  // namespace pkrusafe
