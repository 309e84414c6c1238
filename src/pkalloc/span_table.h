// Open-addressing hash table mapping chunk bases to span metadata, with its
// storage allocated from the owning arena.
//
// The paper requires each compartment's allocator to keep *its own internal
// data* inside that compartment's memory (§3.4), so other compartments can
// neither read nor corrupt it. Free-list nodes already live in-pool; this
// table keeps the span directory in-pool too.
#ifndef SRC_PKALLOC_SPAN_TABLE_H_
#define SRC_PKALLOC_SPAN_TABLE_H_

#include <cstdint>

#include "src/pkalloc/arena.h"
#include "src/support/logging.h"
#include "src/support/status.h"

namespace pkrusafe {

struct SpanInfo {
  // Size-class index for small spans; kLargeSpan for direct chunk allocs.
  static constexpr uint32_t kLargeSpan = 0xFFFFFFFFu;
  uint32_t class_index = 0;
  // Rounded byte size of the underlying chunk (needed to return it).
  uint64_t chunk_bytes = 0;

  // Small-span occupancy (unused for large spans). Blocks are carved lazily:
  // `carved` is the bump progress through the chunk, `free_count`/`free_head`
  // track blocks that came back. Live blocks = carved - free_count; a span
  // whose free_count equals its carved count has no outstanding blocks and
  // can be returned to the arena.
  uint32_t block_count = 0;  // capacity in blocks
  uint32_t carved = 0;       // blocks handed out at least once
  uint32_t free_count = 0;   // blocks currently on free_head
  void* free_head = nullptr;  // intrusive LIFO of returned blocks

  // Links (chunk bases, 0 = none) threading spans with available blocks into
  // their owner's nonempty list. Bases stay valid across table rehashes,
  // unlike slot pointers.
  uintptr_t next = 0;
  uintptr_t prev = 0;

  bool HasAvailableBlock() const { return free_count > 0 || carved < block_count; }
  bool FullyFree() const { return free_count == carved; }
};

class SpanTable {
 public:
  // Storage comes from `arena`; the table grows by allocating a bigger
  // chunk and rehashing. The arena must outlive the table.
  explicit SpanTable(Arena* arena) : arena_(arena) {}
  // Deferred-attach form for arrays of tables (central free-list shards);
  // call set_arena() before the first Insert.
  SpanTable() = default;
  void set_arena(Arena* arena) { arena_ = arena; }

  SpanTable(const SpanTable&) = delete;
  SpanTable& operator=(const SpanTable&) = delete;

  Status Insert(uintptr_t chunk_base, SpanInfo info) {
    if (slots_ == nullptr || live_ * 4 >= capacity_ * 3) {
      PS_RETURN_IF_ERROR(Grow());
    }
    Slot* slot = Probe(chunk_base);
    if (slot->state == kLive) {
      return AlreadyExistsError("span already registered");
    }
    if (slot->state == kEmpty) {
      ++used_;
    }
    slot->key = chunk_base;
    slot->info = info;
    slot->state = kLive;
    ++live_;
    return Status::Ok();
  }

  const SpanInfo* Find(uintptr_t chunk_base) const {
    if (slots_ == nullptr) {
      return nullptr;
    }
    const Slot* slot = Probe(chunk_base);
    return slot->state == kLive ? &slot->info : nullptr;
  }

  // Mutable lookup for occupancy updates. The pointer is invalidated by the
  // next Insert (which may rehash); do not hold it across one.
  SpanInfo* FindMutable(uintptr_t chunk_base) {
    if (slots_ == nullptr) {
      return nullptr;
    }
    Slot* slot = Probe(chunk_base);
    return slot->state == kLive ? &slot->info : nullptr;
  }

  Status Erase(uintptr_t chunk_base) {
    if (slots_ == nullptr) {
      return NotFoundError("span table empty");
    }
    Slot* slot = Probe(chunk_base);
    if (slot->state != kLive) {
      return NotFoundError("span not registered");
    }
    slot->state = kTombstone;
    --live_;
    return Status::Ok();
  }

  size_t size() const { return live_; }

  // Forgets every span without touching the slot storage. Only for an arena
  // that has already dropped its chunks (Arena::DecommitAll): the storage
  // chunk went with them, and the next Insert allocates a fresh one.
  void Reset() {
    slots_ = nullptr;
    capacity_ = 0;
    used_ = 0;
    live_ = 0;
  }

 private:
  enum SlotState : uint8_t { kEmpty = 0, kTombstone = 1, kLive = 2 };

  struct Slot {
    uintptr_t key;
    SpanInfo info;
    SlotState state;
  };

  static uint64_t Hash(uintptr_t key) {
    // Chunk bases share low zero bits; mix before masking.
    uint64_t z = key;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Returns the live slot for `key`, or the first insertable slot.
  Slot* Probe(uintptr_t key) {
    const size_t mask = capacity_ - 1;
    size_t index = Hash(key) & mask;
    Slot* first_free = nullptr;
    while (true) {
      Slot* slot = &slots_[index];
      if (slot->state == kLive && slot->key == key) {
        return slot;
      }
      if (slot->state == kTombstone && first_free == nullptr) {
        first_free = slot;
      }
      if (slot->state == kEmpty) {
        return first_free != nullptr ? first_free : slot;
      }
      index = (index + 1) & mask;
    }
  }
  const Slot* Probe(uintptr_t key) const { return const_cast<SpanTable*>(this)->Probe(key); }

  Status Grow() {
    const size_t new_capacity = capacity_ == 0 ? 1024 : capacity_ * 2;
    const size_t bytes = new_capacity * sizeof(Slot);
    auto chunk = arena_->AllocateChunk(bytes);
    if (!chunk.ok()) {
      return chunk.status();
    }
    auto* new_slots = reinterpret_cast<Slot*>(*chunk);
    for (size_t i = 0; i < new_capacity; ++i) {
      new_slots[i].state = kEmpty;
    }

    Slot* old_slots = slots_;
    const size_t old_capacity = capacity_;
    const size_t old_bytes = old_capacity * sizeof(Slot);

    slots_ = new_slots;
    capacity_ = new_capacity;
    used_ = 0;
    live_ = 0;
    if (old_slots != nullptr) {
      for (size_t i = 0; i < old_capacity; ++i) {
        if (old_slots[i].state == kLive) {
          PS_CHECK(Insert(old_slots[i].key, old_slots[i].info).ok());
        }
      }
      arena_->FreeChunk(reinterpret_cast<uintptr_t>(old_slots), old_bytes);
    }
    return Status::Ok();
  }

  Arena* arena_ = nullptr;
  Slot* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;  // live + tombstones
  size_t live_ = 0;
};

// Nonempty-list maintenance shared by FreeListHeap and the central free
// lists: spans with available blocks hang off a per-class head, doubly
// linked through SpanInfo::{next,prev} by chunk base.
inline void LinkNonempty(SpanTable& table, uintptr_t* head, uintptr_t base, SpanInfo* span) {
  span->next = *head;
  span->prev = 0;
  if (*head != 0) {
    table.FindMutable(*head)->prev = base;
  }
  *head = base;
}

inline void UnlinkNonempty(SpanTable& table, uintptr_t* head, uintptr_t base, SpanInfo* span) {
  if (span->prev != 0) {
    table.FindMutable(span->prev)->next = span->next;
  } else {
    PS_CHECK_EQ(*head, base);
    *head = span->next;
  }
  if (span->next != 0) {
    table.FindMutable(span->next)->prev = span->prev;
  }
  span->next = 0;
  span->prev = 0;
}

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_SPAN_TABLE_H_
