// The small-block span engine shared by every heap that carves 64 KiB spans
// into size-class blocks (FreeListHeap, the central free lists):
//   * SpanTable — an open-addressing hash table mapping chunk bases to span
//     metadata, with its storage allocated from the owning arena;
//   * SpanList — one size class's spans over such a table: carve, pop,
//     return and retire, with the retain-one-span policy.
//
// The paper requires each compartment's allocator to keep *its own internal
// data* inside that compartment's memory (§3.4), so other compartments can
// neither read nor corrupt it. Free-list nodes already live in-pool; the
// table keeps the span directory in-pool too.
#ifndef SRC_PKALLOC_SPAN_TABLE_H_
#define SRC_PKALLOC_SPAN_TABLE_H_

#include <bit>
#include <cstdint>
#include <utility>

#include "src/memmap/page.h"
#include "src/pkalloc/arena.h"
#include "src/pkalloc/size_classes.h"
#include "src/pkalloc/small_block.h"
#include "src/support/logging.h"
#include "src/support/status.h"
#include "src/telemetry/metrics.h"

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
  // chunk and rehashing. The slots sit at the top of their chunk. The first
  // table fits in one page and its chunk is taken here, so over a fresh pool
  // it is the pool's first chunk and the table's page lies directly below
  // the next chunk, the owner's first data chunk: a pool with a handful of
  // spans (a tenant's) keeps its populated pages adjacent, and a key miss's
  // TLB flush, which covers every page between the lowest and highest
  // populated one, stays short. The arena must outlive the table.
  explicit SpanTable(Arena* arena) : arena_(arena) { ReserveFirst(); }
  // Deferred-attach form for arrays of tables (central free-list shards);
  // call set_arena() before the first Insert.
  SpanTable() = default;
  void set_arena(Arena* arena) { arena_ = arena; }

  SpanTable(const SpanTable&) = delete;
  SpanTable& operator=(const SpanTable&) = delete;

  Status Insert(uintptr_t chunk_base, SpanInfo info) {
    // Bounding used (live + tombstone) slots keeps an empty slot for Probe
    // to stop at, however long inserts and erases churn.
    if (slots_ == nullptr || used_ * 4 >= capacity_ * 3) {
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
  size_t capacity() const { return capacity_; }

  // Forgets every span without touching the slot storage. Only for an arena
  // that has already dropped its chunks (Arena::DecommitAll): the storage
  // chunk went with them, and the first table takes the pool's first chunk
  // again, as at construction.
  void Reset() {
    slots_ = nullptr;
    capacity_ = 0;
    used_ = 0;
    live_ = 0;
    ReserveFirst();
  }

 private:
  enum SlotState : uint8_t { kEmpty = 0, kTombstone = 1, kLive = 2 };

  struct Slot {
    uintptr_t key;
    SpanInfo info;
    SlotState state;
  };

 public:
  // Slot count of the first table: the largest power of two that fits in
  // one page.
  static constexpr size_t kFirstCapacity = std::bit_floor(kPageSize / sizeof(Slot));

 private:
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

  // Takes the first table's chunk without writing it: the slots are written
  // by the first Insert, so a heap that never allocates (a recycled pool
  // waiting for its next tenant) keeps no page resident. An exhausted arena
  // leaves nothing reserved, and the first Insert allocates instead.
  void ReserveFirst() {
    auto chunk = arena_->AllocateChunk(ChunkBytes(kFirstCapacity));
    reserved_ = chunk.ok() ? *chunk : 0;
  }

  // A table of `capacity` slots takes a chunk of ChunkBytes(capacity) and
  // fills its top, from SlotsOffset(capacity) up.
  static size_t ChunkBytes(size_t capacity) {
    return RoundUp(capacity * sizeof(Slot), kArenaChunkGranularity);
  }
  static size_t SlotsOffset(size_t capacity) {
    return ChunkBytes(capacity) - capacity * sizeof(Slot);
  }

  // Doubles the table once half its slots are live; below that, the used
  // slots are mostly tombstones and a same-size rehash clears them.
  Status Grow() {
    const size_t new_capacity =
        capacity_ == 0 ? kFirstCapacity : live_ * 2 >= capacity_ ? capacity_ * 2 : capacity_;
    uintptr_t chunk = std::exchange(reserved_, 0);
    if (chunk == 0) {
      PS_ASSIGN_OR_RETURN(chunk, arena_->AllocateChunk(ChunkBytes(new_capacity)));
    }
    auto* new_slots = reinterpret_cast<Slot*>(chunk + SlotsOffset(new_capacity));
    for (size_t i = 0; i < new_capacity; ++i) {
      new_slots[i].state = kEmpty;
    }

    Slot* old_slots = slots_;
    const size_t old_capacity = capacity_;

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
      arena_->FreeChunk(reinterpret_cast<uintptr_t>(old_slots) - SlotsOffset(old_capacity),
                        ChunkBytes(old_capacity));
    }
    return Status::Ok();
  }

  Arena* arena_ = nullptr;
  uintptr_t reserved_ = 0;  // the first table's chunk, until the first Insert
  Slot* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;  // live + tombstones
  size_t live_ = 0;
};

// The spans of one size class: the carve / pop / return / retire path of
// every small-block heap. FreeListHeap keeps one per class over its single
// table; each central free-list shard keeps one over its own table. The
// table and arena are the owner's and are passed in, so the list itself is
// three words and the owner's lock covers it. Spans with available blocks
// hang off a nonempty list, doubly linked through SpanInfo::{next,prev} by
// chunk base. One fully-free span is retained so an alloc/free ping-pong
// does not thrash the arena; any other span that becomes fully free is
// erased and handed back to the arena.
class SpanList {
 public:
  // Pops up to `want` blocks of `class_index`, passing each to
  // `on_block(FreeNode*)`: the free lists first, then the retained span,
  // then a fresh 64 KiB span from `arena`, whose base goes to
  // `on_carve(base)` before any of its blocks. Returns the number popped,
  // short only when the arena is exhausted. Every popped block has its
  // canary cleared: a carved block can hold a stale one too, because a
  // released span's chunk keeps its contents (Arena::FreeChunk does not
  // decommit) and may be carved again for the same class.
  template <typename OnBlock, typename OnCarve>
  size_t Pop(SpanTable& table, Arena& arena, size_t class_index, size_t want,
             OnBlock&& on_block, OnCarve&& on_carve) {
    const size_t block_size = ClassSize(class_index);
    size_t got = 0;
    while (got < want) {
      if (nonempty_ == 0 && !Unretain(table)) {
        const uintptr_t carved = Carve(table, arena, class_index);
        if (carved == 0) {
          break;  // arena exhausted
        }
        on_carve(carved);
      }
      const uintptr_t base = nonempty_;
      SpanInfo* span = table.FindMutable(base);
      for (; got < want && span->HasAvailableBlock(); ++got) {
        auto* block = static_cast<FreeNode*>(span->free_head);
        if (block != nullptr) {
          span->free_head = block->next;
          --span->free_count;
        } else {
          block = reinterpret_cast<FreeNode*>(base + size_t{span->carved} * block_size);
          ++span->carved;
        }
        ClearFreeCanary(block);
        on_block(block);
      }
      if (!span->HasAvailableBlock()) {
        Unlink(table, base, span);
      }
    }
    return got;
  }

  // Returns `block`, which lies in the small span `span` at `base`, to that
  // span's free list and sets its free canary. Aborts when the span would
  // hold more free blocks than it ever carved. A span left fully free is
  // retained, or, when one already is, handed back to the arena after
  // `on_release(base)`.
  template <typename OnRelease>
  void Push(SpanTable& table, Arena& arena, uintptr_t base, SpanInfo* span, void* block,
            OnRelease&& on_release) {
    const bool was_exhausted = !span->HasAvailableBlock();
    auto* node = static_cast<FreeNode*>(block);
    node->next = static_cast<FreeNode*>(span->free_head);
    span->free_head = node;
    ++span->free_count;
    PS_CHECK_LE(span->free_count, span->carved) << "span free list overfull: double free?";
    SetFreeCanary(node);
    if (was_exhausted) {
      Link(table, base, span);
    }
    if (!span->FullyFree()) {
      return;
    }
    Unlink(table, base, span);
    if (retained_ == 0) {
      retained_ = base;
      return;
    }
    on_release(base);
    PS_CHECK(table.Erase(base).ok());
    arena.FreeChunk(base, kArenaChunkGranularity);
    ++spans_released_;
    SpansReleasedCounter()->Increment();
  }

  // Whether `ptr` is on `span`'s free list: the authoritative double-free
  // check behind a free-canary match.
  static bool FreeListContains(const SpanInfo& span, const void* ptr) {
    for (auto* node = static_cast<const FreeNode*>(span.free_head); node != nullptr;
         node = node->next) {
      if (node == ptr) {
        return true;
      }
    }
    return false;
  }

  uint64_t spans_released() const { return spans_released_; }

 private:
  static telemetry::Counter* SpansReleasedCounter() {
    static telemetry::Counter* counter =
        telemetry::MetricsRegistry::Global().GetOrCreateCounter("pkalloc.spans.released");
    return counter;
  }

  // Moves the retained span back onto the nonempty list; false if none.
  bool Unretain(SpanTable& table) {
    if (retained_ == 0) {
      return false;
    }
    Link(table, retained_, table.FindMutable(retained_));
    retained_ = 0;
    return true;
  }

  // Registers a fresh span and links it; returns its base, or 0 when the
  // arena or the table is out of memory.
  uintptr_t Carve(SpanTable& table, Arena& arena, size_t class_index) {
    auto chunk = arena.AllocateChunk(kArenaChunkGranularity);
    if (!chunk.ok()) {
      return 0;
    }
    SpanInfo info;
    info.class_index = static_cast<uint32_t>(class_index);
    info.chunk_bytes = kArenaChunkGranularity;
    info.block_count = static_cast<uint32_t>(kArenaChunkGranularity / ClassSize(class_index));
    if (!table.Insert(*chunk, info).ok()) {
      arena.FreeChunk(*chunk, kArenaChunkGranularity);
      return 0;
    }
    Link(table, *chunk, table.FindMutable(*chunk));
    return *chunk;
  }

  void Link(SpanTable& table, uintptr_t base, SpanInfo* span) {
    span->next = nonempty_;
    span->prev = 0;
    if (nonempty_ != 0) {
      table.FindMutable(nonempty_)->prev = base;
    }
    nonempty_ = base;
  }

  void Unlink(SpanTable& table, uintptr_t base, SpanInfo* span) {
    if (span->prev != 0) {
      table.FindMutable(span->prev)->next = span->next;
    } else {
      PS_CHECK_EQ(nonempty_, base);
      nonempty_ = span->next;
    }
    if (span->next != 0) {
      table.FindMutable(span->next)->prev = span->prev;
    }
    span->next = 0;
    span->prev = 0;
  }

  uintptr_t nonempty_ = 0;  // spans with available blocks
  uintptr_t retained_ = 0;  // one fully-free span kept back
  uint64_t spans_released_ = 0;
};

}  // namespace pkrusafe

#endif  // SRC_PKALLOC_SPAN_TABLE_H_
