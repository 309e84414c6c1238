#include "src/pkalloc/site_tags.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <thread>
#include <vector>

#include "src/mpk/sim_backend.h"
#include "src/pkalloc/pkalloc.h"
#include "src/support/logging.h"
#include "src/support/rng.h"

namespace pkrusafe {
namespace {

std::unique_ptr<PkAllocator> MakeAllocator(MpkBackend* backend, bool fast_untrusted_heap) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  PkAllocatorConfig config;
  config.trusted_pool_bytes = size_t{1} << 30;
  config.untrusted_pool_bytes = size_t{1} << 30;
  config.fast_untrusted_heap = fast_untrusted_heap;
  auto allocator = PkAllocator::Create(backend, config);
  PS_CHECK(allocator.ok()) << allocator.status().ToString();
  return std::move(*allocator);
}

uintptr_t Addr(const void* ptr) { return reinterpret_cast<uintptr_t>(ptr); }

std::vector<TaggedBlock> TaggedIn(const PkAllocator& allocator, uintptr_t lo, uintptr_t hi) {
  std::vector<TaggedBlock> blocks;
  allocator.ForEachTaggedIn(lo, hi, [&](const TaggedBlock& block) {
    blocks.push_back(block);
    return true;
  });
  return blocks;
}

class SiteTagTest : public ::testing::Test {
 protected:
  SimMpkBackend backend_;
  std::unique_ptr<PkAllocator> allocator_ = MakeAllocator(&backend_, false);
};

// Before its first Set a table has no storage: lookups, walks and clears
// over it are no-ops. A large block's slots are cleared in every chunk.
TEST(SiteTagTableTest, TableAnswersNothingUntilTheFirstSet) {
  auto arena = Arena::Create(size_t{64} << 20);
  ASSERT_TRUE(arena.ok());
  CentralFreeListSet central(arena->get());
  SiteTagTable table(arena->get(), &central);
  const uintptr_t chunk = *(*arena)->AllocateChunk(2 * kArenaChunkGranularity);
  EXPECT_EQ(table.Find(chunk + 100).tag, 0u);
  table.Clear(chunk);
  EXPECT_TRUE(table.ForEach([](const TaggedBlock&) { return false; }));

  ASSERT_TRUE(table.Set(chunk, 2 * kArenaChunkGranularity, 7).ok());
  EXPECT_EQ(table.Find(chunk + 2 * kArenaChunkGranularity - 1).tag, 7u);
  table.Clear(chunk);
  EXPECT_EQ(table.Find(chunk).tag, 0u);
  EXPECT_EQ(table.Find(chunk + kArenaChunkGranularity).tag, 0u);
}

TEST_F(SiteTagTest, SmallBlockResolvesEveryInteriorAddressAndNoNeighbor) {
  std::vector<void*> blocks;
  for (int i = 0; i < 3; ++i) {
    blocks.push_back(allocator_->Allocate(Domain::kTrusted, 48));
  }
  ASSERT_TRUE(allocator_->Tag(blocks[1], 5).ok());
  for (size_t offset = 0; offset < 48; ++offset) {
    const TaggedBlock found = allocator_->FindTagged(Addr(blocks[1]) + offset);
    ASSERT_EQ(found.tag, 5u) << offset;
    EXPECT_EQ(found.base, Addr(blocks[1]));
    EXPECT_EQ(found.size, 48u);
  }
  EXPECT_EQ(allocator_->FindTagged(Addr(blocks[0])).tag, 0u);
  EXPECT_EQ(allocator_->FindTagged(Addr(blocks[2])).tag, 0u);
  for (void* block : blocks) {
    allocator_->Free(block);
  }
}

// A block larger than a chunk is entered in every chunk it overlaps, on
// both untrusted heaps and the trusted one.
TEST_F(SiteTagTest, LargeBlocksResolveAcrossTheirChunks) {
  for (const bool fast : {false, true}) {
    SimMpkBackend backend;
    auto allocator = MakeAllocator(&backend, fast);
    for (const Domain domain : {Domain::kTrusted, Domain::kUntrusted}) {
      void* block = allocator->Allocate(domain, 3 * kArenaChunkGranularity + 100);
      const size_t size = allocator->UsableSize(block);
      ASSERT_TRUE(allocator->Tag(block, 9).ok());
      for (size_t offset = 0; offset < size; offset += 4093) {
        EXPECT_EQ(allocator->FindTagged(Addr(block) + offset).base, Addr(block)) << offset;
      }
      EXPECT_EQ(allocator->FindTagged(Addr(block) + size - 1).tag, 9u);
      EXPECT_EQ(allocator->FindTagged(Addr(block) + size).tag, 0u);
      const std::vector<TaggedBlock> walked = TaggedIn(*allocator, 0, ~uintptr_t{0});
      ASSERT_EQ(walked.size(), 1u) << "fast=" << fast;
      EXPECT_EQ(walked[0].size, size);
      allocator->Free(block);
      EXPECT_EQ(allocator->FindTagged(Addr(block) + size / 2).tag, 0u);
    }
  }
}

// Every tag is cleared on free, so a released span carved again for another
// class starts with no stale tag at any granule.
TEST_F(SiteTagTest, ReleasedSpanCarvedForAnotherClassHasNoStaleTags) {
  // Enough 16-byte blocks for several spans, so some are released (one per
  // class is retained).
  std::vector<void*> small;
  for (int i = 0; i < 3 * 4096; ++i) {
    small.push_back(allocator_->Allocate(Domain::kTrusted, 16));
    ASSERT_TRUE(allocator_->Tag(small.back(), 1 + i % 3).ok());
  }
  for (void* block : small) {
    allocator_->Free(block);
  }
  allocator_->FlushThisThreadCache();
  std::vector<void*> wide;
  for (int i = 0; i < 3 * 256; ++i) {
    wide.push_back(allocator_->Allocate(Domain::kTrusted, 256));
  }
  for (void* block : wide) {
    for (size_t offset = 0; offset < 256; offset += 16) {
      ASSERT_EQ(allocator_->FindTagged(Addr(block) + offset).tag, 0u);
    }
  }
  EXPECT_TRUE(TaggedIn(*allocator_, 0, ~uintptr_t{0}).empty());
  for (void* block : wide) {
    allocator_->Free(block);
  }
}

// The range walk (the latch step window) visits each overlapping block once,
// in address order, including blocks that start before the range or span
// several chunks, and stops when asked.
TEST_F(SiteTagTest, RangeWalkVisitsEachOverlappingBlockOnceInOrder) {
  std::vector<void*> blocks;
  for (int i = 0; i < 6; ++i) {
    blocks.push_back(allocator_->Allocate(Domain::kUntrusted, 40000));
    ASSERT_TRUE(allocator_->Tag(blocks.back(), 10 + i).ok());
  }
  const uintptr_t lo = Addr(blocks[1]) + 100;
  const uintptr_t hi = Addr(blocks[4]) + 1;
  const std::vector<TaggedBlock> walked = TaggedIn(*allocator_, lo, hi);
  ASSERT_EQ(walked.size(), 4u);
  for (size_t i = 0; i < walked.size(); ++i) {
    EXPECT_EQ(walked[i].base, Addr(blocks[i + 1]));
    EXPECT_EQ(walked[i].tag, 11u + i);
  }
  int visited = 0;
  EXPECT_FALSE(allocator_->ForEachTaggedIn(lo, hi, [&](const TaggedBlock&) {
    return ++visited < 2;
  }));
  EXPECT_EQ(visited, 2);
  for (void* block : blocks) {
    allocator_->Free(block);
  }
}

// A pool's reservation may end in slack past its last whole chunk (the
// arena pads an unaligned mapping); a fault there resolves to nothing.
TEST_F(SiteTagTest, AddressesPastTheLastWholeChunkFindNothing) {
  void* block = allocator_->Allocate(Domain::kTrusted, 64);
  ASSERT_TRUE(allocator_->Tag(block, 3).ok());
  for (const Arena* arena : {&allocator_->trusted_arena(), &allocator_->untrusted_arena()}) {
    const uintptr_t end = arena->base() + arena->reserved_bytes();
    EXPECT_EQ(allocator_->FindTagged(end - 1).tag, 0u);
    EXPECT_TRUE(TaggedIn(*allocator_, end - kArenaChunkGranularity, end).empty());
  }
  allocator_->Free(block);
}

// Large-block lookups race other threads tagging and freeing blocks that
// share the tracked block's chunks: the seqlocked slots never lose it.
TEST_F(SiteTagTest, LargeSlotLookupsDuringChurn) {
  char* tracked = static_cast<char*>(allocator_->Allocate(Domain::kUntrusted, 20000));
  ASSERT_TRUE(allocator_->Tag(tracked, 1).ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  for (int t = 0; t < 2; ++t) {
    churn.emplace_back([&] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      std::vector<void*> others(8);
      while (!stop.load(std::memory_order_relaxed)) {
        for (void*& other : others) {
          other = allocator_->Allocate(Domain::kUntrusted, 17000 + 16 * (&other - &others[0]));
          (void)allocator_->Tag(other, 2);
        }
        for (void* other : others) {
          allocator_->Free(other);
        }
      }
    });
  }
  int found = 0;
  constexpr int kLookups = 100'000;
  for (int i = 0; i < kLookups; ++i) {
    const TaggedBlock block = allocator_->FindTagged(Addr(tracked) + (i * 97) % 20000);
    found += block.tag == 1 && block.base == Addr(tracked) ? 1 : 0;
  }
  stop.store(true);
  for (std::thread& thread : churn) {
    thread.join();
  }
  EXPECT_EQ(found, kLookups);
  allocator_->Free(tracked);
}

// Differential property: seeded random alloc/realloc/free traces over both
// pools, sizes 1 B-256 KiB, checked against a std::map oracle of the tagged
// blocks at base, interior and one-past-end addresses, and by range and
// whole-table walks.
class SiteTagPropertyTest : public ::testing::TestWithParam<bool> {};

TEST_P(SiteTagPropertyTest, LookupsMatchAMapOracle) {
  struct Entry {
    size_t size;
    uint32_t tag;
  };
  SimMpkBackend backend;
  auto allocator = MakeAllocator(&backend, GetParam());
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL);
    std::map<uintptr_t, Entry> oracle;  // tagged blocks by base
    std::vector<void*> live;
    const auto expected = [&](uintptr_t addr) {
      auto it = oracle.upper_bound(addr);
      if (it == oracle.begin()) {
        return TaggedBlock{};
      }
      --it;
      return addr - it->first < it->second.size
                 ? TaggedBlock{it->first, it->second.size, it->second.tag}
                 : TaggedBlock{};
    };
    const auto check = [&](uintptr_t addr) {
      const TaggedBlock want = expected(addr);
      const TaggedBlock got = allocator->FindTagged(addr);
      ASSERT_EQ(got.tag, want.tag) << "seed " << seed << " addr " << std::hex << addr;
      if (want.tag != 0) {
        ASSERT_EQ(got.base, want.base);
        ASSERT_EQ(got.size, want.size);
      }
    };
    const auto random_size = [&] {
      // Log-uniform over 1 B - 256 KiB: both the cached classes and the heaps.
      const size_t bits = rng.NextBelow(18);
      return static_cast<size_t>(1 + rng.NextBelow(size_t{1} << (bits + 1)));
    };
    for (int step = 0; step < 2000; ++step) {
      const uint64_t op = rng.NextBelow(10);
      if (live.empty() || op < 5) {
        const Domain domain = rng.NextBelow(2) == 0 ? Domain::kTrusted : Domain::kUntrusted;
        void* block = allocator->Allocate(domain, random_size());
        ASSERT_NE(block, nullptr);
        if (rng.NextBelow(5) != 0) {
          const uint32_t tag = static_cast<uint32_t>(1 + rng.NextBelow(1000));
          ASSERT_TRUE(allocator->Tag(block, tag).ok());
          oracle[Addr(block)] = Entry{allocator->UsableSize(block), tag};
        }
        live.push_back(block);
      } else if (op < 7) {
        const size_t victim = rng.NextBelow(live.size());
        void* old_block = live[victim];
        const auto it = oracle.find(Addr(old_block));
        const uint32_t tag = it != oracle.end() ? it->second.tag : 0;
        if (it != oracle.end()) {
          oracle.erase(it);
        }
        void* fresh = allocator->Reallocate(Domain::kTrusted, old_block, random_size());
        ASSERT_NE(fresh, nullptr);
        if (tag != 0) {
          oracle[Addr(fresh)] = Entry{allocator->UsableSize(fresh), tag};
        }
        live[victim] = fresh;
      } else {
        const size_t victim = rng.NextBelow(live.size());
        oracle.erase(Addr(live[victim]));
        allocator->Free(live[victim]);
        live[victim] = live.back();
        live.pop_back();
      }
      // Probe a few live blocks at base, a random interior byte, the last
      // byte and one past the end.
      for (int probe = 0; probe < 4 && !live.empty(); ++probe) {
        const uintptr_t base = Addr(live[rng.NextBelow(live.size())]);
        const size_t size = allocator->UsableSize(reinterpret_cast<void*>(base));
        check(base);
        check(base + rng.NextBelow(size));
        check(base + size - 1);
        check(base + size);
      }
      if (step % 100 == 0 && !oracle.empty()) {
        // A random window, as the latch step's, against the oracle's blocks
        // overlapping it.
        auto pick = oracle.begin();
        std::advance(pick, static_cast<long>(rng.NextBelow(oracle.size())));
        const uintptr_t lo = pick->first + rng.NextBelow(pick->second.size);
        const uintptr_t hi = lo + 1 + rng.NextBelow(3 * kArenaChunkGranularity);
        std::vector<uintptr_t> want;
        auto it = oracle.upper_bound(lo);
        if (it != oracle.begin() && lo - std::prev(it)->first < std::prev(it)->second.size) {
          --it;
        }
        for (; it != oracle.end() && it->first < hi; ++it) {
          want.push_back(it->first);
        }
        std::vector<uintptr_t> got;
        for (const TaggedBlock& block : TaggedIn(*allocator, lo, hi)) {
          got.push_back(block.base);
        }
        ASSERT_EQ(got, want) << "seed " << seed << " step " << step;
      }
    }
    std::vector<uintptr_t> walked;
    allocator->ForEachTagged([&](const TaggedBlock& block) {
      walked.push_back(block.base);
      return true;
    });
    std::sort(walked.begin(), walked.end());  // the walk goes pool by pool
    std::vector<uintptr_t> bases;
    for (const auto& [base, entry] : oracle) {
      bases.push_back(base);
    }
    EXPECT_EQ(walked, bases) << "seed " << seed;
    for (void* block : live) {
      allocator->Free(block);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UntrustedHeaps, SiteTagPropertyTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "FastUntrustedHeap" : "BoundaryTagHeap";
                         });

}  // namespace
}  // namespace pkrusafe
