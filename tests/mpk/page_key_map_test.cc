#include "src/mpk/page_key_map.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "src/memmap/page.h"

namespace pkrusafe {
namespace {

constexpr uintptr_t kBase = 0x10000000;

TEST(PageKeyMapTest, UntaggedIsDefaultKey) {
  PageKeyMap map;
  EXPECT_EQ(map.KeyFor(kBase), kDefaultPkey);
  EXPECT_FALSE(map.IsTagged(kBase));
}

TEST(PageKeyMapTest, TagAndLookup) {
  PageKeyMap map;
  ASSERT_TRUE(map.Tag(kBase, 2 * kPageSize, 3).ok());
  EXPECT_EQ(map.KeyFor(kBase), 3);
  EXPECT_EQ(map.KeyFor(kBase + kPageSize), 3);
  EXPECT_EQ(map.KeyFor(kBase + 2 * kPageSize), kDefaultPkey);
  EXPECT_TRUE(map.IsTagged(kBase + 100));
}

TEST(PageKeyMapTest, RejectsUnalignedRanges) {
  PageKeyMap map;
  EXPECT_FALSE(map.Tag(kBase + 1, kPageSize, 1).ok());
  EXPECT_FALSE(map.Tag(kBase, kPageSize + 1, 1).ok());
  EXPECT_FALSE(map.Tag(kBase, 0, 1).ok());
  EXPECT_FALSE(map.Tag(kBase, PageDown(~uintptr_t{0}), 1).ok());
  EXPECT_EQ(map.range_count(), 0u);
}

TEST(PageKeyMapTest, RejectsInvalidKey) {
  PageKeyMap map;
  EXPECT_FALSE(map.Tag(kBase, kPageSize, 16).ok());
}

TEST(PageKeyMapTest, ExactRetagChangesKey) {
  PageKeyMap map;
  ASSERT_TRUE(map.Tag(kBase, kPageSize, 1).ok());
  ASSERT_TRUE(map.Tag(kBase, kPageSize, 2).ok());
  EXPECT_EQ(map.KeyFor(kBase), 2);
  EXPECT_EQ(map.range_count(), 1u);
}

// An exact re-tag is an in-place key update: the range count stays, no
// snapshot is retired, and readers see the new key at once.
TEST(PageKeyMapTest, ExactRetagPublishesNoSnapshot) {
  PageKeyMap map;
  for (uintptr_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(map.Tag(kBase + 4 * i * kPageSize, 2 * kPageSize, 1).ok());
  }
  const size_t ranges = map.range_count();
  const size_t retired = map.retired_snapshot_count();
  for (int i = 0; i < 1000; ++i) {
    const PkeyId key = static_cast<PkeyId>(2 + i % 2);
    ASSERT_TRUE(map.Tag(kBase + 4 * kPageSize, 2 * kPageSize, key).ok());
    ASSERT_EQ(map.KeyFor(kBase + 5 * kPageSize), key);
  }
  EXPECT_EQ(map.range_count(), ranges);
  EXPECT_EQ(map.retired_snapshot_count(), retired);
  EXPECT_EQ(map.KeyFor(kBase), 1);
  EXPECT_EQ(map.RangesForKey(3).size(), 1u);
  const auto range = map.RangeStartingAt(kBase + 4 * kPageSize);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->end, kBase + 6 * kPageSize);
  EXPECT_EQ(range->key, 3);
  EXPECT_FALSE(map.RangeStartingAt(kBase + kPageSize).has_value());
}

TEST(PageKeyMapTest, TagReportsTheKeyAnExactRetagReplaced) {
  PageKeyMap map;
  std::optional<PkeyId> replaced = 9;
  ASSERT_TRUE(map.Tag(kBase, 2 * kPageSize, 1, &replaced).ok());
  EXPECT_FALSE(replaced.has_value());
  ASSERT_TRUE(map.Tag(kBase, 2 * kPageSize, 2, &replaced).ok());
  EXPECT_EQ(replaced, std::optional<PkeyId>(1));
  ASSERT_TRUE(map.Tag(kBase + 2 * kPageSize, kPageSize, 3, &replaced).ok());
  EXPECT_FALSE(replaced.has_value());
  EXPECT_FALSE(map.Tag(kBase + kPageSize, 2 * kPageSize, 4, &replaced).ok());
  EXPECT_FALSE(replaced.has_value());
}

TEST(PageKeyMapTest, PartialOverlapRejected) {
  PageKeyMap map;
  ASSERT_TRUE(map.Tag(kBase, 2 * kPageSize, 1).ok());
  EXPECT_FALSE(map.Tag(kBase + kPageSize, 2 * kPageSize, 2).ok());
}

TEST(PageKeyMapTest, UntagRemoves) {
  PageKeyMap map;
  ASSERT_TRUE(map.Tag(kBase, kPageSize, 1).ok());
  ASSERT_TRUE(map.Untag(kBase).ok());
  EXPECT_EQ(map.KeyFor(kBase), kDefaultPkey);
  EXPECT_FALSE(map.Untag(kBase).ok());
}

TEST(PageKeyMapTest, RangesForKeyFilters) {
  PageKeyMap map;
  ASSERT_TRUE(map.Tag(kBase, kPageSize, 1).ok());
  ASSERT_TRUE(map.Tag(kBase + 4 * kPageSize, kPageSize, 2).ok());
  ASSERT_TRUE(map.Tag(kBase + 8 * kPageSize, kPageSize, 1).ok());

  auto key1 = map.RangesForKey(1);
  ASSERT_EQ(key1.size(), 2u);
  EXPECT_EQ(key1[0].begin, kBase);
  EXPECT_EQ(key1[1].begin, kBase + 8 * kPageSize);

  auto key2 = map.RangesForKey(2);
  ASSERT_EQ(key2.size(), 1u);
  EXPECT_EQ(key2[0].key, 2);

  EXPECT_TRUE(map.RangesForKey(5).empty());
  EXPECT_EQ(map.range_count(), 3u);
}

// Regression for unbounded retired-snapshot growth: before epoch-based
// reclamation, every Tag/Untag leaked one immutable snapshot for the life of
// the map. With no concurrent readers every retired snapshot is immediately
// reclaimable, so churn must keep the backlog at a handful of entries.
TEST(PageKeyMapTest, ChurnReclaimsRetiredSnapshots) {
  PageKeyMap map;
  for (int i = 0; i < 10000; ++i) {
    const uintptr_t page = kBase + static_cast<uintptr_t>(i % 64) * kPageSize;
    ASSERT_TRUE(map.Tag(page, kPageSize, 1 + (i % 4)).ok());
    ASSERT_TRUE(map.Untag(page).ok());
  }
  EXPECT_LT(map.retired_snapshot_count(), 16u);
}

TEST(PageKeyMapTest, ChurnUnderConcurrentReadersStaysBounded) {
  PageKeyMap map;
  ASSERT_TRUE(map.Tag(kBase, kPageSize, 1).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&map, &stop] {
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_acquire)) {
        sink += map.KeyFor(kBase);
        sink += map.IsTagged(kBase + kPageSize) ? 1 : 0;
      }
      // Keep the loop from being optimized away.
      EXPECT_GE(sink, 0u);
    });
  }

  for (int i = 0; i < 4000; ++i) {
    const uintptr_t page = kBase + 2 * kPageSize;
    ASSERT_TRUE(map.Tag(page, kPageSize, 2).ok());
    ASSERT_TRUE(map.Untag(page).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) {
    reader.join();
  }
  // A descheduled reader may legitimately pin a snapshot for a while, so the
  // deterministic bound is asserted after the readers quiesce: the next
  // publish can reclaim the entire backlog.
  const uintptr_t page = kBase + 2 * kPageSize;
  ASSERT_TRUE(map.Tag(page, kPageSize, 2).ok());
  ASSERT_TRUE(map.Untag(page).ok());
  EXPECT_LT(map.retired_snapshot_count(), 16u);
  EXPECT_EQ(map.KeyFor(kBase), 1);
}

// Readers racing an in-place re-tag see the old key or the new one, never a
// torn or default key, and the neighbouring ranges never change. No
// snapshot is retired while they read.
TEST(PageKeyMapRetagRaceTest, ReadersSeeOldOrNewKey) {
  PageKeyMap map;
  ASSERT_TRUE(map.Tag(kBase, kPageSize, 1).ok());
  ASSERT_TRUE(map.Tag(kBase + kPageSize, kPageSize, 2).ok());
  ASSERT_TRUE(map.Tag(kBase + 2 * kPageSize, kPageSize, 5).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&map, &stop, &bad] {
      PageKeyMap::TaggedRange window[3];
      while (!stop.load(std::memory_order_acquire)) {
        const PkeyId key = map.KeyFor(kBase + kPageSize);
        if (key != 2 && key != 3) {
          bad.fetch_add(1);
        }
        if (map.RangesAround(kBase + kPageSize, window, 3) != 3 || window[0].key != 1 ||
            (window[1].key != 2 && window[1].key != 3) || window[2].key != 5) {
          bad.fetch_add(1);
        }
      }
    });
  }
  const size_t retired = map.retired_snapshot_count();
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(map.Tag(kBase + kPageSize, kPageSize, static_cast<PkeyId>(3 - i % 2)).ok());
  }
  // A rebuild would retire snapshots the spinning readers still pin.
  EXPECT_EQ(map.retired_snapshot_count(), retired);
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(map.KeyFor(kBase + kPageSize), 2);
  EXPECT_EQ(map.range_count(), 3u);
}

}  // namespace
}  // namespace pkrusafe
