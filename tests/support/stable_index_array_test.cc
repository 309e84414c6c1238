#include "src/support/stable_index_array.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace pkrusafe {
namespace {

TEST(StableIndexArrayTest, StartsEmpty) {
  StableIndexArray<int> array;
  EXPECT_EQ(array.size(), 0u);
  EXPECT_EQ(array.at(0), nullptr);
}

TEST(StableIndexArrayTest, ClaimPublishAppendsInOrder) {
  StableIndexArray<int> array;
  for (int i = 0; i < 10; ++i) {
    int* slot = array.Claim();
    ASSERT_NE(slot, nullptr);
    *slot = i * 7;
    // Unpublished elements are invisible even though the slot is written.
    EXPECT_EQ(array.at(static_cast<size_t>(i)), nullptr);
    array.Publish();
    EXPECT_EQ(array.size(), static_cast<size_t>(i + 1));
  }
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_NE(array.at(i), nullptr);
    EXPECT_EQ(*array.at(i), static_cast<int>(i) * 7);
  }
}

TEST(StableIndexArrayTest, AddressesAreStableAcrossGrowth) {
  // The whole point of the container: the multidomain fast paths hold
  // element pointers while registration keeps appending.
  StableIndexArray<uint64_t, 4, 64> array;
  std::vector<uint64_t*> pointers;
  for (uint64_t i = 0; i < 200; ++i) {
    uint64_t* slot = array.Claim();
    ASSERT_NE(slot, nullptr);
    *slot = i;
    array.Publish();
    pointers.push_back(array.at(i));
  }
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(array.at(i), pointers[i]) << "element " << i << " moved";
    EXPECT_EQ(&array[i], pointers[i]);
    EXPECT_EQ(*pointers[i], i);
  }
}

TEST(StableIndexArrayTest, ClaimFailsWhenFull) {
  StableIndexArray<int, 2, 2> array;  // capacity 4
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(array.Claim(), nullptr);
    array.Publish();
  }
  EXPECT_EQ(array.Claim(), nullptr);
  EXPECT_EQ(array.size(), 4u);
}

TEST(StableIndexArrayTest, OutOfRangeIndexReturnsNull) {
  StableIndexArray<int> array;
  int* slot = array.Claim();
  ASSERT_NE(slot, nullptr);
  array.Publish();
  EXPECT_NE(array.at(0), nullptr);
  EXPECT_EQ(array.at(1), nullptr);
  EXPECT_EQ(array.at(12345), nullptr);
}

// Readers race one writer across chunk boundaries; every published element
// must read fully initialized. Run under `scripts/check.sh tsan` this also
// proves the publication protocol race-free.
TEST(StableIndexArrayTest, ConcurrentReadersSeePublishedElements) {
  StableIndexArray<uint64_t, 8, 128> array;
  constexpr uint64_t kElements = 512;
  constexpr uint64_t kPoison = ~uint64_t{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const size_t size = array.size();
        for (size_t i = 0; i < size; ++i) {
          const uint64_t* value = array.at(i);
          if (value == nullptr || *value != i * 3 + 1) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (uint64_t i = 0; i < kElements; ++i) {
    uint64_t* slot = array.Claim();
    ASSERT_NE(slot, nullptr);
    *slot = kPoison;      // visible only to a broken reader
    *slot = i * 3 + 1;    // the published value
    array.Publish();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(array.size(), kElements);
}

}  // namespace
}  // namespace pkrusafe
