#include "src/runtime/provenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace pkrusafe {
namespace {

constexpr AllocId kSiteA{1, 0, 0};
constexpr AllocId kSiteB{2, 5, 1};

TEST(ProvenanceTest, RegistersAndLooksUpInteriorAddresses) {
  ProvenanceTracker tracker;
  char buffer[64];
  ASSERT_TRUE(tracker.OnAlloc(buffer, sizeof(buffer), kSiteA).ok());

  auto record = tracker.Lookup(reinterpret_cast<uintptr_t>(buffer) + 32);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->id, kSiteA);
  EXPECT_EQ(record->size, sizeof(buffer));
  EXPECT_EQ(record->base, reinterpret_cast<uintptr_t>(buffer));

  EXPECT_FALSE(tracker.Lookup(reinterpret_cast<uintptr_t>(buffer) + 64).has_value());
}

TEST(ProvenanceTest, RejectsOverlappingRegistration) {
  ProvenanceTracker tracker;
  char buffer[64];
  ASSERT_TRUE(tracker.OnAlloc(buffer, 64, kSiteA).ok());
  EXPECT_FALSE(tracker.OnAlloc(buffer + 16, 16, kSiteB).ok());
}

TEST(ProvenanceTest, RejectsNullAndEmpty) {
  ProvenanceTracker tracker;
  char buffer[8];
  EXPECT_FALSE(tracker.OnAlloc(nullptr, 8, kSiteA).ok());
  EXPECT_FALSE(tracker.OnAlloc(buffer, 0, kSiteA).ok());
}

TEST(ProvenanceTest, FreeUnregisters) {
  ProvenanceTracker tracker;
  char buffer[32];
  ASSERT_TRUE(tracker.OnAlloc(buffer, 32, kSiteA).ok());
  EXPECT_EQ(tracker.live_count(), 1u);
  ASSERT_TRUE(tracker.OnFree(buffer).ok());
  EXPECT_EQ(tracker.live_count(), 0u);
  EXPECT_FALSE(tracker.Lookup(reinterpret_cast<uintptr_t>(buffer)).has_value());
  EXPECT_FALSE(tracker.OnFree(buffer).ok());
}

TEST(ProvenanceTest, ReallocCarriesAllocIdForward) {
  // §4.3.1: reallocation associates the new object with the original
  // object's AllocId, preserving provenance across resizes.
  ProvenanceTracker tracker;
  char old_buf[32];
  char new_buf[128];
  ASSERT_TRUE(tracker.OnAlloc(old_buf, 32, kSiteB).ok());
  ASSERT_TRUE(tracker.OnRealloc(old_buf, new_buf, 128).ok());

  EXPECT_FALSE(tracker.Lookup(reinterpret_cast<uintptr_t>(old_buf)).has_value());
  auto record = tracker.Lookup(reinterpret_cast<uintptr_t>(new_buf) + 100);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->id, kSiteB);
  EXPECT_EQ(record->size, 128u);
}

TEST(ProvenanceTest, InPlaceReallocUpdatesSize) {
  ProvenanceTracker tracker;
  char buffer[128];
  ASSERT_TRUE(tracker.OnAlloc(buffer, 32, kSiteA).ok());
  ASSERT_TRUE(tracker.OnRealloc(buffer, buffer, 96).ok());
  auto record = tracker.Lookup(reinterpret_cast<uintptr_t>(buffer) + 90);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->size, 96u);
  EXPECT_EQ(record->id, kSiteA);
}

TEST(ProvenanceTest, ReallocOfUnknownPointerFails) {
  ProvenanceTracker tracker;
  char buffer[8];
  EXPECT_FALSE(tracker.OnRealloc(buffer, buffer, 8).ok());
}

TEST(ProvenanceTest, ClearDropsEverything) {
  ProvenanceTracker tracker;
  char a[8];
  char b[8];
  ASSERT_TRUE(tracker.OnAlloc(a, 8, kSiteA).ok());
  ASSERT_TRUE(tracker.OnAlloc(b, 8, kSiteB).ok());
  tracker.Clear();
  EXPECT_EQ(tracker.live_count(), 0u);
}

// The signal-context lookup must wait out another thread's short holds of
// the tracker's mutex rather than report the lock unavailable: a profiling
// fault whose lookup gives up is stepped past with no profile entry.
TEST(ProvenanceTest, SignalLookupWaitsOutConcurrentChurn) {
  ProvenanceTracker tracker;
  char tracked[64] = {};
  ASSERT_TRUE(tracker.OnAlloc(tracked, sizeof(tracked), kSiteA).ok());

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    std::vector<char> others(256);
    while (!stop.load(std::memory_order_relaxed)) {
      for (char& other : others) {
        (void)tracker.OnAlloc(&other, 1, kSiteB);
      }
      for (char& other : others) {
        (void)tracker.OnFree(&other);
      }
    }
  });

  constexpr int kLookups = 100'000;
  int lost = 0;
  int found_count = 0;
  for (int i = 0; i < kLookups; ++i) {
    bool found = false;
    ProvenanceTracker::Record record;
    if (!tracker.LookupForSignal(reinterpret_cast<uintptr_t>(tracked + i % sizeof(tracked)),
                                 &found, &record)) {
      ++lost;
      continue;
    }
    if (found && record.id == kSiteA) {
      ++found_count;
    }
  }
  stop.store(true);
  churn.join();

  EXPECT_EQ(lost, 0);
  EXPECT_EQ(found_count, kLookups);
}

}  // namespace
}  // namespace pkrusafe
