// Allocation provenance (paper Fig. 2): every tracked block carries its
// site's tag in the allocator's own metadata, and any interior address maps
// back to {base, size, tag}. Reallocation carries the tag forward (§4.3.1),
// so an object keeps its provenance for its whole lifetime.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/mpk/sim_backend.h"
#include "src/pkalloc/pkalloc.h"

namespace pkrusafe {
namespace {

constexpr uint32_t kSiteA = 1;
constexpr uint32_t kSiteB = 2;

class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    PkAllocatorConfig config;
    config.trusted_pool_bytes = size_t{1} << 30;
    config.untrusted_pool_bytes = size_t{1} << 30;
    auto allocator = PkAllocator::Create(&backend_, config);
    ASSERT_TRUE(allocator.ok());
    allocator_ = std::move(*allocator);
  }

  TaggedBlock Find(const void* ptr, size_t offset = 0) const {
    return allocator_->FindTagged(reinterpret_cast<uintptr_t>(ptr) + offset);
  }

  size_t LiveCount() const {
    size_t count = 0;
    allocator_->ForEachTagged([&](const TaggedBlock&) {
      ++count;
      return true;
    });
    return count;
  }

  SimMpkBackend backend_;
  std::unique_ptr<PkAllocator> allocator_;
};

TEST_F(ProvenanceTest, RegistersAndLooksUpInteriorAddresses) {
  void* block = allocator_->Allocate(Domain::kTrusted, 64);
  ASSERT_TRUE(allocator_->Tag(block, kSiteA).ok());

  const TaggedBlock found = Find(block, 32);
  EXPECT_EQ(found.tag, kSiteA);
  EXPECT_EQ(found.size, 64u);
  EXPECT_EQ(found.base, reinterpret_cast<uintptr_t>(block));

  EXPECT_EQ(Find(block, 64).tag, 0u);
  allocator_->Free(block);
}

// A registration inside an already tagged block overlaps it.
TEST_F(ProvenanceTest, RejectsOverlappingRegistration) {
  void* small = allocator_->Allocate(Domain::kTrusted, 64);
  void* large = allocator_->Allocate(Domain::kUntrusted, 40000);
  ASSERT_TRUE(allocator_->Tag(small, kSiteA).ok());
  ASSERT_TRUE(allocator_->Tag(large, kSiteA).ok());
  EXPECT_FALSE(allocator_->Tag(small, kSiteB).ok());
  EXPECT_FALSE(allocator_->Tag(static_cast<char*>(small) + 16, kSiteB).ok());
  EXPECT_FALSE(allocator_->Tag(static_cast<char*>(large) + 20000, kSiteB).ok());
  EXPECT_EQ(Find(small).tag, kSiteA);
  EXPECT_EQ(Find(large, 20000).tag, kSiteA);
  allocator_->Free(small);
  allocator_->Free(large);
}

// Null, foreign and empty (tag 0) registrations are refused.
TEST_F(ProvenanceTest, RejectsNullAndEmpty) {
  char foreign[8] = {};
  void* block = allocator_->Allocate(Domain::kTrusted, 8);
  EXPECT_FALSE(allocator_->Tag(nullptr, kSiteA).ok());
  EXPECT_FALSE(allocator_->Tag(foreign, kSiteA).ok());
  EXPECT_FALSE(allocator_->Tag(block, 0).ok());
  EXPECT_EQ(Find(block).tag, 0u);
  allocator_->Free(block);
}

TEST_F(ProvenanceTest, FreeUnregisters) {
  void* small = allocator_->Allocate(Domain::kTrusted, 32);
  void* large = allocator_->Allocate(Domain::kUntrusted, 200000);
  ASSERT_TRUE(allocator_->Tag(small, kSiteA).ok());
  ASSERT_TRUE(allocator_->Tag(large, kSiteB).ok());
  EXPECT_EQ(LiveCount(), 2u);
  allocator_->Free(small);
  allocator_->Free(large);
  EXPECT_EQ(LiveCount(), 0u);
  EXPECT_EQ(Find(small).tag, 0u);
  EXPECT_EQ(Find(large, 150000).tag, 0u);
}

TEST_F(ProvenanceTest, ReallocCarriesAllocIdForward) {
  // §4.3.1: reallocation associates the new object with the original
  // object's AllocId, preserving provenance across resizes.
  void* old_block = allocator_->Allocate(Domain::kTrusted, 32);
  ASSERT_TRUE(allocator_->Tag(old_block, kSiteB).ok());
  void* new_block = allocator_->Reallocate(Domain::kTrusted, old_block, 128);
  ASSERT_NE(new_block, old_block);

  EXPECT_EQ(Find(old_block).tag, 0u);
  const TaggedBlock found = Find(new_block, 100);
  EXPECT_EQ(found.tag, kSiteB);
  EXPECT_EQ(found.size, 128u);

  // And again into a large block of its own chunks.
  void* large = allocator_->Reallocate(Domain::kTrusted, new_block, 100000);
  EXPECT_EQ(Find(large, 99999).tag, kSiteB);
  EXPECT_EQ(LiveCount(), 1u);
  allocator_->Free(large);
}

TEST_F(ProvenanceTest, InPlaceReallocUpdatesSize) {
  // 90 bytes take the 96-byte class, so growing to 96 stays in place and
  // the record covers the whole resized object.
  void* block = allocator_->Allocate(Domain::kTrusted, 90);
  ASSERT_TRUE(allocator_->Tag(block, kSiteA).ok());
  ASSERT_EQ(allocator_->Reallocate(Domain::kTrusted, block, 96), block);
  const TaggedBlock found = Find(block, 95);
  EXPECT_EQ(found.size, 96u);
  EXPECT_EQ(found.tag, kSiteA);
  allocator_->Free(block);
}

// A block that never had a tag gets none from being reallocated: provenance
// is never invented.
TEST_F(ProvenanceTest, ReallocOfUnknownPointerFails) {
  void* block = allocator_->Allocate(Domain::kTrusted, 8);
  void* moved = allocator_->Reallocate(Domain::kTrusted, block, 4096);
  EXPECT_EQ(Find(moved).tag, 0u);
  EXPECT_EQ(LiveCount(), 0u);
  allocator_->Free(moved);
}

// The lookup a fault handler makes is a fixed number of atomic loads: another
// thread allocating, tagging and freeing blocks of the same size class (so
// in the same spans) never makes it miss the tracked block.
TEST_F(ProvenanceTest, SignalLookupWaitsOutConcurrentChurn) {
  char* tracked = static_cast<char*>(allocator_->Allocate(Domain::kTrusted, 64));
  ASSERT_TRUE(allocator_->Tag(tracked, kSiteA).ok());

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    std::vector<void*> others(256);
    while (!stop.load(std::memory_order_relaxed)) {
      for (void*& other : others) {
        other = allocator_->Allocate(Domain::kTrusted, 64);
        (void)allocator_->Tag(other, kSiteB);
      }
      for (void* other : others) {
        allocator_->Free(other);
      }
    }
    allocator_->FlushThisThreadCache();
  });

  constexpr int kLookups = 100'000;
  int lost = 0;
  int found_count = 0;
  for (int i = 0; i < kLookups; ++i) {
    const TaggedBlock found = Find(tracked, i % 64);
    if (found.tag == 0) {
      ++lost;
      continue;
    }
    if (found.tag == kSiteA && found.base == reinterpret_cast<uintptr_t>(tracked)) {
      ++found_count;
    }
  }
  stop.store(true);
  churn.join();

  EXPECT_EQ(lost, 0);
  EXPECT_EQ(found_count, kLookups);
  allocator_->Free(tracked);
}

}  // namespace
}  // namespace pkrusafe
