// Tests for the virtual-pkey layer (src/multidomain/vpkey.h): eviction-cache
// behavior of the hardware key slots (LRU victim choice, pinning),
// lazy re-tagging on eviction and fault-in, and the registration error paths
// that used to leak hardware keys before virtualization.
#include "src/multidomain/vpkey.h"

#include <gtest/gtest.h>

#include "src/memmap/page.h"
#include "src/mpk/sim_backend.h"
#include "src/multidomain/multi_compartment.h"

namespace pkrusafe {
namespace {

// A sim backend that fails TagRange on demand — used to drive
// RegisterLibrary's error path deterministically.
class FailingTagBackend : public SimMpkBackend {
 public:
  Status TagRange(uintptr_t addr, size_t length, PkeyId key) override {
    if (fail_tags_ > 0) {
      --fail_tags_;
      return InternalError("injected TagRange failure");
    }
    return SimMpkBackend::TagRange(addr, length, key);
  }

  void FailNextTags(int n) { fail_tags_ = n; }

 private:
  int fail_tags_ = 0;
};

// Fake page-aligned addresses are fine on the sim backend: TagRange only
// records them in the PageKeyMap, nothing is dereferenced.
uintptr_t FakePool(int i) { return 0x10000000 + static_cast<uintptr_t>(i) * 0x100000; }

class VpkeyTableTest : public ::testing::Test {
 protected:
  std::unique_ptr<VirtualPkeyTable> MakeTable(size_t slots) {
    VpkeyConfig config;
    config.max_hw_slots = slots;
    auto table = VirtualPkeyTable::Create(&backend_, config);
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return std::move(*table);
  }

  // Mints a vkey with one tagged page range.
  VirtualKeyId MakeKey(VirtualPkeyTable& table, int i) {
    auto vkey = table.AllocateVirtualKey();
    EXPECT_TRUE(vkey.ok());
    EXPECT_TRUE(table.TagRange(*vkey, FakePool(i), kPageSize).ok());
    return *vkey;
  }

  // Enter-and-leave: pin then immediately unpin, touching the LRU clock.
  void Touch(VirtualPkeyTable& table, VirtualKeyId vkey) {
    auto mask = table.PinResident(vkey);
    ASSERT_TRUE(mask.ok()) << mask.status().ToString();
    table.Unpin(vkey);
  }

  SimMpkBackend backend_;
};

TEST_F(VpkeyTableTest, CreateClaimsRequestedSlots) {
  auto table = MakeTable(4);
  EXPECT_EQ(table->hw_slot_count(), 4u);
  EXPECT_NE(table->evicted_key(), kDefaultPkey);
  EXPECT_EQ(table->stats().hw_slots, 4u);
  EXPECT_EQ(table->stats().resident, 0u);
}

TEST_F(VpkeyTableTest, DestructorReturnsKeysToBackend) {
  // Claim every key the backend has, destroy the table, then claim again:
  // without FreeKey in the destructor the second table could not exist.
  { auto table = MakeTable(0); }
  auto again = MakeTable(0);
  EXPECT_GE(again->hw_slot_count(), 2u);
}

TEST_F(VpkeyTableTest, NewKeysStartEvictedAndFaultIn) {
  auto table = MakeTable(2);
  const VirtualKeyId a = MakeKey(*table, 0);
  EXPECT_FALSE(table->IsResident(a));
  EXPECT_EQ(table->CurrentHardwareKey(a), table->evicted_key());
  EXPECT_EQ(backend_.KeyFor(FakePool(0)), table->evicted_key());

  Touch(*table, a);
  EXPECT_TRUE(table->IsResident(a));
  const PkeyId slot_key = table->CurrentHardwareKey(a);
  EXPECT_NE(slot_key, table->evicted_key());
  EXPECT_EQ(backend_.KeyFor(FakePool(0)), slot_key);
  EXPECT_EQ(table->stats().misses, 1u);
  EXPECT_EQ(table->stats().hits, 0u);
}

TEST_F(VpkeyTableTest, LruEvictsLeastRecentlyUsed) {
  auto table = MakeTable(2);
  const VirtualKeyId a = MakeKey(*table, 0);
  const VirtualKeyId b = MakeKey(*table, 1);
  const VirtualKeyId c = MakeKey(*table, 2);
  Touch(*table, a);
  Touch(*table, b);
  Touch(*table, a);  // order now: b oldest, a newest
  Touch(*table, c);  // needs a slot: b must go
  EXPECT_TRUE(table->IsResident(a));
  EXPECT_FALSE(table->IsResident(b));
  EXPECT_TRUE(table->IsResident(c));
  EXPECT_EQ(backend_.KeyFor(FakePool(1)), table->evicted_key());
  EXPECT_EQ(table->stats().evictions, 1u);
}

TEST_F(VpkeyTableTest, PinnedResidentsAreNeverVictims) {
  auto table = MakeTable(2);
  const VirtualKeyId a = MakeKey(*table, 0);
  const VirtualKeyId b = MakeKey(*table, 1);
  const VirtualKeyId c = MakeKey(*table, 2);
  ASSERT_TRUE(table->PinResident(a).ok());  // a held pinned (oldest — the LRU victim)
  Touch(*table, b);
  Touch(*table, c);  // must evict b, not the pinned a
  EXPECT_TRUE(table->IsResident(a));
  EXPECT_FALSE(table->IsResident(b));
  table->Unpin(a);
}

TEST_F(VpkeyTableTest, AllSlotsPinnedIsResourceExhausted) {
  auto table = MakeTable(2);
  const VirtualKeyId a = MakeKey(*table, 0);
  const VirtualKeyId b = MakeKey(*table, 1);
  const VirtualKeyId c = MakeKey(*table, 2);
  ASSERT_TRUE(table->PinResident(a).ok());
  ASSERT_TRUE(table->PinResident(b).ok());
  auto mask = table->PinResident(c);
  EXPECT_EQ(mask.status().code(), StatusCode::kResourceExhausted);
  // Unpinning frees a victim; the fault-in then succeeds.
  table->Unpin(a);
  EXPECT_TRUE(table->PinResident(c).ok());
  table->Unpin(c);
  table->Unpin(b);
}

TEST_F(VpkeyTableTest, MaskAllowsOwnSlotAndSharedOnly) {
  auto table = MakeTable(3);
  const VirtualKeyId a = MakeKey(*table, 0);
  const VirtualKeyId b = MakeKey(*table, 1);
  auto mask_a = table->PinResident(a);
  auto mask_b = table->PinResident(b);
  ASSERT_TRUE(mask_a.ok());
  ASSERT_TRUE(mask_b.ok());
  EXPECT_TRUE(mask_a->allows_read(kDefaultPkey));
  EXPECT_TRUE(mask_a->allows_read(table->CurrentHardwareKey(a)));
  EXPECT_FALSE(mask_a->allows_read(table->CurrentHardwareKey(b)));
  EXPECT_FALSE(mask_a->allows_read(table->evicted_key()));
  EXPECT_FALSE(mask_b->allows_read(table->CurrentHardwareKey(a)));
  // Unclaimed slot keys are denied too: the third slot has no holder yet,
  // but its key is already in the base deny-mask.
  table->Unpin(a);
  table->Unpin(b);
}

TEST_F(VpkeyTableTest, AlwaysDenyKeysStayDenied) {
  auto trusted = backend_.AllocateKey();
  ASSERT_TRUE(trusted.ok());
  VpkeyConfig config;
  config.max_hw_slots = 2;
  config.always_deny = {*trusted};
  auto table = VirtualPkeyTable::Create(&backend_, config);
  ASSERT_TRUE(table.ok());
  const VirtualKeyId a = MakeKey(**table, 0);
  auto mask = (*table)->PolicyFor(a);
  ASSERT_TRUE(mask.ok());
  EXPECT_FALSE(mask->allows_read(*trusted));
  ASSERT_TRUE(backend_.FreeKey(*trusted).ok());
}

TEST_F(VpkeyTableTest, ReleaseRetagsPagesAndRecyclesIdAndSlot) {
  auto table = MakeTable(1);
  const VirtualKeyId a = MakeKey(*table, 0);
  Touch(*table, a);
  ASSERT_TRUE(table->IsResident(a));
  ASSERT_TRUE(table->ReleaseVirtualKey(a).ok());
  // The dying compartment's pages are locked (evicted key), not left carrying
  // a slot key the next holder's mask would allow.
  EXPECT_EQ(backend_.KeyFor(FakePool(0)), table->evicted_key());
  EXPECT_EQ(table->stats().virtual_keys, 0u);
  EXPECT_EQ(table->stats().resident, 0u);
  // Both the id and the slot are reusable.
  const VirtualKeyId b = MakeKey(*table, 1);
  EXPECT_EQ(b, a);
  Touch(*table, b);
  EXPECT_TRUE(table->IsResident(b));
  EXPECT_TRUE(table->ReleaseVirtualKey(b).ok());
}

TEST_F(VpkeyTableTest, ReleaseOfPinnedKeyFails) {
  auto table = MakeTable(2);
  const VirtualKeyId a = MakeKey(*table, 0);
  ASSERT_TRUE(table->PinResident(a).ok());
  EXPECT_EQ(table->ReleaseVirtualKey(a).code(), StatusCode::kFailedPrecondition);
  table->Unpin(a);
  EXPECT_TRUE(table->ReleaseVirtualKey(a).ok());
}

// --- MultiCompartment-level regression tests -------------------------------

Result<std::unique_ptr<PkAllocator>> SmallAllocator(MpkBackend* backend) {
  PkAllocatorConfig config;
  config.trusted_pool_bytes = size_t{4} << 20;
  config.untrusted_pool_bytes = size_t{4} << 20;
  return PkAllocator::Create(backend, config);
}

MultiCompartmentConfig SmallConfig(size_t slots) {
  MultiCompartmentConfig config;
  config.library_pool_bytes = size_t{4} << 20;
  config.max_hw_slots = slots;
  return config;
}

// The original bug: RegisterLibrary allocated a key, then leaked it forever
// when tagging the pool failed. With virtualization the same path must
// release the virtual id — registrations after N failures behave exactly as
// if the failures never happened.
TEST(VpkeyRegressionTest, RegisterLibraryReleasesKeyWhenTaggingFails) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  FailingTagBackend backend;
  auto pools = SmallAllocator(&backend);
  ASSERT_TRUE(pools.ok()) << pools.status().ToString();
  auto mc = MultiCompartment::Create(pools->get(), SmallConfig(2));
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();

  ASSERT_TRUE((*mc)->RegisterLibrary("first").ok());
  const size_t baseline = (*mc)->vpkey_stats().virtual_keys;
  for (int i = 0; i < 5; ++i) {
    backend.FailNextTags(1);
    auto id = (*mc)->RegisterLibrary("doomed");
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.status().code(), StatusCode::kInternal);
  }
  // No virtual keys leaked by the failed registrations.
  EXPECT_EQ((*mc)->vpkey_stats().virtual_keys, baseline);

  // And the manager still works: register + enter a healthy library.
  auto ok_id = (*mc)->RegisterLibrary("survivor");
  ASSERT_TRUE(ok_id.ok()) << ok_id.status().ToString();
  void* obj = (*mc)->AllocateIn(*ok_id, 64);
  ASSERT_NE(obj, nullptr);
  {
    MultiCompartment::Scope scope(**mc, *ok_id);
    EXPECT_TRUE(backend.CheckAccess(reinterpret_cast<uintptr_t>(obj), AccessKind::kRead).ok());
  }
  (*mc)->Free(obj);
  SetCurrentThreadPkru(PkruValue::AllowAll());
}

class VpkeyEvictionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    auto pools = SmallAllocator(&backend_);
    ASSERT_TRUE(pools.ok()) << pools.status().ToString();
    pools_ = std::move(*pools);
    auto mc = MultiCompartment::Create(pools_.get(), SmallConfig(2));
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
    a_ = *mc_->RegisterLibrary("a");
    b_ = *mc_->RegisterLibrary("b");
    c_ = *mc_->RegisterLibrary("c");
    a_obj_ = mc_->AllocateIn(a_, 64);
    b_obj_ = mc_->AllocateIn(b_, 64);
    c_obj_ = mc_->AllocateIn(c_, 64);
  }

  void TearDown() override { SetCurrentThreadPkru(PkruValue::AllowAll()); }

  Status Check(const void* ptr) {
    return backend_.CheckAccess(reinterpret_cast<uintptr_t>(ptr), AccessKind::kRead);
  }

  SimMpkBackend backend_;
  std::unique_ptr<PkAllocator> pools_;
  std::unique_ptr<MultiCompartment> mc_;
  LibraryId a_ = 0, b_ = 0, c_ = 0;
  void* a_obj_ = nullptr;
  void* b_obj_ = nullptr;
  void* c_obj_ = nullptr;
};

TEST_F(VpkeyEvictionTest, EvictionThenReentryKeepsTheMatrix) {
  // Two slots, three libraries: entering all three in turn forces evictions.
  { MultiCompartment::Scope scope(*mc_, a_); }
  { MultiCompartment::Scope scope(*mc_, b_); }
  {
    MultiCompartment::Scope scope(*mc_, c_);  // evicts a (LRU)
    EXPECT_TRUE(Check(c_obj_).ok());
    // The evicted library's pages are locked against c too.
    EXPECT_EQ(Check(a_obj_).code(), StatusCode::kPermissionDenied);
    EXPECT_EQ(Check(b_obj_).code(), StatusCode::kPermissionDenied);
  }
  EXPECT_FALSE(mc_->library_resident(a_));
  EXPECT_GE(mc_->vpkey_stats().evictions, 1u);

  // Re-entry faults a back in with the matrix intact.
  {
    MultiCompartment::Scope scope(*mc_, a_);
    EXPECT_TRUE(Check(a_obj_).ok());
    EXPECT_EQ(Check(b_obj_).code(), StatusCode::kPermissionDenied);
    EXPECT_EQ(Check(c_obj_).code(), StatusCode::kPermissionDenied);
  }
  // Back in T everything is visible again, evicted or not.
  EXPECT_TRUE(Check(a_obj_).ok());
  EXPECT_TRUE(Check(b_obj_).ok());
  EXPECT_TRUE(Check(c_obj_).ok());
}

TEST_F(VpkeyEvictionTest, NestedScopeAcrossAnEviction) {
  const PkruValue at_rest = backend_.ReadPkru();
  mc_->EnterLibrary(a_);
  const PkruValue in_a = backend_.ReadPkru();
  {
    MultiCompartment::Scope scope(*mc_, b_);
    EXPECT_TRUE(Check(b_obj_).ok());
  }
  // a is pinned (we are inside it); entering c must evict b, not a.
  {
    MultiCompartment::Scope scope(*mc_, c_);
    EXPECT_TRUE(Check(c_obj_).ok());
    EXPECT_EQ(Check(a_obj_).code(), StatusCode::kPermissionDenied);
  }
  EXPECT_FALSE(mc_->library_resident(b_));
  EXPECT_TRUE(mc_->library_resident(a_));
  // The outer scope's rights survived the eviction churn exactly.
  EXPECT_EQ(backend_.ReadPkru(), in_a);
  EXPECT_TRUE(Check(a_obj_).ok());
  EXPECT_EQ(Check(b_obj_).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(Check(c_obj_).code(), StatusCode::kPermissionDenied);
  mc_->ExitLibrary();
  EXPECT_EQ(backend_.ReadPkru(), at_rest);

  // The evicted b re-enters fine.
  MultiCompartment::Scope scope(*mc_, b_);
  EXPECT_TRUE(Check(b_obj_).ok());
}

TEST_F(VpkeyEvictionTest, NestingDeeperThanSlotsDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        mc_->EnterLibrary(a_);
        mc_->EnterLibrary(b_);
        mc_->EnterLibrary(c_);  // both slots pinned: no victim exists
      },
      "pinned");
}

TEST_F(VpkeyEvictionTest, ForeignFreeDiesWithDiagnostics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  int local = 0;
  EXPECT_DEATH(mc_->Free(&local), "foreign pointer");
}

TEST_F(VpkeyEvictionTest, HitAndMissAccountingMatchesTransitions) {
  const VpkeyStats before = mc_->vpkey_stats();
  { MultiCompartment::Scope scope(*mc_, a_); }  // miss (first entry)
  { MultiCompartment::Scope scope(*mc_, a_); }  // hit (still resident)
  const VpkeyStats after = mc_->vpkey_stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
}

}  // namespace
}  // namespace pkrusafe
