// Recycling of released compartments: a released library's id, pool and heap
// are reused by the next registration, so a long-lived server's tables,
// reservations and tagged ranges stay bounded by its peak live tenants.
// Covers the lifetime bound (more sessions than the library table holds),
// isolation of a recycled pool on every backend, and the pkey a
// destroyed hardware runtime must give back.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mpk/backend_factory.h"
#include "src/mpk/hardware_backend.h"
#include "src/mpk/sim_backend.h"
#include "src/multidomain/multi_compartment.h"
#include "src/runtime/runtime.h"

namespace pkrusafe {
namespace {

Result<std::unique_ptr<PkAllocator>> SmallAllocator(MpkBackend* backend) {
  PkAllocatorConfig config;
  config.trusted_pool_bytes = size_t{1} << 20;
  config.untrusted_pool_bytes = size_t{1} << 20;
  return PkAllocator::Create(backend, config);
}

MultiCompartmentConfig SmallPools() {
  MultiCompartmentConfig config;
  config.library_pool_bytes = size_t{256} << 10;
  return config;
}

TEST(MultiCompartmentRecycleTest, MoreSessionsThanTheTableHolds) {
  // 70,000 sessions outlive both the 65,536-entry library table and the
  // default vm.max_map_count (65,530) when every session keeps its own pool
  // reservation. Recycled, they share a handful of entries.
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  auto pools = SmallAllocator(&backend);
  ASSERT_TRUE(pools.ok()) << pools.status().ToString();
  auto created = MultiCompartment::Create(pools->get(), SmallPools());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  MultiCompartment& mc = **created;

  constexpr size_t kLiveTenants = 4;
  constexpr size_t kSessions = 70'000;
  std::vector<LibraryId> live;  // ring: the oldest session is released next
  for (size_t session = 0; session < kSessions; ++session) {
    if (live.size() == kLiveTenants) {
      ASSERT_TRUE(mc.ReleaseLibrary(live[session % kLiveTenants]).ok()) << "session " << session;
    }
    auto id = mc.RegisterLibrary("tenant");
    ASSERT_TRUE(id.ok()) << "session " << session << ": " << id.status().ToString();
    ASSERT_NE(mc.AllocateIn(*id, 64), nullptr) << "session " << session;
    if (live.size() < kLiveTenants) {
      live.push_back(*id);
    } else {
      live[session % kLiveTenants] = *id;
    }
  }
  EXPECT_EQ(mc.library_count(), kLiveTenants);
  EXPECT_EQ(mc.live_library_count(), kLiveTenants);
  EXPECT_EQ(mc.vpkey_stats().virtual_keys, kLiveTenants);
}

// Parameterized by backend name, as --backend= takes it.
class MultiCompartmentRecycledPoolTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    const BackendKind kind = *ParseBackendKind(GetParam());
    if (kind == BackendKind::kHardware && !HardwareMpkBackend::IsSupported()) {
      GTEST_SKIP() << "CPU/kernel does not support Intel MPK";
    }
    auto backend = CreateMpkBackend(kind);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    backend_ = std::move(*backend);
    backend_->WritePkru(PkruValue::AllowAll());
    auto pools = SmallAllocator(backend_.get());
    ASSERT_TRUE(pools.ok()) << pools.status().ToString();
    pools_ = std::move(*pools);
    auto mc = MultiCompartment::Create(pools_.get(), SmallPools());
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
  }

  void TearDown() override {
    mc_.reset();
    pools_.reset();
    if (backend_ != nullptr) {
      backend_->WritePkru(PkruValue::AllowAll());
    }
  }

  std::unique_ptr<MpkBackend> backend_;
  std::unique_ptr<PkAllocator> pools_;
  std::unique_ptr<MultiCompartment> mc_;
};

TEST_P(MultiCompartmentRecycledPoolTest, RecycledPoolIsZeroedOwnedAndIsolated) {
  std::vector<LibraryId> bystanders;
  std::vector<uint64_t*> bystander_objs;
  for (int i = 0; i < 3; ++i) {
    const LibraryId id = *mc_->RegisterLibrary("bystander" + std::to_string(i));
    bystanders.push_back(id);
    bystander_objs.push_back(static_cast<uint64_t*>(mc_->AllocateIn(id, sizeof(uint64_t))));
    ASSERT_NE(bystander_objs.back(), nullptr);
  }

  // Tenant A leaves a marker in its pool and is released.
  const LibraryId a = *mc_->RegisterLibrary("a");
  auto* marker = static_cast<uint64_t*>(mc_->AllocateIn(a, sizeof(uint64_t)));
  ASSERT_NE(marker, nullptr);
  {
    MultiCompartment::Scope scope(*mc_, a);
    *marker = 0xA11CEull;
  }
  ASSERT_TRUE(mc_->ReleaseLibrary(a).ok());

  // Tenant B takes over A's id and pool: the first allocation lands on the
  // same address A's did.
  const LibraryId b = *mc_->RegisterLibrary("b");
  ASSERT_EQ(b, a) << "released id not reused";
  EXPECT_EQ(mc_->library_name(b), "b");
  auto* obj = static_cast<uint64_t*>(mc_->AllocateIn(b, sizeof(uint64_t)));
  ASSERT_EQ(obj, marker) << "recycled pool does not start at the old pool base";
  ASSERT_TRUE(mc_->PrivateOwnerOf(obj).has_value());
  EXPECT_EQ(*mc_->PrivateOwnerOf(obj), b);
  {
    // On mprotect and hardware the load is real: it faults unless B's PKRU
    // allows the page. The deny checks read the keys the pages actually carry, so they
    // hold for every other live tenant, resident or evicted.
    MultiCompartment::Scope scope(*mc_, b);
    const PkruValue installed = backend_->ReadPkru();
    EXPECT_TRUE(installed.allows_write(backend_->KeyFor(reinterpret_cast<uintptr_t>(obj))));
    EXPECT_EQ(*obj, 0u) << "the next holder reads the previous tenant's data";
    EXPECT_FALSE(installed.allows_read(pools_->trusted_key()));
    for (size_t i = 0; i < bystanders.size(); ++i) {
      const PkeyId key = backend_->KeyFor(reinterpret_cast<uintptr_t>(bystander_objs[i]));
      EXPECT_NE(key, kDefaultPkey);
      EXPECT_FALSE(installed.allows_read(key)) << "library " << bystanders[i];
      EXPECT_FALSE(installed.allows_write(key)) << "library " << bystanders[i];
    }
  }
  mc_->Free(obj);
  for (uint64_t* other : bystander_objs) {
    mc_->Free(other);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, MultiCompartmentRecycledPoolTest,
                         ::testing::Values("sim", "mprotect", "hardware"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

TEST(MultiCompartmentHardwareTest, DestroyedRuntimesReturnTheirTrustedKey) {
  if (!HardwareMpkBackend::IsSupported()) {
    GTEST_SKIP() << "CPU/kernel does not support Intel MPK";
  }
  auto slots_now = [] {
    HardwareMpkBackend backend;
    auto pools = SmallAllocator(&backend);
    if (!pools.ok()) {
      return size_t{0};
    }
    auto mc = MultiCompartment::Create(pools->get(), SmallPools());
    return mc.ok() ? (*mc)->vpkey_stats().hw_slots : size_t{0};
  };
  const size_t first = slots_now();
  ASSERT_GT(first, 0u);
  // More runtimes than there are keys: each must give its M_T key back.
  for (int i = 0; i < 20; ++i) {
    RuntimeConfig config;
    config.backend = BackendKind::kHardware;
    config.allocator.trusted_pool_bytes = size_t{1} << 20;
    config.allocator.untrusted_pool_bytes = size_t{1} << 20;
    auto runtime = PkruSafeRuntime::Create(std::move(config));
    ASSERT_TRUE(runtime.ok()) << "runtime " << i << ": " << runtime.status().ToString();
  }
  EXPECT_EQ(slots_now(), first);
}

}  // namespace
}  // namespace pkrusafe
