// Multi-compartment with native enforcement. On the mprotect backend: >16
// registered libraries with real OS enforcement. Entry to a library whose key
// was evicted must re-tag (pkey_mprotect-style) transparently; cross-library
// and trusted-pool accesses inside a scope are genuine SIGSEGVs, exercised as
// death tests. On the hardware backend (skipped without PKU): the same
// isolation matrix under real protection keys and WRPKRU, with M_T and M_U
// from the PkAllocator the compartments are built on.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include "src/mpk/hardware_backend.h"
#include "src/mpk/mprotect_backend.h"
#include "src/multidomain/multi_compartment.h"

namespace pkrusafe {
namespace {

constexpr int kLibraries = 20;  // more than the 15 allocatable hardware keys

class MprotectMultidomainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_.WritePkru(PkruValue::AllowAll());
    PkAllocatorConfig pool_config;
    pool_config.trusted_pool_bytes = size_t{2} << 20;
    pool_config.untrusted_pool_bytes = size_t{2} << 20;
    auto pools = PkAllocator::Create(&backend_, pool_config);
    ASSERT_TRUE(pools.ok()) << pools.status().ToString();
    pools_ = std::move(*pools);
    MultiCompartmentConfig config;
    config.library_pool_bytes = size_t{2} << 20;
    auto mc = MultiCompartment::Create(pools_.get(), config);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
    for (int i = 0; i < kLibraries; ++i) {
      auto id = mc_->RegisterLibrary("lib" + std::to_string(i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      objs_.push_back(static_cast<uint64_t*>(mc_->AllocateIn(*id, sizeof(uint64_t))));
      ASSERT_NE(objs_.back(), nullptr);
    }
    trusted_obj_ = static_cast<uint64_t*>(pools_->Allocate(Domain::kTrusted, sizeof(uint64_t)));
    shared_obj_ = static_cast<uint64_t*>(pools_->Allocate(Domain::kUntrusted, sizeof(uint64_t)));
    *shared_obj_ = 7;
  }

  void TearDown() override {
    mc_.reset();
    pools_.reset();
    backend_.WritePkru(PkruValue::AllowAll());
    backend_.UninstallSignalHandlers();
  }

  MprotectMpkBackend backend_;
  std::unique_ptr<PkAllocator> pools_;
  std::unique_ptr<MultiCompartment> mc_;
  std::vector<uint64_t*> objs_;
  uint64_t* trusted_obj_ = nullptr;
  uint64_t* shared_obj_ = nullptr;
};

TEST_F(MprotectMultidomainTest, TwentyLibrariesEnterAndWriteNatively) {
  ASSERT_EQ(mc_->library_count(), static_cast<size_t>(kLibraries));
  const VpkeyStats stats = mc_->vpkey_stats();
  EXPECT_EQ(stats.virtual_keys, static_cast<size_t>(kLibraries));
  EXPECT_LE(stats.resident, stats.hw_slots);
  EXPECT_LT(stats.hw_slots, static_cast<size_t>(kLibraries));

  // Every library — including the ones that start evicted — is enterable,
  // and ordinary loads/stores into its own pool and the shared pool succeed
  // under real page protections.
  for (int i = 0; i < kLibraries; ++i) {
    MultiCompartment::Scope scope(*mc_, static_cast<LibraryId>(i + 1));
    *objs_[i] = static_cast<uint64_t>(i);
    EXPECT_EQ(*objs_[i], static_cast<uint64_t>(i));
    EXPECT_EQ(*shared_obj_, 7u);
  }
  // The full sweep misses every library once and overflows the slot pool.
  const VpkeyStats after = mc_->vpkey_stats();
  EXPECT_EQ(after.misses, static_cast<uint64_t>(kLibraries));
  EXPECT_GE(after.evictions, static_cast<uint64_t>(kLibraries) - after.hw_slots);
  EXPECT_GT(after.retag_bytes, 0u);

  // Back in T: everything accessible again, including evicted pools.
  *trusted_obj_ = 1;
  for (int i = 0; i < kLibraries; ++i) {
    EXPECT_EQ(*objs_[i], static_cast<uint64_t>(i));
  }
}

TEST_F(MprotectMultidomainTest, CrossLibraryReadDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MultiCompartment::Scope scope(*mc_, 1);
        volatile uint64_t v = *objs_[1];  // library 2's pool
        (void)v;
      },
      "");
}

TEST_F(MprotectMultidomainTest, EvictedLibraryPoolDeniedFromOtherScope) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Force library 1 out of residency by sweeping every other library.
  for (int i = 1; i < kLibraries; ++i) {
    MultiCompartment::Scope scope(*mc_, static_cast<LibraryId>(i + 1));
  }
  ASSERT_FALSE(mc_->library_resident(1));
  // Its pages now carry the evicted key, which every mask denies.
  EXPECT_DEATH(
      {
        MultiCompartment::Scope scope(*mc_, 2);
        volatile uint64_t v = *objs_[0];
        (void)v;
      },
      "");
}

TEST_F(MprotectMultidomainTest, TrustedPoolDeniedInsideScope) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MultiCompartment::Scope scope(*mc_, 1);
        *trusted_obj_ = 99;
      },
      "");
}

// A denied load dies of SIGSEGV. Under AddressSanitizer or ThreadSanitizer
// the sanitizer's SEGV handler reports the fault and exits nonzero instead.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr char kSegvMessage[] = "Sanitizer: SEGV";
bool DiedOfSegv(int status) { return WIFEXITED(status) && WEXITSTATUS(status) != 0; }
#else
constexpr char kSegvMessage[] = "";
bool DiedOfSegv(int status) { return WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV; }
#endif

class HardwareMultidomainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!HardwareMpkBackend::IsSupported()) {
      GTEST_SKIP() << "CPU/kernel does not support Intel MPK";
    }
    backend_ = std::make_unique<HardwareMpkBackend>();
    backend_->WritePkru(PkruValue::AllowAll());
    PkAllocatorConfig pool_config;
    pool_config.trusted_pool_bytes = size_t{2} << 20;
    pool_config.untrusted_pool_bytes = size_t{2} << 20;
    auto pools = PkAllocator::Create(backend_.get(), pool_config);
    ASSERT_TRUE(pools.ok()) << pools.status().ToString();
    pools_ = std::move(*pools);
    MultiCompartmentConfig config;
    config.library_pool_bytes = size_t{2} << 20;
    auto mc = MultiCompartment::Create(pools_.get(), config);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
    codec_ = *mc_->RegisterLibrary("codec");
    script_ = *mc_->RegisterLibrary("script");
    codec_obj_ = static_cast<uint64_t*>(mc_->AllocateIn(codec_, sizeof(uint64_t)));
    script_obj_ = static_cast<uint64_t*>(mc_->AllocateIn(script_, sizeof(uint64_t)));
    trusted_obj_ = static_cast<uint64_t*>(pools_->Allocate(Domain::kTrusted, sizeof(uint64_t)));
    shared_obj_ = static_cast<uint64_t*>(pools_->Allocate(Domain::kUntrusted, sizeof(uint64_t)));
    ASSERT_NE(codec_obj_, nullptr);
    ASSERT_NE(script_obj_, nullptr);
    ASSERT_NE(trusted_obj_, nullptr);
    ASSERT_NE(shared_obj_, nullptr);
    *codec_obj_ = 1;
    *script_obj_ = 2;
    *trusted_obj_ = 0x5ec2e7;
    *shared_obj_ = 7;
    // Both libraries resident: the other library's pool carries its own
    // slot key, not the evicted key, so the denial below is pairwise.
    { MultiCompartment::Scope scope(*mc_, script_); }
    { MultiCompartment::Scope scope(*mc_, codec_); }
    ASSERT_TRUE(mc_->library_resident(codec_));
    ASSERT_TRUE(mc_->library_resident(script_));
  }

  void TearDown() override {
    mc_.reset();
    pools_.reset();
    if (backend_ != nullptr) {
      backend_->WritePkru(PkruValue::AllowAll());
    }
  }

  std::unique_ptr<HardwareMpkBackend> backend_;
  std::unique_ptr<PkAllocator> pools_;
  std::unique_ptr<MultiCompartment> mc_;
  LibraryId codec_ = 0;
  LibraryId script_ = 0;
  uint64_t* codec_obj_ = nullptr;
  uint64_t* script_obj_ = nullptr;
  uint64_t* trusted_obj_ = nullptr;
  uint64_t* shared_obj_ = nullptr;
};

TEST_F(HardwareMultidomainTest, SharedAndOwnPoolsReadAndWriteInsideScope) {
  {
    MultiCompartment::Scope scope(*mc_, codec_);
    EXPECT_EQ(*shared_obj_, 7u);
    *shared_obj_ = 8;
    EXPECT_EQ(*codec_obj_, 1u);
    *codec_obj_ = 10;
  }
  {
    MultiCompartment::Scope scope(*mc_, script_);
    EXPECT_EQ(*shared_obj_, 8u);  // M_U carries data between libraries
    EXPECT_EQ(*script_obj_, 2u);
    *script_obj_ = 20;
  }
  // Back in T: every pool is accessible again.
  EXPECT_EQ(*codec_obj_, 10u);
  EXPECT_EQ(*script_obj_, 20u);
  EXPECT_EQ(*trusted_obj_, 0x5ec2e7u);
}

TEST_F(HardwareMultidomainTest, TrustedObjectLoadDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        MultiCompartment::Scope scope(*mc_, codec_);
        volatile uint64_t v = *trusted_obj_;  // the allocator's M_T
        (void)v;
      },
      DiedOfSegv, kSegvMessage);
}

TEST_F(HardwareMultidomainTest, OtherLibraryLoadDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        MultiCompartment::Scope scope(*mc_, codec_);
        volatile uint64_t v = *script_obj_;  // the script library's pool
        (void)v;
      },
      DiedOfSegv, kSegvMessage);
}

}  // namespace
}  // namespace pkrusafe
