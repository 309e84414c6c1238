#include "src/mpk/mprotect_backend.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "src/memmap/page.h"
#include "src/memmap/vm_region.h"

namespace pkrusafe {
namespace {

// The mprotect backend enforces with real page protections: a denied access
// is an actual SIGSEGV. Recovery paths are exercised via the single-step
// profiler; pure denial is exercised as a death test.
class MprotectBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto region = VmRegion::Reserve(4 * kPageSize);
    ASSERT_TRUE(region.ok());
    region_ = std::move(*region);
    auto key = backend_.AllocateKey();
    ASSERT_TRUE(key.ok());
    key_ = *key;
    ASSERT_TRUE(backend_.TagRange(region_.base(), 4 * kPageSize, key_).ok());
  }

  void TearDown() override {
    backend_.WritePkru(PkruValue::AllowAll());
    backend_.UninstallSignalHandlers();
  }

  MprotectMpkBackend backend_;
  VmRegion region_;
  PkeyId key_ = 0;
};

TEST_F(MprotectBackendTest, AllowedAccessWorks) {
  backend_.WritePkru(PkruValue::AllowAll());
  auto* bytes = reinterpret_cast<unsigned char*>(region_.base());
  bytes[0] = 11;
  EXPECT_EQ(bytes[0], 11);
}

TEST_F(MprotectBackendTest, DeniedWriteDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(key_));
        auto* bytes = reinterpret_cast<unsigned char*>(region_.base());
        bytes[0] = 1;
      },
      "");
}

TEST_F(MprotectBackendTest, DeniedReadDiesUnderWriteThroughPolicy) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(key_));
        auto* bytes = reinterpret_cast<volatile unsigned char*>(region_.base());
        unsigned char v = bytes[0];
        (void)v;
      },
      "");
}

TEST_F(MprotectBackendTest, WriteDisableAllowsReads) {
  auto* bytes = reinterpret_cast<unsigned char*>(region_.base());
  backend_.WritePkru(PkruValue::AllowAll());
  bytes[5] = 77;
  backend_.WritePkru(PkruValue::AllowAll().WithWriteDisabled(key_));
  EXPECT_EQ(bytes[5], 77);  // read still permitted
  backend_.WritePkru(PkruValue::AllowAll());
}

TEST_F(MprotectBackendTest, SingleStepProfilingRecordsAndResumes) {
  ASSERT_TRUE(backend_.InstallSignalHandlers().ok());

  std::atomic<int> faults{0};
  uintptr_t fault_addr = 0;
  backend_.SetFaultHandler([&](const MpkFault& fault) {
    faults.fetch_add(1);
    fault_addr = fault.address;
    return FaultResolution::kRetryAllowed;
  });

  auto* bytes = reinterpret_cast<unsigned char*>(region_.base());
  backend_.WritePkru(PkruValue::AllowAll());
  bytes[8] = 42;

  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(key_));
  // This write faults, is recorded, single-steps, and completes.
  bytes[8] = 43;
  backend_.WritePkru(PkruValue::AllowAll());

  EXPECT_EQ(bytes[8], 43);
  EXPECT_EQ(faults.load(), 1);
  EXPECT_EQ(fault_addr, region_.base() + 8);
}

TEST_F(MprotectBackendTest, ProtectionRestoredAfterSingleStep) {
  ASSERT_TRUE(backend_.InstallSignalHandlers().ok());
  std::atomic<int> faults{0};
  backend_.SetFaultHandler([&](const MpkFault&) {
    faults.fetch_add(1);
    return FaultResolution::kRetryAllowed;
  });

  // volatile: the dead-store optimizer must not merge the two writes to
  // bytes[0]; each must reach memory and fault independently.
  auto* bytes = reinterpret_cast<volatile unsigned char*>(region_.base());
  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(key_));
  bytes[0] = 1;                    // fault #1, single-stepped
  bytes[kPageSize * 2 + 16] = 2;   // fault #2 on a different page: protection
                                   // must have been re-established
  bytes[0] = 3;                    // fault #3: same page faults again
  backend_.WritePkru(PkruValue::AllowAll());

  EXPECT_EQ(faults.load(), 3);
  EXPECT_EQ(bytes[0], 3);
  EXPECT_EQ(bytes[kPageSize * 2 + 16], 2);
}

TEST_F(MprotectBackendTest, KeyForReportsTag) {
  EXPECT_EQ(backend_.KeyFor(region_.base()), key_);
  EXPECT_EQ(backend_.KeyFor(region_.base() + 4 * kPageSize), kDefaultPkey);
}

// The r/w/x permission string /proc/self/maps gives the page at `addr`.
std::string PermsAt(uintptr_t addr) {
  FILE* maps = std::fopen("/proc/self/maps", "r");
  if (maps == nullptr) {
    return "";
  }
  char line[512];
  std::string perms;
  while (std::fgets(line, sizeof(line), maps) != nullptr) {
    unsigned long begin = 0;
    unsigned long end = 0;
    char mode[5] = {};
    if (std::sscanf(line, "%lx-%lx %4s", &begin, &end, mode) == 3 && begin <= addr &&
        addr < end) {
      perms.assign(mode, 3);
      break;
    }
  }
  std::fclose(maps);
  return perms;
}

// The PKRU sweep protects each range of the key on its own: a range that is
// no longer mapped must not leave the ranges after it open.
TEST_F(MprotectBackendTest, SweepClosesEveryMappedRangePastAnUnmappedOne) {
  auto region = VmRegion::Reserve(8 * kPageSize);
  ASSERT_TRUE(region.ok());
  const uintptr_t base = region->base();
  auto other = backend_.AllocateKey();
  ASSERT_TRUE(other.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(backend_.TagRange(base + 2 * i * kPageSize, 2 * kPageSize, key_).ok());
  }
  ASSERT_TRUE(backend_.TagRange(base + 6 * kPageSize, 2 * kPageSize, *other).ok());
  ASSERT_EQ(::munmap(reinterpret_cast<void*>(base + 2 * kPageSize), 2 * kPageSize), 0);

  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(key_));
  EXPECT_EQ(PermsAt(base), "---");
  EXPECT_EQ(PermsAt(base + 5 * kPageSize), "---");
  EXPECT_EQ(PermsAt(base + 6 * kPageSize), "rw-");
  backend_.WritePkru(PkruValue::AllowAll());
  EXPECT_EQ(PermsAt(base + 5 * kPageSize), "rw-");
}

// A re-tag whose mprotect fails must leave the range on the key it had:
// untagging it instead would report key 0, open to every compartment.
TEST_F(MprotectBackendTest, FailedRetagKeepsPreviousKey) {
  void* raw = ::mmap(nullptr, 2 * kPageSize, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(raw, MAP_FAILED);
  const auto addr = reinterpret_cast<uintptr_t>(raw);
  auto other = backend_.AllocateKey();
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(backend_.TagRange(addr, 2 * kPageSize, key_).ok());
  ASSERT_EQ(::munmap(raw, 2 * kPageSize), 0);

  // mprotect over the unmapped range fails with ENOMEM.
  EXPECT_FALSE(backend_.TagRange(addr, 2 * kPageSize, *other).ok());
  EXPECT_EQ(backend_.KeyFor(addr), key_);
  EXPECT_EQ(backend_.KeyFor(addr + kPageSize), key_);
}

TEST_F(MprotectBackendTest, CheckAccessIsPassThrough) {
  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(key_));
  // Software checks defer to the MMU for this backend.
  EXPECT_TRUE(backend_.CheckAccess(region_.base(), AccessKind::kWrite).ok());
  backend_.WritePkru(PkruValue::AllowAll());
}

}  // namespace
}  // namespace pkrusafe
