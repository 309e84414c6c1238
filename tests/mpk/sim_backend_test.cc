#include "src/mpk/sim_backend.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/memmap/page.h"

namespace pkrusafe {
namespace {

constexpr uintptr_t kBase = 0x20000000;

class SimBackendTest : public ::testing::Test {
 protected:
  void SetUp() override { SetCurrentThreadPkru(PkruValue::AllowAll()); }
  void TearDown() override { SetCurrentThreadPkru(PkruValue::AllowAll()); }

  SimMpkBackend backend_;
};

TEST_F(SimBackendTest, AllocateKeySkipsZero) {
  auto key = backend_.AllocateKey();
  ASSERT_TRUE(key.ok());
  EXPECT_GE(*key, 1);
}

TEST_F(SimBackendTest, KeysExhaustAfterFifteen) {
  for (int i = 1; i < kNumPkeys; ++i) {
    EXPECT_TRUE(backend_.AllocateKey().ok());
  }
  EXPECT_FALSE(backend_.AllocateKey().ok());
}

TEST_F(SimBackendTest, UntaggedAccessAlwaysAllowed) {
  EXPECT_TRUE(backend_.CheckAccess(kBase, AccessKind::kRead).ok());
  EXPECT_TRUE(backend_.CheckAccess(kBase, AccessKind::kWrite).ok());
}

TEST_F(SimBackendTest, DeniedKeyFaults) {
  auto key = backend_.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend_.TagRange(kBase, kPageSize, *key).ok());

  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
  auto read = backend_.CheckAccess(kBase, AccessKind::kRead);
  EXPECT_EQ(read.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(backend_.fault_count(), 1u);

  backend_.WritePkru(PkruValue::AllowAll());
  EXPECT_TRUE(backend_.CheckAccess(kBase, AccessKind::kRead).ok());
}

TEST_F(SimBackendTest, WriteDisableAllowsReads) {
  auto key = backend_.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend_.TagRange(kBase, kPageSize, *key).ok());

  backend_.WritePkru(PkruValue::AllowAll().WithWriteDisabled(*key));
  EXPECT_TRUE(backend_.CheckAccess(kBase, AccessKind::kRead).ok());
  EXPECT_EQ(backend_.CheckAccess(kBase, AccessKind::kWrite).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(SimBackendTest, FaultHandlerReceivesFaultDetails) {
  auto key = backend_.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend_.TagRange(kBase, kPageSize, *key).ok());
  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));

  std::vector<MpkFault> faults;
  backend_.SetFaultHandler([&](const MpkFault& fault) {
    faults.push_back(fault);
    return FaultResolution::kDeny;
  });

  EXPECT_FALSE(backend_.CheckAccess(kBase + 64, AccessKind::kWrite).ok());
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].address, kBase + 64);
  EXPECT_EQ(faults[0].kind, AccessKind::kWrite);
  EXPECT_EQ(faults[0].key, *key);
  EXPECT_TRUE(faults[0].pkru.access_disabled(*key));
}

TEST_F(SimBackendTest, RetryAllowedPermitsExactlyThatAccess) {
  auto key = backend_.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend_.TagRange(kBase, kPageSize, *key).ok());
  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));

  int fault_count = 0;
  backend_.SetFaultHandler([&](const MpkFault&) {
    ++fault_count;
    return FaultResolution::kRetryAllowed;
  });

  // Each denied access faults independently (single-step semantics — PKRU is
  // not durably changed).
  EXPECT_TRUE(backend_.CheckAccess(kBase, AccessKind::kRead).ok());
  EXPECT_TRUE(backend_.CheckAccess(kBase, AccessKind::kRead).ok());
  EXPECT_EQ(fault_count, 2);
}

TEST_F(SimBackendTest, ClearingHandlerRestoresDeny) {
  auto key = backend_.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend_.TagRange(kBase, kPageSize, *key).ok());
  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));

  backend_.SetFaultHandler([](const MpkFault&) { return FaultResolution::kRetryAllowed; });
  EXPECT_TRUE(backend_.CheckAccess(kBase, AccessKind::kRead).ok());
  backend_.SetFaultHandler(nullptr);
  EXPECT_FALSE(backend_.CheckAccess(kBase, AccessKind::kRead).ok());
}

TEST_F(SimBackendTest, PkruIsPerThread) {
  auto key = backend_.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend_.TagRange(kBase, kPageSize, *key).ok());

  backend_.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
  ASSERT_FALSE(backend_.CheckAccess(kBase, AccessKind::kRead).ok());

  // A second thread has its own PKRU defaulting to allow-all.
  Status other_status = InternalError("unset");
  std::thread t([&] { other_status = backend_.CheckAccess(kBase, AccessKind::kRead); });
  t.join();
  EXPECT_TRUE(other_status.ok());
}

}  // namespace
}  // namespace pkrusafe
