// Tests for the shared SIGSEGV/SIGTRAP engine: installation rules and
// handler chaining (§4.3.1 — applications like Servo register their own
// SIGSEGV handlers; non-MPK faults must fall through to them).
#include "src/mpk/fault_signal.h"

#include <gtest/gtest.h>
#include <setjmp.h>
#include <signal.h>

#include "src/memmap/page.h"
#include "src/memmap/vm_region.h"
#include "src/mpk/mprotect_backend.h"

namespace pkrusafe {
namespace {

sigjmp_buf g_jump;
volatile sig_atomic_t g_app_handler_hits = 0;

void AppSegvHandler(int) {
  g_app_handler_hits = g_app_handler_hits + 1;
  siglongjmp(g_jump, 1);
}

class FaultSignalTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultSignalEngine::Uninstall();
    signal(SIGSEGV, SIG_DFL);
    SetCurrentThreadPkru(PkruValue::AllowAll());
  }
};

TEST_F(FaultSignalTest, InstallRejectsNull) {
  EXPECT_FALSE(FaultSignalEngine::Install(nullptr).ok());
}

TEST_F(FaultSignalTest, InstallIsIdempotentPerDelegate) {
  MprotectMpkBackend backend;
  ASSERT_TRUE(FaultSignalEngine::Install(&backend).ok());
  EXPECT_TRUE(FaultSignalEngine::Install(&backend).ok());
  EXPECT_TRUE(FaultSignalEngine::installed());
  FaultSignalEngine::Uninstall();
  EXPECT_FALSE(FaultSignalEngine::installed());
}

TEST_F(FaultSignalTest, SecondDelegateRejected) {
  MprotectMpkBackend first;
  MprotectMpkBackend second;
  ASSERT_TRUE(FaultSignalEngine::Install(&first).ok());
  EXPECT_EQ(FaultSignalEngine::Install(&second).code(),
            StatusCode::kFailedPrecondition);
  FaultSignalEngine::Uninstall();
  EXPECT_TRUE(FaultSignalEngine::Install(&second).ok());
}

TEST_F(FaultSignalTest, NonMpkFaultChainsToApplicationHandler) {
  // The application registers its handler first (like Servo does), then the
  // backend installs on top. A fault on memory the backend never tagged must
  // reach the application handler.
  g_app_handler_hits = 0;
  signal(SIGSEGV, AppSegvHandler);

  MprotectMpkBackend backend;
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());

  auto region = VmRegion::ReserveInaccessible(kPageSize);
  ASSERT_TRUE(region.ok());

  if (sigsetjmp(g_jump, 1) == 0) {
    auto* bytes = reinterpret_cast<volatile unsigned char*>(region->base());
    bytes[0] = 1;  // PROT_NONE page, untagged: not an MPK fault
    FAIL() << "store must have faulted";
  }
  EXPECT_EQ(g_app_handler_hits, 1);
}

TEST_F(FaultSignalTest, MpkFaultDoesNotBotherApplicationHandler) {
  g_app_handler_hits = 0;
  signal(SIGSEGV, AppSegvHandler);

  MprotectMpkBackend backend;
  auto region = VmRegion::Reserve(kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend.TagRange(region->base(), kPageSize, *key).ok());
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());

  int recorded = 0;
  backend.SetFaultHandler([&](const MpkFault&) {
    ++recorded;
    return FaultResolution::kRetryAllowed;
  });

  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
  auto* bytes = reinterpret_cast<volatile unsigned char*>(region->base());
  bytes[0] = 9;  // MPK fault: handled and single-stepped by the engine
  backend.WritePkru(PkruValue::AllowAll());

  EXPECT_EQ(recorded, 1);
  EXPECT_EQ(g_app_handler_hits, 0);
  EXPECT_EQ(bytes[0], 9);
}

TEST_F(FaultSignalTest, ServicedFaultCountAdvances) {
  MprotectMpkBackend backend;
  auto region = VmRegion::Reserve(kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend.TagRange(region->base(), kPageSize, *key).ok());
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());
  backend.SetFaultHandler([](const MpkFault&) { return FaultResolution::kRetryAllowed; });

  const uint64_t before = FaultSignalEngine::serviced_fault_count();
  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
  auto* bytes = reinterpret_cast<volatile unsigned char*>(region->base());
  bytes[1] = 2;
  bytes[2] = 3;
  backend.WritePkru(PkruValue::AllowAll());
  EXPECT_EQ(FaultSignalEngine::serviced_fault_count(), before + 2);
}

}  // namespace
}  // namespace pkrusafe
