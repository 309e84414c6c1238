// Hardware MPK backend tests. These run in full only on machines whose CPU
// and kernel support protection keys (pkey_alloc succeeds); elsewhere every
// hardware-touching test skips, keeping CI green while still exercising the
// real silicon path on Xeon/Ryzen-class hosts.
#include "src/mpk/hardware_backend.h"

#include <gtest/gtest.h>

#include "src/memmap/page.h"
#include "src/memmap/vm_region.h"
#include "src/mpk/backend_factory.h"
#include "src/mpk/mprotect_backend.h"
#include "src/mpk/sim_backend.h"

namespace pkrusafe {
namespace {

#define SKIP_WITHOUT_MPK()                                      \
  if (!HardwareMpkBackend::IsSupported()) {                     \
    GTEST_SKIP() << "CPU/kernel does not support Intel MPK";    \
  }

TEST(HardwareBackendTest, IsSupportedIsStable) {
  // Whatever the answer, asking twice must agree (probe caches).
  EXPECT_EQ(HardwareMpkBackend::IsSupported(), HardwareMpkBackend::IsSupported());
}

TEST(HardwareBackendTest, AllocateKeyAndTag) {
  SKIP_WITHOUT_MPK();
  HardwareMpkBackend backend;
  auto region = VmRegion::Reserve(4 * kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  EXPECT_GT(*key, 0);
  ASSERT_TRUE(backend.TagRange(region->base(), 4 * kPageSize, *key).ok());
  EXPECT_EQ(backend.KeyFor(region->base()), *key);
  EXPECT_EQ(backend.KeyFor(region->base() + 4 * kPageSize), kDefaultPkey);
}

TEST(HardwareBackendTest, PkruRegisterRoundTrips) {
  SKIP_WITHOUT_MPK();
  HardwareMpkBackend backend;
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  const PkruValue original = backend.ReadPkru();
  const PkruValue denied = original.WithAccessDisabled(*key);
  backend.WritePkru(denied);
  EXPECT_EQ(backend.ReadPkru(), denied);
  backend.WritePkru(original);
  EXPECT_EQ(backend.ReadPkru(), original);
}

TEST(HardwareBackendTest, DeniedWriteDiesUnderRealMpk) {
  SKIP_WITHOUT_MPK();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        HardwareMpkBackend backend;
        auto region = VmRegion::Reserve(kPageSize);
        auto key = backend.AllocateKey();
        (void)backend.TagRange(region->base(), kPageSize, *key);
        backend.WritePkru(backend.ReadPkru().WithAccessDisabled(*key));
        auto* bytes = reinterpret_cast<volatile unsigned char*>(region->base());
        bytes[0] = 1;
      },
      "");
}

TEST(HardwareBackendTest, SingleStepProfilingOnSilicon) {
  SKIP_WITHOUT_MPK();
  HardwareMpkBackend backend;
  auto region = VmRegion::Reserve(kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend.TagRange(region->base(), kPageSize, *key).ok());
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());

  int faults = 0;
  backend.SetFaultHandler([&](const MpkFault&) {
    ++faults;
    return FaultResolution::kRetryAllowed;
  });

  const PkruValue original = backend.ReadPkru();
  backend.WritePkru(original.WithAccessDisabled(*key));
  auto* bytes = reinterpret_cast<volatile unsigned char*>(region->base());
  bytes[0] = 77;
  backend.WritePkru(original);
  backend.UninstallSignalHandlers();

  EXPECT_EQ(faults, 1);
  EXPECT_EQ(bytes[0], 77);
}

// The kernel enters the SIGSEGV handler with its default PKRU (every key
// but 0 denied), so RDPKRU there does not read the register the access ran
// under. MpkFault::pkru must be the value this thread wrote, from the
// signal frame's XSAVE area.
TEST(HardwareBackendTest, FaultCarriesTheInterruptedPkru) {
  SKIP_WITHOUT_MPK();
  HardwareMpkBackend backend;
  auto region = VmRegion::Reserve(kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend.TagRange(region->base(), kPageSize, *key).ok());
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());

  uint32_t recorded = 0;
  backend.SetFaultHandler([&](const MpkFault& fault) {
    recorded = fault.pkru.raw();
    return FaultResolution::kRetryAllowed;
  });

  const PkruValue original = backend.ReadPkru();
  // AD for the key alone: 0x00000004 when the key is 1.
  const PkruValue written = PkruValue::AllowAll().WithAccessDisabled(*key);
  backend.WritePkru(written);
  auto* bytes = reinterpret_cast<volatile unsigned char*>(region->base());
  bytes[0] = 5;
  backend.WritePkru(original);
  backend.UninstallSignalHandlers();

  EXPECT_EQ(recorded, written.raw());
  EXPECT_EQ(bytes[0], 5);
}

// The hardware backend's PKRU is the real register only. Restoring the
// value RDPKRU saved (which denies every key the process has not allocated)
// must not leak into the software register the sim and mprotect backends
// read on the same thread.
TEST(HardwareBackendTest, WritesDoNotReachTheSoftwareRegister) {
  SKIP_WITHOUT_MPK();
  SimMpkBackend().WritePkru(PkruValue::AllowAll());
  {
    HardwareMpkBackend backend;
    auto key = backend.AllocateKey();
    ASSERT_TRUE(key.ok());
    const PkruValue saved = backend.ReadPkru();
    backend.WritePkru(PkruValue::DenyAllButDefault());
    backend.WritePkru(saved);
    ASSERT_TRUE(backend.FreeKey(*key).ok());
  }
  EXPECT_EQ(SimMpkBackend().ReadPkru(), PkruValue::AllowAll());
  EXPECT_EQ(MprotectMpkBackend().ReadPkru(), PkruValue::AllowAll());
}

TEST(HardwareBackendTest, FactoryAutoPrefersHardware) {
  SKIP_WITHOUT_MPK();
  auto backend = CreateMpkBackend(BackendKind::kAuto);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ((*backend)->name(), "hardware");
}

}  // namespace
}  // namespace pkrusafe
