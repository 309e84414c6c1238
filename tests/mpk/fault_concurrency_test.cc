// Concurrency tests for the v2 fault engine: per-thread single-step slots,
// same-thread re-entrant faults (one instruction spanning two protected
// pages), first-fault latching at the engine level, and the per-thread
// service-time accounting.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/memmap/page.h"
#include "src/memmap/vm_region.h"
#include "src/mpk/fault_signal.h"
#include "src/mpk/mprotect_backend.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace {

class FaultConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultSignalEngine::ResetCountersForTest();
  }
  void TearDown() override {
    FaultSignalEngine::Uninstall();
    signal(SIGSEGV, SIG_DFL);
    SetCurrentThreadPkru(PkruValue::AllowAll());
  }
};

#if defined(__x86_64__)
// One instruction that reads *src and writes *dst: when both live in
// protected pages the write faults while the read's single-step is already
// in flight — the same-thread re-entrant case.
void MovsQ(const uint64_t* src, uint64_t* dst) {
  asm volatile("movsq" : "+S"(src), "+D"(dst) : : "memory");
}
#endif

TEST_F(FaultConcurrencyTest, SameThreadTwoPageInstructionDoesNotDeadlock) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "single-step engine is x86_64-only";
#else
  // Run in a forked child: the v1 serialized engine deadlocks on the second
  // fault (the thread spins on the step slot it already holds), which the
  // alarm converts into a SIGALRM death the parent can assert on.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    alarm(10);
    MprotectMpkBackend backend;
    auto region = VmRegion::Reserve(4 * kPageSize);
    if (!region.ok()) _exit(10);
    auto key = backend.AllocateKey();
    if (!key.ok()) _exit(11);
    const uintptr_t base = region->base();
    if (!backend.TagRange(base, kPageSize, *key).ok()) _exit(12);
    if (!backend.TagRange(base + 3 * kPageSize, kPageSize, *key).ok()) _exit(13);
    if (!backend.InstallSignalHandlers().ok()) _exit(14);
    backend.SetFaultHandler([](const MpkFault&) { return FaultResolution::kRetryAllowed; });

    auto* src = reinterpret_cast<uint64_t*>(base);
    auto* dst = reinterpret_cast<uint64_t*>(base + 3 * kPageSize);
    *src = 0x5afe;
    backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
    MovsQ(src, dst);  // read faults; the write re-faults mid-step
    backend.WritePkru(PkruValue::AllowAll());
    if (*dst != 0x5afe) _exit(15);
    if (FaultSignalEngine::reentrant_fault_count() != 1) _exit(16);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal " << WTERMSIG(status)
                                 << " (re-entrant fault deadlocked the single-step?)";
  EXPECT_EQ(WEXITSTATUS(status), 0);
#endif
}

TEST_F(FaultConcurrencyTest, UnalignedStraddleAcrossTaggedPagesIsServiced) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "single-step engine is x86_64-only";
#else
  MprotectMpkBackend backend;
  auto region = VmRegion::Reserve(2 * kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(backend.TagRange(region->base(), 2 * kPageSize, *key).ok());
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());
  backend.SetFaultHandler([](const MpkFault&) { return FaultResolution::kRetryAllowed; });

  // A store spanning the page boundary: both halves land in tagged pages.
  auto* straddle = reinterpret_cast<volatile uint64_t*>(region->base() + kPageSize - 4);
  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
  *straddle = 0x0123456789abcdefull;
  backend.WritePkru(PkruValue::AllowAll());
  EXPECT_EQ(*straddle, 0x0123456789abcdefull);
#endif
}

TEST_F(FaultConcurrencyTest, ThreadedReentrantStepsServiceIndependently) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "single-step engine is x86_64-only";
#else
  constexpr int kThreads = 4;
  constexpr int kIters = 32;
  MprotectMpkBackend backend;
  auto region = VmRegion::Reserve(kThreads * 4 * kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  for (int t = 0; t < kThreads; ++t) {
    const uintptr_t stripe = region->base() + static_cast<uintptr_t>(t) * 4 * kPageSize;
    ASSERT_TRUE(backend.TagRange(stripe, kPageSize, *key).ok());
    // dst sits at page 2 so the engine's allow-once window (fault page plus
    // successor) ends on this stripe's own untagged page 3 instead of leaking
    // into the next thread's src page.
    ASSERT_TRUE(backend.TagRange(stripe + 2 * kPageSize, kPageSize, *key).ok());
    *reinterpret_cast<uint64_t*>(stripe) = 0x1000u + static_cast<uint64_t>(t);
  }
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());
  backend.SetFaultHandler([](const MpkFault&) { return FaultResolution::kRetryAllowed; });
  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&backend, &region, t] {
      (void)backend;
      const uintptr_t stripe = region->base() + static_cast<uintptr_t>(t) * 4 * kPageSize;
      auto* src = reinterpret_cast<uint64_t*>(stripe);
      auto* dst = reinterpret_cast<uint64_t*>(stripe + 2 * kPageSize);
      for (int i = 0; i < kIters; ++i) {
        MovsQ(src, dst);  // every iteration re-faults: the trap re-protected
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  backend.WritePkru(PkruValue::AllowAll());

  for (int t = 0; t < kThreads; ++t) {
    const uintptr_t stripe = region->base() + static_cast<uintptr_t>(t) * 4 * kPageSize;
    EXPECT_EQ(*reinterpret_cast<uint64_t*>(stripe + 2 * kPageSize),
              0x1000u + static_cast<uint64_t>(t));
  }
  // Each movsq costs one ordinary fault plus one re-entrant fault.
  EXPECT_EQ(FaultSignalEngine::reentrant_fault_count(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(FaultSignalEngine::active_steps(), 0u);
#endif
}

#if defined(__x86_64__)
// Forwards to the backend but holds every thread inside AllowOnce until two
// are mid-step at once. Under a serialized engine the second thread can never
// arrive (it is parked outside the step slot), so the wait is deadline-bounded
// and the test fails on the concurrency counters instead of hanging.
class BarrierDelegate : public FaultSignalDelegate {
 public:
  explicit BarrierDelegate(MprotectMpkBackend* backend) : backend_(backend) {}

  std::optional<MpkFault> Classify(uintptr_t addr, bool is_write) override {
    return backend_->Classify(addr, is_write);
  }
  FaultResolution OnFault(const MpkFault& fault) override { return backend_->OnFault(fault); }
  void AllowOnce(const MpkFault& fault) override {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    const uint64_t deadline = telemetry::NowNs() + 2'000'000'000ull;
    while (arrived.load(std::memory_order_acquire) < 2 && telemetry::NowNs() < deadline) {
    }
    backend_->AllowOnce(fault);
  }
  void Reprotect(const MpkFault& fault) override { backend_->Reprotect(fault); }
  PkruValue ReadPkru() const override { return backend_->ReadPkru(); }

  std::atomic<int> arrived{0};

 private:
  MprotectMpkBackend* backend_;
};
#endif

TEST_F(FaultConcurrencyTest, TwoThreadsAreMidStepSimultaneously) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "single-step engine is x86_64-only";
#else
  MprotectMpkBackend backend;
  auto region = VmRegion::Reserve(4 * kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  // Distant pages so one thread's AllowOnce window cannot cover the other's
  // address (which would let it skip its fault entirely).
  const uintptr_t page_a = region->base();
  const uintptr_t page_b = region->base() + 3 * kPageSize;
  ASSERT_TRUE(backend.TagRange(page_a, kPageSize, *key).ok());
  ASSERT_TRUE(backend.TagRange(page_b, kPageSize, *key).ok());

  BarrierDelegate delegate(&backend);
  ASSERT_TRUE(FaultSignalEngine::Install(&delegate).ok());
  backend.SetFaultHandler([](const MpkFault&) { return FaultResolution::kRetryAllowed; });
  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));

  std::thread a([page_a] { *reinterpret_cast<volatile char*>(page_a) = 1; });
  std::thread b([page_b] { *reinterpret_cast<volatile char*>(page_b) = 2; });
  a.join();
  b.join();
  backend.WritePkru(PkruValue::AllowAll());

  EXPECT_EQ(delegate.arrived.load(), 2);
  EXPECT_GE(FaultSignalEngine::max_concurrent_steps(), 2u)
      << "the two single-steps never overlapped: the engine serialized them";
  EXPECT_EQ(*reinterpret_cast<char*>(page_a), 1);
  EXPECT_EQ(*reinterpret_cast<char*>(page_b), 2);
#endif
}

TEST_F(FaultConcurrencyTest, LatchedPageStopsFaultingAndSurvivesPkruSweeps) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "single-step engine is x86_64-only";
#else
  MprotectMpkBackend backend;
  auto region = VmRegion::Reserve(kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  const uintptr_t page = region->base();
  ASSERT_TRUE(backend.TagRange(page, kPageSize, *key).ok());
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());

  std::atomic<int> recorded{0};
  backend.SetFaultHandler([&backend, &recorded](const MpkFault& fault) {
    recorded.fetch_add(1);
    backend.NoteLatchedRange(PageDown(fault.address), PageDown(fault.address) + kPageSize);
    return FaultResolution::kRetryAndLatch;
  });

  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
  auto* bytes = reinterpret_cast<volatile unsigned char*>(page);
  bytes[0] = 1;  // first access: faults, records, latches
  bytes[1] = 2;  // latched: no fault
  EXPECT_EQ(recorded.load(), 1);
  EXPECT_EQ(backend.latched_page_count(), 1u);
  EXPECT_TRUE(backend.IsLatched(page));

  // A PKRU sweep that closes the key must leave the latched page open.
  backend.WritePkru(PkruValue::AllowAll());
  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
  bytes[2] = 3;  // still no fault
  EXPECT_EQ(recorded.load(), 1);
  backend.WritePkru(PkruValue::AllowAll());
  EXPECT_EQ(bytes[0], 1);
  EXPECT_EQ(bytes[1], 2);
  EXPECT_EQ(bytes[2], 3);
#endif
}

TEST_F(FaultConcurrencyTest, SnapshotThreadStatsListsFaultingThreads) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "single-step engine is x86_64-only";
#else
  MprotectMpkBackend backend;
  auto region = VmRegion::Reserve(4 * kPageSize);
  ASSERT_TRUE(region.ok());
  auto key = backend.AllocateKey();
  ASSERT_TRUE(key.ok());
  const uintptr_t page_a = region->base();
  const uintptr_t page_b = region->base() + 3 * kPageSize;
  ASSERT_TRUE(backend.TagRange(page_a, kPageSize, *key).ok());
  ASSERT_TRUE(backend.TagRange(page_b, kPageSize, *key).ok());
  ASSERT_TRUE(backend.InstallSignalHandlers().ok());
  backend.SetFaultHandler([](const MpkFault&) { return FaultResolution::kRetryAllowed; });
  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));

  *reinterpret_cast<volatile char*>(page_a) = 1;  // this thread
  std::thread worker([page_b] { *reinterpret_cast<volatile char*>(page_b) = 2; });
  worker.join();
  backend.WritePkru(PkruValue::AllowAll());

  ThreadFaultStats stats[16];
  const size_t n = FaultSignalEngine::SnapshotThreadStats(stats, 16);
  ASSERT_GE(n, 2u);
  uint64_t total_serviced = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NE(stats[i].tid, 0u);
    total_serviced += stats[i].serviced;
  }
  EXPECT_GE(total_serviced, 2u);
#endif
}

}  // namespace
}  // namespace pkrusafe
