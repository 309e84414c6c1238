// Always-on sampled profiling in enforce mode: statically-shared-but-
// unpromoted candidate sites record-and-continue under a fault-rate budget;
// everything else keeps the enforcement bias and dies. ApplyPromotions
// re-tags a promoted site's live pages without a restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/memmap/page.h"
#include "src/runtime/runtime.h"

namespace pkrusafe {
namespace {

constexpr AllocId kCandidateSite{1, 0, 0};
constexpr AllocId kPrivateSite{2, 0, 0};

std::unique_ptr<PkruSafeRuntime> MakeSampledRuntime(FaultRateBudgetOptions sampling) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kEnforcing;
  config.sampled_profiling = true;
  config.sampling = sampling;
  config.sampling_candidates.insert(kCandidateSite);
  config.allocator.trusted_pool_bytes = size_t{1} << 30;
  config.allocator.untrusted_pool_bytes = size_t{1} << 30;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  return std::move(*runtime);
}

Status UntrustedRead(PkruSafeRuntime& rt, uintptr_t addr) {
  UntrustedScope scope(rt.gates());
  return rt.backend().CheckAccess(addr, AccessKind::kRead);
}

uintptr_t FirstFullyCoveredPage(void* ptr, size_t size) {
  const uintptr_t base = reinterpret_cast<uintptr_t>(ptr);
  const uintptr_t lo = PageUp(base);
  const uintptr_t hi = PageDown(base + size);
  return lo + kPageSize <= hi ? lo : 0;
}

FaultRateBudgetOptions GenerousBudget(double fraction) {
  FaultRateBudgetOptions options;
  options.page_fraction = fraction;
  options.service_ns_per_interval = ~uint64_t{0} / 2;  // effectively unlimited
  options.fault_cost_ns = 1;
  return options;
}

TEST(SampledProfilingTest, CandidateFaultIsRecordedAndServiced) {
  auto rt = MakeSampledRuntime(GenerousBudget(/*fraction=*/1.0));
  ASSERT_NE(rt->sampling_budget(), nullptr);
  void* obj = rt->AllocTrusted(kCandidateSite, 64);
  ASSERT_NE(obj, nullptr);
  const uintptr_t addr = reinterpret_cast<uintptr_t>(obj);

  const RuntimeStats before = rt->stats();
  EXPECT_TRUE(UntrustedRead(*rt, addr).ok());
  EXPECT_TRUE(UntrustedRead(*rt, addr).ok());
  const RuntimeStats after = rt->stats();
  EXPECT_EQ(after.sampled_faults, before.sampled_faults + 2);
  EXPECT_EQ(after.sampled_recorded, before.sampled_recorded + 2);
  EXPECT_EQ(after.sampled_trapping, before.sampled_trapping + 2);
  EXPECT_EQ(after.sampled_denied_static, before.sampled_denied_static);

  // The observation is what feeds the delta stream.
  Profile profile = rt->TakeProfile();
  EXPECT_TRUE(profile.Contains(kCandidateSite));
  rt->Free(obj);
}

TEST(SampledProfilingTest, NonCandidateStaysDenied) {
  auto rt = MakeSampledRuntime(GenerousBudget(/*fraction=*/1.0));
  void* obj = rt->AllocTrusted(kPrivateSite, 64);
  ASSERT_NE(obj, nullptr);

  const RuntimeStats before = rt->stats();
  EXPECT_FALSE(UntrustedRead(*rt, reinterpret_cast<uintptr_t>(obj)).ok());
  const RuntimeStats after = rt->stats();
  EXPECT_EQ(after.sampled_denied_static, before.sampled_denied_static + 1);
  EXPECT_FALSE(rt->TakeProfile().Contains(kPrivateSite));
  rt->Free(obj);
}

TEST(SampledProfilingTest, FractionOneKeepsPagesTrapping) {
  auto rt = MakeSampledRuntime(GenerousBudget(/*fraction=*/1.0));
  void* big = rt->AllocTrusted(kCandidateSite, 4 * kPageSize);
  ASSERT_NE(big, nullptr);
  const uintptr_t page = FirstFullyCoveredPage(big, 4 * kPageSize);
  ASSERT_NE(page, 0u);

  const RuntimeStats before = rt->stats();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(UntrustedRead(*rt, page + static_cast<uintptr_t>(i)).ok());
  }
  const RuntimeStats after = rt->stats();
  // Every access faulted (and was observed): nothing latched.
  EXPECT_EQ(after.sampled_faults, before.sampled_faults + 4);
  EXPECT_EQ(after.sampled_trapping, before.sampled_trapping + 4);
  EXPECT_EQ(after.sampled_latched, before.sampled_latched);
  EXPECT_EQ(after.sampled_autolatched, before.sampled_autolatched);
  rt->Free(big);
}

TEST(SampledProfilingTest, FractionZeroLatchesAfterFirstTouch) {
  auto rt = MakeSampledRuntime(GenerousBudget(/*fraction=*/0.0));
  void* big = rt->AllocTrusted(kCandidateSite, 4 * kPageSize);
  ASSERT_NE(big, nullptr);
  const uintptr_t page = FirstFullyCoveredPage(big, 4 * kPageSize);
  ASSERT_NE(page, 0u);

  const RuntimeStats before = rt->stats();
  EXPECT_TRUE(UntrustedRead(*rt, page).ok());
  const RuntimeStats first = rt->stats();
  EXPECT_EQ(first.sampled_faults, before.sampled_faults + 1);
  EXPECT_EQ(first.sampled_latched, before.sampled_latched + 1);

  // Latched open: later accesses skip the fault path but the site is already
  // in the profile — one fault, then free.
  EXPECT_TRUE(UntrustedRead(*rt, page + 8).ok());
  const RuntimeStats second = rt->stats();
  EXPECT_EQ(second.sampled_faults, first.sampled_faults);
  EXPECT_TRUE(rt->TakeProfile().Contains(kCandidateSite));
  rt->Free(big);
}

TEST(SampledProfilingTest, ExhaustedBudgetAutoLatches) {
  FaultRateBudgetOptions sampling;
  sampling.page_fraction = 1.0;
  sampling.service_ns_per_interval = 1;    // first charge already over
  sampling.fault_cost_ns = 4'000;
  sampling.interval_ms = 1'000'000;        // no refill during the test
  auto rt = MakeSampledRuntime(sampling);
  void* big = rt->AllocTrusted(kCandidateSite, 4 * kPageSize);
  ASSERT_NE(big, nullptr);
  const uintptr_t page = FirstFullyCoveredPage(big, 4 * kPageSize);
  ASSERT_NE(page, 0u);

  const RuntimeStats before = rt->stats();
  EXPECT_TRUE(UntrustedRead(*rt, page).ok());
  const RuntimeStats after = rt->stats();
  // In-sample page over budget: recorded, then latched as autolatched.
  EXPECT_EQ(after.sampled_recorded, before.sampled_recorded + 1);
  EXPECT_EQ(after.sampled_autolatched, before.sampled_autolatched + 1);
  EXPECT_EQ(after.sampled_trapping, before.sampled_trapping);
  rt->Free(big);
}

TEST(SampledProfilingTest, SampledPagesFollowThePoolOffsetNotTheAddress) {
  // Two live runtimes have their pools at different addresses; an object at
  // the same pool offset in each must sample the same pages.
  constexpr size_t kBytes = 64 * kPageSize;
  auto first = MakeSampledRuntime(GenerousBudget(/*fraction=*/0.5));
  auto second = MakeSampledRuntime(GenerousBudget(/*fraction=*/0.5));
  auto pool_offset = [](PkruSafeRuntime& rt, void* obj) {
    return reinterpret_cast<uintptr_t>(obj) -
           RoundUp(rt.allocator().trusted_arena().base(), kArenaChunkGranularity);
  };
  // Which fully covered pages of `obj` keep trapping after one touch.
  auto trapping_pages = [](PkruSafeRuntime& rt, void* obj) {
    std::vector<bool> trapping;
    const uintptr_t end = reinterpret_cast<uintptr_t>(obj) + kBytes;
    for (uintptr_t page = FirstFullyCoveredPage(obj, kBytes); page + kPageSize <= end;
         page += kPageSize) {
      const uint64_t before = rt.stats().sampled_trapping;
      EXPECT_TRUE(UntrustedRead(rt, page).ok());
      trapping.push_back(rt.stats().sampled_trapping > before);
    }
    return trapping;
  };
  void* a = first->AllocTrusted(kCandidateSite, kBytes);
  void* b = second->AllocTrusted(kCandidateSite, kBytes);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(first->allocator().trusted_arena().base(), second->allocator().trusted_arena().base());
  ASSERT_EQ(pool_offset(*first, a), pool_offset(*second, b));

  const std::vector<bool> sampled = trapping_pages(*first, a);
  EXPECT_EQ(trapping_pages(*second, b), sampled);
  // About half the pages sample, so the two runs are not trivially equal.
  const auto hits = std::count(sampled.begin(), sampled.end(), true);
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, static_cast<std::ptrdiff_t>(sampled.size()));
  first->Free(a);
  second->Free(b);
}

TEST(SampledProfilingTest, PartiallyCoveredPageNeverLatches) {
  auto rt = MakeSampledRuntime(GenerousBudget(/*fraction=*/0.0));
  void* small = rt->AllocTrusted(kCandidateSite, 64);
  ASSERT_NE(small, nullptr);
  const uintptr_t addr = reinterpret_cast<uintptr_t>(small);

  const RuntimeStats before = rt->stats();
  EXPECT_TRUE(UntrustedRead(*rt, addr).ok());
  EXPECT_TRUE(UntrustedRead(*rt, addr).ok());
  const RuntimeStats after = rt->stats();
  EXPECT_EQ(after.sampled_faults, before.sampled_faults + 2);
  EXPECT_EQ(after.sampled_latched, before.sampled_latched);
  EXPECT_EQ(after.sampled_autolatched, before.sampled_autolatched);
  rt->Free(small);
}

TEST(SampledProfilingTest, DisabledOutsideEnforceMode) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kProfiling;
  config.sampled_profiling = true;  // ignored: profiling already records all
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  ASSERT_TRUE(runtime.ok());
  EXPECT_EQ((*runtime)->sampling_budget(), nullptr);
}

TEST(SampledProfilingTest, ApplyPromotionsStopsFaultingWithoutRestart) {
  auto rt = MakeSampledRuntime(GenerousBudget(/*fraction=*/1.0));
  void* big = rt->AllocTrusted(kCandidateSite, 4 * kPageSize);
  ASSERT_NE(big, nullptr);
  const uintptr_t page = FirstFullyCoveredPage(big, 4 * kPageSize);
  ASSERT_NE(page, 0u);

  // Before promotion: every access faults (observed).
  const RuntimeStats before = rt->stats();
  EXPECT_TRUE(UntrustedRead(*rt, page).ok());
  EXPECT_EQ(rt->stats().sampled_faults, before.sampled_faults + 1);
  EXPECT_FALSE(rt->IsShared(kCandidateSite));

  const auto result = rt->ApplyPromotions({kCandidateSite});
  EXPECT_EQ(result.promoted, 1u);
  EXPECT_EQ(result.already_shared, 0u);
  EXPECT_GE(result.pages_opened, 3u);  // 4-page object fully covers >= 3 pages
  EXPECT_TRUE(rt->IsShared(kCandidateSite));

  // After promotion: the live object's pages are open — no more faults.
  const RuntimeStats promoted = rt->stats();
  EXPECT_TRUE(UntrustedRead(*rt, page).ok());
  EXPECT_TRUE(UntrustedRead(*rt, page + kPageSize).ok());
  const RuntimeStats after = rt->stats();
  EXPECT_EQ(after.sampled_faults, promoted.sampled_faults);

  // Re-promoting is idempotent.
  const auto again = rt->ApplyPromotions({kCandidateSite});
  EXPECT_EQ(again.promoted, 0u);
  EXPECT_EQ(again.already_shared, 1u);

  // New allocations at the promoted site land in M_U directly: untrusted
  // reads succeed without entering the sampled fault path.
  void* fresh = rt->AllocTrusted(kCandidateSite, 64);
  ASSERT_NE(fresh, nullptr);
  const RuntimeStats pre_fresh = rt->stats();
  EXPECT_TRUE(UntrustedRead(*rt, reinterpret_cast<uintptr_t>(fresh)).ok());
  EXPECT_EQ(rt->stats().sampled_faults, pre_fresh.sampled_faults);

  rt->Free(fresh);
  rt->Free(big);
}

TEST(SampledProfilingTest, PromotionOfUnknownSiteTouchesNothing) {
  auto rt = MakeSampledRuntime(GenerousBudget(/*fraction=*/1.0));
  const auto result = rt->ApplyPromotions({AllocId{99, 9, 9}});
  EXPECT_EQ(result.promoted, 1u);  // policy learns the site
  EXPECT_EQ(result.pages_opened, 0u);  // no live objects to open
}

TEST(SampledProfilingTest, PromotionsAndDemotionsRaceAllocationAndFaults) {
  // Four threads allocate at the candidate site, touch the object from U
  // (sampled fault in M_T, plain access in M_U or on a promoted page) and
  // free it, while the main thread flips the site shared and back.
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  auto rt = MakeSampledRuntime(GenerousBudget(/*fraction=*/1.0));
  const uint64_t denied_before = rt->stats().sampled_denied_static;
  std::atomic<int> denied{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      for (int i = 0; i < kRounds; ++i) {
        const size_t size = (i + t) % 4 == 0 ? 4 * kPageSize : 64;
        void* obj = rt->AllocTrusted(kCandidateSite, size);
        ASSERT_NE(obj, nullptr);
        const uintptr_t addr = reinterpret_cast<uintptr_t>(obj);
        if (!UntrustedRead(*rt, addr).ok() || !UntrustedRead(*rt, addr + size - 1).ok()) {
          denied.fetch_add(1);
        }
        rt->Free(obj);
      }
    });
  }
  size_t promoted = 0;
  size_t demoted = 0;
  for (int i = 0; i < kRounds; ++i) {
    promoted += rt->ApplyPromotions({kCandidateSite}).promoted;
    demoted += rt->ApplyDemotions({kCandidateSite}).demoted;
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(denied.load(), 0);
  EXPECT_EQ(promoted, size_t{kRounds});
  EXPECT_EQ(demoted, size_t{kRounds});
  EXPECT_FALSE(rt->IsShared(kCandidateSite));
  EXPECT_EQ(rt->stats().sampled_denied_static, denied_before);
}

}  // namespace
}  // namespace pkrusafe
