// The runtime's per-site records: every fault bumps the faulting block's
// site counter, so TakeProfile sees every site with its exact count, from
// any number of threads and for any number of sites, and each runtime sees
// only its own faults.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/runtime.h"

namespace pkrusafe {
namespace {

constexpr AllocId kHotSite{1, 2, 3};
constexpr AllocId kColdSite{4, 5, 6};

std::unique_ptr<PkruSafeRuntime> MakeProfilingRuntime() {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kProfiling;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  return std::move(*runtime);
}

// Untrusted code touching `ptr`: a profiling fault on the sim backend.
void FaultOn(PkruSafeRuntime& rt, const void* ptr) {
  UntrustedScope scope(rt.gates());
  const Status status =
      rt.backend().CheckAccess(reinterpret_cast<uintptr_t>(ptr), AccessKind::kRead);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(SiteRecordTest, FaultsCountPerSite) {
  auto rt = MakeProfilingRuntime();
  void* hot = rt->AllocTrusted(kHotSite, 64);
  void* cold = rt->AllocTrusted(kColdSite, 64);
  FaultOn(*rt, hot);
  FaultOn(*rt, hot);
  FaultOn(*rt, cold);
  EXPECT_EQ(rt->stats().profile_faults, 3u);
  const Profile profile = rt->TakeProfile();
  EXPECT_EQ(profile.site_count(), 2u);
  EXPECT_EQ(profile.CountFor(kHotSite), 2u);
  EXPECT_EQ(profile.CountFor(kColdSite), 1u);
  rt->Free(hot);
  rt->Free(cold);
}

TEST(SiteRecordTest, FourHundredSitesOnOneThreadAllReachTheProfile) {
  // More distinct sites than one thread could record before (the paper's
  // Servo profile moved 274): none may be dropped, every count is exact.
  constexpr uint32_t kSites = 400;
  auto rt = MakeProfilingRuntime();
  std::vector<void*> objects;
  for (uint32_t s = 0; s < kSites; ++s) {
    objects.push_back(rt->AllocTrusted(AllocId{7, 7, s}, 64));
    ASSERT_NE(objects.back(), nullptr);
  }
  uint64_t total = 0;
  for (uint32_t s = 0; s < kSites; ++s) {
    for (uint32_t hit = 0; hit <= s % 3; ++hit) {
      FaultOn(*rt, objects[s]);
      ++total;
    }
  }
  EXPECT_EQ(rt->stats().profile_faults, total);
  const Profile profile = rt->TakeProfile();
  ASSERT_EQ(profile.site_count(), size_t{kSites});
  for (uint32_t s = 0; s < kSites; ++s) {
    EXPECT_EQ(profile.CountFor(AllocId{7, 7, s}), uint64_t{s % 3 + 1}) << s;
  }
  for (void* object : objects) {
    rt->Free(object);
  }
}

TEST(SiteRecordTest, ConcurrentFaultsLoseNoCounts) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kPerThreadSites = 16;
  constexpr uint64_t kHitsPerSite = 100;
  auto rt = MakeProfilingRuntime();
  // Distinct sites per thread, plus one hot site every thread faults on.
  void* hot = rt->AllocTrusted(kHotSite, 64);
  std::vector<std::vector<void*>> objects(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (uint32_t s = 0; s < kPerThreadSites; ++s) {
      objects[t].push_back(rt->AllocTrusted(AllocId{t + 1, 0, s}, 64));
    }
  }

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      for (uint64_t hit = 0; hit < kHitsPerSite; ++hit) {
        for (void* object : objects[t]) {
          FaultOn(*rt, object);
          FaultOn(*rt, hot);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(rt->stats().profile_faults, uint64_t{kThreads} * kPerThreadSites * kHitsPerSite * 2);
  const Profile profile = rt->TakeProfile();
  EXPECT_EQ(profile.site_count(), size_t{kThreads} * kPerThreadSites + 1);
  EXPECT_EQ(profile.CountFor(kHotSite), uint64_t{kThreads} * kPerThreadSites * kHitsPerSite);
  for (uint32_t t = 0; t < kThreads; ++t) {
    for (uint32_t s = 0; s < kPerThreadSites; ++s) {
      EXPECT_EQ(profile.CountFor(AllocId{t + 1, 0, s}), kHitsPerSite);
      rt->Free(objects[t][s]);
    }
  }
  rt->Free(hot);
}

TEST(SiteRecordTest, RuntimesDoNotBleed) {
  auto first = MakeProfilingRuntime();
  void* a = first->AllocTrusted(kHotSite, 64);
  FaultOn(*first, a);
  {
    auto second = MakeProfilingRuntime();
    void* b = second->AllocTrusted(kColdSite, 64);
    FaultOn(*second, b);
    const Profile profile = second->TakeProfile();
    EXPECT_EQ(profile.site_count(), 1u);
    EXPECT_FALSE(profile.Contains(kHotSite));
    second->Free(b);
  }
  const Profile profile = first->TakeProfile();
  EXPECT_TRUE(profile.Contains(kHotSite));
  EXPECT_FALSE(profile.Contains(kColdSite));
  first->Free(a);
}

TEST(SiteRecordTest, CreateRefusesMoreSitesThanTheTableHolds) {
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kEnforcing;
  for (uint32_t s = 0; s <= 64 * 1024; ++s) {
    config.sampling_candidates.insert(AllocId{1, s / 1024, s % 1024});
  }
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  ASSERT_FALSE(runtime.ok());
  EXPECT_EQ(runtime.status().code(), StatusCode::kResourceExhausted);
}

TEST(SiteRecordTest, PromotionsPastTheTableAreRefused) {
  // A policy update arrives over the network and may name more sites than
  // the table holds: the runtime refuses the excess and keeps running.
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kEnforcing;
  auto rt = PkruSafeRuntime::Create(std::move(config));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  std::vector<AllocId> sites;
  for (uint32_t s = 0; s <= 64 * 1024; ++s) {
    sites.push_back(AllocId{1, s / 1024, s % 1024});
  }
  const auto result = (*rt)->ApplyPromotions(sites);
  EXPECT_EQ(result.promoted + result.refused, sites.size());
  EXPECT_EQ(result.refused, 1u);
  EXPECT_TRUE((*rt)->IsShared(sites.front()));
  EXPECT_FALSE((*rt)->IsShared(sites.back()));
  void* block = (*rt)->AllocTrusted(sites.front(), 64);
  EXPECT_EQ((*rt)->allocator().OwnerOf(block), Domain::kUntrusted);
  (*rt)->Free(block);
}

}  // namespace
}  // namespace pkrusafe
