// Per-site heap attribution through the runtime: totals from the site
// records, live blocks from the site tags, the dump format on top.
#include "src/runtime/site_stats.h"

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/runtime.h"
#include "tests/golden_file.h"

namespace pkrusafe {
namespace {

constexpr int kT = SiteTotals::kTrusted;
constexpr int kU = SiteTotals::kUntrusted;

std::unique_ptr<PkruSafeRuntime> MakeRuntime(bool site_stats) {
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kEnforcing;
  config.site_stats = site_stats;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  return std::move(*runtime);
}

// The usable size the runtime's allocator gives a `size`-byte request in
// `domain`, measured outside the runtime so no site counts it.
size_t UsableFor(PkruSafeRuntime& rt, Domain domain, size_t size) {
  void* probe = rt.allocator().Allocate(domain, size);
  const size_t usable = rt.allocator().UsableSize(probe);
  rt.allocator().Free(probe);
  return usable;
}

TEST(SiteAttributionTest, TracksLiveAndTotalPerDomain) {
  auto rt = MakeRuntime(true);
  const AllocId site_a{1, 0, 0};
  const AllocId site_b{2, 0, 0};

  void* first = rt->AllocTrusted(site_a, 100);
  void* second = rt->AllocTrusted(site_a, 50);
  void* shared = rt->AllocUntrusted(site_a, 32);
  const size_t first_usable = rt->allocator().UsableSize(first);
  const size_t second_usable = rt->allocator().UsableSize(second);
  const size_t shared_usable = rt->allocator().UsableSize(shared);
  rt->Free(first);

  // A shrink stays in place; a growth moves the block. Each counts as one
  // allocation of the resulting block.
  void* block = rt->AllocTrusted(site_b, 200);
  const size_t small_usable = rt->allocator().UsableSize(block);
  EXPECT_EQ(rt->Realloc(block, 100), block);
  block = rt->Realloc(block, 5000);
  ASSERT_NE(block, nullptr);
  const size_t grown_usable = rt->allocator().UsableSize(block);
  ASSERT_GT(grown_usable, small_usable);

  const std::vector<SiteTotals> sites = rt->SiteHeapTotals();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].site, site_a);
  EXPECT_EQ(sites[1].site, site_b);
  const SiteTotals& a = sites[0];
  EXPECT_EQ(a.live_bytes[kT], static_cast<int64_t>(second_usable));
  EXPECT_EQ(a.live_objects[kT], 1);
  EXPECT_EQ(a.total_bytes[kT], first_usable + second_usable);
  EXPECT_EQ(a.total_objects[kT], 2u);
  EXPECT_EQ(a.live_bytes[kU], static_cast<int64_t>(shared_usable));
  EXPECT_EQ(a.live_objects[kU], 1);
  EXPECT_EQ(a.total_bytes[kU], shared_usable);
  EXPECT_EQ(a.total_objects[kU], 1u);
  const SiteTotals& b = sites[1];
  EXPECT_EQ(b.live_bytes[kT], static_cast<int64_t>(grown_usable));
  EXPECT_EQ(b.live_objects[kT], 1);
  EXPECT_EQ(b.total_bytes[kT], 2 * small_usable + grown_usable);
  EXPECT_EQ(b.total_objects[kT], 3u);
  EXPECT_EQ(b.total_objects[kU], 0u);

  rt->Free(second);
  rt->Free(shared);
  rt->Free(block);
  const std::vector<SiteTotals> after = rt->SiteHeapTotals();
  ASSERT_EQ(after.size(), 2u);
  for (const SiteTotals& totals : after) {
    EXPECT_EQ(totals.live_bytes[kT] + totals.live_bytes[kU], 0);
    EXPECT_EQ(totals.live_objects[kT] + totals.live_objects[kU], 0);
  }
  EXPECT_EQ(after[1].total_objects[kT], 3u);
}

TEST(SiteAttributionTest, PromotedSiteSplitsAcrossPools) {
  auto rt = MakeRuntime(true);
  const AllocId site{3, 1, 4};
  void* before = rt->AllocTrusted(site, 64);
  const auto promotion = rt->ApplyPromotions({site});
  EXPECT_EQ(promotion.promoted, 1u);
  void* after = rt->AllocTrusted(site, 64);
  EXPECT_EQ(rt->allocator().OwnerOf(before), Domain::kTrusted);
  EXPECT_EQ(rt->allocator().OwnerOf(after), Domain::kUntrusted);

  const std::vector<SiteTotals> sites = rt->SiteHeapTotals();
  ASSERT_EQ(sites.size(), 1u);
  const SiteTotals& totals = sites[0];
  const int64_t usable_t = static_cast<int64_t>(rt->allocator().UsableSize(before));
  const int64_t usable_u = static_cast<int64_t>(rt->allocator().UsableSize(after));
  EXPECT_EQ(totals.live_bytes[kT], usable_t);
  EXPECT_EQ(totals.live_objects[kT], 1);
  EXPECT_EQ(totals.total_objects[kT], 1u);
  EXPECT_EQ(totals.live_bytes[kU], usable_u);
  EXPECT_EQ(totals.live_objects[kU], 1);
  EXPECT_EQ(totals.total_objects[kU], 1u);
  rt->Free(before);
  rt->Free(after);
}

TEST(SiteAttributionTest, ThreadsAtOneSiteCountExactlyWithoutAFlush) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  auto rt = MakeRuntime(true);
  const AllocId site{5, 0, 0};
  const size_t usable = UsableFor(*rt, Domain::kTrusted, 16);

  // Every thread frees half its blocks and then waits, alive, while the
  // totals are read: nothing a thread holds back may be needed.
  std::latch allocated(kThreads);
  std::latch release(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<void*> blocks;
      for (int i = 0; i < kPerThread; ++i) {
        blocks.push_back(rt->AllocTrusted(site, 16));
      }
      for (int i = 0; i < kPerThread / 2; ++i) {
        rt->Free(blocks[i]);
      }
      allocated.count_down();
      release.wait();
      for (int i = kPerThread / 2; i < kPerThread; ++i) {
        rt->Free(blocks[i]);
      }
    });
  }
  allocated.wait();
  const std::vector<SiteTotals> live = rt->SiteHeapTotals();
  release.count_down();
  for (std::thread& thread : threads) {
    thread.join();
  }

  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].live_objects[kT], kThreads * kPerThread / 2);
  EXPECT_EQ(live[0].live_bytes[kT], static_cast<int64_t>(usable) * kThreads * kPerThread / 2);
  EXPECT_EQ(live[0].total_objects[kT], uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(live[0].total_bytes[kT], uint64_t{usable} * kThreads * kPerThread);

  const std::vector<SiteTotals> done = rt->SiteHeapTotals();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].live_objects[kT], 0);
  EXPECT_EQ(done[0].total_objects[kT], uint64_t{kThreads} * kPerThread);
}

TEST(SiteAttributionTest, TopKOrdersByLiveBytesInDomain) {
  auto rt = MakeRuntime(true);
  std::vector<void*> blocks = {
      rt->AllocUntrusted(AllocId{1, 0, 0}, 10),
      rt->AllocUntrusted(AllocId{2, 0, 0}, 300),
      rt->AllocUntrusted(AllocId{3, 0, 0}, 20),
      rt->AllocTrusted(AllocId{4, 0, 0}, 99999),
  };

  const auto top = TopKByLiveBytes(rt->SiteHeapTotals(), 2, kU);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].site, (AllocId{2, 0, 0}));
  EXPECT_EQ(top[1].site, (AllocId{3, 0, 0}));
  for (void* block : blocks) {
    rt->Free(block);
  }
}

TEST(SiteAttributionTest, SwitchOffInEnforceModeTagsNothing) {
  auto rt = MakeRuntime(false);
  void* trusted = rt->AllocTrusted(AllocId{6, 0, 0}, 64);
  void* shared = rt->AllocUntrusted(AllocId{6, 0, 1}, 64);
  EXPECT_EQ(rt->allocator().FindTagged(reinterpret_cast<uintptr_t>(trusted)).tag, 0u);
  EXPECT_EQ(rt->allocator().FindTagged(reinterpret_cast<uintptr_t>(shared)).tag, 0u);
  EXPECT_TRUE(rt->SiteHeapTotals().empty());
  rt->Free(trusted);
  rt->Free(shared);
}

TEST(SiteAttributionTest, JsonRoundTrips) {
  auto rt = MakeRuntime(true);
  void* shared = rt->AllocUntrusted(AllocId{1, 2, 3}, 64);
  void* trusted = rt->AllocTrusted(AllocId{4, 5, 6}, 32);
  const std::vector<SiteTotals> sites = rt->SiteHeapTotals();

  const auto parsed = ParseSiteStatsJson(SiteStatsToJson(sites));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  for (size_t i = 0; i < sites.size(); ++i) {
    const SiteTotals& row = (*parsed)[i];
    EXPECT_EQ(row.site, sites[i].site);
    for (int d = 0; d < 2; ++d) {
      EXPECT_EQ(row.live_bytes[d], sites[i].live_bytes[d]);
      EXPECT_EQ(row.live_objects[d], sites[i].live_objects[d]);
      EXPECT_EQ(row.total_bytes[d], sites[i].total_bytes[d]);
      EXPECT_EQ(row.total_objects[d], sites[i].total_objects[d]);
    }
  }
  EXPECT_EQ((*parsed)[0].site, (AllocId{1, 2, 3}));
  EXPECT_EQ((*parsed)[0].live_bytes[kU], 64);
  EXPECT_EQ((*parsed)[0].live_bytes[kT], 0);
  EXPECT_FALSE(ParseSiteStatsJson(R"({"kind":"pkru_safe_stats","sites":[]})").ok());
  rt->Free(shared);
  rt->Free(trusted);
}

TEST(SiteStatsJsonTest, MatchesGolden) {
  SiteTotals first;
  first.site = AllocId{1, 2, 3};
  first.live_bytes[kU] = 64;
  first.live_objects[kU] = 1;
  first.total_bytes[kU] = 4096;
  first.total_objects[kU] = 9;
  SiteTotals second;
  second.site = AllocId{4, 0, 6};
  second.live_bytes[kT] = -32;
  second.live_objects[kT] = -1;
  second.total_bytes[kT] = 18446744073709551615ull;
  golden::ExpectMatches(SiteStatsToJson({first, second}) + "\n", "site_stats.json");
}

}  // namespace
}  // namespace pkrusafe
