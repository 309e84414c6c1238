#include "src/runtime/site_stats.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/support/json.h"
#include "tests/golden_file.h"

namespace pkrusafe {
namespace {

class SiteHeapStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SiteHeapStats::Global().ResetForTesting();
    SiteHeapStats::Global().SetEnabled(true);
  }
  void TearDown() override {
    SiteHeapStats::Global().SetEnabled(false);
    SiteHeapStats::Global().ResetForTesting();
  }
};

TEST_F(SiteHeapStatsTest, DisabledRecordsNothing) {
  SiteHeapStats& stats = SiteHeapStats::Global();
  stats.SetEnabled(false);
  stats.NoteAlloc(AllocId{1, 1, 1}, SiteHeapStats::kTrusted, 64);
  stats.FlushThisThread();
  EXPECT_TRUE(stats.Snapshot().empty());
}

TEST_F(SiteHeapStatsTest, TracksLiveAndTotalPerDomain) {
  SiteHeapStats& stats = SiteHeapStats::Global();
  const AllocId site{1, 2, 3};
  stats.NoteAlloc(site, SiteHeapStats::kTrusted, 100);
  stats.NoteAlloc(site, SiteHeapStats::kTrusted, 50);
  stats.NoteFree(site, SiteHeapStats::kTrusted, 100);
  stats.NoteAlloc(site, SiteHeapStats::kUntrusted, 32);
  stats.FlushThisThread();

  const auto snapshot = stats.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const auto& totals = snapshot[0];
  EXPECT_EQ(totals.site, site);
  EXPECT_EQ(totals.live_bytes[SiteHeapStats::kTrusted], 50);
  EXPECT_EQ(totals.live_objects[SiteHeapStats::kTrusted], 1);
  EXPECT_EQ(totals.total_bytes[SiteHeapStats::kTrusted], 150u);
  EXPECT_EQ(totals.total_objects[SiteHeapStats::kTrusted], 2u);
  EXPECT_EQ(totals.live_bytes[SiteHeapStats::kUntrusted], 32);
  EXPECT_EQ(totals.total_objects[SiteHeapStats::kUntrusted], 1u);
}

TEST_F(SiteHeapStatsTest, PendingDeltasInvisibleUntilFlush) {
  SiteHeapStats& stats = SiteHeapStats::Global();
  stats.NoteAlloc(AllocId{9, 0, 0}, SiteHeapStats::kTrusted, 8);
  // Below the batch threshold and not flushed: the global table is empty.
  EXPECT_TRUE(stats.Snapshot().empty());
  stats.FlushThisThread();
  ASSERT_EQ(stats.Snapshot().size(), 1u);
}

TEST_F(SiteHeapStatsTest, ManyDistinctSitesSurviveTableOverflow) {
  // More distinct (site, domain) pairs than the 64 TLS slots: overflow must
  // drain, not drop.
  SiteHeapStats& stats = SiteHeapStats::Global();
  constexpr int kSites = 300;
  for (int i = 0; i < kSites; ++i) {
    stats.NoteAlloc(AllocId{static_cast<uint32_t>(i), 0, 0}, SiteHeapStats::kTrusted, 16);
  }
  stats.FlushThisThread();
  const auto snapshot = stats.Snapshot();
  ASSERT_EQ(snapshot.size(), static_cast<size_t>(kSites));
  for (const auto& totals : snapshot) {
    EXPECT_EQ(totals.live_bytes[SiteHeapStats::kTrusted], 16);
  }
}

TEST_F(SiteHeapStatsTest, ThreadsMergeOnExit) {
  SiteHeapStats& stats = SiteHeapStats::Global();
  const AllocId site{7, 7, 7};
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, site] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        stats.NoteAlloc(site, SiteHeapStats::kUntrusted, 8);
      }
      // No explicit flush: the TLS table drains at thread exit.
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto snapshot = stats.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].live_objects[SiteHeapStats::kUntrusted],
            int64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(snapshot[0].total_bytes[SiteHeapStats::kUntrusted],
            uint64_t{kThreads} * kOpsPerThread * 8);
}

TEST_F(SiteHeapStatsTest, TopKOrdersByLiveBytesInDomain) {
  SiteHeapStats& stats = SiteHeapStats::Global();
  stats.NoteAlloc(AllocId{1, 0, 0}, SiteHeapStats::kUntrusted, 10);
  stats.NoteAlloc(AllocId{2, 0, 0}, SiteHeapStats::kUntrusted, 300);
  stats.NoteAlloc(AllocId{3, 0, 0}, SiteHeapStats::kUntrusted, 20);
  stats.NoteAlloc(AllocId{4, 0, 0}, SiteHeapStats::kTrusted, 99999);
  stats.FlushThisThread();

  const auto top = stats.TopKByLiveBytes(2, SiteHeapStats::kUntrusted);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].site, (AllocId{2, 0, 0}));
  EXPECT_EQ(top[1].site, (AllocId{3, 0, 0}));
}

TEST_F(SiteHeapStatsTest, JsonRoundTrips) {
  SiteHeapStats& stats = SiteHeapStats::Global();
  stats.NoteAlloc(AllocId{1, 2, 3}, SiteHeapStats::kUntrusted, 64);
  stats.NoteAlloc(AllocId{4, 5, 6}, SiteHeapStats::kTrusted, 32);
  stats.FlushThisThread();

  const std::string text = SiteStatsToJson(stats.Snapshot());
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << " in: " << text;
  EXPECT_EQ(parsed->GetString("kind"), "pkru_safe_site_stats");
  const json::Value* sites = parsed->Find("sites");
  ASSERT_NE(sites, nullptr);
  ASSERT_EQ(sites->AsArray().size(), 2u);
  const json::Value& first = sites->AsArray()[0];
  EXPECT_EQ(first.GetString("id"), "1:2:3");
  EXPECT_EQ(first.Find("untrusted")->GetInt("live_bytes"), 64);
  EXPECT_EQ(first.Find("trusted")->GetInt("live_bytes"), 0);
}

TEST(SiteStatsJsonTest, MatchesGolden) {
  SiteHeapStats::SiteTotals first;
  first.site = AllocId{1, 2, 3};
  first.live_bytes[SiteHeapStats::kUntrusted] = 64;
  first.live_objects[SiteHeapStats::kUntrusted] = 1;
  first.total_bytes[SiteHeapStats::kUntrusted] = 4096;
  first.total_objects[SiteHeapStats::kUntrusted] = 9;
  SiteHeapStats::SiteTotals second;
  second.site = AllocId{4, 0, 6};
  second.live_bytes[SiteHeapStats::kTrusted] = -32;
  second.live_objects[SiteHeapStats::kTrusted] = -1;
  second.total_bytes[SiteHeapStats::kTrusted] = 18446744073709551615ull;
  golden::ExpectMatches(SiteStatsToJson({first, second}) + "\n", "site_stats.json");
}

}  // namespace
}  // namespace pkrusafe
