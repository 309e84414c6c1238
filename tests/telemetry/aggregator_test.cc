// Incremental aggregation: tail delta streams, fold validated deltas into a
// versioned rolling profile, emit statically-cross-checked promotions.
#include "src/telemetry/aggregator.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/runtime/profile_delta.h"
#include "src/support/string_util.h"

namespace pkrusafe {
namespace telemetry {
namespace {

constexpr AllocId kSharedSite{1, 0, 0};
constexpr AllocId kOtherSite{2, 0, 0};
constexpr AllocId kPoisonSite{66, 6, 6};
constexpr uint64_t kIrHash = 0xfeedface;

std::string TempStream(const char* name) {
  return ::testing::TempDir() + "/" + name + ".jsonl";
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines,
                bool final_newline = true) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  for (size_t i = 0; i < lines.size(); ++i) {
    out << lines[i];
    if (i + 1 < lines.size() || final_newline) {
      out << '\n';
    }
  }
}

void AppendLine(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << line << '\n';
}

std::string DeltaLine(AllocId site, uint64_t count, uint64_t seq,
                      const std::string& epoch = "e1", uint64_t ir_hash = kIrHash) {
  ProfileDelta delta(epoch, ir_hash, seq);
  delta.Add(site, count);
  return delta.ToJsonLine();
}

AggregatorOptions BaseOptions() {
  AggregatorOptions options;
  options.expected_ir_hash = kIrHash;
  options.static_shared.insert(kSharedSite);
  options.static_shared.insert(kOtherSite);
  return options;
}

TEST(AggregatorTest, AppliesDeltasAndPromotes) {
  const std::string path = TempStream("apply");
  WriteLines(path, {DeltaLine(kSharedSite, 2, 0), DeltaLine(kSharedSite, 3, 1)});

  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 5;
  ProfileAggregator aggregator(std::move(options));
  aggregator.AddStream(path);

  std::vector<PromotionCandidate> promotions;
  auto applied = aggregator.Poll(&promotions);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 5u);
  EXPECT_EQ(aggregator.version(), 2u);
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].site, kSharedSite);
  EXPECT_EQ(promotions[0].count, 5u);
  EXPECT_EQ(aggregator.stats().promotions_emitted, 1u);

  // Promotion fires exactly once per site, even as counts keep growing.
  AppendLine(path, DeltaLine(kSharedSite, 10, 2));
  promotions.clear();
  ASSERT_TRUE(aggregator.Poll(&promotions).ok());
  EXPECT_TRUE(promotions.empty());
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 15u);
}

TEST(AggregatorTest, BelowThresholdDoesNotPromote) {
  const std::string path = TempStream("below");
  WriteLines(path, {DeltaLine(kSharedSite, 4, 0)});
  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 5;
  ProfileAggregator aggregator(std::move(options));
  aggregator.AddStream(path);
  std::vector<PromotionCandidate> promotions;
  ASSERT_TRUE(aggregator.Poll(&promotions).ok());
  EXPECT_TRUE(promotions.empty());
}

TEST(AggregatorTest, MinEpochsGatesPromotion) {
  const std::string a = TempStream("epoch_a");
  const std::string b = TempStream("epoch_b");
  WriteLines(a, {DeltaLine(kSharedSite, 10, 0, "canary")});
  WriteLines(b, {DeltaLine(kSharedSite, 10, 0, "prod")});

  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 1;
  options.min_epochs = 2;
  ProfileAggregator aggregator(std::move(options));
  aggregator.AddStream(a);
  std::vector<PromotionCandidate> promotions;
  ASSERT_TRUE(aggregator.Poll(&promotions).ok());
  EXPECT_TRUE(promotions.empty());  // one epoch only

  aggregator.AddStream(b);
  ASSERT_TRUE(aggregator.Poll(&promotions).ok());
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].epochs, 2u);

  // Per-epoch provenance is kept separately.
  EXPECT_EQ(aggregator.EpochNames().size(), 2u);
  ASSERT_NE(aggregator.EpochProfile("canary"), nullptr);
  EXPECT_EQ(aggregator.EpochProfile("canary")->CountFor(kSharedSite), 10u);
  EXPECT_EQ(aggregator.EpochProfile("nope"), nullptr);
}

TEST(AggregatorTest, PoisonedDeltaIsRejectedByStaticBound) {
  // The acceptance-criteria scenario: a crafted stream pushes a site past the
  // threshold that the points-to analysis never allowed. The aggregator must
  // refuse it, bump rejected_static, and diagnose.
  const std::string path = TempStream("poison");
  WriteLines(path, {DeltaLine(kPoisonSite, 1000, 0)});
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(path);
  std::vector<PromotionCandidate> promotions;
  ASSERT_TRUE(aggregator.Poll(&promotions).ok());
  EXPECT_TRUE(promotions.empty());
  EXPECT_GE(aggregator.stats().promotions_rejected_static, 1u);
  bool diagnosed = false;
  for (const auto& finding : aggregator.diagnostics().findings()) {
    if (finding.rule == "promotion-outside-static") {
      diagnosed = true;
    }
  }
  EXPECT_TRUE(diagnosed);
  // The counts still aggregate (for forensics) — only promotion is refused.
  EXPECT_EQ(aggregator.rolling().CountFor(kPoisonSite), 1000u);
}

TEST(AggregatorTest, EmptyStaticBoundRejectsEverything) {
  const std::string path = TempStream("nobound");
  WriteLines(path, {DeltaLine(kSharedSite, 10, 0)});
  AggregatorOptions options;
  options.expected_ir_hash = kIrHash;  // no static_shared: nothing may promote
  ProfileAggregator aggregator(std::move(options));
  aggregator.AddStream(path);
  std::vector<PromotionCandidate> promotions;
  ASSERT_TRUE(aggregator.Poll(&promotions).ok());
  EXPECT_TRUE(promotions.empty());
  EXPECT_EQ(aggregator.stats().promotions_rejected_static, 1u);
}

TEST(AggregatorTest, StaleIrHashRejected) {
  const std::string path = TempStream("stale");
  WriteLines(path, {DeltaLine(kSharedSite, 5, 0, "e1", /*ir_hash=*/0xbad)});
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(path);
  ASSERT_TRUE(aggregator.Poll(nullptr).ok());
  EXPECT_EQ(aggregator.stats().deltas_applied, 0u);
  EXPECT_EQ(aggregator.stats().rejected_hash, 1u);
  EXPECT_TRUE(aggregator.rolling().empty());
  bool diagnosed = false;
  for (const auto& finding : aggregator.diagnostics().findings()) {
    if (finding.rule == "stale-profile-hash") {
      diagnosed = true;
    }
  }
  EXPECT_TRUE(diagnosed);
}

TEST(AggregatorTest, MalformedLinesRejectedOthersStillApply) {
  const std::string path = TempStream("malformed");
  WriteLines(path, {"this is not json", DeltaLine(kSharedSite, 2, 0),
                    "{\"kind\":\"wrong\"}"});
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(path);
  auto applied = aggregator.Poll(nullptr);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(aggregator.stats().rejected_malformed, 2u);
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 2u);
}

TEST(AggregatorTest, ReplayedSequenceRejected) {
  const std::string path = TempStream("replay");
  WriteLines(path, {DeltaLine(kSharedSite, 2, 5), DeltaLine(kSharedSite, 2, 5),
                    DeltaLine(kSharedSite, 2, 4), DeltaLine(kSharedSite, 2, 6)});
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(path);
  auto applied = aggregator.Poll(nullptr);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);  // seq 5 and 6
  EXPECT_EQ(aggregator.stats().rejected_sequence, 2u);
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 4u);
}

TEST(AggregatorTest, SequenceTrackingIsPerStream) {
  const std::string a = TempStream("perstream_a");
  const std::string b = TempStream("perstream_b");
  WriteLines(a, {DeltaLine(kSharedSite, 1, 0)});
  WriteLines(b, {DeltaLine(kOtherSite, 1, 0)});  // same seq, different stream
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(a);
  aggregator.AddStream(b);
  auto applied = aggregator.Poll(nullptr);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  EXPECT_EQ(aggregator.stats().rejected_sequence, 0u);
}

TEST(AggregatorTest, PartialTrailingLineWaitsForCompletion) {
  const std::string path = TempStream("partial");
  const std::string full = DeltaLine(kSharedSite, 3, 0);
  const std::string next = DeltaLine(kSharedSite, 4, 1);
  // First poll sees one complete line plus half of the next (no newline).
  WriteLines(path, {full, next.substr(0, next.size() / 2)},
             /*final_newline=*/false);
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(path);
  auto applied = aggregator.Poll(nullptr);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(aggregator.stats().rejected_malformed, 0u);

  // The writer finishes the line; the next poll picks it up from the offset.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << next.substr(next.size() / 2) << '\n';
  }
  applied = aggregator.Poll(nullptr);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 7u);
  EXPECT_EQ(aggregator.stats().rejected_malformed, 0u);
}

TEST(AggregatorTest, MissingStreamIsNotAnError) {
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(::testing::TempDir() + "/never_written.jsonl");
  auto applied = aggregator.Poll(nullptr);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
}

TEST(AggregatorTest, DuplicateAddStreamIsIdempotent) {
  const std::string path = TempStream("dup");
  WriteLines(path, {DeltaLine(kSharedSite, 1, 0)});
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(path);
  aggregator.AddStream(path);
  auto applied = aggregator.Poll(nullptr);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);  // not double-counted
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 1u);
}

// --- two-way lifecycle: cold-site demotion ---

TEST(AggregatorTest, ColdPromotedSiteDemotesAndRepromotesPastTheFloor) {
  const std::string path = TempStream("demote");
  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 2;
  options.demote_cold_epochs = 2;
  ProfileAggregator aggregator(std::move(options));
  aggregator.AddStream(path);

  // Epoch e1 promotes the site (count 2 >= threshold).
  WriteLines(path, {DeltaLine(kSharedSite, 2, 0, "e1")});
  std::vector<PromotionCandidate> promotions;
  std::vector<DemotionCandidate> demotions;
  ASSERT_TRUE(aggregator.Poll(&promotions, &demotions).ok());
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_TRUE(demotions.empty());

  // Epochs e2, e3 only see the other site: after two cold epochs, demote.
  AppendLine(path, DeltaLine(kOtherSite, 1, 1, "e2"));
  promotions.clear();
  ASSERT_TRUE(aggregator.Poll(&promotions, &demotions).ok());
  EXPECT_TRUE(demotions.empty()) << "one cold epoch is not enough";
  AppendLine(path, DeltaLine(kOtherSite, 1, 2, "e3"));
  ASSERT_TRUE(aggregator.Poll(&promotions, &demotions).ok());
  ASSERT_EQ(demotions.size(), 1u);
  EXPECT_EQ(demotions[0].site, kSharedSite);
  EXPECT_GE(demotions[0].cold_epochs, 2u);
  EXPECT_EQ(aggregator.stats().demotions_emitted, 1u);

  // A demotion is emitted once, not every sweep.
  demotions.clear();
  AppendLine(path, DeltaLine(kOtherSite, 1, 3, "e4"));
  ASSERT_TRUE(aggregator.Poll(&promotions, &demotions).ok());
  EXPECT_TRUE(demotions.empty());

  // Hysteresis: the demoted site re-promotes only after ANOTHER threshold's
  // worth of observations past the count it was demoted at (2 + 2 = 4).
  promotions.clear();
  AppendLine(path, DeltaLine(kSharedSite, 1, 4, "e5"));  // rolling 3 < 4
  ASSERT_TRUE(aggregator.Poll(&promotions, &demotions).ok());
  EXPECT_TRUE(promotions.empty()) << "flapping around the threshold";
  AppendLine(path, DeltaLine(kSharedSite, 1, 5, "e6"));  // rolling 4 >= 4
  ASSERT_TRUE(aggregator.Poll(&promotions, &demotions).ok());
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].site, kSharedSite);
}

TEST(AggregatorTest, BaselineSitesAreNeverDemoted) {
  const std::string path = TempStream("baseline");
  AggregatorOptions options = BaseOptions();
  options.demote_cold_epochs = 1;
  options.baseline.insert(kSharedSite);
  ProfileAggregator aggregator(std::move(options));
  aggregator.AddStream(path);

  WriteLines(path, {DeltaLine(kSharedSite, 1, 0, "e1")});
  std::vector<DemotionCandidate> demotions;
  ASSERT_TRUE(aggregator.Poll(nullptr, &demotions).ok());
  for (int e = 2; e <= 4; ++e) {
    AppendLine(path, DeltaLine(kOtherSite, 1, static_cast<uint64_t>(e - 1),
                               StrFormat("e%d", e)));
    ASSERT_TRUE(aggregator.Poll(nullptr, &demotions).ok());
  }
  EXPECT_TRUE(demotions.empty());
  EXPECT_EQ(aggregator.stats().demotions_emitted, 0u);
  EXPECT_EQ(aggregator.stats().demotions_suppressed_baseline, 1u)
      << "suppression is counted once per site, not per sweep";
}

TEST(AggregatorTest, DemotionDisabledByDefault) {
  const std::string path = TempStream("nodemote");
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(path);
  WriteLines(path, {DeltaLine(kSharedSite, 1, 0, "e1")});
  std::vector<DemotionCandidate> demotions;
  ASSERT_TRUE(aggregator.Poll(nullptr, &demotions).ok());
  for (int e = 2; e <= 6; ++e) {
    AppendLine(path, DeltaLine(kOtherSite, 1, static_cast<uint64_t>(e - 1),
                               StrFormat("e%d", e)));
    ASSERT_TRUE(aggregator.Poll(nullptr, &demotions).ok());
  }
  EXPECT_TRUE(demotions.empty());
}

TEST(AggregatorTest, DemotedSiteLeavesTheExportedPromotedSet) {
  // The artifact's promoted lines are the live set: a site promoted once and
  // demoted after demote_cold_epochs cold epochs must not be exported as
  // promoted, or an enforcement build fed the snapshot would share it again.
  const std::string path = TempStream("demote_export");
  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 2;
  options.demote_cold_epochs = 2;
  ProfileAggregator aggregator(std::move(options));
  aggregator.AddStream(path);

  WriteLines(path, {DeltaLine(kSharedSite, 2, 0, "e1")});
  std::vector<PromotionCandidate> promotions;
  std::vector<DemotionCandidate> demotions;
  ASSERT_TRUE(aggregator.Poll(&promotions, &demotions).ok());
  ASSERT_EQ(promotions.size(), 1u);
  ASSERT_EQ(aggregator.ExportArtifact(kIrHash).promoted.size(), 1u);

  AppendLine(path, DeltaLine(kOtherSite, 1, 1, "e2"));
  AppendLine(path, DeltaLine(kOtherSite, 1, 2, "e3"));
  ASSERT_TRUE(aggregator.Poll(&promotions, &demotions).ok());
  ASSERT_EQ(demotions.size(), 1u);
  ASSERT_EQ(demotions[0].site, kSharedSite);

  const ProfileArtifact artifact = aggregator.ExportArtifact(kIrHash);
  for (const auto& [site, count] : artifact.promoted) {
    EXPECT_NE(site, kSharedSite) << "demoted site exported as promoted (count " << count << ")";
  }
  // The observation history stays in the rolling profile.
  EXPECT_EQ(artifact.profile.CountFor(kSharedSite), 2u);
}

// --- network streams ---

TEST(AggregatorTest, NetworkDeltasValidateExactlyLikeFileLines) {
  ProfileAggregator aggregator(BaseOptions());
  std::vector<PromotionCandidate> promotions;

  ProfileDelta good("e1", kIrHash, 0);
  good.Add(kSharedSite, 3);
  EXPECT_TRUE(aggregator.ConsumeNetworkDelta("tcp:1", good.EncodeBinary(), &promotions));
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 3u);
  ASSERT_EQ(promotions.size(), 1u);

  // Malformed bytes: rejected, no crash, nothing applied.
  EXPECT_FALSE(aggregator.ConsumeNetworkDelta("tcp:1", "not psd1 at all", &promotions));
  EXPECT_EQ(aggregator.stats().rejected_malformed, 1u);

  // Stale hash: rejected with the same diagnostic path as file tailing.
  ProfileDelta stale("e1", kIrHash + 1, 1);
  stale.Add(kSharedSite, 1);
  EXPECT_FALSE(aggregator.ConsumeNetworkDelta("tcp:1", stale.EncodeBinary(), &promotions));
  EXPECT_EQ(aggregator.stats().rejected_hash, 1u);

  // Replayed sequence on the SAME stream: rejected...
  EXPECT_FALSE(aggregator.ConsumeNetworkDelta("tcp:1", good.EncodeBinary(), &promotions));
  EXPECT_EQ(aggregator.stats().rejected_sequence, 1u);
  // ...but a different connection is its own stream, with its own sequence.
  EXPECT_TRUE(aggregator.ConsumeNetworkDelta("tcp:2", good.EncodeBinary(), &promotions));
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 6u);

  bool stale_diagnosed = false;
  for (const auto& finding : aggregator.diagnostics().findings()) {
    if (finding.rule == "stale-profile-hash") {
      stale_diagnosed = true;
    }
  }
  EXPECT_TRUE(stale_diagnosed);
}

TEST(AggregatorTest, NetworkPromotionsRespectTheStaticBound) {
  ProfileAggregator aggregator(BaseOptions());
  std::vector<PromotionCandidate> promotions;
  ProfileDelta poison("e1", kIrHash, 0);
  poison.Add(kPoisonSite, 1000);
  // The delta itself applies (the count is real telemetry) but the promotion
  // is rejected by the static cross-check — same as file streams.
  EXPECT_TRUE(aggregator.ConsumeNetworkDelta("tcp:9", poison.EncodeBinary(), &promotions));
  EXPECT_TRUE(promotions.empty());
  EXPECT_EQ(aggregator.stats().promotions_rejected_static, 1u);
}

TEST(AggregatorTest, ExportRestoreRoundTripSurvivesRestart) {
  // Serve-restart scenario: aggregator A promotes a site and snapshots; a
  // fresh aggregator B restores the snapshot and must carry the rolling
  // counts, epoch provenance, and promoted set forward.
  const std::string path = TempStream("restart_a");
  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 5;
  ProfileAggregator a(options);
  a.AddStream(path);
  WriteLines(path, {DeltaLine(kSharedSite, 6, 0, "e1"), DeltaLine(kOtherSite, 3, 1, "e2")});
  std::vector<PromotionCandidate> promotions;
  ASSERT_TRUE(a.Poll(&promotions).ok());
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].site, kSharedSite);

  const ProfileArtifact snapshot = a.ExportArtifact(kIrHash);
  EXPECT_EQ(snapshot.ir_hash, kIrHash);
  ASSERT_EQ(snapshot.epochs.size(), 2u);
  EXPECT_EQ(snapshot.epochs[0].name, "e1");
  EXPECT_EQ(snapshot.epochs[1].name, "e2");
  ASSERT_EQ(snapshot.promoted.size(), 1u);
  EXPECT_EQ(snapshot.promoted[0].first, kSharedSite);
  EXPECT_EQ(snapshot.promoted[0].second, 6u);

  ProfileAggregator b(options);
  ASSERT_TRUE(b.RestoreFromArtifact(snapshot).ok());
  EXPECT_EQ(b.rolling().CountFor(kSharedSite), 6u);
  EXPECT_EQ(b.rolling().CountFor(kOtherSite), 3u);
  const std::vector<std::string> names = b.EpochNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "e1");
  EXPECT_EQ(names[1], "e2");
  EXPECT_GT(b.version(), 0u);  // consumers see "something changed"

  // The restored promotion is armed but NOT re-emitted: more observations of
  // the already-promoted site produce no new candidate.
  const std::string path_b = TempStream("restart_b");
  b.AddStream(path_b);
  WriteLines(path_b, {DeltaLine(kSharedSite, 10, 0, "e1")});
  promotions.clear();
  ASSERT_TRUE(b.Poll(&promotions).ok());
  EXPECT_TRUE(promotions.empty());
  EXPECT_EQ(b.rolling().CountFor(kSharedSite), 16u);

  // History survives: the near-threshold restored count of kOtherSite (3)
  // crosses with two more observations — no restart-induced reset to zero.
  AppendLine(path_b, DeltaLine(kOtherSite, 2, 1, "e1"));
  promotions.clear();
  ASSERT_TRUE(b.Poll(&promotions).ok());
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].site, kOtherSite);
  EXPECT_EQ(promotions[0].count, 5u);

  // Re-exporting folds the restored provenance back in: epoch e1 now has the
  // restored count plus the live observations.
  const ProfileArtifact again = b.ExportArtifact(kIrHash);
  ASSERT_EQ(again.epochs.size(), 2u);
  EXPECT_EQ(again.epochs[0].name, "e1");
  EXPECT_EQ(again.epochs[0].count, snapshot.epochs[0].count + 12u);
  EXPECT_EQ(again.promoted.size(), 2u);
}

TEST(AggregatorTest, RestoredPromotionColdClockRestartsAtSnapshot) {
  // A restored promoted site must not be demoted the instant the restarted
  // serve sees a couple of fresh epochs less than the cold threshold — its
  // last-seen ordinal is pinned to the snapshot's newest epoch.
  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 1;
  options.demote_cold_epochs = 3;
  ProfileAggregator a(options);
  const std::string path = TempStream("coldclock_a");
  a.AddStream(path);
  WriteLines(path, {DeltaLine(kSharedSite, 5, 0, "e1")});
  std::vector<PromotionCandidate> promotions;
  ASSERT_TRUE(a.Poll(&promotions).ok());
  ASSERT_EQ(promotions.size(), 1u);

  ProfileAggregator b(options);
  ASSERT_TRUE(b.RestoreFromArtifact(a.ExportArtifact(kIrHash)).ok());
  const std::string path_b = TempStream("coldclock_b");
  b.AddStream(path_b);

  // Two new epochs without the site: still within the cold threshold.
  WriteLines(path_b, {DeltaLine(kOtherSite, 1, 0, "e2"), DeltaLine(kOtherSite, 1, 1, "e3")});
  std::vector<DemotionCandidate> demotions;
  ASSERT_TRUE(b.Poll(nullptr, &demotions).ok());
  EXPECT_TRUE(demotions.empty());

  // A third cold epoch crosses it: the restored promotion demotes normally.
  AppendLine(path_b, DeltaLine(kOtherSite, 1, 2, "e4"));
  ASSERT_TRUE(b.Poll(nullptr, &demotions).ok());
  ASSERT_EQ(demotions.size(), 1u);
  EXPECT_EQ(demotions[0].site, kSharedSite);
  EXPECT_EQ(demotions[0].cold_epochs, 3u);
}

TEST(AggregatorTest, RestoreRefusesHashMismatchAndLateRestore) {
  ProfileArtifact artifact;
  artifact.ir_hash = 0xdeadbeef;  // contradicts BaseOptions' kIrHash
  artifact.epochs.push_back({"e1", 1, 1});
  artifact.profile.Add(kSharedSite, 1);
  ProfileAggregator fresh(BaseOptions());
  EXPECT_EQ(fresh.RestoreFromArtifact(artifact).code(), StatusCode::kInvalidArgument);

  // Restore must run before any delta is consumed.
  const std::string path = TempStream("laterestore");
  WriteLines(path, {DeltaLine(kSharedSite, 1, 0)});
  ProfileAggregator late(BaseOptions());
  late.AddStream(path);
  ASSERT_TRUE(late.Poll(nullptr).ok());
  artifact.ir_hash = kIrHash;
  EXPECT_EQ(late.RestoreFromArtifact(artifact).code(), StatusCode::kFailedPrecondition);
}

TEST(AggregatorTest, EpochNamesComeBackInFirstSeenOrder) {
  const std::string path = TempStream("epochorder");
  ProfileAggregator aggregator(BaseOptions());
  aggregator.AddStream(path);
  // Alphabetically descending epoch names: first-seen order must win.
  WriteLines(path, {DeltaLine(kSharedSite, 1, 0, "zeta"), DeltaLine(kSharedSite, 1, 1, "alpha"),
                    DeltaLine(kSharedSite, 1, 2, "mid")});
  ASSERT_TRUE(aggregator.Poll(nullptr).ok());
  const std::vector<std::string> names = aggregator.EpochNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "zeta");
  EXPECT_EQ(names[1], "alpha");
  EXPECT_EQ(names[2], "mid");
}

}  // namespace
}  // namespace telemetry
}  // namespace pkrusafe
