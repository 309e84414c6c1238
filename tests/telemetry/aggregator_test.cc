// Incremental aggregation: drain frame logs, fold validated deltas into a
// versioned rolling profile, emit statically-cross-checked promotions.
#include "src/telemetry/aggregator.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/runtime/profile_delta.h"
#include "src/support/string_util.h"
#include "src/telemetry/stream_net.h"

namespace pkrusafe {
namespace telemetry {
namespace {

constexpr AllocId kSharedSite{1, 0, 0};
constexpr AllocId kOtherSite{2, 0, 0};
constexpr AllocId kPoisonSite{66, 6, 6};
constexpr uint64_t kIrHash = 0xfeedface;

std::string TempStream(const char* name) {
  return ::testing::TempDir() + "/" + name + ".psf";
}

// Writes a frame log: the concatenated frames, as a producer's file sink
// writes them.
void WriteFrames(const std::string& path, const std::vector<std::string>& frames) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  for (const std::string& frame : frames) {
    out << frame;
  }
}

void AppendFrame(const std::string& path, const std::string& frame) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  out << frame;
}

std::string DeltaFrame(AllocId site, uint64_t count, uint64_t seq,
                       const std::string& epoch = "e1", uint64_t ir_hash = kIrHash) {
  ProfileDelta delta(epoch, ir_hash, seq);
  delta.Add(site, count);
  return EncodeFrame(FrameType::kProfileDelta, delta.EncodeBinary());
}

// One round of the `profile_tool` ingest loop over frame logs: drain what
// the files gained, then sweep for cold sites. Returns the deltas applied.
size_t Poll(FrameIngest& files, ProfileAggregator& aggregator,
            std::vector<PromotionCandidate>* promotions,
            std::vector<DemotionCandidate>* demotions = nullptr) {
  const uint64_t before = aggregator.stats().deltas_applied;
  files.PollFiles(promotions);
  aggregator.CollectDemotions(demotions);
  return aggregator.stats().deltas_applied - before;
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
  WriteFrames(path, {DeltaFrame(kSharedSite, 2, 0), DeltaFrame(kSharedSite, 3, 1)});

  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 5;
  ProfileAggregator aggregator(std::move(options));
  FrameIngest files(&aggregator);
  files.AddFile(path);

  std::vector<PromotionCandidate> promotions;
  size_t applied = Poll(files, aggregator, &promotions);
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 5u);
  EXPECT_EQ(aggregator.version(), 2u);
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].site, kSharedSite);
  EXPECT_EQ(promotions[0].count, 5u);
  EXPECT_EQ(aggregator.stats().promotions_emitted, 1u);

  // Promotion fires exactly once per site, even as counts keep growing.
  AppendFrame(path, DeltaFrame(kSharedSite, 10, 2));
  promotions.clear();
  Poll(files, aggregator, &promotions);
  EXPECT_TRUE(promotions.empty());
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 15u);
}

TEST(AggregatorTest, BelowThresholdDoesNotPromote) {
  const std::string path = TempStream("below");
  WriteFrames(path, {DeltaFrame(kSharedSite, 4, 0)});
  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 5;
  ProfileAggregator aggregator(std::move(options));
  FrameIngest files(&aggregator);
  files.AddFile(path);
  std::vector<PromotionCandidate> promotions;
  Poll(files, aggregator, &promotions);
  EXPECT_TRUE(promotions.empty());
}

TEST(AggregatorTest, MinEpochsGatesPromotion) {
  const std::string a = TempStream("epoch_a");
  const std::string b = TempStream("epoch_b");
  WriteFrames(a, {DeltaFrame(kSharedSite, 10, 0, "canary")});
  WriteFrames(b, {DeltaFrame(kSharedSite, 10, 0, "prod")});

  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 1;
  options.min_epochs = 2;
  ProfileAggregator aggregator(std::move(options));
  FrameIngest files(&aggregator);
  files.AddFile(a);
  std::vector<PromotionCandidate> promotions;
  Poll(files, aggregator, &promotions);
  EXPECT_TRUE(promotions.empty());  // one epoch only

  files.AddFile(b);
  Poll(files, aggregator, &promotions);
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
  WriteFrames(path, {DeltaFrame(kPoisonSite, 1000, 0)});
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(path);
  std::vector<PromotionCandidate> promotions;
  Poll(files, aggregator, &promotions);
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
  WriteFrames(path, {DeltaFrame(kSharedSite, 10, 0)});
  AggregatorOptions options;
  options.expected_ir_hash = kIrHash;  // no static_shared: nothing may promote
  ProfileAggregator aggregator(std::move(options));
  FrameIngest files(&aggregator);
  files.AddFile(path);
  std::vector<PromotionCandidate> promotions;
  Poll(files, aggregator, &promotions);
  EXPECT_TRUE(promotions.empty());
  EXPECT_EQ(aggregator.stats().promotions_rejected_static, 1u);
}

TEST(AggregatorTest, StaleIrHashRejected) {
  const std::string path = TempStream("stale");
  WriteFrames(path, {DeltaFrame(kSharedSite, 5, 0, "e1", /*ir_hash=*/0xbad)});
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(path);
  Poll(files, aggregator, nullptr);
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
  // Two well-framed payloads that are not PSD1 deltas are rejected; garbage
  // between frames is skipped by the decoder's resync. The good delta
  // applies either way.
  const std::string path = TempStream("malformed");
  WriteFrames(path, {EncodeFrame(FrameType::kProfileDelta, "this is not psd1"), "garbage",
                     DeltaFrame(kSharedSite, 2, 0),
                     EncodeFrame(FrameType::kProfileDelta, "{\"kind\":\"wrong\"}")});
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(path);
  size_t applied = Poll(files, aggregator, nullptr);
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(aggregator.stats().rejected_malformed, 2u);
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 2u);
  EXPECT_EQ(files.file_decoder_stats().bad_magic, 7u);  // "garbage"
  EXPECT_EQ(files.stats().frames, 3u);
}

TEST(AggregatorTest, ReplayedSequenceRejected) {
  const std::string path = TempStream("replay");
  WriteFrames(path, {DeltaFrame(kSharedSite, 2, 5), DeltaFrame(kSharedSite, 2, 5),
                    DeltaFrame(kSharedSite, 2, 4), DeltaFrame(kSharedSite, 2, 6)});
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(path);
  size_t applied = Poll(files, aggregator, nullptr);
  EXPECT_EQ(applied, 2u);  // seq 5 and 6
  EXPECT_EQ(aggregator.stats().rejected_sequence, 2u);
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 4u);
}

TEST(AggregatorTest, SequenceTrackingIsPerStream) {
  const std::string a = TempStream("perstream_a");
  const std::string b = TempStream("perstream_b");
  WriteFrames(a, {DeltaFrame(kSharedSite, 1, 0)});
  WriteFrames(b, {DeltaFrame(kOtherSite, 1, 0)});  // same seq, different stream
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(a);
  files.AddFile(b);
  size_t applied = Poll(files, aggregator, nullptr);
  EXPECT_EQ(applied, 2u);
  EXPECT_EQ(aggregator.stats().rejected_sequence, 0u);
}

TEST(AggregatorTest, PartialTrailingLineWaitsForCompletion) {
  const std::string path = TempStream("partial");
  const std::string full = DeltaFrame(kSharedSite, 3, 0);
  const std::string next = DeltaFrame(kSharedSite, 4, 1);
  // First poll sees one complete frame plus half of the next.
  WriteFrames(path, {full, next.substr(0, next.size() / 2)});
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(path);
  size_t applied = Poll(files, aggregator, nullptr);
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(aggregator.stats().rejected_malformed, 0u);
  EXPECT_EQ(files.stats().torn, 1u) << "a frame log ending mid-frame reads as torn";

  // The writer finishes the frame; the next poll picks it up from the offset.
  AppendFrame(path, next.substr(next.size() / 2));
  applied = Poll(files, aggregator, nullptr);
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 7u);
  EXPECT_EQ(aggregator.stats().rejected_malformed, 0u);
  EXPECT_EQ(files.stats().torn, 0u);
  const FrameDecoder::Stats decoder = files.file_decoder_stats();
  EXPECT_EQ(decoder.bad_magic + decoder.bad_crc, 0u);
}

TEST(AggregatorTest, MissingStreamIsNotAnError) {
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(::testing::TempDir() + "/never_written.psf");
  size_t applied = Poll(files, aggregator, nullptr);
  EXPECT_EQ(applied, 0u);
  EXPECT_EQ(files.stats().frames, 0u);
  EXPECT_EQ(files.stats().torn, 0u);
}

TEST(AggregatorTest, DuplicateFileIsOneSource) {
  const std::string path = TempStream("dup");
  WriteFrames(path, {DeltaFrame(kSharedSite, 1, 0)});
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(path);
  files.AddFile(path);
  size_t applied = Poll(files, aggregator, nullptr);
  EXPECT_EQ(applied, 1u);  // not double-counted
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 1u);
  EXPECT_EQ(aggregator.stats().rejected_sequence, 0u);
}

// --- stream naming ---

std::string HelloFrame(const std::string& stream) {
  std::string payload = R"({"kind":"pkru_safe_hello",)";
  if (!stream.empty()) {
    payload += R"("stream":")" + stream + R"(",)";
  }
  payload += R"("epoch":"e1"})";
  return EncodeFrame(FrameType::kHello, payload);
}

Frame Decoded(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes);
  return *decoder.Next();
}

TEST(AggregatorTest, HelloNamesTheStreamForFilesAndSockets) {
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest ingest(&aggregator);
  // A frame log whose hello names it: diagnostics use the hello's name.
  const std::string path = TempStream("named");
  WriteFrames(path, {HelloFrame("host-a.psf"), DeltaFrame(kSharedSite, 1, 0, "e1", 0xbad)});
  ingest.AddFile(path);
  ingest.PollFiles(nullptr);
  // A socket without a hello is named by its connection.
  ingest.Handle("tcp:7", Decoded(DeltaFrame(kSharedSite, 1, 0, "e1", 0xbad)), nullptr);
  ASSERT_EQ(aggregator.diagnostics().findings().size(), 2u);
  EXPECT_NE(aggregator.diagnostics().findings()[0].message.find("host-a.psf:"), std::string::npos)
      << aggregator.diagnostics().findings()[0].message;
  EXPECT_NE(aggregator.diagnostics().findings()[1].message.find("tcp:7:"), std::string::npos)
      << aggregator.diagnostics().findings()[1].message;
  EXPECT_EQ(ingest.stats().frames, 3u);
}

TEST(AggregatorTest, ProducersWithoutAStreamNameKeepTheirOwnSequences) {
  // A socket-only producer's hello names no stream, so each connection is its
  // own stream: two producers that both start at sequence 0 both apply.
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest ingest(&aggregator);
  for (const char* source : {"tcp:1", "tcp:2"}) {
    ingest.Handle(source, Decoded(HelloFrame("")), nullptr);
    ingest.Handle(source, Decoded(DeltaFrame(kSharedSite, 1, 0)), nullptr);
  }
  EXPECT_EQ(aggregator.stats().deltas_applied, 2u);
  EXPECT_EQ(aggregator.stats().rejected_sequence, 0u);
  EXPECT_EQ(ingest.stream_count(), 2u);

  // Sampler rows are counted, and a connection that drops mid-frame is torn.
  ingest.Handle("tcp:1", Decoded(EncodeFrame(FrameType::kSamplerRow, "{}")), nullptr);
  ingest.Close("tcp:1", /*mid_frame=*/true);
  ingest.Close("tcp:2", /*mid_frame=*/false);
  EXPECT_EQ(ingest.stats().sampler_rows, 1u);
  EXPECT_EQ(ingest.stats().torn, 1u);
}

// --- two-way lifecycle: cold-site demotion ---

TEST(AggregatorTest, ColdPromotedSiteDemotesAndRepromotesPastTheFloor) {
  const std::string path = TempStream("demote");
  AggregatorOptions options = BaseOptions();
  options.promotion_threshold = 2;
  options.demote_cold_epochs = 2;
  ProfileAggregator aggregator(std::move(options));
  FrameIngest files(&aggregator);
  files.AddFile(path);

  // Epoch e1 promotes the site (count 2 >= threshold).
  WriteFrames(path, {DeltaFrame(kSharedSite, 2, 0, "e1")});
  std::vector<PromotionCandidate> promotions;
  std::vector<DemotionCandidate> demotions;
  Poll(files, aggregator, &promotions, &demotions);
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_TRUE(demotions.empty());

  // Epochs e2, e3 only see the other site: after two cold epochs, demote.
  AppendFrame(path, DeltaFrame(kOtherSite, 1, 1, "e2"));
  promotions.clear();
  Poll(files, aggregator, &promotions, &demotions);
  EXPECT_TRUE(demotions.empty()) << "one cold epoch is not enough";
  AppendFrame(path, DeltaFrame(kOtherSite, 1, 2, "e3"));
  Poll(files, aggregator, &promotions, &demotions);
  ASSERT_EQ(demotions.size(), 1u);
  EXPECT_EQ(demotions[0].site, kSharedSite);
  EXPECT_GE(demotions[0].cold_epochs, 2u);
  EXPECT_EQ(aggregator.stats().demotions_emitted, 1u);

  // A demotion is emitted once, not every sweep.
  demotions.clear();
  AppendFrame(path, DeltaFrame(kOtherSite, 1, 3, "e4"));
  Poll(files, aggregator, &promotions, &demotions);
  EXPECT_TRUE(demotions.empty());

  // Hysteresis: the demoted site re-promotes only after ANOTHER threshold's
  // worth of observations past the count it was demoted at (2 + 2 = 4).
  promotions.clear();
  AppendFrame(path, DeltaFrame(kSharedSite, 1, 4, "e5"));  // rolling 3 < 4
  Poll(files, aggregator, &promotions, &demotions);
  EXPECT_TRUE(promotions.empty()) << "flapping around the threshold";
  AppendFrame(path, DeltaFrame(kSharedSite, 1, 5, "e6"));  // rolling 4 >= 4
  Poll(files, aggregator, &promotions, &demotions);
  ASSERT_EQ(promotions.size(), 1u);
  EXPECT_EQ(promotions[0].site, kSharedSite);
}

TEST(AggregatorTest, BaselineSitesAreNeverDemoted) {
  const std::string path = TempStream("baseline");
  AggregatorOptions options = BaseOptions();
  options.demote_cold_epochs = 1;
  options.baseline.insert(kSharedSite);
  ProfileAggregator aggregator(std::move(options));
  FrameIngest files(&aggregator);
  files.AddFile(path);

  WriteFrames(path, {DeltaFrame(kSharedSite, 1, 0, "e1")});
  std::vector<DemotionCandidate> demotions;
  Poll(files, aggregator, nullptr, &demotions);
  for (int e = 2; e <= 4; ++e) {
    AppendFrame(path, DeltaFrame(kOtherSite, 1, static_cast<uint64_t>(e - 1),
                               StrFormat("e%d", e)));
    Poll(files, aggregator, nullptr, &demotions);
  }
  EXPECT_TRUE(demotions.empty());
  EXPECT_EQ(aggregator.stats().demotions_emitted, 0u);
  EXPECT_EQ(aggregator.stats().demotions_suppressed_baseline, 1u)
      << "suppression is counted once per site, not per sweep";
}

TEST(AggregatorTest, DemotionDisabledByDefault) {
  const std::string path = TempStream("nodemote");
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(path);
  WriteFrames(path, {DeltaFrame(kSharedSite, 1, 0, "e1")});
  std::vector<DemotionCandidate> demotions;
  Poll(files, aggregator, nullptr, &demotions);
  for (int e = 2; e <= 6; ++e) {
    AppendFrame(path, DeltaFrame(kOtherSite, 1, static_cast<uint64_t>(e - 1),
                               StrFormat("e%d", e)));
    Poll(files, aggregator, nullptr, &demotions);
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
  FrameIngest files(&aggregator);
  files.AddFile(path);

  WriteFrames(path, {DeltaFrame(kSharedSite, 2, 0, "e1")});
  std::vector<PromotionCandidate> promotions;
  std::vector<DemotionCandidate> demotions;
  Poll(files, aggregator, &promotions, &demotions);
  ASSERT_EQ(promotions.size(), 1u);
  ASSERT_EQ(aggregator.ExportArtifact(kIrHash).promoted.size(), 1u);

  AppendFrame(path, DeltaFrame(kOtherSite, 1, 1, "e2"));
  AppendFrame(path, DeltaFrame(kOtherSite, 1, 2, "e3"));
  Poll(files, aggregator, &promotions, &demotions);
  ASSERT_EQ(demotions.size(), 1u);
  ASSERT_EQ(demotions[0].site, kSharedSite);

  const ProfileArtifact artifact = aggregator.ExportArtifact(kIrHash);
  for (const auto& [site, count] : artifact.promoted) {
    EXPECT_NE(site, kSharedSite) << "demoted site exported as promoted (count " << count << ")";
  }
  // The observation history stays in the rolling profile.
  EXPECT_EQ(artifact.profile.CountFor(kSharedSite), 2u);
}

// --- deltas by stream name ---

TEST(AggregatorTest, NetworkDeltasValidateExactlyLikeFileLines) {
  // Socket and file sources reach the same ConsumeDelta.
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  std::vector<PromotionCandidate> promotions;

  ProfileDelta good("e1", kIrHash, 0);
  good.Add(kSharedSite, 3);
  EXPECT_TRUE(aggregator.ConsumeDelta("tcp:1", good.EncodeBinary(), &promotions));
  EXPECT_EQ(aggregator.rolling().CountFor(kSharedSite), 3u);
  ASSERT_EQ(promotions.size(), 1u);

  // Malformed bytes: rejected, no crash, nothing applied.
  EXPECT_FALSE(aggregator.ConsumeDelta("tcp:1", "not psd1 at all", &promotions));
  EXPECT_EQ(aggregator.stats().rejected_malformed, 1u);

  // Stale hash: rejected with a stale-profile-hash diagnostic.
  ProfileDelta stale("e1", kIrHash + 1, 1);
  stale.Add(kSharedSite, 1);
  EXPECT_FALSE(aggregator.ConsumeDelta("tcp:1", stale.EncodeBinary(), &promotions));
  EXPECT_EQ(aggregator.stats().rejected_hash, 1u);

  // Replayed sequence on the SAME stream: rejected...
  EXPECT_FALSE(aggregator.ConsumeDelta("tcp:1", good.EncodeBinary(), &promotions));
  EXPECT_EQ(aggregator.stats().rejected_sequence, 1u);
  // ...but a different connection is its own stream, with its own sequence.
  EXPECT_TRUE(aggregator.ConsumeDelta("tcp:2", good.EncodeBinary(), &promotions));
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
  FrameIngest files(&aggregator);
  std::vector<PromotionCandidate> promotions;
  ProfileDelta poison("e1", kIrHash, 0);
  poison.Add(kPoisonSite, 1000);
  // The delta itself applies (the count is real telemetry) but the promotion
  // is rejected by the static cross-check.
  EXPECT_TRUE(aggregator.ConsumeDelta("tcp:9", poison.EncodeBinary(), &promotions));
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
  FrameIngest files_a(&a);
  files_a.AddFile(path);
  WriteFrames(path, {DeltaFrame(kSharedSite, 6, 0, "e1"), DeltaFrame(kOtherSite, 3, 1, "e2")});
  std::vector<PromotionCandidate> promotions;
  Poll(files_a, a, &promotions);
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
  FrameIngest files_b(&b);
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
  files_b.AddFile(path_b);
  WriteFrames(path_b, {DeltaFrame(kSharedSite, 10, 0, "e1")});
  promotions.clear();
  Poll(files_b, b, &promotions);
  EXPECT_TRUE(promotions.empty());
  EXPECT_EQ(b.rolling().CountFor(kSharedSite), 16u);

  // History survives: the near-threshold restored count of kOtherSite (3)
  // crosses with two more observations — no restart-induced reset to zero.
  AppendFrame(path_b, DeltaFrame(kOtherSite, 2, 1, "e1"));
  promotions.clear();
  Poll(files_b, b, &promotions);
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
  FrameIngest files_a(&a);
  const std::string path = TempStream("coldclock_a");
  files_a.AddFile(path);
  WriteFrames(path, {DeltaFrame(kSharedSite, 5, 0, "e1")});
  std::vector<PromotionCandidate> promotions;
  Poll(files_a, a, &promotions);
  ASSERT_EQ(promotions.size(), 1u);

  ProfileAggregator b(options);
  FrameIngest files_b(&b);
  ASSERT_TRUE(b.RestoreFromArtifact(a.ExportArtifact(kIrHash)).ok());
  const std::string path_b = TempStream("coldclock_b");
  files_b.AddFile(path_b);

  // Two new epochs without the site: still within the cold threshold.
  WriteFrames(path_b, {DeltaFrame(kOtherSite, 1, 0, "e2"), DeltaFrame(kOtherSite, 1, 1, "e3")});
  std::vector<DemotionCandidate> demotions;
  Poll(files_b, b, nullptr, &demotions);
  EXPECT_TRUE(demotions.empty());

  // A third cold epoch crosses it: the restored promotion demotes normally.
  AppendFrame(path_b, DeltaFrame(kOtherSite, 1, 2, "e4"));
  Poll(files_b, b, nullptr, &demotions);
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
  WriteFrames(path, {DeltaFrame(kSharedSite, 1, 0)});
  ProfileAggregator late(BaseOptions());
  FrameIngest files(&late);
  files.AddFile(path);
  Poll(files, late, nullptr);
  artifact.ir_hash = kIrHash;
  EXPECT_EQ(late.RestoreFromArtifact(artifact).code(), StatusCode::kFailedPrecondition);
}

TEST(AggregatorTest, EpochNamesComeBackInFirstSeenOrder) {
  const std::string path = TempStream("epochorder");
  ProfileAggregator aggregator(BaseOptions());
  FrameIngest files(&aggregator);
  files.AddFile(path);
  // Alphabetically descending epoch names: first-seen order must win.
  WriteFrames(path, {DeltaFrame(kSharedSite, 1, 0, "zeta"), DeltaFrame(kSharedSite, 1, 1, "alpha"),
                    DeltaFrame(kSharedSite, 1, 2, "mid")});
  Poll(files, aggregator, nullptr);
  const std::vector<std::string> names = aggregator.EpochNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "zeta");
  EXPECT_EQ(names[1], "alpha");
  EXPECT_EQ(names[2], "mid");
}

}  // namespace
}  // namespace telemetry
}  // namespace pkrusafe
