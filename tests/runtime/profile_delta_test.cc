#include "src/runtime/profile_delta.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/runtime/profile.h"
#include "src/support/json.h"
#include "src/support/rng.h"
#include "src/telemetry/stream_net.h"
#include "tests/golden_file.h"

namespace pkrusafe {
namespace {

ProfileDelta MakeDelta(std::string epoch, uint64_t ir_hash, uint64_t seq,
                       std::vector<std::pair<AllocId, uint64_t>> entries) {
  ProfileDelta delta(std::move(epoch), ir_hash, seq);
  for (const auto& [id, count] : entries) {
    delta.Add(id, count);
  }
  return delta;
}

TEST(ProfileDeltaTest, BetweenCapturesOnlyGrowth) {
  Profile base;
  base.Add({1, 0, 0}, 5);
  base.Add({2, 0, 0}, 3);
  Profile current;
  current.Add({1, 0, 0}, 9);   // grew by 4
  current.Add({2, 0, 0}, 3);   // unchanged
  current.Add({3, 1, 2}, 1);   // new

  const ProfileDelta delta = ProfileDelta::Between(base, current, "e", 7, 0);
  EXPECT_EQ(delta.site_count(), 2u);
  Profile applied;
  delta.ApplyTo(&applied);
  EXPECT_EQ(applied.CountFor({1, 0, 0}), 4u);
  EXPECT_EQ(applied.CountFor({3, 1, 2}), 1u);
  EXPECT_FALSE(applied.Contains({2, 0, 0}));
}

TEST(ProfileDeltaTest, BetweenIgnoresShrinkage) {
  Profile base;
  base.Add({1, 0, 0}, 5);
  Profile current;  // site vanished
  const ProfileDelta delta = ProfileDelta::Between(base, current, "e", 7, 0);
  EXPECT_TRUE(delta.empty());
}

TEST(ProfileDeltaTest, BinaryRoundTrip) {
  const ProfileDelta delta = MakeDelta(
      "canary-2026-08", 0xdeadbeefcafef00dULL, 42,
      {{{1, 2, 3}, 10}, {{1, 2, 4}, 1}, {{7, 0, 0}, 999999}});
  const std::string bytes = delta.EncodeBinary();
  auto decoded = ProfileDelta::DecodeBinary(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch(), "canary-2026-08");
  EXPECT_EQ(decoded->ir_hash(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(decoded->sequence(), 42u);
  EXPECT_EQ(decoded->entries(), delta.entries());
}

TEST(ProfileDeltaTest, FrameRoundTrip) {
  const ProfileDelta delta =
      MakeDelta("prod", 0x1234, 7, {{{0, 0, 0}, 1}, {{100, 50, 2}, 12}});
  telemetry::FrameDecoder decoder;
  decoder.Feed(telemetry::EncodeFrame(telemetry::FrameType::kProfileDelta, delta.EncodeBinary()));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, telemetry::FrameType::kProfileDelta);
  auto decoded = ProfileDelta::DecodeBinary(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch(), "prod");
  EXPECT_EQ(decoded->ir_hash(), 0x1234u);
  EXPECT_EQ(decoded->sequence(), 7u);
  EXPECT_EQ(decoded->entries(), delta.entries());
}

// The exact bytes a ProfileStreamWriter's file sink writes: a hello frame
// naming the stream by its path, then one kProfileDelta frame per flush.
TEST(ProfileDeltaTest, FrameLogMatchesGolden) {
  const std::string path = ::testing::TempDir() + "/golden_stream.psf";
  const std::string epoch = "canary \"q\" \\ \x01 \xc3\xa9";
  ProfileStreamWriter::Options options;
  options.path = path;
  options.epoch = epoch;
  options.ir_hash = 0xdeadbeefcafef00dULL;
  ProfileStreamWriter writer(std::move(options));
  ASSERT_TRUE(writer.Open().ok());
  Profile profile;
  profile.Add({0, 0, 0}, 1);
  profile.Add({100, 50, 2}, 12);
  ASSERT_TRUE(writer.Flush(profile).ok());
  profile.Add({100, 50, 2}, 3);
  ASSERT_TRUE(writer.Flush(profile).ok());
  writer.Close();

  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string log = bytes.str();

  // The hello carries the (machine-dependent) path, so it is checked field by
  // field; the delta frames after it are pinned byte for byte.
  telemetry::FrameDecoder decoder;
  decoder.Feed(log);
  auto hello = decoder.Next();
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, telemetry::FrameType::kHello);
  auto fields = json::Parse(hello->payload);
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(fields->GetString("kind"), "pkru_safe_hello");
  EXPECT_EQ(fields->GetString("stream"), path);
  EXPECT_EQ(fields->GetString("epoch"), epoch);
  golden::ExpectMatches(log.substr(telemetry::kFrameHeaderSize + hello->payload.size()),
                        "profile_delta.psf");
}

TEST(ProfileDeltaTest, FuzzRoundTrip) {
  SplitMix64 rng(0x5eed);
  for (int round = 0; round < 200; ++round) {
    ProfileDelta delta("fuzz-" + std::to_string(rng.NextBelow(4)),
                       rng.Next(), rng.Next() >> 1);
    const size_t sites = rng.NextBelow(64);
    for (size_t i = 0; i < sites; ++i) {
      const AllocId id{static_cast<uint32_t>(rng.NextBelow(1u << 20)),
                       static_cast<uint32_t>(rng.NextBelow(1u << 10)),
                       static_cast<uint32_t>(rng.NextBelow(1u << 10))};
      delta.Add(id, rng.Next() % 1000 + 1);
    }
    const std::string bytes = delta.EncodeBinary();
    auto decoded = ProfileDelta::DecodeBinary(bytes);
    ASSERT_TRUE(decoded.ok())
        << "round " << round << ": " << decoded.status().ToString();
    EXPECT_EQ(decoded->epoch(), delta.epoch());
    EXPECT_EQ(decoded->ir_hash(), delta.ir_hash());
    EXPECT_EQ(decoded->sequence(), delta.sequence());
    EXPECT_EQ(decoded->entries(), delta.entries());

    telemetry::FrameDecoder decoder;
    decoder.Feed(telemetry::EncodeFrame(telemetry::FrameType::kProfileDelta, bytes));
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.has_value()) << "round " << round;
    EXPECT_EQ(frame->payload, bytes);
  }
}

TEST(ProfileDeltaTest, EveryTruncationIsRejected) {
  const ProfileDelta delta = MakeDelta(
      "epoch", 0xabcdef, 3, {{{1, 2, 3}, 4}, {{5, 6, 7}, 8}, {{5, 6, 9}, 1}});
  const std::string bytes = delta.EncodeBinary();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = ProfileDelta::DecodeBinary(bytes.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
  // ... and any trailing garbage too.
  EXPECT_FALSE(ProfileDelta::DecodeBinary(bytes + '\0').ok());
  EXPECT_FALSE(ProfileDelta::DecodeBinary(bytes + "junk").ok());
}

TEST(ProfileDeltaTest, BadMagicRejected) {
  const std::string bytes = MakeDelta("e", 1, 1, {{{1, 1, 1}, 1}}).EncodeBinary();
  std::string corrupt = bytes;
  corrupt[0] = 'X';
  EXPECT_FALSE(ProfileDelta::DecodeBinary(corrupt).ok());
}

TEST(ProfileDeltaTest, ApplyMatchesProfileMerge) {
  // Folding deltas into a rolling profile must agree exactly with merging the
  // underlying profiles — the aggregator depends on this equivalence.
  SplitMix64 rng(0xfeed);
  Profile rolling_via_deltas;
  Profile rolling_via_merge;
  Profile cumulative;
  Profile last;
  for (int flush = 0; flush < 20; ++flush) {
    Profile growth;
    const size_t sites = rng.NextBelow(10) + 1;
    for (size_t i = 0; i < sites; ++i) {
      const AllocId id{static_cast<uint32_t>(rng.NextBelow(8)),
                       static_cast<uint32_t>(rng.NextBelow(4)),
                       static_cast<uint32_t>(rng.NextBelow(4))};
      growth.Add(id, rng.NextBelow(100) + 1);
    }
    cumulative.Merge(growth);
    rolling_via_merge.Merge(growth);

    const ProfileDelta delta = ProfileDelta::Between(
        last, cumulative, "e", 0, static_cast<uint64_t>(flush));
    delta.ApplyTo(&rolling_via_deltas);
    last = cumulative;
  }
  for (const AllocId& id : rolling_via_merge.Sites()) {
    EXPECT_EQ(rolling_via_deltas.CountFor(id), rolling_via_merge.CountFor(id))
        << id.ToString();
  }
  EXPECT_EQ(rolling_via_deltas.site_count(), rolling_via_merge.site_count());
}

TEST(ProfileDeltaTest, SaturatingApply) {
  Profile rolling;
  rolling.Add({1, 1, 1}, ~uint64_t{0} - 1);
  const ProfileDelta delta = MakeDelta("e", 0, 0, {{{1, 1, 1}, 100}});
  delta.ApplyTo(&rolling);
  EXPECT_EQ(rolling.CountFor({1, 1, 1}), ~uint64_t{0});
}

TEST(ProfileDeltaStreamWriterTest, FlushWritesGrowthOnly) {
  const std::string path = ::testing::TempDir() + "/delta_stream.psf";
  ProfileStreamWriter::Options options;
  options.path = path;
  options.epoch = "test";
  options.ir_hash = 0x42;
  ProfileStreamWriter writer(std::move(options));
  ASSERT_TRUE(writer.Open().ok());

  Profile profile;
  profile.Add({1, 0, 0}, 2);
  ASSERT_TRUE(writer.Flush(profile).ok());
  // No growth: no line.
  ASSERT_TRUE(writer.Flush(profile).ok());
  profile.Add({1, 0, 0}, 1);
  profile.Add({2, 0, 0}, 5);
  ASSERT_TRUE(writer.Flush(profile).ok());
  writer.Close();
  EXPECT_EQ(writer.deltas_written(), 2u);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  telemetry::FrameDecoder decoder;
  decoder.Feed(bytes.str());
  auto hello = decoder.Next();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->type, telemetry::FrameType::kHello);
  std::vector<ProfileDelta> deltas;
  while (auto frame = decoder.Next()) {
    ASSERT_EQ(frame->type, telemetry::FrameType::kProfileDelta);
    auto decoded = ProfileDelta::DecodeBinary(frame->payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    deltas.push_back(*decoded);
  }
  EXPECT_FALSE(decoder.mid_frame());
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].sequence(), 0u);
  EXPECT_EQ(deltas[1].sequence(), 1u);
  Profile rebuilt;
  for (const ProfileDelta& delta : deltas) {
    EXPECT_EQ(delta.epoch(), "test");
    EXPECT_EQ(delta.ir_hash(), 0x42u);
    delta.ApplyTo(&rebuilt);
  }
  EXPECT_EQ(rebuilt.CountFor({1, 0, 0}), 3u);
  EXPECT_EQ(rebuilt.CountFor({2, 0, 0}), 5u);
}

}  // namespace
}  // namespace pkrusafe
