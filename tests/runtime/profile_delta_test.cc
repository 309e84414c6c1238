#include "src/runtime/profile_delta.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/runtime/profile.h"
#include "src/support/rng.h"
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

TEST(ProfileDeltaTest, JsonLineRoundTrip) {
  const ProfileDelta delta =
      MakeDelta("prod", 0x1234, 7, {{{0, 0, 0}, 1}, {{100, 50, 2}, 12}});
  const std::string line = delta.ToJsonLine();
  auto decoded = ProfileDelta::FromJsonLine(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch(), "prod");
  EXPECT_EQ(decoded->ir_hash(), 0x1234u);
  EXPECT_EQ(decoded->sequence(), 7u);
  EXPECT_EQ(decoded->entries(), delta.entries());
}

TEST(ProfileDeltaTest, JsonLineMatchesGolden) {
  const ProfileDelta delta = MakeDelta("canary \"q\" \\ \x01 \xc3\xa9", 0xdeadbeefcafef00dULL, 42,
                                       {{{0, 0, 0}, 1}, {{100, 50, 2}, 12}});
  golden::ExpectMatches(delta.ToJsonLine() + "\n", "profile_delta.jsonl");
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

    auto from_json = ProfileDelta::FromJsonLine(delta.ToJsonLine());
    ASSERT_TRUE(from_json.ok())
        << "round " << round << ": " << from_json.status().ToString();
    EXPECT_EQ(from_json->entries(), delta.entries());
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

TEST(ProfileDeltaTest, JsonHeaderMismatchRejected) {
  const ProfileDelta delta = MakeDelta("prod", 0x1111, 9, {{{1, 1, 1}, 1}});
  const std::string line = delta.ToJsonLine();

  // Rewriting the header's seq without re-encoding the payload must fail the
  // cross-check: an aggregator cannot be fooled by header-only tampering.
  std::string tampered = line;
  const size_t pos = tampered.find("\"seq\":9");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 8, "\"seq\":10");
  EXPECT_FALSE(ProfileDelta::FromJsonLine(tampered).ok());

  std::string bad_hash = line;
  const size_t hash_pos = bad_hash.find("0x0000000000001111");
  ASSERT_NE(hash_pos, std::string::npos);
  bad_hash.replace(hash_pos, 18, "0x0000000000002222");
  EXPECT_FALSE(ProfileDelta::FromJsonLine(bad_hash).ok());

  EXPECT_FALSE(ProfileDelta::FromJsonLine("{}").ok());
  EXPECT_FALSE(ProfileDelta::FromJsonLine("not json at all").ok());
  EXPECT_FALSE(
      ProfileDelta::FromJsonLine("{\"kind\":\"something_else\",\"v\":1}").ok());
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
  const std::string path = ::testing::TempDir() + "/delta_stream.jsonl";
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

  std::ifstream in(path);
  std::string line;
  std::vector<ProfileDelta> deltas;
  while (std::getline(in, line)) {
    auto decoded = ProfileDelta::FromJsonLine(line);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    deltas.push_back(*decoded);
  }
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

// --- short-write / backpressure regression ---
//
// The sink is a non-blocking pipe the test controls, so writes can be forced
// short (partial line out) or refused outright (EAGAIN). The writer must
// never leave a torn JSONL line at rest: a partially-written line's tail
// stays pending and completes on a later flush, and overflow drops only
// whole not-yet-started lines.

struct PipePair {
  int read_fd = -1;
  int write_fd = -1;
};

PipePair NonBlockingPipe() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe2(fds, O_NONBLOCK), 0);
  return {fds[0], fds[1]};
}

// Fills the pipe to capacity, then frees exactly `slack` bytes.
void FillPipeLeaving(const PipePair& pipe, size_t slack) {
  std::string chunk(4096, 'x');
  while (::write(pipe.write_fd, chunk.data(), chunk.size()) > 0) {
  }
  for (char byte = 'x'; ::write(pipe.write_fd, &byte, 1) == 1;) {
  }
  std::vector<char> out(slack);
  size_t freed = 0;
  while (freed < slack) {
    const ssize_t n = ::read(pipe.read_fd, out.data(), slack - freed);
    ASSERT_GT(n, 0);
    freed += static_cast<size_t>(n);
  }
}

std::string DrainPipe(int read_fd) {
  std::string out;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(read_fd, buffer, sizeof(buffer))) > 0) {
    out.append(buffer, static_cast<size_t>(n));
  }
  return out;
}

// A profile big enough that its delta line exceeds PIPE_BUF (4096), so a
// non-blocking write into a nearly-full pipe is SHORT rather than atomic.
Profile WideProfile(uint64_t base_count) {
  Profile profile;
  for (uint32_t f = 1; f <= 700; ++f) {
    profile.Add({f, 0, 0}, base_count);
  }
  return profile;
}

TEST(ProfileDeltaStreamWriterTest, ShortWriteNeverLeavesTornLine) {
  const PipePair pipe = NonBlockingPipe();
  ProfileStreamWriter::Options options;
  options.adopt_fd = pipe.write_fd;
  options.epoch = "torn";
  options.ir_hash = 0x7;
  ProfileStreamWriter writer(std::move(options));
  ASSERT_TRUE(writer.Open().ok());

  // Leave 1000 bytes of room: the first line (~>4 KiB) only partially fits.
  FillPipeLeaving(pipe, 1000);
  ASSERT_TRUE(writer.Flush(WideProfile(1)).ok());
  EXPECT_EQ(writer.deltas_written(), 1u);
  EXPECT_GT(writer.pending_bytes(), 0u) << "the unwritten tail must stay pending";

  // Drain the filler plus whatever prefix landed; the data at rest ends
  // mid-line right now — that is fine for a PIPE, the invariant is that the
  // writer still holds the tail and completes the line.
  std::string received = DrainPipe(pipe.read_fd);

  // An empty flush drives the deferred tail out.
  for (int i = 0; i < 10 && writer.pending_bytes() > 0; ++i) {
    ASSERT_TRUE(writer.Flush(WideProfile(1)).ok());
    received += DrainPipe(pipe.read_fd);
  }
  EXPECT_EQ(writer.pending_bytes(), 0u);
  EXPECT_EQ(writer.lines_dropped(), 0u);

  // Strip the filler 'x' bytes; everything after must be exactly one
  // complete, parseable line.
  const size_t start = received.find_first_not_of('x');
  ASSERT_NE(start, std::string::npos);
  std::string lines = received.substr(start);
  ASSERT_FALSE(lines.empty());
  ASSERT_EQ(lines.back(), '\n');
  lines.pop_back();
  ASSERT_EQ(lines.find('\n'), std::string::npos);
  auto decoded = ProfileDelta::FromJsonLine(lines);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->site_count(), 700u);

  writer.Close();
  ::close(pipe.read_fd);
}

TEST(ProfileDeltaStreamWriterTest, OverflowDropsWholeLinesNeverTheStartedOne) {
  const PipePair pipe = NonBlockingPipe();
  ProfileStreamWriter::Options options;
  options.adopt_fd = pipe.write_fd;
  options.epoch = "drop";
  options.ir_hash = 0x7;
  options.max_pending_bytes = 16 * 1024;  // a few wide lines at most
  ProfileStreamWriter writer(std::move(options));
  ASSERT_TRUE(writer.Open().ok());

  // Start a line (short write), then keep flushing growth with the pipe full
  // so pending overflows and whole lines drop.
  FillPipeLeaving(pipe, 500);
  for (uint64_t round = 1; round <= 8; ++round) {
    ASSERT_TRUE(writer.Flush(WideProfile(round)).ok());
  }
  EXPECT_GT(writer.lines_dropped(), 0u);
  EXPECT_LE(writer.pending_bytes(), 16u * 1024u);
  EXPECT_EQ(writer.deltas_written(), 8u) << "acceptance is decoupled from delivery";

  std::string received = DrainPipe(pipe.read_fd);
  for (int i = 0; i < 20 && writer.pending_bytes() > 0; ++i) {
    ASSERT_TRUE(writer.Flush(WideProfile(8)).ok());
    received += DrainPipe(pipe.read_fd);
  }
  EXPECT_EQ(writer.pending_bytes(), 0u);

  const size_t start = received.find_first_not_of('x');
  ASSERT_NE(start, std::string::npos);
  std::string lines = received.substr(start);
  ASSERT_FALSE(lines.empty());
  ASSERT_EQ(lines.back(), '\n');

  // Every line at rest parses — in particular the FIRST one, whose prefix
  // was already in the pipe when the overflow policy ran: dropping it would
  // have left a torn line forever.
  size_t pos = 0;
  size_t parsed = 0;
  uint64_t last_seq = 0;
  while (pos < lines.size()) {
    const size_t eol = lines.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    auto decoded = ProfileDelta::FromJsonLine(lines.substr(pos, eol - pos));
    ASSERT_TRUE(decoded.ok()) << "line " << parsed << ": " << decoded.status().ToString();
    if (parsed > 0) {
      EXPECT_GT(decoded->sequence(), last_seq) << "gaps allowed, rewrites not";
    }
    last_seq = decoded->sequence();
    ++parsed;
    pos = eol + 1;
  }
  EXPECT_GE(parsed, 1u);
  EXPECT_LT(parsed, 8u);  // something was genuinely dropped

  writer.Close();
  ::close(pipe.read_fd);
}

}  // namespace
}  // namespace pkrusafe
