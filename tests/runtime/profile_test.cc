#include "src/runtime/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/profile_artifact.h"

namespace pkrusafe {
namespace {

constexpr AllocId kA{1, 2, 3};
constexpr AllocId kB{4, 5, 6};

TEST(ProfileTest, AddAndQuery) {
  Profile profile;
  EXPECT_TRUE(profile.empty());
  profile.Add(kA);
  profile.Add(kA);
  profile.Add(kB, 10);
  EXPECT_EQ(profile.site_count(), 2u);
  EXPECT_EQ(profile.CountFor(kA), 2u);
  EXPECT_EQ(profile.CountFor(kB), 10u);
  EXPECT_EQ(profile.CountFor(AllocId{9, 9, 9}), 0u);
  EXPECT_TRUE(profile.Contains(kA));
  EXPECT_FALSE(profile.Contains(AllocId{9, 9, 9}));
}

TEST(ProfileTest, SitesAreSorted) {
  Profile profile;
  profile.Add(kB);
  profile.Add(kA);
  auto sites = profile.Sites();
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0], kA);
  EXPECT_EQ(sites[1], kB);
}

// A profile is persisted only inside a profile artifact; these check that
// the profile's sites and counts survive that trip unchanged.
TEST(ProfileTest, SerializeRoundTrips) {
  ProfileArtifact artifact;
  artifact.profile.Add(kA, 3);
  artifact.profile.Add(kB, 7);
  auto restored = ProfileArtifact::Deserialize(artifact.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->profile.site_count(), 2u);
  EXPECT_EQ(restored->profile.CountFor(kA), 3u);
  EXPECT_EQ(restored->profile.CountFor(kB), 7u);
}

TEST(ProfileTest, FileRoundTrip) {
  ProfileArtifact artifact;
  artifact.profile.Add(kA, 42);
  const std::string path = ::testing::TempDir() + "/pkru_profile_test.txt";
  ASSERT_TRUE(artifact.SaveToFile(path).ok());
  auto loaded = ProfileArtifact::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->profile.CountFor(kA), 42u);
  std::remove(path.c_str());
}

TEST(ProfileTest, LoadMissingFileFails) {
  EXPECT_EQ(ProfileArtifact::LoadFromFile("/nonexistent/pkru.profile").status().code(),
            StatusCode::kNotFound);
}

TEST(ProfileTest, AddCheckedRejectsOverflow) {
  Profile profile;
  profile.Add(kA, UINT64_MAX);
  EXPECT_FALSE(profile.AddChecked(kA, 1).ok());
  EXPECT_TRUE(profile.AddChecked(kB, UINT64_MAX).ok());
  EXPECT_EQ(profile.CountFor(kB), UINT64_MAX);
}

TEST(ProfileTest, MergeSaturatesInsteadOfWrapping) {
  Profile a;
  a.Add(kA, UINT64_MAX - 1);
  Profile b;
  b.Add(kA, 5);
  a.Merge(b);
  EXPECT_EQ(a.CountFor(kA), UINT64_MAX);
}

TEST(ProfileTest, MergeAddsCounts) {
  Profile a;
  a.Add(kA, 1);
  Profile b;
  b.Add(kA, 2);
  b.Add(kB, 5);
  a.Merge(b);
  EXPECT_EQ(a.CountFor(kA), 3u);
  EXPECT_EQ(a.CountFor(kB), 5u);
}

TEST(ProfileTest, TotalCountSaturates) {
  Profile profile;
  EXPECT_EQ(profile.TotalCount(), 0u);
  profile.Add(kA, 3);
  profile.Add(kB, 4);
  EXPECT_EQ(profile.TotalCount(), 7u);
  profile.Add(kB, UINT64_MAX - 4);
  EXPECT_EQ(profile.TotalCount(), UINT64_MAX);
}

TEST(ProfileRecorderTest, RecordsUniqueSitesWithCounts) {
  ProfileRecorder recorder;
  recorder.RecordFault(kA);
  recorder.RecordFault(kA);
  recorder.RecordFault(kB);
  EXPECT_EQ(recorder.total_faults(), 3u);
  Profile profile = recorder.TakeProfile();
  EXPECT_EQ(profile.site_count(), 2u);
  EXPECT_EQ(profile.CountFor(kA), 2u);
}

TEST(ProfileRecorderTest, ResetClears) {
  ProfileRecorder recorder;
  recorder.RecordFault(kA);
  recorder.Reset();
  EXPECT_EQ(recorder.total_faults(), 0u);
  EXPECT_TRUE(recorder.TakeProfile().empty());
}

TEST(ProfileRecorderTest, ConcurrentRecordingLosesNoCounts) {
  constexpr int kThreads = 8;
  constexpr int kPerThreadSites = 16;
  constexpr int kHitsPerSite = 500;
  ProfileRecorder recorder;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int hit = 0; hit < kHitsPerSite; ++hit) {
        for (int s = 0; s < kPerThreadSites; ++s) {
          // Distinct sites per thread plus one shared hot site everybody hits.
          recorder.RecordFault(
              AllocId{static_cast<uint32_t>(t + 1), 0, static_cast<uint32_t>(s)});
          recorder.RecordFault(kA);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  EXPECT_EQ(recorder.dropped_faults(), 0u);
  EXPECT_EQ(recorder.total_faults(),
            static_cast<uint64_t>(kThreads) * kPerThreadSites * kHitsPerSite * 2);
  Profile profile = recorder.TakeProfile();
  EXPECT_EQ(profile.site_count(),
            static_cast<size_t>(kThreads) * kPerThreadSites + 1);
  EXPECT_EQ(profile.CountFor(kA),
            static_cast<uint64_t>(kThreads) * kPerThreadSites * kHitsPerSite);
  for (int t = 0; t < kThreads; ++t) {
    for (int s = 0; s < kPerThreadSites; ++s) {
      EXPECT_EQ(profile.CountFor(
                    AllocId{static_cast<uint32_t>(t + 1), 0, static_cast<uint32_t>(s)}),
                static_cast<uint64_t>(kHitsPerSite));
    }
  }
}

TEST(ProfileRecorderTest, TableExhaustionDropsInsteadOfCorrupting) {
  ProfileRecorder recorder;
  // One thread owns one 256-slot table; hammering more distinct sites than
  // slots must overflow into dropped_faults, never into another table or UB.
  constexpr int kSites = 400;
  for (int s = 0; s < kSites; ++s) {
    recorder.RecordFault(AllocId{7, 7, static_cast<uint32_t>(s)});
  }
  EXPECT_EQ(recorder.total_faults(), static_cast<uint64_t>(kSites));
  EXPECT_GT(recorder.dropped_faults(), 0u);
  Profile profile = recorder.TakeProfile();
  EXPECT_LE(profile.site_count(), 256u);
  EXPECT_EQ(profile.site_count() + recorder.dropped_faults(),
            static_cast<size_t>(kSites));
}

TEST(ProfileRecorderTest, IndependentRecordersDoNotBleed) {
  ProfileRecorder first;
  first.RecordFault(kA);
  {
    ProfileRecorder second;
    second.RecordFault(kB);
    EXPECT_EQ(second.TakeProfile().site_count(), 1u);
    EXPECT_FALSE(second.TakeProfile().Contains(kA));
  }
  Profile profile = first.TakeProfile();
  EXPECT_TRUE(profile.Contains(kA));
  EXPECT_FALSE(profile.Contains(kB));
}

}  // namespace
}  // namespace pkrusafe
