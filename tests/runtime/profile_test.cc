#include "src/runtime/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

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

}  // namespace
}  // namespace pkrusafe
