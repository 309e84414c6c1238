// Tests for the multi-compartment extension (§6 "Number of Compartments"):
// pairwise isolation between untrusted libraries, shared-pool visibility,
// and exact PKRU restoration across nested cross-library transitions.
#include "src/multidomain/multi_compartment.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "src/memmap/page.h"
#include "src/mpk/sim_backend.h"
#include "src/telemetry/metrics.h"
#include "tests/resident_pages.h"

namespace pkrusafe {
namespace {

class MultiCompartmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    PkAllocatorConfig pool_config;
    pool_config.trusted_pool_bytes = size_t{256} << 20;
    pool_config.untrusted_pool_bytes = size_t{256} << 20;
    auto pools = PkAllocator::Create(&backend_, pool_config);
    ASSERT_TRUE(pools.ok()) << pools.status().ToString();
    pools_ = std::move(*pools);
    MultiCompartmentConfig config;
    config.library_pool_bytes = size_t{256} << 20;
    auto mc = MultiCompartment::Create(pools_.get(), config);
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    mc_ = std::move(*mc);
    codec_ = *mc_->RegisterLibrary("codec");
    jsengine_ = *mc_->RegisterLibrary("jsengine");
  }

  void TearDown() override { SetCurrentThreadPkru(PkruValue::AllowAll()); }

  Status Check(const void* ptr) {
    return backend_.CheckAccess(reinterpret_cast<uintptr_t>(ptr), AccessKind::kRead);
  }

  void* AllocMt(size_t size) { return pools_->Allocate(Domain::kTrusted, size); }
  void* AllocMu(size_t size) { return pools_->Allocate(Domain::kUntrusted, size); }

  SimMpkBackend backend_;
  std::unique_ptr<PkAllocator> pools_;
  std::unique_ptr<MultiCompartment> mc_;
  LibraryId codec_ = 0;
  LibraryId jsengine_ = 0;
};

TEST_F(MultiCompartmentTest, RegistrationAssignsDistinctKeys) {
  EXPECT_EQ(mc_->library_count(), 2u);
  EXPECT_EQ(mc_->library_name(codec_), "codec");
  EXPECT_EQ(mc_->library_name(jsengine_), "jsengine");
  // Keys are virtual: a library starts evicted, its pages on the shared
  // evicted key. Once faulted in, each resident library holds its own slot.
  EXPECT_FALSE(mc_->library_resident(codec_));
  EXPECT_EQ(mc_->key_of(codec_), mc_->key_of(jsengine_));
  (void)mc_->PolicyFor(codec_);
  (void)mc_->PolicyFor(jsengine_);
  EXPECT_TRUE(mc_->library_resident(codec_));
  EXPECT_NE(mc_->key_of(codec_), mc_->key_of(jsengine_));
  EXPECT_NE(mc_->key_of(codec_), pools_->trusted_key());
  EXPECT_NE(mc_->key_of(codec_), kDefaultPkey);
}

TEST_F(MultiCompartmentTest, PoolsAreKeyTagged) {
  void* trusted = AllocMt(64);
  void* shared = AllocMu(64);
  void* in_codec = mc_->AllocateIn(codec_, 64);
  EXPECT_EQ(backend_.KeyFor(reinterpret_cast<uintptr_t>(trusted)), pools_->trusted_key());
  EXPECT_EQ(backend_.KeyFor(reinterpret_cast<uintptr_t>(shared)), kDefaultPkey);
  EXPECT_EQ(backend_.KeyFor(reinterpret_cast<uintptr_t>(in_codec)), mc_->key_of(codec_));
  mc_->Free(trusted);
  mc_->Free(shared);
  mc_->Free(in_codec);
}

TEST_F(MultiCompartmentTest, PrivateOwnerReportsPools) {
  void* trusted = AllocMt(32);
  void* shared = AllocMu(32);
  void* in_js = mc_->AllocateIn(jsengine_, 32);
  int local = 0;
  EXPECT_EQ(*mc_->PrivateOwnerOf(trusted), kTrustedLibrary);
  EXPECT_EQ(*mc_->PrivateOwnerOf(in_js), jsengine_);
  EXPECT_FALSE(mc_->PrivateOwnerOf(shared).has_value());  // shared = everyone's
  EXPECT_FALSE(mc_->PrivateOwnerOf(&local).has_value());
  mc_->Free(trusted);
  mc_->Free(shared);
  mc_->Free(in_js);
}

TEST_F(MultiCompartmentTest, PairwiseIsolationMatrix) {
  // The central property: inside library i, exactly {shared, pool_i} are
  // accessible; M_T and every other library's pool are denied.
  void* trusted = AllocMt(64);
  void* shared = AllocMu(64);
  void* codec_obj = mc_->AllocateIn(codec_, 64);
  void* js_obj = mc_->AllocateIn(jsengine_, 64);

  {
    MultiCompartment::Scope scope(*mc_, codec_);
    EXPECT_TRUE(Check(shared).ok());
    EXPECT_TRUE(Check(codec_obj).ok());
    EXPECT_EQ(Check(trusted).code(), StatusCode::kPermissionDenied);
    EXPECT_EQ(Check(js_obj).code(), StatusCode::kPermissionDenied);
  }
  {
    MultiCompartment::Scope scope(*mc_, jsengine_);
    EXPECT_TRUE(Check(shared).ok());
    EXPECT_TRUE(Check(js_obj).ok());
    EXPECT_EQ(Check(trusted).code(), StatusCode::kPermissionDenied);
    EXPECT_EQ(Check(codec_obj).code(), StatusCode::kPermissionDenied);
  }
  // Back in T: everything visible.
  EXPECT_TRUE(Check(trusted).ok());
  EXPECT_TRUE(Check(codec_obj).ok());
  EXPECT_TRUE(Check(js_obj).ok());

  mc_->Free(trusted);
  mc_->Free(shared);
  mc_->Free(codec_obj);
  mc_->Free(js_obj);
}

TEST_F(MultiCompartmentTest, NestedCrossLibraryTransitionsRestoreExactly) {
  void* codec_obj = mc_->AllocateIn(codec_, 64);
  const PkruValue at_rest = backend_.ReadPkru();

  mc_->EnterLibrary(codec_);
  const PkruValue in_codec = backend_.ReadPkru();
  mc_->EnterLibrary(jsengine_);  // codec calls into the JS engine
  EXPECT_EQ(Check(codec_obj).code(), StatusCode::kPermissionDenied);
  mc_->ExitLibrary();
  EXPECT_EQ(backend_.ReadPkru(), in_codec);
  EXPECT_TRUE(Check(codec_obj).ok());
  mc_->ExitLibrary();
  EXPECT_EQ(backend_.ReadPkru(), at_rest);

  EXPECT_EQ(mc_->transition_count(), 4u);
  mc_->Free(codec_obj);
}

TEST_F(MultiCompartmentTest, PolicyForMatchesMatrix) {
  const PkruValue codec_policy = mc_->PolicyFor(codec_);
  EXPECT_TRUE(codec_policy.allows_read(kDefaultPkey));
  EXPECT_TRUE(codec_policy.allows_read(mc_->key_of(codec_)));
  EXPECT_FALSE(codec_policy.allows_read(pools_->trusted_key()));
  EXPECT_FALSE(codec_policy.allows_read(mc_->key_of(jsengine_)));
  EXPECT_EQ(mc_->PolicyFor(kTrustedLibrary), PkruValue::AllowAll());
}

TEST_F(MultiCompartmentTest, RegistrationScalesBeyondHardwareKeys) {
  // Keys are virtual now: registration is unbounded, far past the 16
  // hardware keys. Libraries beyond the slot capacity start out evicted.
  for (int i = 0; i < 38; ++i) {
    auto id = mc_->RegisterLibrary("extra");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  EXPECT_EQ(mc_->library_count(), 40u);
  const VpkeyStats stats = mc_->vpkey_stats();
  EXPECT_EQ(stats.virtual_keys, 40u);
  EXPECT_LE(stats.resident, stats.hw_slots);
  // Every library is enterable, resident or not, with the full matrix
  // intact: own pool plus shared visible, trusted denied.
  void* shared = AllocMu(32);
  for (LibraryId id = 1; id <= 40; ++id) {
    void* own = mc_->AllocateIn(id, 32);
    MultiCompartment::Scope scope(*mc_, id);
    EXPECT_TRUE(Check(own).ok()) << "library " << id;
    EXPECT_TRUE(Check(shared).ok()) << "library " << id;
    mc_->Free(own);
  }
  mc_->Free(shared);
}

TEST_F(MultiCompartmentTest, ReleaseLibraryReturnsKeyAndRefusesReuse) {
  const LibraryId doomed = *mc_->RegisterLibrary("doomed");
  void* obj = mc_->AllocateIn(doomed, 64);
  ASSERT_NE(obj, nullptr);
  (void)mc_->PolicyFor(doomed);  // fault it in so release also frees a slot
  ASSERT_TRUE(mc_->library_resident(doomed));
  const uint64_t keys_before = mc_->vpkey_stats().virtual_keys;
  const size_t live_before = mc_->live_library_count();

  ASSERT_TRUE(mc_->ReleaseLibrary(doomed).ok());
  EXPECT_EQ(mc_->vpkey_stats().virtual_keys, keys_before - 1);
  EXPECT_EQ(mc_->live_library_count(), live_before - 1);
  // The entry stays in the table, waiting for reuse.
  EXPECT_EQ(mc_->library_count(), 3u);
  // The released pool is gone: no allocation, no ownership.
  EXPECT_EQ(mc_->AllocateIn(doomed, 64), nullptr);
  EXPECT_FALSE(mc_->PrivateOwnerOf(obj).has_value());
  // Releasing twice is reported, not fatal.
  EXPECT_EQ(mc_->ReleaseLibrary(doomed).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mc_->ReleaseLibrary(999).code(), StatusCode::kInvalidArgument);
  // The survivors are untouched.
  void* still = mc_->AllocateIn(codec_, 64);
  MultiCompartment::Scope scope(*mc_, codec_);
  EXPECT_TRUE(Check(still).ok());
}

TEST_F(MultiCompartmentTest, ReleaseRefusedWhilePinned) {
  // The quarantine gate: an open scope pins the key, so release must refuse
  // without tearing anything down, then succeed once the request drains.
  mc_->EnterLibrary(codec_);
  EXPECT_EQ(mc_->ReleaseLibrary(codec_).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(mc_->live_library_count(), 2u);  // nothing was torn down
  void* obj = mc_->AllocateIn(codec_, 64);
  EXPECT_TRUE(Check(obj).ok());  // still enterable/usable mid-quarantine
  mc_->ExitLibrary();
  EXPECT_TRUE(mc_->ReleaseLibrary(codec_).ok());
}

// multidomain.vpkey.hits is a pull gauge over the vpkey table's per-thread
// pin counts: a metrics snapshot sees resident entries without anyone
// calling vpkey_stats() first.
TEST_F(MultiCompartmentTest, VpkeyHitsGaugeNeedsNoStatsCall) {
  ASSERT_TRUE(mc_->PrefaultWorkingSet({codec_}).ok());
  auto hits = [] {
    const telemetry::MetricsSnapshot snapshot = telemetry::MetricsRegistry::Global().Snapshot();
    const auto it = snapshot.gauges.find("multidomain.vpkey.hits");
    return it == snapshot.gauges.end() ? int64_t{0} : it->second;
  };
  const int64_t before = hits();
  constexpr int kEntries = 100;
  for (int i = 0; i < kEntries; ++i) {
    MultiCompartment::Scope scope(*mc_, codec_);
  }
  EXPECT_EQ(hits() - before, kEntries);
}

TEST(MultiCompartmentExtraDenyTest, ExtraDenyKeysAreDeniedInEveryLibrary) {
  // The compartments take M_T's key from the allocator they are built on:
  // every tenant mask denies it, and the manager mints no trusted key of its
  // own — the allocator's key plus the vpkey cache's are every key in use.
  SimMpkBackend backend;
  PkAllocatorConfig pool_config;
  pool_config.trusted_pool_bytes = size_t{32} << 20;
  pool_config.untrusted_pool_bytes = size_t{32} << 20;
  auto pools = PkAllocator::Create(&backend, pool_config);
  ASSERT_TRUE(pools.ok()) << pools.status().ToString();
  const PkeyId trusted_key = (*pools)->trusted_key();
  MultiCompartmentConfig config;
  config.library_pool_bytes = size_t{32} << 20;
  auto mc = MultiCompartment::Create(pools->get(), config);
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  const LibraryId tenant = *(*mc)->RegisterLibrary("tenant");
  const PkruValue policy = (*mc)->PolicyFor(tenant);
  EXPECT_FALSE(policy.allows_read(trusted_key));
  EXPECT_FALSE(policy.allows_write(trusted_key));
  EXPECT_TRUE(policy.allows_read(kDefaultPkey));
  EXPECT_NE((*mc)->key_of(tenant), trusted_key);
  // Backend keys 1..15: one for M_T, one evicted key, the rest slots.
  EXPECT_EQ((*mc)->vpkey_stats().hw_slots, 13u);
  // M_T objects report as trusted-private and are freed through the
  // allocator.
  void* secret = (*pools)->Allocate(Domain::kTrusted, 64);
  EXPECT_EQ(*(*mc)->PrivateOwnerOf(secret), kTrustedLibrary);
  (*mc)->Free(secret);
  EXPECT_EQ((*pools)->trusted_stats().live_bytes, 0u);
}

size_t ReadRssBytes() {
  FILE* f = fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long total = 0;
  long resident = 0;
  const int n = fscanf(f, "%ld %ld", &total, &resident);
  fclose(f);
  return n == 2 ? static_cast<size_t>(resident) * static_cast<size_t>(sysconf(_SC_PAGESIZE))
                : 0;
}

TEST(MultiCompartmentChurnTest, SessionChurnLeaksNoKeysOrPages) {
  // The server acceptance bar: >= 64 register/serve/release sessions across
  // > 16 concurrently-live tenants with no virtual-key growth and no pool
  // (RSS) growth. Before ReleaseLibrary existed, every evicted session
  // leaked a virtual key and its touched pool pages forever.
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  PkAllocatorConfig pool_config;
  pool_config.trusted_pool_bytes = size_t{16} << 20;
  pool_config.untrusted_pool_bytes = size_t{16} << 20;
  auto pools = PkAllocator::Create(&backend, pool_config);
  ASSERT_TRUE(pools.ok()) << pools.status().ToString();
  MultiCompartmentConfig config;
  config.library_pool_bytes = size_t{8} << 20;
  auto created = MultiCompartment::Create(pools->get(), config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  MultiCompartment& mc = **created;

  constexpr size_t kLiveTenants = 20;  // > 16: virtual keys, not hardware
  constexpr size_t kSessions = 80;     // >= 64 full lifecycles
  constexpr size_t kTouchBytes = size_t{1} << 20;  // dirtied per session
  std::deque<LibraryId> live;

  auto serve_one_session = [&](size_t session) {
    auto id = mc.RegisterLibrary("tenant-" + std::to_string(session));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    live.push_back(*id);
    // The "request": touch a working set in the private pool inside the
    // compartment, so release has real dirty pages to give back.
    auto* buf = static_cast<char*>(mc.AllocateIn(*id, kTouchBytes));
    ASSERT_NE(buf, nullptr);
    ASSERT_TRUE(mc.PrefaultWorkingSet({*id}).ok());
    {
      MultiCompartment::Scope scope(mc, *id);
      for (size_t off = 0; off < kTouchBytes; off += 512) {
        buf[off] = static_cast<char>(session);
      }
    }
    // Session ends with memory still allocated — release reclaims it all.
  };

  for (size_t session = 0; session < kLiveTenants; ++session) {
    serve_one_session(session);
  }
  ASSERT_EQ(mc.live_library_count(), kLiveTenants);
  const uint64_t keys_steady = mc.vpkey_stats().virtual_keys;
  EXPECT_EQ(keys_steady, kLiveTenants);
  const size_t rss_steady = ReadRssBytes();
  ASSERT_GT(rss_steady, 0u);

  for (size_t session = kLiveTenants; session < kSessions; ++session) {
    ASSERT_TRUE(mc.ReleaseLibrary(live.front()).ok()) << "session " << session;
    live.pop_front();
    serve_one_session(session);
    // Steady state every round: the key count never drifts up.
    ASSERT_EQ(mc.vpkey_stats().virtual_keys, keys_steady) << "session " << session;
    ASSERT_EQ(mc.live_library_count(), kLiveTenants);
  }

  // 60 churned sessions dirtied ~60 MiB; without DecommitAll that RSS stays.
  // Allow generous slack for allocator/test noise, far below the leak size.
  // Sanitizers keep shadow memory resident past the decommit, so the RSS
  // bound only holds on plain builds; the key/pool accounting above is the
  // sanitizer-proof half of the leak check.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__) && \
    !__has_feature(thread_sanitizer) && !__has_feature(address_sanitizer)
  const size_t rss_end = ReadRssBytes();
  EXPECT_LT(rss_end, rss_steady + (size_t{24} << 20))
      << "rss grew from " << rss_steady << " to " << rss_end;
#else
  (void)rss_steady;
#endif
  // Released entries are reused before the table grows: it holds the peak
  // number of live tenants, not every session ever created.
  EXPECT_EQ(mc.library_count(), kLiveTenants);
}

// A tenant pool as the sandbox server builds it: a 64 KiB scratch touched
// once inside the tenant's scope. The pool then holds two pages, the span
// table's and the scratch's, and they are adjacent, so a key miss's TLB
// flush covers 2 pages; with the table in a chunk of its own above the
// scratch it covered 17. The pool is smaller than a huge page, so THP
// cannot inflate the count.
TEST(MultiCompartmentPoolLayoutTest, FreshAndRecycledPoolsPopulateTwoAdjacentPages) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  PkAllocatorConfig pool_config;
  pool_config.trusted_pool_bytes = size_t{1} << 20;
  pool_config.untrusted_pool_bytes = size_t{1} << 20;
  auto pools = PkAllocator::Create(&backend, pool_config);
  ASSERT_TRUE(pools.ok()) << pools.status().ToString();
  MultiCompartmentConfig config;
  config.library_pool_bytes = size_t{1} << 20;
  auto created = MultiCompartment::Create(pools->get(), config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  MultiCompartment& mc = **created;

  for (const char* pool : {"fresh", "recycled"}) {
    auto id = mc.RegisterLibrary(pool);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    auto* scratch = static_cast<char*>(mc.AllocateIn(*id, 64 * 1024));
    ASSERT_NE(scratch, nullptr);
    {
      MultiCompartment::Scope scope(mc, *id);
      scratch[0] = 1;
    }
    const auto page = reinterpret_cast<uintptr_t>(scratch);
    const std::vector<uintptr_t> resident = ResidentPoolPages(mc, scratch);
    ASSERT_EQ(resident.size(), 2u) << pool;
    // The lower page is the top of the pool's first chunk, where the span
    // table sits; the upper one is the scratch, the next chunk's first page.
    EXPECT_EQ(resident[0], page - kPageSize) << pool;
    EXPECT_EQ(resident[1], page) << pool;
    ASSERT_TRUE(mc.ReleaseLibrary(*id).ok());
  }
  EXPECT_EQ(mc.library_count(), 1u);  // the second library took the first one's pool
}

TEST_F(MultiCompartmentTest, SharedDataFlowsBetweenLibraries) {
  // The supported cross-library channel: shared-pool objects.
  auto* mailbox = static_cast<int64_t*>(AllocMu(sizeof(int64_t)));
  {
    MultiCompartment::Scope scope(*mc_, codec_);
    ASSERT_TRUE(Check(mailbox).ok());
    *mailbox = 1234;
  }
  {
    MultiCompartment::Scope scope(*mc_, jsengine_);
    ASSERT_TRUE(Check(mailbox).ok());
    EXPECT_EQ(*mailbox, 1234);
  }
  mc_->Free(mailbox);
}

}  // namespace
}  // namespace pkrusafe
