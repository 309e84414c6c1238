// Concurrency stress for the multi-compartment manager: registration,
// transitions (with evictions), allocation and policy queries racing across
// threads. This is the regression test for the libraries_ data race (the
// pre-fix code let RegisterLibrary's push_back race Free's iteration) and
// the proof obligation for the vpkey cache's locking — run it under
// ThreadSanitizer via `scripts/check.sh vpkey` (or tsan).
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/mpk/sim_backend.h"
#include "src/multidomain/multi_compartment.h"
#include "src/support/rng.h"

namespace pkrusafe {
namespace {

TEST(MultidomainStressTest, ConcurrentTransitionsEvictionsAndRegistration) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  MultiCompartmentConfig config;
  config.trusted_pool_bytes = size_t{8} << 20;
  config.shared_pool_bytes = size_t{8} << 20;
  config.library_pool_bytes = size_t{1} << 20;
  // 6 slots, 4 worker pins + 1 transient PolicyFor pin: a victim always
  // exists, so no Enter can hit the all-slots-pinned error.
  config.max_hw_slots = 6;
  auto created = MultiCompartment::Create(&backend, config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  MultiCompartment& mc = **created;

  constexpr int kInitialLibraries = 8;
  constexpr int kWorkers = 4;
  constexpr int kItersPerWorker = 400;
  constexpr int kLateLibraries = 16;

  std::vector<void*> objs;
  for (int i = 0; i < kInitialLibraries; ++i) {
    auto id = mc.RegisterLibrary("lib" + std::to_string(i));
    ASSERT_TRUE(id.ok());
    objs.push_back(mc.AllocateIn(*id, 64));
    ASSERT_NE(objs.back(), nullptr);
  }
  void* trusted_obj = mc.AllocateTrusted(64);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  // Workers: enter a library, verify the matrix from inside, allocate and
  // free, exit. Eight libraries over six slots keeps evictions flowing.
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      SplitMix64 rng(0x5eed + static_cast<uint64_t>(w));
      for (int i = 0; i < kItersPerWorker && !failed.load(); ++i) {
        const auto lib = static_cast<LibraryId>(1 + rng.NextBelow(kInitialLibraries));
        MultiCompartment::Scope scope(mc, lib);
        const auto own = reinterpret_cast<uintptr_t>(objs[lib - 1]);
        if (!backend.CheckAccess(own, AccessKind::kRead).ok() ||
            backend.CheckAccess(reinterpret_cast<uintptr_t>(trusted_obj), AccessKind::kWrite)
                .ok()) {
          failed.store(true);
        }
        void* scratch = mc.AllocateIn(lib, 32);
        if (scratch == nullptr) {
          failed.store(true);
        } else {
          mc.Free(scratch);
        }
      }
    });
  }

  // Registrar: grows the library table while workers transition.
  threads.emplace_back([&] {
    for (int i = 0; i < kLateLibraries; ++i) {
      auto id = mc.RegisterLibrary("late" + std::to_string(i));
      if (!id.ok()) {
        failed.store(true);
        return;
      }
      void* obj = mc.AllocateIn(*id, 16);
      if (mc.PrivateOwnerOf(obj) != *id) {
        failed.store(true);
      }
      mc.Free(obj);
      std::this_thread::yield();
    }
  });

  // Reader: policy and residency queries against whatever exists right now.
  threads.emplace_back([&] {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    SplitMix64 rng(0xbead5eed);
    for (int i = 0; i < 600; ++i) {
      const size_t count = mc.library_count();
      const auto lib = static_cast<LibraryId>(1 + rng.NextBelow(count));
      const PkruValue mask = mc.PolicyFor(lib);
      if (mask.allows_read(mc.trusted_key())) {
        failed.store(true);
      }
      (void)mc.key_of(lib);
      (void)mc.library_resident(lib);
      (void)mc.vpkey_stats();
    }
  });

  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_FALSE(failed.load());

  // Post-race sanity: table intact, every library still enterable.
  EXPECT_EQ(mc.library_count(),
            static_cast<size_t>(kInitialLibraries + kLateLibraries));
  for (LibraryId id = 1; id <= mc.library_count(); ++id) {
    MultiCompartment::Scope scope(mc, id);
  }
  mc.Free(trusted_obj);
  SetCurrentThreadPkru(PkruValue::AllowAll());
}

TEST(MultidomainStressTest, ReleaseAndReuseRaceScansPinsPrefaultAndStats) {
  // Recycling rewrites a released library's table entry while lock-free
  // readers run over the table: pins of other libraries, ownership and
  // Free scans, working-set prefaults and stats snapshots. One churner
  // releases and re-registers (every registration reuses the id it just
  // released); everyone else must keep seeing a consistent table.
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  MultiCompartmentConfig config;
  config.trusted_pool_bytes = size_t{8} << 20;
  config.shared_pool_bytes = size_t{8} << 20;
  config.library_pool_bytes = size_t{1} << 20;
  // At most 4 pins at once (2 pinners, the churner, one prefault): a victim
  // always exists.
  config.max_hw_slots = 6;
  auto created = MultiCompartment::Create(&backend, config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  MultiCompartment& mc = **created;

  constexpr int kStable = 4;
  constexpr int kChurned = 2;
  constexpr int kCycles = 300;
  std::vector<LibraryId> stable;
  std::vector<void*> stable_objs;
  for (int i = 0; i < kStable; ++i) {
    auto id = mc.RegisterLibrary("stable" + std::to_string(i));
    ASSERT_TRUE(id.ok());
    stable.push_back(*id);
    stable_objs.push_back(mc.AllocateIn(*id, 64));
    ASSERT_NE(stable_objs.back(), nullptr);
  }
  std::vector<LibraryId> churned;
  for (int i = 0; i < kChurned; ++i) {
    auto id = mc.RegisterLibrary("churned" + std::to_string(i));
    ASSERT_TRUE(id.ok());
    churned.push_back(*id);
  }
  const size_t table_size = mc.library_count();

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  // Churner: release, re-register (same id back), use the new tenant.
  threads.emplace_back([&] {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    for (int cycle = 0; cycle < kCycles && !failed.load(); ++cycle) {
      const LibraryId id = churned[static_cast<size_t>(cycle) % kChurned];
      if (!mc.ReleaseLibrary(id).ok()) {
        failed.store(true);
        break;
      }
      auto reused = mc.RegisterLibrary("churned");
      if (!reused.ok() || *reused != id) {
        failed.store(true);
        break;
      }
      void* obj = mc.AllocateIn(id, 32);
      if (obj == nullptr || mc.PrivateOwnerOf(obj) != id) {
        failed.store(true);
        break;
      }
      {
        MultiCompartment::Scope scope(mc, id);
        if (!backend.CheckAccess(reinterpret_cast<uintptr_t>(obj), AccessKind::kWrite).ok()) {
          failed.store(true);
        }
      }
      mc.Free(obj);
    }
    done.store(true);
  });

  // Pinners: enter stable libraries and check the matrix from inside.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      SplitMix64 rng(0xc0ffee + static_cast<uint64_t>(w));
      while (!done.load() && !failed.load()) {
        const size_t i = rng.NextBelow(kStable);
        MultiCompartment::Scope scope(mc, stable[i]);
        const auto own = reinterpret_cast<uintptr_t>(stable_objs[i]);
        const auto other = reinterpret_cast<uintptr_t>(stable_objs[(i + 1) % kStable]);
        if (!backend.CheckAccess(own, AccessKind::kRead).ok() ||
            backend.CheckAccess(other, AccessKind::kRead).ok()) {
          failed.store(true);
        }
      }
    });
  }

  // Scanner: ownership queries and Free scans walk every table entry,
  // including the ones being recycled.
  threads.emplace_back([&] {
    while (!done.load() && !failed.load()) {
      for (int i = 0; i < kStable; ++i) {
        if (mc.PrivateOwnerOf(stable_objs[static_cast<size_t>(i)]) != stable[i]) {
          failed.store(true);
        }
        void* scratch = mc.AllocateIn(stable[i], 48);
        if (scratch == nullptr) {
          failed.store(true);
        } else {
          mc.Free(scratch);
        }
      }
    }
  });

  // Prefaulter and stats reader: released ids in the working set are
  // skipped, never an error.
  threads.emplace_back([&] {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    std::vector<LibraryId> everyone = stable;
    everyone.insert(everyone.end(), churned.begin(), churned.end());
    while (!done.load() && !failed.load()) {
      if (!mc.PrefaultWorkingSet(everyone).ok()) {
        failed.store(true);
      }
      const VpkeyStats stats = mc.vpkey_stats();
      if (stats.virtual_keys > table_size || stats.resident > stats.hw_slots ||
          mc.library_count() != table_size || mc.live_library_count() > table_size) {
        failed.store(true);
      }
    }
  });

  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(mc.library_count(), table_size);
  EXPECT_EQ(mc.live_library_count(), table_size);
  for (void* obj : stable_objs) {
    mc.Free(obj);
  }
  SetCurrentThreadPkru(PkruValue::AllowAll());
}

}  // namespace
}  // namespace pkrusafe
