// Multithreading tests: the paper supports "multi-threaded mixed-language
// environments" (§8) — PKRU is per-thread, compartment stacks are
// thread-local, the allocator and the per-site fault counters are shared and
// thread-safe.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "src/runtime/runtime.h"
#include "src/support/rng.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace {

std::unique_ptr<PkruSafeRuntime> MakeRuntime(RuntimeMode mode) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = mode;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok());
  return std::move(*runtime);
}

TEST(ConcurrencyTest, ThreadsTransitionIndependently) {
  auto rt = MakeRuntime(RuntimeMode::kEnforcing);
  void* trusted = rt->AllocTrusted(AllocId{1, 0, 0}, 64);
  const auto addr = reinterpret_cast<uintptr_t>(trusted);

  // Thread A sits inside U (denied); thread B stays in T (allowed). Each
  // must observe its own PKRU regardless of the other's compartment.
  std::barrier sync(2);
  Status a_denied = Status::Ok();
  Status b_allowed = InternalError("unset");

  std::thread a([&] {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    UntrustedScope scope(rt->gates());
    sync.arrive_and_wait();  // both threads in their target compartment
    a_denied = rt->backend().CheckAccess(addr, AccessKind::kRead);
    sync.arrive_and_wait();
  });
  std::thread b([&] {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    sync.arrive_and_wait();
    b_allowed = rt->backend().CheckAccess(addr, AccessKind::kRead);
    sync.arrive_and_wait();
  });
  a.join();
  b.join();

  EXPECT_EQ(a_denied.code(), StatusCode::kPermissionDenied);
  EXPECT_TRUE(b_allowed.ok());
  rt->Free(trusted);
}

TEST(ConcurrencyTest, GateStormStaysBalanced) {
  auto rt = MakeRuntime(RuntimeMode::kEnforcing);
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      SplitMix64 rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kIterations; ++i) {
        const int depth = 1 + static_cast<int>(rng.NextBelow(4));
        for (int d = 0; d < depth; ++d) {
          rt->gates().EnterUntrusted();
        }
        for (int d = 0; d < depth; ++d) {
          rt->gates().ExitUntrusted();
        }
        if (CompartmentStack::Depth() != 0 ||
            rt->backend().ReadPkru() != PkruValue::AllowAll()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every enter/exit pair from every thread is counted.
  EXPECT_GE(rt->stats().transitions, uint64_t{kThreads} * kIterations * 2);
}

TEST(ConcurrencyTest, ConcurrentAllocationChurnKeepsPoolsDisjoint) {
  auto rt = MakeRuntime(RuntimeMode::kDisabled);
  constexpr int kThreads = 6;
  constexpr int kSteps = 2000;

  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      SplitMix64 rng(static_cast<uint64_t>(t) * 7 + 13);
      std::vector<std::pair<void*, Domain>> live;
      for (int i = 0; i < kSteps; ++i) {
        if (live.empty() || rng.NextBelow(100) < 60) {
          const Domain domain =
              rng.NextBelow(2) == 0 ? Domain::kTrusted : Domain::kUntrusted;
          void* p = domain == Domain::kTrusted
                        ? rt->AllocTrusted(AllocId{9, 9, static_cast<uint32_t>(t)},
                                           1 + rng.NextBelow(512))
                        : rt->AllocUntrusted(1 + rng.NextBelow(512));
          if (p == nullptr) {
            violations.fetch_add(1);
            return;
          }
          if (*rt->allocator().OwnerOf(p) != domain) {
            violations.fetch_add(1);
            return;
          }
          live.emplace_back(p, domain);
        } else {
          const size_t victim = rng.NextBelow(live.size());
          rt->Free(live[victim].first);
          live[victim] = live.back();
          live.pop_back();
        }
      }
      for (auto& [ptr, domain] : live) {
        rt->Free(ptr);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0);
}

TEST(ConcurrencyTest, ProfilingFaultsFromManyThreadsAreAllRecorded) {
  auto rt = MakeRuntime(RuntimeMode::kProfiling);
  constexpr int kThreads = 4;

  // One trusted object per thread, each with its own site.
  std::vector<void*> objects;
  for (int t = 0; t < kThreads; ++t) {
    objects.push_back(rt->AllocTrusted(AllocId{100, 0, static_cast<uint32_t>(t)}, 64));
  }

  auto& metrics = telemetry::MetricsRegistry::Global();
  telemetry::Counter* unattributed = metrics.GetOrCreateCounter("runtime.fault.unattributed");
  const uint64_t unattributed_before = unattributed->value();

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SetCurrentThreadPkru(PkruValue::AllowAll());
      UntrustedScope scope(rt->gates());
      // Denied access -> recorded + single-stepped, per thread.
      const auto status = rt->backend().CheckAccess(
          reinterpret_cast<uintptr_t>(objects[t]), AccessKind::kRead);
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  // Every fault hit a tracked object, so every fault is attributed.
  EXPECT_EQ(unattributed->value() - unattributed_before, 0u);
  const Profile profile = rt->TakeProfile();
  EXPECT_EQ(profile.site_count(), size_t{kThreads});
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(profile.Contains(AllocId{100, 0, static_cast<uint32_t>(t)}));
    rt->Free(objects[t]);
  }
}

}  // namespace
}  // namespace pkrusafe
