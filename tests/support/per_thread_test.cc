// Lifecycle tests for PerThread (src/support/per_thread.h): counts survive
// thread exit, an owner may die before a thread that holds its slot, two
// owners of one slot type alternate on a thread, a new owner at a dead
// owner's address never resolves to the stale slot, and a thread does not
// keep dead owners' records. They are part of the
// ASan and TSan runs (scripts/check.sh asan, tsan, vpkey).
#include "src/support/per_thread.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

namespace pkrusafe {
namespace {

// A slot that records its hooks.
struct HookSlot {
  struct Counts {
    uint64_t value = 0;
  };

  void AddTo(Counts& total) const { total.value += value.load(std::memory_order_relaxed); }
  void OnThreadExit() { thread_exits.fetch_add(1); }
  void OnOwnerDestroyed() { owner_deaths.fetch_add(1); }

  std::atomic<uint64_t> value{0};
  static inline std::atomic<int> thread_exits{0};
  static inline std::atomic<int> owner_deaths{0};
};

// One-shot stages a test thread and the main thread hand to each other.
class Stages {
 public:
  void Reach(int stage) {
    {
      std::lock_guard lock(mu_);
      stage_ = stage;
    }
    cv_.notify_all();
  }
  void Await(int stage) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return stage_ >= stage; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int stage_ = 0;
};

TEST(PerThreadTest, CountsSurviveThreadExit) {
  struct Tag;
  PerThread<CounterSlot<Tag, 2>> owner;
  constexpr int kThreads = 4;
  constexpr uint64_t kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kAdds; ++i) {
        owner.Local().Add(0);
        owner.Local().Add(1, 3);
      }
    });
  }
  // Reads race the writers: they never run ahead of the final total.
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(owner.Sum()[0], kThreads * kAdds);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto counts = owner.Sum();
  EXPECT_EQ(counts[0], kThreads * kAdds);
  EXPECT_EQ(counts[1], 3 * kThreads * kAdds);
}

TEST(PerThreadTest, ExitingThreadRunsItsHookAndFoldsItsCounts) {
  PerThread<HookSlot> owner;
  const int exits0 = HookSlot::thread_exits.load();
  std::thread([&] { owner.Local().value.store(5, std::memory_order_relaxed); }).join();
  EXPECT_EQ(HookSlot::thread_exits.load() - exits0, 1);
  EXPECT_EQ(owner.Sum().value, 5u);
}

TEST(PerThreadTest, OwnerDestroyedBeforeAThreadHoldingItsSlotExits) {
  auto owner = std::make_unique<PerThread<HookSlot>>();
  const int exits0 = HookSlot::thread_exits.load();
  const int deaths0 = HookSlot::owner_deaths.load();
  Stages stages;
  std::thread holder([&] {
    owner->Local().value.store(7, std::memory_order_relaxed);
    stages.Reach(1);
    stages.Await(2);
    // Exits after its owner died: the slot is only freed.
  });
  stages.Await(1);
  EXPECT_EQ(owner->Sum().value, 7u);
  owner.reset();
  EXPECT_EQ(HookSlot::owner_deaths.load() - deaths0, 1);
  stages.Reach(2);
  holder.join();
  EXPECT_EQ(HookSlot::thread_exits.load() - exits0, 0);
}

TEST(PerThreadTest, TwoOwnersOfOneSlotTypeAlternateOnOneThread) {
  struct Tag;
  PerThread<CounterSlot<Tag, 1>> a;
  PerThread<CounterSlot<Tag, 1>> b;
  auto alternate = [&] {
    for (int i = 0; i < 1000; ++i) {
      a.Local().Add(0);
      b.Local().Add(0, 2);
    }
    EXPECT_NE(&a.Local(), &b.Local());
    EXPECT_EQ(&a.Local(), &a.Local());
  };
  alternate();
  std::thread(alternate).join();
  EXPECT_EQ(a.Sum()[0], 2000u);
  EXPECT_EQ(b.Sum()[0], 4000u);
}

TEST(PerThreadTest, NewOwnerAtADeadOwnersAddressNeverSeesItsSlot) {
  struct Tag;
  using Owner = PerThread<CounterSlot<Tag, 1>>;
  alignas(Owner) unsigned char storage[sizeof(Owner)];
  auto* first = new (storage) Owner();
  first->Local().Add(0, 5);
  const uint64_t first_id = first->id();
  first->~Owner();
  // Same address, and this thread's memo still names the dead owner's slot.
  auto* second = new (storage) Owner();
  EXPECT_NE(second->id(), first_id);
  EXPECT_EQ(second->Local().values[0].load(), 0u);
  second->Local().Add(0);
  EXPECT_EQ(second->Sum()[0], 1u);
  second->~Owner();
}

TEST(PerThreadTest, AThreadFreesDeadOwnersRecords) {
  struct Tag;
  using Owner = PerThread<CounterSlot<Tag, 1>>;
  for (int i = 0; i < 1000; ++i) {
    Owner owner;
    owner.Local().Add(0);
    EXPECT_EQ(owner.Sum()[0], 1u);
  }
  EXPECT_LE(Owner::LocalRecordCount(), 1u);
}

}  // namespace
}  // namespace pkrusafe
