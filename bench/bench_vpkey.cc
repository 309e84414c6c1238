// Virtual-pkey overhead, eviction hit rate and re-tag cost (bench_vpkey).
//
// Five questions, the first two the acceptance bar for key virtualization:
//
//  1. What does the vpkey layer cost on the hot path? A resident-key entry
//     (cache hit) plus exit, through MultiCompartment::Scope and the call
//     gates' one crossing routine. The bar is the pre-virtualization
//     EnterLibrary, which composed the deny-mask by iterating every
//     registered library: the resident pair must stay within ~10% of it.
//     That baseline ran inline here until its numbers were committed in
//     BENCH_vpkey.json (enter_exit_ns/mode:legacy); compare against that row.
//
//  2. How does LRU victim selection hold up at 8/32/256 compartments with a
//     skewed access pattern (80% of entries hit an 8-library hot set, 20%
//     sweep the cold tail round-robin)? At 8 compartments everything is
//     resident; past the slot count the cold sweep flushes part of the hot
//     set. An LFU policy once ran next to it here: on this pattern it held
//     a 0.80 hit rate against LRU's 0.74. That A/B is kept in the committed
//     BENCH_vpkey.json (policy:lfu rows); LFU itself is gone, since the
//     server and every measured workload run LRU.
//
//  3. Does a key miss get slower as a long-lived process releases
//     libraries (the churn case)? Re-tag µs per miss is measured after 0
//     and after 20,000 released libraries on every available backend. The
//     cost stays flat only while released pools are recycled instead of
//     accumulating.
//
//  4. Does a key miss get slower with the number of live libraries? Re-tag
//     µs per miss with 64, 256 and 1024 live libraries entered round-robin
//     past the slots, on every available backend. A miss re-tags two exact
//     ranges, which updates the page-key map in place, so the cost must not
//     grow with the range count (scripts/check.sh vpkey gates the
//     live:1024 / live:64 ratio at 1.5).
//
//  5. What does a key miss cost in the sandbox server's shape? 256
//     libraries whose pools are built the way the server builds its
//     tenants': RegisterLibrary on an 8 MiB pool, then a 64 KiB scratch
//     from AllocateIn, touched once inside the library's scope. 13 slots,
//     entered round-robin so every entry misses. Each miss re-tags two
//     whole pools: the LRU victim's to the evicted key and the entered
//     one's to the freed slot key. On hardware its cost follows the span
//     between a pool's lowest and highest populated page (the kernel
//     flushes the TLB page by page across it), which FreeListHeap keeps at
//     two adjacent pages. Each row is the fastest of 5 rounds.
//
// Writes BENCH_vpkey.json via the shared emitter.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/mpk/backend_factory.h"
#include "src/mpk/sim_backend.h"
#include "src/multidomain/multi_compartment.h"
#include "src/support/rng.h"

namespace {

using namespace pkrusafe;  // NOLINT: bench brevity

constexpr int kHotLibraries = 8;
constexpr int kEntryPairs = 200000;
constexpr int kHotSetEntries = 30000;

double NowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

MultiCompartmentConfig SmallPools() {
  MultiCompartmentConfig config;
  config.library_pool_bytes = size_t{1} << 20;
  return config;
}

// M_T and M_U (the allocator) and the compartments built on them; the
// allocator is declared first so it outlives the compartments.
struct Sandbox {
  std::unique_ptr<PkAllocator> pools;
  std::unique_ptr<MultiCompartment> mc;
};

Result<Sandbox> MakeSandbox(MpkBackend* backend, const MultiCompartmentConfig& config) {
  PkAllocatorConfig pool_config;
  pool_config.trusted_pool_bytes = size_t{1} << 20;
  pool_config.untrusted_pool_bytes = size_t{1} << 20;
  Sandbox sandbox;
  PS_ASSIGN_OR_RETURN(sandbox.pools, PkAllocator::Create(backend, pool_config));
  PS_ASSIGN_OR_RETURN(sandbox.mc, MultiCompartment::Create(sandbox.pools.get(), config));
  return sandbox;
}

// The virtualized hot path: all 8 libraries resident, every entry a hit.
double MeasureVpkeyResidentNs() {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  auto sandbox = MakeSandbox(&backend, SmallPools());
  if (!sandbox.ok()) {
    std::fprintf(stderr, "%s\n", sandbox.status().ToString().c_str());
    return -1;
  }
  MultiCompartment* mc = sandbox->mc.get();
  for (int i = 0; i < kHotLibraries; ++i) {
    (void)*mc->RegisterLibrary("lib" + std::to_string(i));
  }
  for (int i = 0; i < kHotLibraries; ++i) {
    MultiCompartment::Scope warm(*mc, static_cast<LibraryId>(i + 1));
  }
  const double start = NowNs();
  for (int i = 0; i < kEntryPairs; ++i) {
    MultiCompartment::Scope scope(*mc, static_cast<LibraryId>(i % kHotLibraries + 1));
  }
  const double ns = (NowNs() - start) / kEntryPairs;
  const VpkeyStats stats = mc->vpkey_stats();
  if (stats.evictions != 0) {
    std::fprintf(stderr, "resident measurement polluted by %llu evictions\n",
                 static_cast<unsigned long long>(stats.evictions));
  }
  return ns;
}

struct HotSetResult {
  double entries_per_sec = 0;
  double hit_rate = 0;
  uint64_t evictions = 0;
  double retag_mb = 0;
};

HotSetResult RunHotSet(int compartments) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  auto sandbox = MakeSandbox(&backend, SmallPools());
  if (!sandbox.ok()) {
    std::fprintf(stderr, "%s\n", sandbox.status().ToString().c_str());
    return {};
  }
  MultiCompartment* mc = sandbox->mc.get();
  for (int i = 0; i < compartments; ++i) {
    (void)*mc->RegisterLibrary("lib" + std::to_string(i));
  }
  SplitMix64 rng(0xab1a7e);
  int cold_cursor = kHotLibraries;
  const double start = NowNs();
  for (int i = 0; i < kHotSetEntries; ++i) {
    LibraryId target;
    if (compartments <= kHotLibraries || rng.NextDouble() < 0.8) {
      target = static_cast<LibraryId>(1 + rng.NextBelow(
                                              std::min(compartments, kHotLibraries)));
    } else {
      target = static_cast<LibraryId>(cold_cursor + 1);
      cold_cursor = kHotLibraries + (cold_cursor + 1 - kHotLibraries) %
                                        (compartments - kHotLibraries);
    }
    MultiCompartment::Scope scope(*mc, target);
  }
  const double elapsed_ns = NowNs() - start;
  const VpkeyStats stats = mc->vpkey_stats();
  HotSetResult result;
  result.entries_per_sec = kHotSetEntries / (elapsed_ns / 1e9);
  result.hit_rate = static_cast<double>(stats.hits) /
                    static_cast<double>(stats.hits + stats.misses);
  result.evictions = stats.evictions;
  result.retag_mb = static_cast<double>(stats.retag_bytes) / (1024.0 * 1024.0);
  return result;
}

constexpr int kChurnLive = 8;
constexpr int kChurnReleased = 20000;
constexpr int kLiveCounts[] = {64, 256, 1024};
constexpr int kLiveRounds = 5;
constexpr int kTimedMisses = 2000;

// The libraries whose key misses are timed.
struct MissShape {
  size_t pool_bytes = size_t{256} << 10;
  size_t slots = 4;  // fewer than any live count: every entry misses
  int live = kChurnLive;
  // Registered, given one 64-byte allocation and released before the live
  // libraries are registered.
  int released = 0;
  // Each live library's first allocation, touched once inside its scope as
  // a server session's scratch is; 0 leaves the pool untouched.
  size_t scratch_bytes = 0;
};

// The sandbox server's tenant population (see 5. above).
constexpr MissShape kServerShape{
    .pool_bytes = size_t{8} << 20, .slots = 13, .live = 256, .scratch_bytes = 64 * 1024};
constexpr int kServerRounds = 5;

// Re-tag µs per key miss among `shape.live` libraries entered round-robin,
// on a fresh backend named as --backend= takes it. Negative when the
// backend is unavailable here.
double MeasureRetagUsPerMiss(const char* backend_name, const MissShape& shape) {
  auto backend = CreateMpkBackend(*ParseBackendKind(backend_name));
  if (!backend.ok()) {
    return -1;
  }
  (*backend)->WritePkru(PkruValue::AllowAll());
  MultiCompartmentConfig config;
  config.library_pool_bytes = shape.pool_bytes;
  config.max_hw_slots = shape.slots;
  auto sandbox = MakeSandbox(backend->get(), config);
  if (!sandbox.ok()) {
    std::fprintf(stderr, "%s: %s\n", backend_name, sandbox.status().ToString().c_str());
    return -1;
  }
  MultiCompartment* mc = sandbox->mc.get();
  for (int i = 0; i < shape.released; ++i) {
    auto id = mc->RegisterLibrary("released");
    if (!id.ok() || mc->AllocateIn(*id, 64) == nullptr || !mc->ReleaseLibrary(*id).ok()) {
      std::fprintf(stderr, "%s: session %d failed\n", backend_name, i);
      return -1;
    }
  }
  std::vector<LibraryId> live;
  for (int i = 0; i < shape.live; ++i) {
    auto id = mc->RegisterLibrary("live" + std::to_string(i));
    if (!id.ok()) {
      std::fprintf(stderr, "%s: %s\n", backend_name, id.status().ToString().c_str());
      return -1;
    }
    live.push_back(*id);
    if (shape.scratch_bytes > 0) {
      auto* scratch = static_cast<volatile char*>(mc->AllocateIn(*id, shape.scratch_bytes));
      if (scratch == nullptr) {
        std::fprintf(stderr, "%s: scratch allocation failed\n", backend_name);
        return -1;
      }
      MultiCompartment::Scope scope(*mc, *id);
      scratch[0] = 1;
    }
  }
  for (int i = 0; i < 2 * shape.live; ++i) {  // first-touch work out of the timing
    MultiCompartment::Scope warm(*mc, live[i % shape.live]);
  }
  const VpkeyStats before = mc->vpkey_stats();
  for (int i = 0; i < kTimedMisses; ++i) {
    MultiCompartment::Scope scope(*mc, live[i % shape.live]);
  }
  const VpkeyStats after = mc->vpkey_stats();
  const uint64_t misses = after.misses - before.misses;
  return misses == 0 ? -1
                     : static_cast<double>(after.retag_ns - before.retag_ns) / 1e3 /
                           static_cast<double>(misses);
}

}  // namespace

int main() {
  bench::BenchJsonWriter out("vpkey");

  // Warm the path once to fault code and allocator state in.
  (void)MeasureVpkeyResidentNs();

  const double resident_ns = MeasureVpkeyResidentNs();
  std::printf("enter+exit, vpkey resident hit: %8.1f ns\n", resident_ns);
  out.Add("enter_exit_ns/mode:vpkey_resident", resident_ns, "ns");

  std::printf("\nLRU: 80%% hot-set(8) / 20%% cold sweep, %d entries\n", kHotSetEntries);
  std::printf("%12s %14s %10s %10s %10s\n", "compartments", "entries/s", "hit%", "evictions",
              "retag MiB");
  for (const int compartments : {8, 32, 256}) {
    const HotSetResult r = RunHotSet(compartments);
    std::printf("%12d %14.0f %9.1f%% %10llu %10.1f\n", compartments, r.entries_per_sec,
                100.0 * r.hit_rate, static_cast<unsigned long long>(r.evictions), r.retag_mb);
    const std::string tag = "/compartments:" + std::to_string(compartments) + "/policy:lru";
    out.Add("entries_per_sec" + tag, r.entries_per_sec, "ops/s");
    out.Add("hit_rate" + tag, r.hit_rate, "ratio");
    out.Add("evictions" + tag, static_cast<double>(r.evictions), "count");
    out.Add("retag_mb" + tag, r.retag_mb, "MiB");
  }

  std::printf("\nchurn: re-tag cost per miss, %d live libraries over %zu slots\n", kChurnLive,
              MissShape{}.slots);
  std::printf("%10s %16s %16s %8s\n", "backend", "released:0 us",
              ("released:" + std::to_string(kChurnReleased) + " us").c_str(), "ratio");
  for (const char* name : {"sim", "mprotect", "hardware"}) {
    const double fresh = MeasureRetagUsPerMiss(name, {});
    if (fresh < 0) {
      std::printf("%10s %16s\n", name, "unavailable");
      continue;
    }
    const double churned = MeasureRetagUsPerMiss(name, {.released = kChurnReleased});
    std::printf("%10s %16.2f %16.2f %7.2fx\n", name, fresh, churned, churned / fresh);
    const std::string tag = std::string("/backend:") + name;
    out.Add("retag_us_per_miss" + tag + "/released:0", fresh, "us");
    out.Add("retag_us_per_miss" + tag + "/released:" + std::to_string(kChurnReleased), churned,
            "us");
    out.Add("retag_growth_ratio" + tag, churned / fresh, "x");
  }

  std::printf("\nlive: re-tag cost per miss by live libraries over %zu slots, fastest of %d\n",
              MissShape{}.slots, kLiveRounds);
  std::printf("%10s %12s %12s %12s %8s\n", "backend", "live:64 us", "live:256 us", "live:1024 us",
              "ratio");
  for (const char* name : {"sim", "mprotect", "hardware"}) {
    // Rounds interleave the live counts so host drift hits each alike; the
    // fastest round of each count is the one other load disturbed least.
    double best[std::size(kLiveCounts)];
    for (int round = 0; round < kLiveRounds; ++round) {
      for (size_t i = 0; i < std::size(kLiveCounts); ++i) {
        const double us = MeasureRetagUsPerMiss(name, {.live = kLiveCounts[i]});
        best[i] = round == 0 ? us : std::min(best[i], us);
      }
    }
    if (best[0] < 0) {
      std::printf("%10s %12s\n", name, "unavailable");
      continue;
    }
    const std::string tag = std::string("/backend:") + name;
    for (size_t i = 0; i < std::size(kLiveCounts); ++i) {
      out.Add("retag_us_per_miss" + tag + "/live:" + std::to_string(kLiveCounts[i]), best[i], "us");
    }
    const double growth = best[2] / best[0];
    std::printf("%10s %12.2f %12.2f %12.2f %7.2fx\n", name, best[0], best[1], best[2], growth);
    out.Add("retag_live_ratio" + tag, growth, "x");
  }

  std::printf("\nserver shape: re-tag cost per miss, %d x 8 MiB tenant pools with a 64 KiB "
              "scratch over %zu slots, fastest of %d\n",
              kServerShape.live, kServerShape.slots, kServerRounds);
  std::printf("%10s %10s\n", "backend", "us");
  for (const char* name : {"sim", "mprotect", "hardware"}) {
    double best = MeasureRetagUsPerMiss(name, kServerShape);
    if (best < 0) {
      std::printf("%10s %10s\n", name, "unavailable");
      continue;
    }
    for (int round = 1; round < kServerRounds; ++round) {
      best = std::min(best, MeasureRetagUsPerMiss(name, kServerShape));
    }
    std::printf("%10s %10.2f\n", name, best);
    out.Add(std::string("server_retag_us_per_miss/backend:") + name + "/pool:8MiB/tenants:256",
            best, "us");
  }
  out.Write();
  return 0;
}
