// Virtual-pkey overhead, eviction hit rate and re-tag cost (bench_vpkey).
//
// Two questions, mirroring the acceptance bar for key virtualization:
//
//  1. What does the vpkey layer cost on the hot path? A resident-key entry
//     (cache hit) must stay within ~10% of the pre-virtualization
//     EnterLibrary, which composed the deny-mask by iterating every
//     registered library. The legacy loop is reproduced inline here against
//     the same backend primitives, so the comparison isolates the layer.
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
#include "src/runtime/call_gate.h"
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

// The pre-virtualization EnterLibrary/ExitLibrary, reproduced faithfully:
// one hardware key per library held in the same struct layout the old
// Library table used, deny-mask composed by iterating that table on every
// entry, backend reached by virtual dispatch, enter/exit out of line — the
// same code shape the old member functions compiled to.
struct LegacyLibrary {
  std::string name;
  PkeyId key = kDefaultPkey;
  std::unique_ptr<int> arena_slot;  // stride stand-ins for the old
  std::unique_ptr<int> heap_slot;   // arena/heap members
};

struct LegacyCompartment {
  MpkBackend* backend = nullptr;
  PkeyId trusted_key = kDefaultPkey;
  std::vector<LegacyLibrary> libraries;
  uint64_t transitions = 0;
};

__attribute__((noinline)) PkruValue LegacyPolicyFor(const LegacyCompartment& mc,
                                                    LibraryId library) {
  PS_CHECK_LE(library, mc.libraries.size());
  PkruValue pkru = PkruValue::AllowAll().WithAccessDisabled(mc.trusted_key);
  for (size_t i = 0; i < mc.libraries.size(); ++i) {
    if (static_cast<LibraryId>(i + 1) != library) {
      pkru = pkru.WithAccessDisabled(mc.libraries[i].key);
    }
  }
  return pkru;
}

__attribute__((noinline)) void LegacyEnter(LegacyCompartment& mc, LibraryId library) {
  PS_CHECK_GE(library, 1u);
  const PkruValue saved = mc.backend->ReadPkru();
  CompartmentStack::Push({saved, Domain::kUntrusted});
  ++mc.transitions;
  mc.backend->WritePkru(LegacyPolicyFor(mc, library));
}

__attribute__((noinline)) void LegacyExit(LegacyCompartment& mc) {
  const CompartmentStack::Frame frame = CompartmentStack::Pop();
  PS_CHECK(frame.entered == Domain::kUntrusted) << "unbalanced library transitions";
  ++mc.transitions;
  mc.backend->WritePkru(frame.saved_pkru);
}

double MeasureLegacyNs() {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  LegacyCompartment mc;
  mc.backend = &backend;
  mc.trusted_key = *backend.AllocateKey();
  for (int i = 0; i < kHotLibraries; ++i) {
    mc.libraries.push_back(LegacyLibrary{"lib" + std::to_string(i), *backend.AllocateKey(),
                                         nullptr, nullptr});
  }
  const double start = NowNs();
  for (int i = 0; i < kEntryPairs; ++i) {
    LegacyEnter(mc, static_cast<LibraryId>(i % kHotLibraries + 1));
    LegacyExit(mc);
  }
  const double ns = (NowNs() - start) / kEntryPairs;
  if (mc.transitions != 2ull * kEntryPairs) {
    std::fprintf(stderr, "legacy transition count off: %llu\n",
                 static_cast<unsigned long long>(mc.transitions));
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
constexpr int kChurnSlots = 4;  // fewer than any live count: every entry misses
constexpr int kChurnMisses = 2000;
constexpr int kChurnReleased = 20000;
constexpr int kLiveCounts[] = {64, 256, 1024};
constexpr int kLiveRounds = 5;

// Re-tag µs per key miss among `live_count` round-robin libraries, after
// `released` libraries were registered, used and released, on a fresh
// backend named as --backend= takes it. Negative when the backend is
// unavailable here.
double MeasureRetagUsPerMiss(const char* backend_name, int released, int live_count) {
  auto backend = CreateMpkBackend(*ParseBackendKind(backend_name));
  if (!backend.ok()) {
    return -1;
  }
  (*backend)->WritePkru(PkruValue::AllowAll());
  MultiCompartmentConfig config = SmallPools();
  config.library_pool_bytes = size_t{256} << 10;
  config.max_hw_slots = kChurnSlots;
  auto sandbox = MakeSandbox(backend->get(), config);
  if (!sandbox.ok()) {
    std::fprintf(stderr, "%s: %s\n", backend_name, sandbox.status().ToString().c_str());
    return -1;
  }
  MultiCompartment* mc = sandbox->mc.get();
  for (int i = 0; i < released; ++i) {
    auto id = mc->RegisterLibrary("released");
    if (!id.ok() || mc->AllocateIn(*id, 64) == nullptr || !mc->ReleaseLibrary(*id).ok()) {
      std::fprintf(stderr, "%s: session %d failed\n", backend_name, i);
      return -1;
    }
  }
  std::vector<LibraryId> live;
  for (int i = 0; i < live_count; ++i) {
    live.push_back(*mc->RegisterLibrary("live" + std::to_string(i)));
  }
  for (int i = 0; i < 2 * live_count; ++i) {  // first-touch work out of the timing
    MultiCompartment::Scope warm(*mc, live[i % live_count]);
  }
  const VpkeyStats before = mc->vpkey_stats();
  for (int i = 0; i < kChurnMisses; ++i) {
    MultiCompartment::Scope scope(*mc, live[i % live_count]);
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

  // Warm both paths once to fault code and allocator state in.
  (void)MeasureLegacyNs();
  (void)MeasureVpkeyResidentNs();

  const double legacy_ns = MeasureLegacyNs();
  const double resident_ns = MeasureVpkeyResidentNs();
  const double ratio = resident_ns / legacy_ns;
  std::printf("enter+exit, legacy (8 libs, mask by iteration): %8.1f ns\n", legacy_ns);
  std::printf("enter+exit, vpkey resident hit:                 %8.1f ns  (%.2fx)\n",
              resident_ns, ratio);
  out.Add("enter_exit_ns/mode:legacy", legacy_ns, "ns");
  out.Add("enter_exit_ns/mode:vpkey_resident", resident_ns, "ns");
  out.Add("resident_overhead_ratio", ratio, "x");

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

  std::printf("\nchurn: re-tag cost per miss, %d live libraries over %d slots\n", kChurnLive,
              kChurnSlots);
  std::printf("%10s %16s %16s %8s\n", "backend", "released:0 us",
              ("released:" + std::to_string(kChurnReleased) + " us").c_str(), "ratio");
  for (const char* name : {"sim", "mprotect", "hardware"}) {
    const double fresh = MeasureRetagUsPerMiss(name, 0, kChurnLive);
    if (fresh < 0) {
      std::printf("%10s %16s\n", name, "unavailable");
      continue;
    }
    const double churned = MeasureRetagUsPerMiss(name, kChurnReleased, kChurnLive);
    std::printf("%10s %16.2f %16.2f %7.2fx\n", name, fresh, churned, churned / fresh);
    const std::string tag = std::string("/backend:") + name;
    out.Add("retag_us_per_miss" + tag + "/released:0", fresh, "us");
    out.Add("retag_us_per_miss" + tag + "/released:" + std::to_string(kChurnReleased), churned,
            "us");
    out.Add("retag_growth_ratio" + tag, churned / fresh, "x");
  }

  std::printf("\nlive: re-tag cost per miss by live libraries over %d slots, fastest of %d\n",
              kChurnSlots, kLiveRounds);
  std::printf("%10s %12s %12s %12s %8s\n", "backend", "live:64 us", "live:256 us", "live:1024 us",
              "ratio");
  for (const char* name : {"sim", "mprotect", "hardware"}) {
    // Rounds interleave the live counts so host drift hits each alike; the
    // fastest round of each count is the one other load disturbed least.
    double best[std::size(kLiveCounts)];
    for (int round = 0; round < kLiveRounds; ++round) {
      for (size_t i = 0; i < std::size(kLiveCounts); ++i) {
        const double us = MeasureRetagUsPerMiss(name, 0, kLiveCounts[i]);
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
  out.Write();
  return 0;
}
