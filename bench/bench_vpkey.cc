// Virtual-pkey overhead and eviction-policy ablation (bench_vpkey).
//
// Two questions, mirroring the acceptance bar for key virtualization:
//
//  1. What does the vpkey layer cost on the hot path? A resident-key entry
//     (cache hit) must stay within ~10% of the pre-virtualization
//     EnterLibrary, which composed the deny-mask by iterating every
//     registered library. The legacy loop is reproduced inline here against
//     the same backend primitives, so the comparison isolates the layer.
//
//  2. LRU or LFU for victim selection? Ran at 8/32/256 compartments with a
//     skewed access pattern (80% of entries hit an 8-library hot set, 20%
//     sweep the cold tail round-robin). At 8 compartments everything is
//     resident and the policies tie; past the slot count LFU keeps the hot
//     set resident through cold sweeps while LRU lets the sweep flush it.
//
//  3. Does a key miss get slower as a long-lived process releases
//     libraries (the churn case)? Re-tag µs per miss is measured after 0
//     and after 20,000 released libraries on every available backend. A
//     backend re-tag publishes every tagged range in the process, so the
//     cost stays flat only while released pools are recycled instead of
//     accumulating.
//
// Writes BENCH_vpkey.json via the shared emitter.
#include <chrono>
#include <cstdio>
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
constexpr int kAblationEntries = 30000;

double NowNs() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

MultiCompartmentConfig SmallPools(EvictionPolicy policy) {
  MultiCompartmentConfig config;
  config.trusted_pool_bytes = size_t{1} << 20;
  config.shared_pool_bytes = size_t{1} << 20;
  config.library_pool_bytes = size_t{1} << 20;
  config.eviction_policy = policy;
  return config;
}

// The virtualized hot path: all 8 libraries resident, every entry a hit.
double MeasureVpkeyResidentNs() {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  auto mc = MultiCompartment::Create(&backend, SmallPools(EvictionPolicy::kLru));
  if (!mc.ok()) {
    std::fprintf(stderr, "%s\n", mc.status().ToString().c_str());
    return -1;
  }
  for (int i = 0; i < kHotLibraries; ++i) {
    (void)*(*mc)->RegisterLibrary("lib" + std::to_string(i));
  }
  for (int i = 0; i < kHotLibraries; ++i) {
    MultiCompartment::Scope warm(**mc, static_cast<LibraryId>(i + 1));
  }
  const double start = NowNs();
  for (int i = 0; i < kEntryPairs; ++i) {
    MultiCompartment::Scope scope(**mc, static_cast<LibraryId>(i % kHotLibraries + 1));
  }
  const double ns = (NowNs() - start) / kEntryPairs;
  const VpkeyStats stats = (*mc)->vpkey_stats();
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

struct AblationResult {
  double entries_per_sec = 0;
  double hit_rate = 0;
  uint64_t evictions = 0;
  double retag_mb = 0;
};

AblationResult RunAblation(int compartments, EvictionPolicy policy) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  SimMpkBackend backend;
  auto mc = MultiCompartment::Create(&backend, SmallPools(policy));
  if (!mc.ok()) {
    std::fprintf(stderr, "%s\n", mc.status().ToString().c_str());
    return {};
  }
  for (int i = 0; i < compartments; ++i) {
    (void)*(*mc)->RegisterLibrary("lib" + std::to_string(i));
  }
  SplitMix64 rng(0xab1a7e);
  int cold_cursor = kHotLibraries;
  const double start = NowNs();
  for (int i = 0; i < kAblationEntries; ++i) {
    LibraryId target;
    if (compartments <= kHotLibraries || rng.NextDouble() < 0.8) {
      target = static_cast<LibraryId>(1 + rng.NextBelow(
                                              std::min(compartments, kHotLibraries)));
    } else {
      target = static_cast<LibraryId>(cold_cursor + 1);
      cold_cursor = kHotLibraries + (cold_cursor + 1 - kHotLibraries) %
                                        (compartments - kHotLibraries);
    }
    MultiCompartment::Scope scope(**mc, target);
  }
  const double elapsed_ns = NowNs() - start;
  const VpkeyStats stats = (*mc)->vpkey_stats();
  AblationResult result;
  result.entries_per_sec = kAblationEntries / (elapsed_ns / 1e9);
  result.hit_rate = static_cast<double>(stats.hits) /
                    static_cast<double>(stats.hits + stats.misses);
  result.evictions = stats.evictions;
  result.retag_mb = static_cast<double>(stats.retag_bytes) / (1024.0 * 1024.0);
  return result;
}

constexpr int kChurnLive = 8;  // twice the slots: every entry misses
constexpr int kChurnMisses = 2000;
constexpr int kChurnReleased = 20000;

// Re-tag µs per key miss among kChurnLive round-robin libraries, after
// `released` libraries were registered, used and released, on a fresh
// backend named as --backend= takes it. Negative when the backend is
// unavailable here.
double MeasureRetagUsPerMiss(const char* backend_name, int released) {
  auto backend = CreateMpkBackend(*ParseBackendKind(backend_name));
  if (!backend.ok()) {
    return -1;
  }
  (*backend)->WritePkru(PkruValue::AllowAll());
  MultiCompartmentConfig config = SmallPools(EvictionPolicy::kLru);
  config.library_pool_bytes = size_t{256} << 10;
  config.max_hw_slots = kChurnLive / 2;
  auto mc = MultiCompartment::Create(backend->get(), config);
  if (!mc.ok()) {
    std::fprintf(stderr, "%s: %s\n", backend_name, mc.status().ToString().c_str());
    return -1;
  }
  for (int i = 0; i < released; ++i) {
    auto id = (*mc)->RegisterLibrary("released");
    if (!id.ok() || (*mc)->AllocateIn(*id, 64) == nullptr || !(*mc)->ReleaseLibrary(*id).ok()) {
      std::fprintf(stderr, "%s: session %d failed\n", backend_name, i);
      return -1;
    }
  }
  std::vector<LibraryId> live;
  for (int i = 0; i < kChurnLive; ++i) {
    live.push_back(*(*mc)->RegisterLibrary("live" + std::to_string(i)));
  }
  for (int i = 0; i < 2 * kChurnLive; ++i) {  // first-touch work out of the timing
    MultiCompartment::Scope warm(**mc, live[i % kChurnLive]);
  }
  const VpkeyStats before = (*mc)->vpkey_stats();
  for (int i = 0; i < kChurnMisses; ++i) {
    MultiCompartment::Scope scope(**mc, live[i % kChurnLive]);
  }
  const VpkeyStats after = (*mc)->vpkey_stats();
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

  std::printf("\nablation: 80%% hot-set(8) / 20%% cold sweep, %d entries\n", kAblationEntries);
  std::printf("%12s %8s %14s %10s %10s %10s\n", "compartments", "policy", "entries/s", "hit%",
              "evictions", "retag MiB");
  for (const int compartments : {8, 32, 256}) {
    for (const EvictionPolicy policy : {EvictionPolicy::kLru, EvictionPolicy::kLfu}) {
      const AblationResult r = RunAblation(compartments, policy);
      const char* pname = EvictionPolicyName(policy);
      std::printf("%12d %8s %14.0f %9.1f%% %10llu %10.1f\n", compartments, pname,
                  r.entries_per_sec, 100.0 * r.hit_rate,
                  static_cast<unsigned long long>(r.evictions), r.retag_mb);
      const std::string tag =
          "/compartments:" + std::to_string(compartments) + "/policy:" + pname;
      out.Add("entries_per_sec" + tag, r.entries_per_sec, "ops/s");
      out.Add("hit_rate" + tag, r.hit_rate, "ratio");
      out.Add("evictions" + tag, static_cast<double>(r.evictions), "count");
      out.Add("retag_mb" + tag, r.retag_mb, "MiB");
    }
  }

  std::printf("\nchurn: re-tag cost per miss, %d live libraries over %d slots\n", kChurnLive,
              kChurnLive / 2);
  std::printf("%10s %16s %16s %8s\n", "backend", "released:0 us",
              ("released:" + std::to_string(kChurnReleased) + " us").c_str(), "ratio");
  for (const char* name : {"sim", "mprotect", "hardware"}) {
    const double fresh = MeasureRetagUsPerMiss(name, 0);
    if (fresh < 0) {
      std::printf("%10s %16s\n", name, "unavailable");
      continue;
    }
    const double churned = MeasureRetagUsPerMiss(name, kChurnReleased);
    std::printf("%10s %16.2f %16.2f %7.2fx\n", name, fresh, churned, churned / fresh);
    const std::string tag = std::string("/backend:") + name;
    out.Add("retag_us_per_miss" + tag + "/released:0", fresh, "us");
    out.Add("retag_us_per_miss" + tag + "/released:" + std::to_string(kChurnReleased), churned,
            "us");
    out.Add("retag_growth_ratio" + tag, churned / fresh, "x");
  }
  out.Write();
  return 0;
}
