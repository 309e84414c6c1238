// Compiled-program cache tests: exact-text keys, second-sight admission,
// the LRU bound, compile errors, eviction under a live Vm, and per-Vm
// interning of a shared program's constants. Named SandboxServer* so the
// TSan leg of scripts/check.sh server runs them with the server suite.
#include "src/server/program_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/jsvm/compiler.h"
#include "src/jsvm/vm.h"
#include "src/runtime/runtime.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace server {
namespace {

std::unique_ptr<PkruSafeRuntime> MakeSimRuntime() {
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kEnforcing;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  return runtime.ok() ? std::move(*runtime) : nullptr;
}

uint64_t CounterValue(const char* name) {
  return telemetry::MetricsRegistry::Global().GetOrCreateCounter(name)->value();
}

// Counter deltas since construction.
struct CacheCounters {
  uint64_t hits = CounterValue("server.compile_cache.hits");
  uint64_t misses = CounterValue("server.compile_cache.misses");
  uint64_t admitted = CounterValue("server.compile_cache.admitted");
  uint64_t evictions = CounterValue("server.compile_cache.evictions");

  uint64_t Hits() const { return CounterValue("server.compile_cache.hits") - hits; }
  uint64_t Misses() const { return CounterValue("server.compile_cache.misses") - misses; }
  uint64_t Admitted() const { return CounterValue("server.compile_cache.admitted") - admitted; }
  uint64_t Evictions() const {
    return CounterValue("server.compile_cache.evictions") - evictions;
  }
};

std::string PrintScript(int n) { return "print(" + std::to_string(n) + ");"; }

// Loads `program` into a fresh Vm and returns its print output.
std::vector<std::string> RunProgram(PkruSafeRuntime* runtime,
                                    std::shared_ptr<const CompiledProgram> program) {
  Vm vm(runtime);
  const Status loaded = vm.Load(std::move(program));
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  auto result = vm.Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return vm.print_output();
}

TEST(SandboxServerProgramCacheTest, AdmitsOnSecondSightThenServesTheSameProgram) {
  ProgramCache cache({});
  const CacheCounters counters;

  auto first = cache.Get("print(1);");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.size(), 0u);  // seen once: compiled, not admitted
  auto second = cache.Get("print(1);");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(*first, *second);
  auto third = cache.Get("print(1);");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, *second);  // the admitted program itself

  EXPECT_EQ(counters.Misses(), 2u);
  EXPECT_EQ(counters.Admitted(), 1u);
  EXPECT_EQ(counters.Hits(), 1u);
}

TEST(SandboxServerProgramCacheTest, OnceOnlyTextsAreNeverAdmitted) {
  ProgramCache cache({});
  const CacheCounters counters;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(cache.Get(PrintScript(i)).ok());
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(counters.Admitted(), 0u);
  EXPECT_EQ(counters.Hits(), 0u);
  EXPECT_EQ(counters.Misses(), 5000u);
}

TEST(SandboxServerProgramCacheTest, NeverHoldsMoreThanCapacity) {
  ProgramCache cache({});
  const CacheCounters counters;
  constexpr int kTexts = 3 * static_cast<int>(ProgramCache::kCapacity);
  for (int i = 0; i < kTexts; ++i) {
    ASSERT_TRUE(cache.Get(PrintScript(i)).ok());
    ASSERT_TRUE(cache.Get(PrintScript(i)).ok());
    ASSERT_LE(cache.size(), ProgramCache::kCapacity);
  }
  EXPECT_EQ(cache.size(), ProgramCache::kCapacity);
  EXPECT_EQ(counters.Admitted(), static_cast<uint64_t>(kTexts));
  EXPECT_EQ(counters.Evictions(), kTexts - ProgramCache::kCapacity);

  // Least recently used goes first: the newest texts are still cached, the
  // oldest were evicted and recompile.
  const CacheCounters after;
  ASSERT_TRUE(cache.Get(PrintScript(kTexts - 1)).ok());
  EXPECT_EQ(after.Hits(), 1u);
  ASSERT_TRUE(cache.Get(PrintScript(0)).ok());
  EXPECT_EQ(after.Misses(), 1u);
}

TEST(SandboxServerProgramCacheTest, TextsSharingADoorkeeperSlotKeepTheirOwnPrograms) {
  // Two texts that hash to the same doorkeeper slot.
  std::unordered_map<size_t, int> first_in_slot;
  int a = -1;
  int b = -1;
  for (int n = 0; a < 0; ++n) {
    const auto [it, inserted] =
        first_in_slot.emplace(ProgramCache::DoorkeeperSlot(PrintScript(n)), n);
    if (!inserted) {
      a = it->second;
      b = n;
    }
  }
  ASSERT_EQ(ProgramCache::DoorkeeperSlot(PrintScript(a)),
            ProgramCache::DoorkeeperSlot(PrintScript(b)));

  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  ProgramCache cache({});
  // Interleaved (each overwrites the other's doorkeeper slot), then paired
  // (each is admitted), then interleaved again (both served from the cache).
  for (const int n : {a, b, a, b, a, a, b, b, a, b, b, a}) {
    auto program = cache.Get(PrintScript(n));
    ASSERT_TRUE(program.ok());
    EXPECT_EQ(RunProgram(runtime.get(), *program),
              std::vector<std::string>{std::to_string(n)});
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(*cache.Get(PrintScript(a)), *cache.Get(PrintScript(b)));
}

TEST(SandboxServerProgramCacheTest, CompileErrorsAreNeverCachedAndKeepTheirMessage) {
  ProgramCache cache({});
  const std::string bad = "let = ;";
  const auto direct = CompileSource(bad);
  ASSERT_FALSE(direct.ok());
  for (int i = 0; i < 3; ++i) {
    const auto cached = cache.Get(bad);
    ASSERT_FALSE(cached.ok());
    EXPECT_EQ(cached.status().ToString(), direct.status().ToString());
  }
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SandboxServerProgramCacheTest, EvictedProgramOutlivesItsEntry) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  ProgramCache cache({});
  const std::string script = "let s = 0; for (let i = 0; i < 10; i = i + 1) { s = s + i; } print(s);";
  ASSERT_TRUE(cache.Get(script).ok());
  auto cached = cache.Get(script);
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(cache.size(), 1u);

  Vm vm(runtime.get());
  ASSERT_TRUE(vm.Load(*cached).ok());
  cached->reset();  // the Vm now holds the only reference besides the cache

  // Admit kCapacity other texts: the loaded program is evicted.
  for (size_t i = 0; i < ProgramCache::kCapacity; ++i) {
    ASSERT_TRUE(cache.Get(PrintScript(static_cast<int>(i))).ok());
    ASSERT_TRUE(cache.Get(PrintScript(static_cast<int>(i))).ok());
  }
  const CacheCounters counters;
  ASSERT_TRUE(cache.Get(script).ok());
  EXPECT_EQ(counters.Misses(), 1u);  // no longer cached

  auto result = vm.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(vm.print_output(), std::vector<std::string>{"45"});
}

TEST(SandboxServerProgramCacheTest, SharedProgramInternsConstantsPerVm) {
  auto runtime = MakeSimRuntime();
  ASSERT_NE(runtime, nullptr);
  ProgramCache cache({});
  const std::string script = "let s = \"constant\"; print(s); print(__addrof(s));";
  ASSERT_TRUE(cache.Get(script).ok());
  auto program = cache.Get(script);
  ASSERT_TRUE(program.ok());

  // Two live Vms (two tenants' requests in flight) run one shared program:
  // each interns the constant into its own heap.
  VmOptions options;
  options.enable_vulnerability = true;
  Vm alice(runtime.get(), options);
  Vm bob(runtime.get(), options);
  ASSERT_TRUE(alice.Load(*program).ok());
  ASSERT_TRUE(bob.Load(*program).ok());
  ASSERT_TRUE(alice.Run().ok());
  ASSERT_TRUE(bob.Run().ok());
  ASSERT_EQ(alice.print_output().size(), 2u);
  ASSERT_EQ(bob.print_output().size(), 2u);
  EXPECT_EQ(alice.print_output()[0], "constant");
  EXPECT_EQ(bob.print_output()[0], "constant");
  EXPECT_NE(alice.print_output()[1], bob.print_output()[1]);
}

}  // namespace
}  // namespace server
}  // namespace pkrusafe
