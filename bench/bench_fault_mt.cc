// Multithreaded profiling-fault throughput of the per-thread single-step
// slots.
//
// Each worker hammers its own protected page, so every store takes the full
// fault path (SIGSEGV -> classify -> allow-once -> single-step -> SIGTRAP ->
// reprotect); with per-thread slots the steps overlap. Reported per thread
// count: aggregate faults/sec. The retired v1 serialized engine's numbers
// stay in the committed BENCH_fault_mt.json (docs/faults.md).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/memmap/page.h"
#include "src/memmap/vm_region.h"
#include "src/mpk/fault_signal.h"
#include "src/mpk/mprotect_backend.h"

namespace pkrusafe {
namespace {

constexpr int kFaultsPerThread = 2000;
// Two-page stride: the engine's allow-once window spans the fault page plus
// its successor, so adjacent workers would leak accesses past each other's
// open windows and skip faults.
constexpr uintptr_t kStridePages = 2;

double MeasureFaultsPerSec(int threads) {
  MprotectMpkBackend backend;
  auto region = VmRegion::Reserve(threads * kStridePages * kPageSize);
  if (!region.ok()) {
    std::fprintf(stderr, "reserve failed: %s\n", region.status().ToString().c_str());
    std::abort();
  }
  auto key = backend.AllocateKey();
  if (!key.ok()) {
    std::fprintf(stderr, "no pkey: %s\n", key.status().ToString().c_str());
    std::abort();
  }
  for (int t = 0; t < threads; ++t) {
    const uintptr_t page = region->base() + static_cast<uintptr_t>(t) * kStridePages * kPageSize;
    if (!backend.TagRange(page, kPageSize, *key).ok()) {
      std::fprintf(stderr, "tag failed\n");
      std::abort();
    }
  }
  if (!backend.InstallSignalHandlers().ok()) {
    std::fprintf(stderr, "install failed\n");
    std::abort();
  }
  backend.SetFaultHandler([](const MpkFault&) { return FaultResolution::kRetryAllowed; });

  const uint64_t serviced_before = FaultSignalEngine::serviced_fault_count();
  backend.WritePkru(PkruValue::AllowAll().WithAccessDisabled(*key));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    const uintptr_t page = region->base() + static_cast<uintptr_t>(t) * kStridePages * kPageSize;
    workers.emplace_back([page] {
      auto* cell = reinterpret_cast<volatile uint64_t*>(page);
      for (int i = 0; i < kFaultsPerThread; ++i) {
        *cell = static_cast<uint64_t>(i);  // faults: the trap re-protected it
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  backend.WritePkru(PkruValue::AllowAll());

  const uint64_t serviced = FaultSignalEngine::serviced_fault_count() - serviced_before;
  const uint64_t expected = static_cast<uint64_t>(threads) * kFaultsPerThread;
  if (serviced < expected) {
    std::fprintf(stderr, "only %llu of %llu stores faulted (window overlap?)\n",
                 static_cast<unsigned long long>(serviced),
                 static_cast<unsigned long long>(expected));
    std::abort();
  }
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  return static_cast<double>(expected) / seconds;
}

}  // namespace
}  // namespace pkrusafe

int main() {
  using namespace pkrusafe;  // NOLINT: bench brevity
  SetCurrentThreadPkru(PkruValue::AllowAll());

  std::printf("# Profiling-fault throughput: per-thread step slots\n");
  std::printf("%-8s %20s\n", "threads", "perthread(faults/s)");

  (void)MeasureFaultsPerSec(1);  // warmup

  bench::BenchJsonWriter out("fault_mt");
  for (const int threads : {1, 2, 4, 8}) {
    const double perthread = MeasureFaultsPerSec(threads);
    std::printf("%-8d %20.0f\n", threads, perthread);
    out.Add("perthread_faults_per_sec/threads:" + std::to_string(threads), perthread,
            "faults/s");
  }
  return out.Write() ? 0 : 1;
}
