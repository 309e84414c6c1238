// Multithreaded small-allocation throughput of the thread-caching front end.
//
// Each worker runs a hot alloc/free loop over a working set of small mixed
// sizes in the trusted pool. The hot path is thread-local, so throughput
// should scale with threads (and on a single core, simply not collapse).
// Reported per thread count: aggregate ops per wall-clock second, and ops
// per thread-CPU-second (CLOCK_THREAD_CPUTIME_ID, summed over the workers).
// The CPU rate does not count time a worker spent descheduled, so it still
// compares the cache hot path when a shared host gives the bench fewer
// cores than it has threads. The retired global-mutex baseline's numbers
// stay in the committed BENCH_alloc_mt.json (docs/allocator.md).
#include <time.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/mpk/sim_backend.h"
#include "src/pkalloc/pkalloc.h"
#include "src/support/rng.h"

namespace pkrusafe {
namespace {

constexpr int kOpsPerThread = 200000;
constexpr size_t kWindow = 64;  // live blocks per worker

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Hot loop: replace a random member of a live window with a fresh block of
// a random small class. Every op is one Free and one Allocate. Stores the
// worker's CPU seconds in `cpu_seconds`.
void Worker(PkAllocator* alloc, uint64_t seed, double* cpu_seconds) {
  const double cpu_start = ThreadCpuSeconds();
  SplitMix64 rng(seed);
  std::vector<void*> window(kWindow, nullptr);
  for (int op = 0; op < kOpsPerThread; ++op) {
    const size_t slot = rng.NextBelow(kWindow);
    if (window[slot] != nullptr) {
      alloc->Free(window[slot]);
    }
    const size_t size = 1 + rng.NextBelow(1024);
    window[slot] = alloc->Allocate(Domain::kTrusted, size);
    if (window[slot] == nullptr) {
      std::fprintf(stderr, "arena exhausted\n");
      std::abort();
    }
  }
  for (void* ptr : window) {
    if (ptr != nullptr) {
      alloc->Free(ptr);
    }
  }
  alloc->FlushThisThreadCache();
  *cpu_seconds = ThreadCpuSeconds() - cpu_start;
}

struct Rates {
  double wall;  // ops per wall-clock second
  double cpu;   // ops per thread-CPU-second
};

Rates Measure(int threads) {
  SimMpkBackend backend;
  auto alloc = *PkAllocator::Create(&backend);

  std::vector<double> cpu_seconds(threads, 0.0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(Worker, alloc.get(), uint64_t{0xBEEF} + t, &cpu_seconds[t]);
  }
  for (auto& worker : workers) {
    worker.join();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  double cpu_total = 0;
  for (const double cpu : cpu_seconds) {
    cpu_total += cpu;
  }
  const double ops = static_cast<double>(kOpsPerThread) * threads;
  return Rates{ops / seconds, ops / cpu_total};
}

}  // namespace
}  // namespace pkrusafe

int main() {
  using namespace pkrusafe;  // NOLINT: bench brevity
  SetCurrentThreadPkru(PkruValue::AllowAll());

  std::printf("# Small-allocation throughput: thread cache\n");
  std::printf("%-8s %16s %18s\n", "threads", "cached(ops/s)", "cpu(ops/cpu-s)");

  (void)Measure(1);  // warmup

  bench::BenchJsonWriter out("alloc_mt");
  for (const int threads : {1, 2, 4, 8}) {
    const Rates rates = Measure(threads);
    std::printf("%-8d %16.0f %18.0f\n", threads, rates.wall, rates.cpu);
    out.Add("cached_ops_per_sec/threads:" + std::to_string(threads), rates.wall, "ops/s");
    out.Add("cpu_ops_per_sec/threads:" + std::to_string(threads), rates.cpu, "ops/cpu-s");
  }
  return out.Write() ? 0 : 1;
}
