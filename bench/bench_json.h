// Shared machine-readable result harness for the benchmark executables.
//
// Every bench that uses this header writes BENCH_<name>.json into the
// current directory (override with PKRUSAFE_BENCH_OUT_DIR) so scripts and
// CI scrape numbers from one stable schema instead of parsing stdout:
//
//   {"kind":"pkru_safe_bench","version":1,"bench":"alloc_mt",
//    "env":{"nproc":4,"pku":true,"compiler":"12.2.0","ndebug":true},
//    "results":[{"name":"cached_ops_per_sec/threads:8",
//                "value":1.23e7,"unit":"ops/s"},...]}
//
// `env` says where the numbers came from: online CPUs, whether the OS has
// enabled protection keys (CPUID leaf 7, ECX bit 4, OSPKE), the compiler
// version and whether assertions were compiled out (NDEBUG).
//
// Two entry points:
//   * manual-main benches (bench_alloc_mt):
//       pkrusafe::bench::BenchJsonWriter out("alloc_mt");
//       out.Add("cached_ops_per_sec/threads:8", ops, "ops/s");
//       out.Write();   // prints the path it wrote
//   * google-benchmark benches (bench_callgate_micro, bench_gate_ablation):
//       replace BENCHMARK_MAIN() with
//       int main(int argc, char** argv) {
//         return pkrusafe::bench::RunBenchmarksWithJson("callgate_micro",
//                                                       argc, argv);
//       }
//     which tees the normal console reporter and captures every run's
//     real_time/cpu_time (plus items_per_second when set).
//
// Header-only: bench targets link different library sets, and every one of
// them already reaches ps_support, which holds the JSON writer.
#ifndef BENCH_BENCH_JSON_H_
#define BENCH_BENCH_JSON_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/support/json.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace pkrusafe {
namespace bench {

class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {}

  void Add(const std::string& metric, double value, const std::string& unit) {
    results_.push_back(Result{metric, value, unit});
  }

  // Writes BENCH_<name>.json (in $PKRUSAFE_BENCH_OUT_DIR when set, else the
  // current directory). Returns false and reports on stderr when the file
  // cannot be written.
  bool Write() const {
    const std::string path = OutputPath();
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
      return false;
    }
    std::string text;
    json::Writer w(&text);
    w.BeginObject().Key("kind").String("pkru_safe_bench").Key("version").Int(1);
    w.Key("bench").String(name_).Key("env").BeginObject();
    w.Key("nproc").Int(sysconf(_SC_NPROCESSORS_ONLN)).Key("pku").Bool(OsPkeEnabled());
    w.Key("compiler").String(__VERSION__).Key("ndebug").Bool(kNdebug).EndObject();
    w.Key("results").BeginArray();
    for (const Result& r : results_) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", r.value);
      w.BeginObject().Key("name").String(r.name).Key("value").Number(value);
      w.Key("unit").String(r.unit).EndObject();
    }
    w.EndArray().EndObject();
    std::fprintf(out, "%s\n", text.c_str());
    std::fclose(out);
    std::printf("wrote %zu result(s) to %s\n", results_.size(), path.c_str());
    return true;
  }

  size_t result_count() const { return results_.size(); }

 private:
  struct Result {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

#ifdef NDEBUG
  static constexpr bool kNdebug = true;
#else
  static constexpr bool kNdebug = false;
#endif

  static bool OsPkeEnabled() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 && (ecx & (1u << 4)) != 0;
#else
    return false;
#endif
  }

  std::string OutputPath() const {
    const char* dir = std::getenv("PKRUSAFE_BENCH_OUT_DIR");
    std::string path = dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : std::string();
    return path + "BENCH_" + name_ + ".json";
  }

  std::string name_;
  std::vector<Result> results_;
};

}  // namespace bench
}  // namespace pkrusafe

// google-benchmark integration: only compiled when the including file pulled
// in <benchmark/benchmark.h> first.
#ifdef BENCHMARK_BENCHMARK_H_

namespace pkrusafe {
namespace bench {

namespace internal {

// Tees to the normal console reporter while collecting every finished run.
// Colours only a terminal, so piped output carries no ANSI escapes.
class CapturingReporter : public ::benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(BenchJsonWriter* out)
      : ConsoleReporter(isatty(STDOUT_FILENO) ? OO_Defaults : OO_Tabular), out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      const std::string name = run.benchmark_name();
      out_->Add(name + "/real_time_ns", run.GetAdjustedRealTime(), "ns");
      out_->Add(name + "/cpu_time_ns", run.GetAdjustedCPUTime(), "ns");
      if (run.counters.find("items_per_second") != run.counters.end()) {
        out_->Add(name + "/items_per_second",
                  run.counters.at("items_per_second").value, "items/s");
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchJsonWriter* out_;
};

}  // namespace internal

// Drop-in replacement for BENCHMARK_MAIN()'s body: run all registered
// benchmarks through the capturing reporter, then write BENCH_<name>.json.
inline int RunBenchmarksWithJson(const std::string& name, int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  BenchJsonWriter out(name);
  internal::CapturingReporter reporter(&out);
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  ::benchmark::Shutdown();
  return out.Write() ? 0 : 1;
}

}  // namespace bench
}  // namespace pkrusafe

#endif  // BENCHMARK_BENCHMARK_H_

#endif  // BENCH_BENCH_JSON_H_
