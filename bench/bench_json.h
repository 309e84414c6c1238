// Shared machine-readable result harness for the benchmark executables.
//
// Every bench that uses this header writes BENCH_<name>.json into the
// current directory (override with PKRUSAFE_BENCH_OUT_DIR) so scripts and
// CI scrape numbers from one stable schema instead of parsing stdout:
//
//   {"kind":"pkru_safe_bench","version":1,"bench":"alloc_mt",
//    "results":[{"name":"cached_ops_per_sec/threads:8",
//                "value":1.23e7,"unit":"ops/s"},...]}
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

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/support/json.h"

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
    w.Key("bench").String(name_).Key("results").BeginArray();
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
class CapturingReporter : public ::benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(BenchJsonWriter* out) : out_(out) {}

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
