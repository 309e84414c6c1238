// perfbench: the repository benchmark's measuring process.
//
//   perfbench --workload serve_hot|serve_churn|browse_dom --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--print-inputs N]
//
// Prints an environment line, human-readable notes, and as its last line one
// JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. run.py
// builds and runs it; README.md documents the workloads and metrics.
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "src/mpk/hardware_backend.h"

namespace perfbench {
namespace {

constexpr int kExitIncorrect = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRefused = 3;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve_hot|serve_churn|browse_dom "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--print-inputs N]\n",
               why);
  std::exit(kExitUsage);
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &number) && number >= 1 && number <= 120) {
      args.seconds = static_cast<int>(number);
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      args.trace = number == 1;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--print-inputs" && ParseUint(value, &number) && number <= 1'000'000) {
      args.print_inputs = static_cast<int>(number);
    } else {
      Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (args.workload != "serve_hot" && args.workload != "serve_churn" &&
      args.workload != "browse_dom") {
    Usage("unknown --workload");
  }
  if (!have_seed) {
    Usage("--seed is required");
  }
  return args;
}

// A measurement of another program than the one users run is refused
// rather than reported: no sim fallback, no sanitizer or -O0 builds.
void RefuseUnlessMeasurable() {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "perfbench: refusing to measure an unoptimized or sanitizer build\n");
  std::exit(kExitRefused);
#endif
  if (!pkrusafe::HardwareMpkBackend::IsSupported()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure: this host has no usable PKU "
                 "(the benchmark runs the hardware backend only)\n");
    std::exit(kExitRefused);
  }
}

// Seconds for a fixed dependent-ALU loop: compare across sets of runs to
// see whether the host itself was slower.
double AluCalibrationSeconds() {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  const uint64_t start = NowNs();
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const uint64_t elapsed = NowNs() - start;
  volatile uint64_t sink = x;
  (void)sink;
  return Seconds(elapsed);
}

// Seconds for 2M dependent loads around a fixed random cycle over 8 MiB:
// the workloads are cache-bound, and neighbours on the host change cache
// and memory speed far more than ALU speed. Runs in a forked child so its
// buffer never counts in this process's peak RSS.
double MemoryCalibrationSeconds() {
  const std::vector<double> seconds = TimeInChildren(1, [] {
    constexpr size_t kSlots = (size_t{8} << 20) / sizeof(uint32_t);
    std::vector<uint32_t> next(kSlots);
    std::vector<uint32_t> order(kSlots);
    for (size_t i = 0; i < kSlots; ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    for (size_t i = kSlots - 1; i > 0; --i) {
      std::swap(order[i], order[Mix(0, i, 0) % (i + 1)]);
    }
    for (size_t i = 0; i < kSlots; ++i) {
      next[order[i]] = order[(i + 1) % kSlots];
    }
    uint32_t at = 0;
    const uint64_t start = NowNs();
    for (int i = 0; i < 2'000'000; ++i) {
      at = next[at];
    }
    const uint64_t elapsed = NowNs() - start;
    volatile uint32_t sink = at;
    (void)sink;
    return Seconds(elapsed);
  });
  return seconds.empty() ? 0 : seconds[0];
}

void PrintEnv(const Args& args, const Report& report, double alu_s, double memory_s) {
  std::string env = "{\"env\":{\"workload\":\"" + args.workload + "\"";
  env += ",\"seed\":" + std::to_string(args.seed);
  env += ",\"trace\":" + std::to_string(args.trace ? 1 : 0);
  env += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  env += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"calibration_s\":%.6f,\"calibration_mem_s\":%.6f", alu_s,
                memory_s);
  env += buf;
  for (const std::string& member : report.env) {
    env += "," + member;
  }
  env += "}}";
  std::printf("%s\n", env.c_str());
}

void PrintResult(Report& report) {
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::string metrics;
  for (const Metric& metric : report.metrics) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      report.Fail(metric.name + " is not finite");
      value = 0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", metric.name.c_str(), value, metric.unit.c_str());
    metrics += buf;
    std::printf("# %-40s %14.6g %s\n", metric.name.c_str(), value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  const Args args = ParseArgs(argc, argv);
  if (args.print_inputs > 0) {
    if (args.workload == "browse_dom") {
      PrintBrowseInputs(args);
    } else {
      PrintServeInputs(args);
    }
    return 0;
  }
  RefuseUnlessMeasurable();
  const double alu_s = AluCalibrationSeconds();
  const double memory_s = MemoryCalibrationSeconds();
  Report report = args.workload == "browse_dom" ? RunBrowse(args) : RunServe(args);
  if (report.attempted == 0) {
    report.Fail("no operation was attempted");
  }
  PrintEnv(args, report, alu_s, memory_s);
  std::fflush(stdout);
  PrintResult(report);
  return report.correct ? 0 : kExitIncorrect;
}
