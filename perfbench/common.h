// Shared pieces of the benchmark: the command line, seeded hashing,
// latency summaries, the in-memory span trace and the report every workload
// fills in. See README.md for what the workloads measure and why.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/support/status.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
class MultiCompartment;
class PkruSafeRuntime;
}  // namespace pkrusafe

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  // Where the traced run writes its spans ("" = keep them in memory only).
  std::string trace_out;
  // > 0: print the first N generated inputs and exit (used by the tests).
  int print_inputs = 0;
};

// Steady-clock nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Stateless seeded hash: every input the benchmark generates is a function
// of (seed, operation index, stream), never of time or of earlier draws.
uint64_t Mix(uint64_t seed, uint64_t index, uint64_t stream);
// Uniform double in [0, 1) from a Mix value.
inline double UnitInterval(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

// p in [0, 100], through the same histogram as the timed phase's latencies.
double Percentile(const std::vector<uint64_t>& samples, double p);
double Mean(const std::vector<uint64_t>& samples);
double Median(std::vector<double> values);
// Mean of the values between the first and third quartile.
double InterquartileMean(std::vector<double> values);

// Current value of a counter in the global metrics registry.
uint64_t CounterValue(const char* name);

// Peak resident set of this process, in MiB.
double PeakRssMb();

// Spans of the traced run, kept in memory and written out at the end. A
// span's parent is another span of the same request (or -1 for a top-level
// span); self time is its duration minus the time its children cover.
class SpanTrace {
 public:
  struct Span {
    uint32_t request;
    uint16_t name;
    int32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  explicit SpanTrace(std::vector<std::string> names, size_t reserve_spans);

  // Opens a span and returns its index; Close stamps the end.
  int32_t Open(uint32_t request, uint16_t name, int32_t parent) {
    spans_.push_back(Span{request, name, parent, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  // Self times (or full durations) of the spans named `name`.
  std::vector<uint64_t> SelfTimesOf(uint16_t name) const;
  std::vector<uint64_t> DurationsOf(uint16_t name) const;
  // Per request: summed duration of its top-level spans (the part of the
  // request the trace attributes to some layer).
  std::vector<uint64_t> AttributedPerRequest() const;

  // Chrome trace-event JSON ("X" events, request id and parent in args).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  // Self time of every span, in span order.
  std::vector<uint64_t> SelfTimes() const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What one run reports. `env` holds extra environment fields the workload
// knows (as preformatted JSON members, e.g. "\"hw_slots\":12").
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> env;
  std::vector<std::string> notes;  // human-readable lines printed before the result

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // Records a failed cross-check: the run is reported as incorrect.
  void Fail(const std::string& why);
};

// Latency samples in a telemetry::Histogram of a private registry, with
// exponential bounds 1% apart from 100 ns to about 2 s. Its size is fixed,
// so recording a sample never allocates and the sample store stays a few
// hundred KiB however many operations a run makes — peak_rss_mb then
// describes the program, not the sample store.
class Latencies {
 public:
  Latencies();
  void Record(uint64_t ns) { histogram_->Observe(ns); }
  // p in [0, 100], interpolated within its bucket as
  // telemetry::HistogramPercentile does.
  double Percentile(double p) const;

 private:
  pkrusafe::telemetry::MetricsRegistry registry_;
  pkrusafe::telemetry::Histogram* histogram_;
};

// The timed phase, optionally cut into windows of a fixed number of
// operations. A workload whose work repeats in a fixed cycle (serve_churn's
// session sweep) uses the cycle as its window, so every window holds the
// same work and windows differ only in how fast the host ran them. Each
// window's latency percentiles are then averaged over the middle half of
// the whole windows: a neighbour's burst that slows a few windows does not
// move them. Without a cycle (window_ops 0) the phase is one window.
struct TimedPhase {
  struct Window {
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t end_ns = 0;  // since the phase started
    Latencies latencies;
  };

  explicit TimedPhase(uint64_t ops_per_window) : window_ops(ops_per_window) {}

  const uint64_t window_ops;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t elapsed_ns = 0;
  std::vector<std::unique_ptr<Window>> windows;

  // Records one operation that completed `since_start_ns` into the phase.
  void Record(bool correct, uint64_t latency_ns, uint64_t since_start_ns) {
    if (windows.empty() || (window_ops != 0 && attempted % window_ops == 0)) {
      windows.push_back(std::make_unique<Window>());
    }
    Window& window = *windows.back();
    window.latencies.Record(latency_ns);
    ++window.attempted;
    window.end_ns = since_start_ns;
    ++attempted;
    if (correct) {
      ++window.ok;
      ++ok;
    }
  }
};
void AddEndToEnd(const TimedPhase& phase, double setup_s, Report* report);

// The closed loop: issues operations first_index, first_index + 1, ... for
// `seconds`. `issue(index, &latency_ns)` returns whether the operation's
// output was correct.
template <typename Issue>
void MeasureFor(int seconds, uint64_t first_index, Issue issue, TimedPhase* phase) {
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds) * 1'000'000'000;
  uint64_t now = start;
  uint64_t latency = 0;
  for (uint64_t index = first_index; now < deadline; ++index) {
    const bool ok = issue(index, &latency);
    now = NowNs();
    phase->Record(ok, latency, now - start);
  }
  phase->elapsed_ns = now - start;
}

// Set-up passes per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

inline double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Runs `timed` (which returns its own duration in seconds, or a negative
// value on failure) in `children` forked processes, one after another, and
// returns the durations; empty if any child failed.
std::vector<double> TimeInChildren(int children, const std::function<double()>& timed);

// Builds a workload's fixture kSetupRepeats times and returns the last
// pass's fixture; *setup_s receives the median pass duration. `build`
// returns a pkrusafe::Result. All but the last pass run in forked children,
// so each pass starts from a fresh process as a server or browser does.
// Repeating set-up inside one process would measure a different state: the
// hardware backend keeps a destroyed runtime's pkey, so each later pass
// would start with fewer key slots.
template <typename Build>
auto BuildMeasured(const Build& build, double* setup_s) -> decltype(build()) {
  std::vector<double> seconds = TimeInChildren(kSetupRepeats - 1, [&]() -> double {
    const uint64_t start = NowNs();
    return build().ok() ? Seconds(NowNs() - start) : -1;
  });
  if (seconds.size() != kSetupRepeats - 1) {
    return pkrusafe::InternalError("a set-up pass in a child process failed");
  }
  const uint64_t start = NowNs();
  auto built = build();
  seconds.push_back(Seconds(NowNs() - start));
  *setup_s = Median(seconds);
  return built;
}

// Registry and runtime counters read around a phase; the difference of two
// reads gives the phase's per-operation counts.
struct LayerCounters {
  uint64_t t_to_u = 0;
  uint64_t u_to_t = 0;
  uint64_t trusted_allocs = 0;
  uint64_t untrusted_allocs = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t vpkey_hits = 0;
  uint64_t vpkey_misses = 0;
  uint64_t vpkey_evictions = 0;
  uint64_t vpkey_retag_ns = 0;
  uint64_t faults_serviced = 0;
  uint64_t server_requests = 0;
  uint64_t server_ok = 0;

  // The vpkey fields come from `mc`'s own stats (which also reconcile the
  // registry's multidomain.vpkey.hits); they stay 0 without one.
  static LayerCounters Read(pkrusafe::PkruSafeRuntime& runtime,
                            const pkrusafe::MultiCompartment* mc = nullptr);
  LayerCounters operator-(const LayerCounters& before) const;
  LayerCounters& operator+=(const LayerCounters& other);
};

// Every per-layer metric, in the order BENCHMARK.json lists them. A layer a
// workload never reaches reports 0 (it did no work there).
struct LayerReport {
  double server_parse_us = 0;
  double server_session_us = 0;
  double server_session_p99_us = 0;
  double server_sessions_created_per_kreq = 0;
  double server_sessions_released_per_kreq = 0;
  double jsvm_load_us = 0;
  double jsvm_run_us = 0;
  double runtime_gate_us = 0;
  double multidomain_scope_us = 0;
  double multidomain_scope_p99_us = 0;
  double vpkey_hit_ratio = 0;
  double vpkey_evictions_per_req = 0;
  double vpkey_retag_us_per_miss = 0;
  double runtime_transitions_per_op = 0;
  double runtime_gate_pair_ns = 0;
  double runtime_gate_share = 0;
  double runtime_alloc_trusted_ns = 0;
  double pkalloc_trusted_allocs_per_op = 0;
  double pkalloc_untrusted_allocs_per_op = 0;
  double pkalloc_cache_hit_ratio = 0;
  double runtime_untrusted_frac = 0;
  double setup_profile_s = 0;
  double setup_tenants_s = 0;
  double mpk_faults_serviced_in_setup = 0;
  double trace_unattributed_frac = 0;
  double trace_overhead_frac = 0;

  // Fills the runtime/pkalloc rows from a traced phase of `ops` operations
  // and the untraced mean operation time, and times the gate and
  // allocation pairs on `runtime`.
  void FillRuntimeLayers(pkrusafe::PkruSafeRuntime& runtime, const LayerCounters& delta,
                         uint64_t ops, double untraced_op_ns);
  void AddTo(Report* report) const;
};

// ns per empty enter+exit gate pair, timed as nested CallUntrusted /
// CallTrusted on `runtime`'s gate set (median of several batches).
double GatePairNs(pkrusafe::PkruSafeRuntime& runtime);
// ns per sited AllocTrusted + Free pair of a 64-byte object.
double AllocTrustedPairNs(pkrusafe::PkruSafeRuntime& runtime);

void PrintServeInputs(const Args& args);
void PrintBrowseInputs(const Args& args);
Report RunServe(const Args& args);
Report RunBrowse(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
