#include "perfbench/common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "src/multidomain/multi_compartment.h"
#include "src/runtime/runtime.h"
#include "src/support/string_util.h"
#include "src/telemetry/metrics.h"

namespace perfbench {

using pkrusafe::StrFormat;

uint64_t Mix(uint64_t seed, uint64_t index, uint64_t stream) {
  // SplitMix64 finalizer over a combination of the three inputs.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index * 0xD1B54A32D192ED03ULL +
               (stream + 1) * 0x8CB92BA72F3D8DD7ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Percentile(const std::vector<uint64_t>& samples, double p) {
  Latencies latencies;
  for (const uint64_t v : samples) {
    latencies.Record(v);
  }
  return latencies.Percentile(p);
}

double Mean(const std::vector<uint64_t>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double sum = 0;
  for (const uint64_t v : samples) {
    sum += static_cast<double>(v);
  }
  return sum / static_cast<double>(samples.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t quarter = values.size() / 4;
  double sum = 0;
  for (size_t i = quarter; i < values.size() - quarter; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * quarter);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

Latencies::Latencies()
    : histogram_(registry_.GetOrCreateHistogram(
          "latency_ns", pkrusafe::telemetry::Histogram::ExponentialBounds(100, 1.01, 1700))) {}

double Latencies::Percentile(double p) const {
  const pkrusafe::telemetry::MetricsSnapshot snapshot = registry_.Snapshot();
  return pkrusafe::telemetry::HistogramPercentile(snapshot.histograms.at("latency_ns"), p / 100);
}

SpanTrace::SpanTrace(std::vector<std::string> names, size_t reserve_spans)
    : names_(std::move(names)) {
  spans_.reserve(reserve_spans);
}

std::vector<uint64_t> SpanTrace::SelfTimes() const {
  std::vector<uint64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::vector<uint64_t> SpanTrace::SelfTimesOf(uint16_t name) const {
  const std::vector<uint64_t> self = SelfTimes();
  std::vector<uint64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(self[i]);
    }
  }
  return out;
}

std::vector<uint64_t> SpanTrace::DurationsOf(uint16_t name) const {
  std::vector<uint64_t> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(span.end_ns - span.start_ns);
    }
  }
  return out;
}

std::vector<uint64_t> SpanTrace::AttributedPerRequest() const {
  std::vector<uint64_t> out;
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      continue;
    }
    if (span.request >= out.size()) {
      out.resize(span.request + 1, 0);
    }
    out[span.request] += span.end_ns - span.start_ns;
  }
  return out;
}

bool SpanTrace::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"request\":%u,\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", names_[span.name].c_str(),
                  static_cast<double>(span.start_ns - origin) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.request, i,
                  span.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Report::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void AddEndToEnd(const TimedPhase& phase, double setup_s, Report* report) {
  report->attempted = phase.attempted;
  report->failed = phase.attempted - phase.ok;
  if (report->failed != 0) {
    report->Fail(std::to_string(report->failed) + " timed operations failed");
  }
  // Whole windows only, unless the phase was too short for one.
  size_t windows = phase.windows.size();
  if (windows > 1 && phase.windows.back()->attempted < phase.window_ops) {
    --windows;
  }
  std::vector<double> ops_per_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  uint64_t window_start_ns = 0;
  for (size_t i = 0; i < windows; ++i) {
    const TimedPhase::Window& window = *phase.windows[i];
    const double seconds = Seconds(window.end_ns - window_start_ns);
    window_start_ns = window.end_ns;
    ops_per_s.push_back(seconds > 0 ? static_cast<double>(window.ok) / seconds : 0);
    p50_us.push_back(window.latencies.Percentile(50) / 1e3);
    p99_us.push_back(window.latencies.Percentile(99) / 1e3);
  }
  const double elapsed_s = Seconds(phase.elapsed_ns);
  report->Add("ops_per_s", elapsed_s > 0 ? static_cast<double>(phase.ok) / elapsed_s : 0, "1/s");
  report->Add("latency_p50_us", InterquartileMean(p50_us), "us");
  report->Add("latency_p99_us", InterquartileMean(p99_us), "us");
  report->Add("ok_frac",
              phase.attempted == 0
                  ? 0
                  : static_cast<double>(phase.ok) / static_cast<double>(phase.attempted),
              "fraction");
  report->Add("setup_s", setup_s, "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
  report->notes.push_back(StrFormat("latency samples: %llu in %zu window(s)",
                                    static_cast<unsigned long long>(phase.attempted), windows));
  if (windows > 1) {
    report->notes.push_back(StrFormat(
        "ops/s per window: min %.0f median %.0f max %.0f",
        *std::min_element(ops_per_s.begin(), ops_per_s.end()), Median(ops_per_s),
        *std::max_element(ops_per_s.begin(), ops_per_s.end())));
  }
}

uint64_t CounterValue(const char* name) {
  return pkrusafe::telemetry::MetricsRegistry::Global().GetOrCreateCounter(name)->value();
}

namespace {

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

// Median over kBatches timed batches of `body`, in ns per call.
template <typename Body>
double MedianNsPerCall(Body body) {
  constexpr int kBatches = 5;
  constexpr int kCallsPerBatch = 40'000;
  for (int i = 0; i < 1000; ++i) {
    body();
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < kBatches; ++batch) {
    const uint64_t start = NowNs();
    for (int i = 0; i < kCallsPerBatch; ++i) {
      body();
    }
    per_call.push_back(static_cast<double>(NowNs() - start) / kCallsPerBatch);
  }
  return Median(per_call);
}

}  // namespace

LayerCounters LayerCounters::Read(pkrusafe::PkruSafeRuntime& runtime,
                                  const pkrusafe::MultiCompartment* mc) {
  LayerCounters c;
  c.t_to_u = runtime.gates().transitions_to_untrusted();
  c.u_to_t = runtime.gates().transitions_to_trusted();
  // The allocator's own stats fold in this thread's cached traffic exactly.
  c.trusted_allocs = runtime.allocator().trusted_stats().alloc_calls;
  c.untrusted_allocs = runtime.allocator().untrusted_stats().alloc_calls;
  c.cache_hits = CounterValue("pkalloc.cache.hits");
  c.cache_misses = CounterValue("pkalloc.cache.misses");
  if (mc != nullptr) {
    const pkrusafe::VpkeyStats vpkey = mc->vpkey_stats();
    c.vpkey_hits = vpkey.hits;
    c.vpkey_misses = vpkey.misses;
    c.vpkey_evictions = vpkey.evictions;
    c.vpkey_retag_ns = vpkey.retag_ns;
  }
  c.faults_serviced = CounterValue("mpk.faults.serviced");
  c.server_requests = CounterValue("server.requests");
  c.server_ok = CounterValue("server.requests_ok");
  return c;
}

namespace {

// Applies `op` to every field pair of two LayerCounters.
template <typename Op>
void ForEachField(LayerCounters& a, const LayerCounters& b, Op op) {
  op(a.t_to_u, b.t_to_u);
  op(a.u_to_t, b.u_to_t);
  op(a.trusted_allocs, b.trusted_allocs);
  op(a.untrusted_allocs, b.untrusted_allocs);
  op(a.cache_hits, b.cache_hits);
  op(a.cache_misses, b.cache_misses);
  op(a.vpkey_hits, b.vpkey_hits);
  op(a.vpkey_misses, b.vpkey_misses);
  op(a.vpkey_evictions, b.vpkey_evictions);
  op(a.vpkey_retag_ns, b.vpkey_retag_ns);
  op(a.faults_serviced, b.faults_serviced);
  op(a.server_requests, b.server_requests);
  op(a.server_ok, b.server_ok);
}

}  // namespace

LayerCounters LayerCounters::operator-(const LayerCounters& before) const {
  LayerCounters d = *this;
  ForEachField(d, before, [](uint64_t& x, uint64_t y) { x -= y; });
  return d;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& other) {
  ForEachField(*this, other, [](uint64_t& x, uint64_t y) { x += y; });
  return *this;
}

std::vector<double> TimeInChildren(int children, const std::function<double()>& timed) {
  std::vector<double> seconds;
  for (int i = 0; i < children; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      return {};
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      return {};
    }
    if (pid == 0) {
      close(fds[0]);
      const double elapsed = timed();
      const ssize_t written = write(fds[1], &elapsed, sizeof(elapsed));
      _exit(written == static_cast<ssize_t>(sizeof(elapsed)) ? 0 : 1);
    }
    close(fds[1]);
    double elapsed = -1;
    const ssize_t got = read(fds[0], &elapsed, sizeof(elapsed));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != static_cast<ssize_t>(sizeof(elapsed)) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || elapsed < 0) {
      return {};
    }
    seconds.push_back(elapsed);
  }
  return seconds;
}

double GatePairNs(pkrusafe::PkruSafeRuntime& runtime) {
  pkrusafe::GateSet& gates = runtime.gates();
  // One call = T->U->T->U->T: two enter+exit pairs.
  return MedianNsPerCall([&] { gates.CallUntrusted([&] { gates.CallTrusted([] {}); }); }) / 2;
}

double AllocTrustedPairNs(pkrusafe::PkruSafeRuntime& runtime) {
  constexpr pkrusafe::AllocId kSite{9100, 0, 0};
  return MedianNsPerCall([&] { runtime.Free(runtime.AllocTrusted(kSite, 64)); });
}

void LayerReport::FillRuntimeLayers(pkrusafe::PkruSafeRuntime& runtime,
                                    const LayerCounters& delta, uint64_t ops,
                                    double untraced_op_ns) {
  const uint64_t transitions = delta.t_to_u + delta.u_to_t;
  runtime_transitions_per_op = Ratio(transitions, ops);
  pkalloc_trusted_allocs_per_op = Ratio(delta.trusted_allocs, ops);
  pkalloc_untrusted_allocs_per_op = Ratio(delta.untrusted_allocs, ops);
  pkalloc_cache_hit_ratio = Ratio(delta.cache_hits, delta.cache_hits + delta.cache_misses);
  runtime_untrusted_frac = runtime.stats().untrusted_fraction();
  runtime_gate_pair_ns = GatePairNs(runtime);
  runtime_gate_share = untraced_op_ns > 0
                           ? runtime_gate_pair_ns * runtime_transitions_per_op / 2 / untraced_op_ns
                           : 0;
  runtime_alloc_trusted_ns = AllocTrustedPairNs(runtime);
}

void LayerReport::AddTo(Report* report) const {
  report->Add("server.parse_us", server_parse_us, "us");
  report->Add("server.session_us", server_session_us, "us");
  report->Add("server.session_p99_us", server_session_p99_us, "us");
  report->Add("server.sessions_created_per_kreq", server_sessions_created_per_kreq, "1/kreq");
  report->Add("server.sessions_released_per_kreq", server_sessions_released_per_kreq, "1/kreq");
  report->Add("jsvm.load_us", jsvm_load_us, "us");
  report->Add("jsvm.run_us", jsvm_run_us, "us");
  report->Add("runtime.gate_us", runtime_gate_us, "us");
  report->Add("multidomain.scope_us", multidomain_scope_us, "us");
  report->Add("multidomain.scope_p99_us", multidomain_scope_p99_us, "us");
  report->Add("multidomain.vpkey.hit_ratio", vpkey_hit_ratio, "fraction");
  report->Add("multidomain.vpkey.evictions_per_req", vpkey_evictions_per_req, "1/req");
  report->Add("multidomain.vpkey.retag_us_per_miss", vpkey_retag_us_per_miss, "us");
  report->Add("runtime.transitions_per_op", runtime_transitions_per_op, "1/op");
  report->Add("runtime.gate_pair_ns", runtime_gate_pair_ns, "ns");
  report->Add("runtime.gate_share", runtime_gate_share, "fraction");
  report->Add("runtime.alloc_trusted_ns", runtime_alloc_trusted_ns, "ns");
  report->Add("pkalloc.trusted.allocs_per_op", pkalloc_trusted_allocs_per_op, "1/op");
  report->Add("pkalloc.untrusted.allocs_per_op", pkalloc_untrusted_allocs_per_op, "1/op");
  report->Add("pkalloc.cache.hit_ratio", pkalloc_cache_hit_ratio, "fraction");
  report->Add("runtime.untrusted_frac", runtime_untrusted_frac, "fraction");
  report->Add("setup.profile_s", setup_profile_s, "s");
  report->Add("setup.tenants_s", setup_tenants_s, "s");
  report->Add("mpk.faults.serviced_in_setup", mpk_faults_serviced_in_setup, "count");
  report->Add("trace.unattributed_frac", trace_unattributed_frac, "fraction");
  report->Add("trace.overhead_frac", trace_overhead_frac, "fraction");
}

}  // namespace perfbench
