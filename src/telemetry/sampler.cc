#include "src/telemetry/sampler.h"

#include <chrono>

#include "src/support/json.h"
#include "src/support/string_util.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace telemetry {

namespace {

// Trims "%f"-style output: JSON numbers don't need trailing zeros.
std::string FormatDouble(double value) {
  std::string s = StrFormat("%.6f", value);
  while (!s.empty() && s.back() == '0') {
    s.pop_back();
  }
  if (!s.empty() && s.back() == '.') {
    s.push_back('0');
  }
  return s;
}

// Interval histogram: current minus previous, matched by *bound value*, not
// by bucket index. A histogram that gained le-buckets between the two
// snapshots (a finer grid registered mid-run) still has a meaningful delta:
// bounds present in both snapshots subtract, bounds new in `current` count
// from zero (their bucket only ever saw post-extension observations).
// Index-wise subtraction would pair unrelated buckets and corrupt the
// percentiles. Only when a *previous* bound has vanished — a different
// metric object reused the name — are the snapshots incomparable, and the
// cumulative `current` is returned as the fallback.
MetricsSnapshot::HistogramData HistogramDelta(const MetricsSnapshot::HistogramData& current,
                                              const MetricsSnapshot::HistogramData* previous) {
  if (previous == nullptr ||
      current.bucket_counts.size() != current.bounds.size() + 1 ||
      previous->bucket_counts.size() != previous->bounds.size() + 1) {
    return current;
  }
  MetricsSnapshot::HistogramData delta;
  delta.bounds = current.bounds;
  delta.bucket_counts.reserve(current.bucket_counts.size());
  size_t pi = 0;
  for (size_t ci = 0; ci < current.bounds.size(); ++ci) {
    if (pi < previous->bounds.size() && previous->bounds[pi] < current.bounds[ci]) {
      return current;  // a previous bound disappeared: incomparable shapes
    }
    uint64_t prev = 0;
    if (pi < previous->bounds.size() && previous->bounds[pi] == current.bounds[ci]) {
      prev = previous->bucket_counts[pi];
      ++pi;
    }
    const uint64_t cur = current.bucket_counts[ci];
    delta.bucket_counts.push_back(cur >= prev ? cur - prev : cur);
  }
  if (pi != previous->bounds.size()) {
    return current;  // previous had trailing bounds current lacks
  }
  // The implicit +Inf buckets always pair with each other.
  const uint64_t prev_inf = previous->bucket_counts.back();
  const uint64_t cur_inf = current.bucket_counts.back();
  delta.bucket_counts.push_back(cur_inf >= prev_inf ? cur_inf - prev_inf : cur_inf);
  delta.count = current.count >= previous->count ? current.count - previous->count : current.count;
  delta.sum = current.sum >= previous->sum ? current.sum - previous->sum : current.sum;
  return delta;
}

}  // namespace

std::string Sampler::FormatSampleLine(uint64_t ts_ms, double interval_s,
                                      const MetricsSnapshot& previous,
                                      const MetricsSnapshot& current) {
  std::string out;
  json::Writer w(&out);
  w.BeginObject().Key("ts_ms").Uint(ts_ms).Key("interval_s").Number(FormatDouble(interval_s));

  w.Key("counters").BeginObject();
  for (const auto& [name, total] : current.counters) {
    uint64_t prev = 0;
    if (auto it = previous.counters.find(name); it != previous.counters.end()) {
      prev = it->second;
    }
    const uint64_t delta = total >= prev ? total - prev : total;
    const double rate = interval_s > 0 ? static_cast<double>(delta) / interval_s : 0.0;
    w.Key(name).BeginObject().Key("total").Uint(total);
    w.Key("rate").Number(FormatDouble(rate)).EndObject();
  }
  w.EndObject();

  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : current.gauges) {
    w.Key(name).Int(value);
  }
  w.EndObject();

  w.Key("histograms").BeginObject();
  for (const auto& [name, data] : current.histograms) {
    const MetricsSnapshot::HistogramData* prev = nullptr;
    if (auto it = previous.histograms.find(name); it != previous.histograms.end()) {
      prev = &it->second;
    }
    const MetricsSnapshot::HistogramData delta = HistogramDelta(data, prev);
    w.Key(name).BeginObject().Key("count").Uint(delta.count);
    w.Key("p50").Number(FormatDouble(HistogramPercentile(delta, 0.50)));
    w.Key("p90").Number(FormatDouble(HistogramPercentile(delta, 0.90)));
    w.Key("p99").Number(FormatDouble(HistogramPercentile(delta, 0.99))).EndObject();
  }
  w.EndObject().EndObject();
  return out;
}

Status Sampler::Start(const Options& options) {
  if (running()) {
    return FailedPreconditionError("sampler already running");
  }
  if (options.period_ms == 0) {
    return InvalidArgumentError("sampler period must be positive");
  }
  out_.open(options.path, std::ios::out | std::ios::trunc);
  if (!out_) {
    return InternalError("sampler: cannot open " + options.path);
  }
  period_ms_ = options.period_ms;
  on_sample_ = options.on_sample;
  net_sink_ = options.net_sink;
  samples_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard lock(stop_mutex_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void Sampler::Stop() {
  if (!running()) {
    return;
  }
  {
    std::lock_guard lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  out_.close();
  running_.store(false, std::memory_order_release);
}

void Sampler::Loop() {
  MetricsSnapshot previous = MetricsRegistry::Global().Snapshot();
  uint64_t previous_ns = NowNs();
  // The stop flag is observed *before* the sample, never after: when a stop
  // request lands mid-tick, the next wait returns immediately and the body
  // runs once more, so the interval between the last periodic row and Stop()
  // always gets its own final row instead of being dropped.
  bool stopping = false;
  while (!stopping) {
    {
      std::unique_lock lock(stop_mutex_);
      stopping = stop_cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                                   [this] { return stop_requested_; });
    }
    if (on_sample_) {
      on_sample_();
    }
    const MetricsSnapshot current = MetricsRegistry::Global().Snapshot();
    const uint64_t now_ns = NowNs();
    const double interval_s = static_cast<double>(now_ns - previous_ns) / 1e9;
    const std::string line = FormatSampleLine(now_ns / 1000000, interval_s, previous, current);
    out_ << line << "\n";
    out_.flush();
    if (net_sink_ != nullptr) {
      net_sink_->Send(FrameType::kSamplerRow, line);
      net_sink_->Pump();
    }
    samples_.fetch_add(1, std::memory_order_relaxed);
    previous = current;
    previous_ns = now_ns;
  }
}

}  // namespace telemetry
}  // namespace pkrusafe
