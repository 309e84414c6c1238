#include "src/telemetry/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <unistd.h>

#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace telemetry {

namespace {

// ---- Static crash arena ---------------------------------------------------
// All report text is formatted here; sized for the worst case (full metric
// table + kMaxTraceTotal trace events at ~160 bytes/line). Lives in BSS so
// it exists before any signal can fire.
constexpr size_t kArenaSize = 256 * 1024;
char g_arena[kArenaSize];

constexpr size_t kMaxCounterHandles = 128;
constexpr size_t kMaxGaugeHandles = 64;
constexpr size_t kMaxCrashRanges = 16;
constexpr size_t kMaxTracePerRing = 16;
constexpr size_t kMaxTraceTotal = 512;

const Counter* g_counter_handles[kMaxCounterHandles];
size_t g_counter_handle_count = 0;
const Gauge* g_gauge_handles[kMaxGaugeHandles];
size_t g_gauge_handle_count = 0;

// ---- Bounded, allocation-free JSON formatting -----------------------------

// Append-only writer over the arena. Overflow is tolerated: writes past the
// end are dropped (truncated()), and the report closes with whatever fit —
// a truncated report beats a deadlocked crash handler.
class ArenaWriter {
 public:
  ArenaWriter(char* buffer, size_t capacity) : buffer_(buffer), capacity_(capacity) {}

  void Append(const char* data, size_t length) {
    const size_t room = capacity_ - size_;
    const size_t take = length < room ? length : room;
    if (take < length) {
      truncated_ = true;
    }
    memcpy(buffer_ + size_, data, take);
    size_ += take;
  }

  void Literal(const char* text) { Append(text, strlen(text)); }

  void Char(char c) { Append(&c, 1); }

  // JSON string: quotes + escapes for the characters our emitters can
  // produce (metric names and literals are ASCII; be safe anyway).
  void QuotedString(const char* text) {
    Char('"');
    for (const char* p = text; *p != '\0'; ++p) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"' || c == '\\') {
        Char('\\');
        Char(static_cast<char>(c));
      } else if (c < 0x20) {
        char hex[7] = {'\\', 'u', '0', '0', 0, 0, 0};
        static const char kDigits[] = "0123456789abcdef";
        hex[4] = kDigits[(c >> 4) & 0xF];
        hex[5] = kDigits[c & 0xF];
        Append(hex, 6);
      } else {
        Char(static_cast<char>(c));
      }
    }
    Char('"');
  }

  void Uint(uint64_t value) {
    char digits[20];
    size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + value % 10);
      value /= 10;
    } while (value != 0);
    while (n > 0) {
      Char(digits[--n]);
    }
  }

  void Int(int64_t value) {
    if (value < 0) {
      Char('-');
      // Negate via uint64 to survive INT64_MIN.
      Uint(~static_cast<uint64_t>(value) + 1);
    } else {
      Uint(static_cast<uint64_t>(value));
    }
  }

  void Hex(uint64_t value) {
    static const char kDigits[] = "0123456789abcdef";
    char digits[16];
    size_t n = 0;
    do {
      digits[n++] = kDigits[value & 0xF];
      value >>= 4;
    } while (value != 0);
    Literal("0x");
    while (n > 0) {
      Char(digits[--n]);
    }
  }

  // "key": — member prefix.
  void Key(const char* name) {
    QuotedString(name);
    Char(':');
  }

  const char* data() const { return buffer_; }
  size_t size() const { return size_; }
  bool truncated() const { return truncated_; }

 private:
  char* buffer_;
  size_t capacity_;
  size_t size_ = 0;
  bool truncated_ = false;
};

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kGateEnter: return "gate_enter";
    case TraceEventType::kGateExit: return "gate_exit";
    case TraceEventType::kFaultServiced: return "fault_serviced";
    case TraceEventType::kFaultDenied: return "fault_denied";
    case TraceEventType::kAlloc: return "alloc";
    case TraceEventType::kRealloc: return "realloc";
    case TraceEventType::kFree: return "free";
    case TraceEventType::kPkruWrite: return "pkru_write";
  }
  return "unknown";
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

namespace {

// SIGABRT hook: allocator canaries and PS_CHECK failures die via abort();
// capture a report before chaining to the previous disposition.
struct sigaction g_prev_abrt;
bool g_abrt_hook_installed = false;

void AbortHandler(int signo, siginfo_t* info, void* context) {
  (void)info;
  (void)context;
  FatalFaultInfo fatal;
  fatal.reason = "abort";
  fatal.signo = signo;
  FlightRecorder::Global().WriteFatalReport(fatal);
  // Chain: restore the previous disposition and re-raise so the process
  // still dies of SIGABRT (core dumps, exit status intact).
  if ((g_prev_abrt.sa_flags & SA_SIGINFO) != 0 && g_prev_abrt.sa_sigaction != nullptr) {
    g_prev_abrt.sa_sigaction(signo, info, context);
    return;
  }
  if (g_prev_abrt.sa_handler != SIG_DFL && g_prev_abrt.sa_handler != SIG_IGN &&
      g_prev_abrt.sa_handler != nullptr) {
    g_prev_abrt.sa_handler(signo);
    return;
  }
  signal(signo, SIG_DFL);
  raise(signo);
}

}  // namespace

Status FlightRecorder::Configure(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return InternalError("flight recorder: cannot open " + path);
  }
  const int previous = fd_.exchange(fd, std::memory_order_acq_rel);
  if (previous >= 0) {
    ::close(previous);
  }
  report_written_.store(false, std::memory_order_release);
  RefreshMetricHandles();
  if (!g_abrt_hook_installed) {
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = AbortHandler;
    sa.sa_flags = SA_SIGINFO | SA_NODEFER;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGABRT, &sa, &g_prev_abrt) != 0) {
      return InternalError("flight recorder: sigaction(SIGABRT) failed");
    }
    g_abrt_hook_installed = true;
  }
  return Status::Ok();
}

void FlightRecorder::Shutdown() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::close(fd);
  }
  if (g_abrt_hook_installed) {
    sigaction(SIGABRT, &g_prev_abrt, nullptr);
    g_abrt_hook_installed = false;
  }
  SetRangeResolver(nullptr, nullptr);
  SetProvenanceResolver(nullptr, nullptr);
  SetPkruReader(nullptr, nullptr);
  backend_name_.store(nullptr, std::memory_order_release);
}

void FlightRecorder::SetRangeResolver(RangeResolverFn fn, void* ctx) {
  range_ctx_.store(ctx, std::memory_order_release);
  range_fn_.store(fn, std::memory_order_release);
}

void FlightRecorder::SetProvenanceResolver(ProvenanceResolverFn fn, void* ctx) {
  provenance_ctx_.store(ctx, std::memory_order_release);
  provenance_fn_.store(fn, std::memory_order_release);
}

void FlightRecorder::SetPkruReader(PkruReadFn fn, void* ctx) {
  pkru_ctx_.store(ctx, std::memory_order_release);
  pkru_fn_.store(fn, std::memory_order_release);
}

void FlightRecorder::ClearResolversFor(void* ctx) {
  if (range_ctx_.load(std::memory_order_acquire) == ctx) {
    SetRangeResolver(nullptr, nullptr);
  }
  if (provenance_ctx_.load(std::memory_order_acquire) == ctx) {
    SetProvenanceResolver(nullptr, nullptr);
  }
  if (pkru_ctx_.load(std::memory_order_acquire) == ctx) {
    SetPkruReader(nullptr, nullptr);
  }
}

void FlightRecorder::SetBackendName(const char* name) {
  backend_name_.store(name, std::memory_order_release);
}

void FlightRecorder::RefreshMetricHandles() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  g_counter_handle_count = registry.CollectCounterHandles(g_counter_handles, kMaxCounterHandles);
  g_gauge_handle_count = registry.CollectGaugeHandles(g_gauge_handles, kMaxGaugeHandles);
}

void FlightRecorder::ResetForTesting() {
  report_written_.store(false, std::memory_order_release);
}

size_t FlightRecorder::WriteFatalReport(const FatalFaultInfo& info) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) {
    return 0;
  }
  bool expected = false;
  if (!report_written_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    return 0;  // a report is already (being) written; don't clobber it
  }

  // From here on we are committed: everything below must be AS-safe, and the
  // scope makes any PKRUSAFE_AS_UNSAFE_POINT reached below abort loudly.
  ScopedAsyncSignalContext as_context;
  ArenaWriter w(g_arena, kArenaSize);

  w.Literal("{");
  w.Key("kind");
  w.Literal("\"pkru_safe_crash_report\",");
  w.Key("version");
  w.Literal("1,");
  w.Key("reason");
  w.QuotedString(info.reason);
  w.Char(',');
  w.Key("signal");
  w.Int(info.signo);
  w.Char(',');

  // --- backend + thread state ---
  const char* backend = backend_name_.load(std::memory_order_acquire);
  w.Key("backend");
  w.QuotedString(backend != nullptr ? backend : "unknown");
  w.Char(',');
  w.Key("thread");
  w.Literal("{");
  w.Key("tid");
  w.Uint(CurrentTid());
  const PkruReadFn pkru_fn = pkru_fn_.load(std::memory_order_acquire);
  if (info.has_pkru) {
    w.Char(',');
    w.Key("pkru");
    w.Uint(info.pkru);
  } else if (pkru_fn != nullptr) {
    w.Char(',');
    w.Key("pkru");
    w.Uint(pkru_fn(pkru_ctx_.load(std::memory_order_acquire)));
  }
  w.Literal("},");

  // --- the fault itself ---
  w.Key("fault");
  w.Literal("{");
  bool first = true;
  if (info.has_fault_address) {
    w.Key("address");
    w.Uint(info.fault_address);
    w.Char(',');
    w.Key("address_hex");
    w.Char('"');
    w.Hex(info.fault_address);
    w.Char('"');
    w.Char(',');
    w.Key("access");
    w.QuotedString(info.access_kind == 1 ? "write" : "read");
    first = false;
  }
  if (info.has_pkey) {
    if (!first) {
      w.Char(',');
    }
    w.Key("pkey");
    w.Uint(info.pkey);
    first = false;
  }
  if (info.has_pkru) {
    if (!first) {
      w.Char(',');
    }
    w.Key("pkru");
    w.Uint(info.pkru);
  }
  w.Literal("},");

  // --- page-key map window around the faulting address ---
  w.Key("page_key_map");
  w.Char('[');
  const RangeResolverFn range_fn = range_fn_.load(std::memory_order_acquire);
  if (range_fn != nullptr && info.has_fault_address) {
    CrashRange ranges[kMaxCrashRanges];
    const size_t n =
        range_fn(range_ctx_.load(std::memory_order_acquire), info.fault_address, ranges,
                 kMaxCrashRanges);
    for (size_t i = 0; i < n; ++i) {
      if (i != 0) {
        w.Char(',');
      }
      w.Literal("{");
      w.Key("begin");
      w.Uint(ranges[i].begin);
      w.Char(',');
      w.Key("end");
      w.Uint(ranges[i].end);
      w.Char(',');
      w.Key("key");
      w.Uint(ranges[i].key);
      w.Char(',');
      w.Key("contains_fault");
      w.Literal(ranges[i].begin <= info.fault_address && info.fault_address < ranges[i].end
                    ? "true"
                    : "false");
      w.Literal("}");
    }
  }
  w.Literal("],");

  // --- provenance of the faulting pointer ---
  w.Key("provenance");
  w.Literal("{");
  const ProvenanceResolverFn prov_fn = provenance_fn_.load(std::memory_order_acquire);
  if (prov_fn != nullptr && info.has_fault_address) {
    CrashProvenance prov;
    prov_fn(provenance_ctx_.load(std::memory_order_acquire), info.fault_address, &prov);
    w.Key("status");
    if (prov.found) {
      w.Literal("\"found\",");
      w.Key("base");
      w.Uint(prov.base);
      w.Char(',');
      w.Key("size");
      w.Uint(prov.size);
      w.Char(',');
      w.Key("alloc_id");
      w.Char('"');
      w.Uint(prov.function_id);
      w.Char(':');
      w.Uint(prov.block_id);
      w.Char(':');
      w.Uint(prov.site_id);
      w.Char('"');
      w.Char(',');
      w.Key("function_id");
      w.Uint(prov.function_id);
      w.Char(',');
      w.Key("block_id");
      w.Uint(prov.block_id);
      w.Char(',');
      w.Key("site_id");
      w.Uint(prov.site_id);
    } else {
      w.Literal("\"not_tracked\"");
    }
  } else {
    w.Key("status");
    w.Literal("\"no_resolver\"");
  }
  w.Literal("},");

  // --- metrics snapshot via pre-resolved handles ---
  w.Key("counters");
  w.Literal("{");
  for (size_t i = 0; i < g_counter_handle_count; ++i) {
    if (i != 0) {
      w.Char(',');
    }
    w.Key(g_counter_handles[i]->name().c_str());
    w.Uint(g_counter_handles[i]->value());
  }
  w.Literal("},");
  w.Key("gauges");
  w.Literal("{");
  for (size_t i = 0; i < g_gauge_handle_count; ++i) {
    if (i != 0) {
      w.Char(',');
    }
    w.Key(g_gauge_handles[i]->name().c_str());
    w.Int(g_gauge_handles[i]->value());
  }
  w.Literal("},");

  // --- trace-ring tails, per claimed ring ---
  w.Key("trace");
  w.Char('[');
  {
    TraceEvent events[kMaxTracePerRing];
    const size_t rings = ClaimedRingCount();
    size_t total = 0;
    bool first_event = true;
    for (size_t ring = 0; ring < rings && total < kMaxTraceTotal; ++ring) {
      const size_t n = CollectRecentTrace(ring, events, kMaxTracePerRing);
      for (size_t i = 0; i < n && total < kMaxTraceTotal; ++i, ++total) {
        if (!first_event) {
          w.Char(',');
        }
        first_event = false;
        const TraceEvent& e = events[i];
        w.Literal("{");
        w.Key("type");
        w.QuotedString(TraceEventTypeName(e.type));
        w.Char(',');
        w.Key("detail");
        w.Uint(e.detail);
        w.Char(',');
        w.Key("tid");
        w.Uint(e.tid);
        w.Char(',');
        w.Key("ts_ns");
        w.Uint(e.timestamp_ns);
        w.Char(',');
        w.Key("a");
        w.Uint(e.a);
        w.Char(',');
        w.Key("b");
        w.Uint(e.b);
        w.Char(',');
        w.Key("c");
        w.Uint(e.c);
        w.Literal("}");
      }
    }
  }
  w.Literal("],");

  w.Key("truncated");
  w.Literal(w.truncated() ? "true" : "false");
  w.Literal("}\n");

  size_t written = 0;
  while (written < w.size()) {
    const ssize_t n = ::write(fd, w.data() + written, w.size() - written);
    if (n <= 0) {
      break;
    }
    written += static_cast<size_t>(n);
  }
  ::fsync(fd);
  return written;
}

}  // namespace telemetry
}  // namespace pkrusafe
