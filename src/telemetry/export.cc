#include "src/telemetry/export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace telemetry {

namespace {

const char* AccessKindLabel(uint8_t detail) { return detail == 0 ? "read" : "write"; }

// Formats a nanosecond timestamp as Chrome's microsecond `ts` with the
// nanosecond fraction kept ("12.345").
std::string TsMicros(uint64_t ns) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buffer;
}

std::string Hex(const char* format, uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

// Opens one Chrome trace event object. `ph` is the event phase ("B", "E",
// "i"); the caller adds its fields and closes the object.
void BeginEvent(json::Writer& w, const TraceEvent& event, const char* name, const char* cat,
                const char* ph) {
  w.BeginObject().Key("name").String(name).Key("cat").String(cat).Key("ph").String(ph);
  w.Key("ts").Number(TsMicros(event.timestamp_ns)).Key("pid").Int(1).Key("tid").Uint(event.tid);
}

// Opens an instant event's thread-scoped "args" object.
void BeginInstant(json::Writer& w, const TraceEvent& event, const char* name, const char* cat) {
  BeginEvent(w, event, name, cat, "i");
  w.Key("s").String("t").Key("args").BeginObject();
}

void WriteOneEvent(json::Writer& w, const TraceEvent& event) {
  switch (event.type) {
    case TraceEventType::kGateEnter: {
      // Entering U opens the "untrusted" slice; entering T (callback) opens
      // a nested "trusted" slice on the same thread track.
      const bool to_untrusted =
          event.detail == static_cast<uint8_t>(TraceDirection::kTrustedToUntrusted);
      BeginEvent(w, event, to_untrusted ? "untrusted" : "trusted", "gate", "B");
      w.Key("args").BeginObject().Key("depth").Uint(event.a);
      w.Key("pkru").String(Hex("0x%08" PRIx64, event.b)).EndObject().EndObject();
      return;
    }
    case TraceEventType::kGateExit: {
      // The exit crossing runs opposite to the slice it closes: a U->T exit
      // closes the "untrusted" slice.
      const bool closes_untrusted =
          event.detail == static_cast<uint8_t>(TraceDirection::kUntrustedToTrusted);
      BeginEvent(w, event, closes_untrusted ? "untrusted" : "trusted", "gate", "E");
      w.EndObject();
      return;
    }
    case TraceEventType::kFaultServiced:
    case TraceEventType::kFaultDenied: {
      const bool serviced = event.type == TraceEventType::kFaultServiced;
      BeginInstant(w, event, serviced ? "mpk_fault_serviced" : "mpk_fault_denied", "fault");
      w.Key("address").String(Hex("0x%" PRIx64, event.a));
      w.Key("access").String(AccessKindLabel(event.detail)).Key("pkey").Uint(event.b);
      w.EndObject().EndObject();
      return;
    }
    case TraceEventType::kAlloc: {
      BeginInstant(w, event, "alloc", "heap");
      const bool untrusted_pool = (event.detail & 1) != 0;
      w.Key("pool").String(untrusted_pool ? "M_U" : "M_T").Key("size").Uint(event.a);
      if ((event.detail & 2) != 0) {
        w.Key("site").String(std::to_string(event.b >> 32) + ":" +
                             std::to_string(event.b & 0xFFFFFFFFull) + ":" +
                             std::to_string(event.c));
      }
      w.EndObject().EndObject();
      return;
    }
    case TraceEventType::kRealloc: {
      BeginInstant(w, event, "realloc", "heap");
      w.Key("size").Uint(event.a).EndObject().EndObject();
      return;
    }
    case TraceEventType::kFree: {
      BeginInstant(w, event, "free", "heap");
      w.Key("address").String(Hex("0x%" PRIx64, event.a)).EndObject().EndObject();
      return;
    }
    case TraceEventType::kPkruWrite: {
      BeginInstant(w, event, "pkru_write", "pkru");
      w.Key("value").String(Hex("0x%08" PRIx64, event.a)).EndObject().EndObject();
      return;
    }
  }
  // Unknown event type (future reader of an old writer): emit a marker so
  // the trace stays valid JSON.
  BeginEvent(w, event, "unknown", "telemetry", "i");
  w.EndObject();
}

}  // namespace

void WriteChromeTrace(std::ostream& out, const std::vector<TraceEvent>& events) {
  // Flushed per event so a full trace never sits in memory twice.
  std::string text;
  json::Writer w(&text);
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const TraceEvent& event : events) {
    WriteOneEvent(w.LineBreak(), event);
    out << text;
    text.clear();
  }
  w.EndArray().Key("displayTimeUnit").String("ns").EndObject();
  out << text << "\n";
}

void WriteStatsJson(std::ostream& out, const MetricsSnapshot& snapshot) {
  std::string text;
  json::Writer w(&text);
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    w.Key(name).Uint(value);
  }
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    w.Key(name).Int(value);
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, data] : snapshot.histograms) {
    w.Key(name).BeginObject().Key("count").Uint(data.count).Key("sum").Uint(data.sum);
    w.Key("buckets").BeginArray();
    for (size_t i = 0; i < data.bucket_counts.size(); ++i) {
      w.BeginObject().Key("le");
      if (i < data.bounds.size()) {
        w.Uint(data.bounds[i]);
      } else {
        w.String("+Inf");
      }
      w.Key("count").Uint(data.bucket_counts[i]).EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndObject().EndObject();
  out << text << "\n";
}

void WriteStatsText(std::ostream& out, const MetricsSnapshot& snapshot) {
  if (!snapshot.counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!snapshot.gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  for (const auto& [name, data] : snapshot.histograms) {
    out << "histogram " << name << ": count=" << data.count << " sum=" << data.sum;
    if (data.count > 0) {
      out << " mean=" << data.sum / data.count;
    }
    out << "\n";
    uint64_t printed = 0;
    for (size_t i = 0; i < data.bucket_counts.size() && printed < data.count; ++i) {
      if (data.bucket_counts[i] == 0) {
        continue;
      }
      printed += data.bucket_counts[i];
      out << "    le ";
      if (i < data.bounds.size()) {
        out << data.bounds[i];
      } else {
        out << "+Inf";
      }
      out << ": " << data.bucket_counts[i] << "\n";
    }
  }
}

Status WriteChromeTraceFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return InternalError("cannot open trace output file: " + path);
  }
  WriteChromeTrace(out, CollectTrace());
  out.flush();
  if (!out) {
    return InternalError("failed writing trace to: " + path);
  }
  return Status::Ok();
}

}  // namespace telemetry
}  // namespace pkrusafe
