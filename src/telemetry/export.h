// Telemetry exporters.
//
// Three formats:
//   * Chrome trace-event JSON — loadable in Perfetto (ui.perfetto.dev) or
//     chrome://tracing. Gate crossings become B/E duration slices named
//     "untrusted" / "trusted" per thread track; faults, allocations and
//     PKRU writes become instant events with typed args.
//   * Stats JSON — one object with "counters", "gauges" and "histograms"
//     from a MetricsSnapshot, for scripts and dashboards.
//   * Stats text — the same snapshot as an aligned human-readable dump.
#ifndef SRC_TELEMETRY_EXPORT_H_
#define SRC_TELEMETRY_EXPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "src/support/json.h"
#include "src/support/status.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace_ring.h"

namespace pkrusafe {
namespace telemetry {

// The support escaper, kept reachable under its older telemetry:: name.
using json::JsonEscape;

// {"traceEvents":[...],"displayTimeUnit":"ns"} — timestamps converted to
// microseconds (Chrome's `ts` unit) with nanosecond precision retained in
// the fraction.
void WriteChromeTrace(std::ostream& out, const std::vector<TraceEvent>& events);

void WriteStatsJson(std::ostream& out, const MetricsSnapshot& snapshot);
void WriteStatsText(std::ostream& out, const MetricsSnapshot& snapshot);

// Convenience: collects the current trace and writes it to `path`.
Status WriteChromeTraceFile(const std::string& path);

}  // namespace telemetry
}  // namespace pkrusafe

#endif  // SRC_TELEMETRY_EXPORT_H_
