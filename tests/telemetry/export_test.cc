#include "src/telemetry/export.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/trace_ring.h"
#include "tests/golden_file.h"

namespace pkrusafe {
namespace telemetry {
namespace {

// Minimal recursive-descent JSON validity checker — enough to prove the
// exporters emit well-formed JSON without pulling in a parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // control characters must be escaped
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          return false;
        }
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' && esc != 'f' &&
                   esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (Peek() == '.') {
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TraceEvent Event(TraceEventType type, uint8_t detail, uint64_t ts, uint64_t a = 0,
                 uint64_t b = 0, uint64_t c = 0) {
  TraceEvent event;
  event.type = type;
  event.detail = detail;
  event.tid = 42;
  event.timestamp_ns = ts;
  event.a = a;
  event.b = b;
  event.c = c;
  return event;
}

std::vector<TraceEvent> SampleEvents() {
  const auto to_u = static_cast<uint8_t>(TraceDirection::kTrustedToUntrusted);
  const auto to_t = static_cast<uint8_t>(TraceDirection::kUntrustedToTrusted);
  return {
      Event(TraceEventType::kGateEnter, to_u, 1000, /*depth=*/1, /*pkru=*/0xc),
      Event(TraceEventType::kAlloc, /*pool M_U + site*/ 3, 1500, 64, (7ull << 32) | 2, 5),
      Event(TraceEventType::kFaultServiced, /*write*/ 1, 2000, 0x40000000, 1),
      Event(TraceEventType::kFaultDenied, /*read*/ 0, 2500, 0x40001000, 1),
      Event(TraceEventType::kPkruWrite, 0, 2750, 0xc),
      Event(TraceEventType::kRealloc, 0, 2800, 128),
      Event(TraceEventType::kFree, 0, 2900, 0x50000000),
      Event(TraceEventType::kGateExit, to_t, 3000),
  };
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(ChromeTraceTest, EmptyTraceIsValidJson) {
  std::ostringstream out;
  WriteChromeTrace(out, {});
  EXPECT_TRUE(JsonChecker(out.str()).Valid()) << out.str();
  EXPECT_NE(out.str().find("\"traceEvents\":[]"), std::string::npos);
}

TEST(ChromeTraceTest, FullEventMixIsValidJson) {
  std::ostringstream out;
  WriteChromeTrace(out, SampleEvents());
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST(ChromeTraceTest, TraceEventsSchema) {
  std::ostringstream out;
  WriteChromeTrace(out, SampleEvents());
  const std::string json = out.str();
  // Top-level keys of the Chrome trace-event container format.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Gate crossings are B/E slices named after the compartment entered.
  EXPECT_NE(json.find("\"name\":\"untrusted\",\"cat\":\"gate\",\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"untrusted\",\"cat\":\"gate\",\"ph\":\"E\""), std::string::npos);
  // Faults, heap traffic and PKRU writes are instant events.
  EXPECT_NE(json.find("\"name\":\"mpk_fault_serviced\",\"cat\":\"fault\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mpk_fault_denied\",\"cat\":\"fault\",\"ph\":\"i\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"alloc\",\"cat\":\"heap\",\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pkru_write\",\"cat\":\"pkru\",\"ph\":\"i\""), std::string::npos);
  // Typed args survive: fault address/access, alloc pool/site, pkru value.
  EXPECT_NE(json.find("\"address\":\"0x40000000\",\"access\":\"write\",\"pkey\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"pool\":\"M_U\",\"size\":64,\"site\":\"7:2:5\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":\"0x0000000c\""), std::string::npos);
  // Timestamps are microseconds with the nanosecond fraction retained:
  // 1500 ns -> ts 1.500.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  // Every event carries the recording thread's track.
  EXPECT_NE(json.find("\"pid\":1,\"tid\":42"), std::string::npos);
}

TEST(StatsJsonTest, EmptySnapshotIsValidJson) {
  std::ostringstream out;
  WriteStatsJson(out, MetricsSnapshot{});
  EXPECT_TRUE(JsonChecker(out.str()).Valid()) << out.str();
  EXPECT_NE(out.str().find("\"counters\":{}"), std::string::npos);
}

TEST(StatsJsonTest, PopulatedSnapshotIsValidAndComplete) {
  MetricsRegistry registry;
  registry.GetOrCreateCounter("runtime.faults")->Increment(3);
  registry.GetOrCreateCounter("odd \"name\"\n")->Increment();  // exercises escaping
  registry.GetOrCreateGauge("heap.bytes")->Set(-7);
  Histogram* h = registry.GetOrCreateHistogram("gate.ns", {16, 32});
  h->Observe(10);
  h->Observe(20);
  h->Observe(100);
  std::ostringstream out;
  WriteStatsJson(out, registry.Snapshot());
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"runtime.faults\":3"), std::string::npos);
  EXPECT_NE(json.find("\"heap.bytes\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"gate.ns\":{\"count\":3,\"sum\":130,\"buckets\":["), std::string::npos);
  EXPECT_NE(json.find("{\"le\":16,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":32,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"+Inf\",\"count\":1}"), std::string::npos);
}

TEST(StatsTextTest, ListsEveryMetricKind) {
  MetricsRegistry registry;
  registry.GetOrCreateCounter("transitions")->Increment(12);
  registry.GetOrCreateGauge("depth")->Set(2);
  registry.GetOrCreateHistogram("lat", {10})->Observe(4);
  std::ostringstream out;
  WriteStatsText(out, registry.Snapshot());
  const std::string text = out.str();
  EXPECT_NE(text.find("transitions = 12"), std::string::npos);
  EXPECT_NE(text.find("depth = 2"), std::string::npos);
  EXPECT_NE(text.find("histogram lat: count=1 sum=4 mean=4"), std::string::npos);
  EXPECT_NE(text.find("le 10: 1"), std::string::npos);
}

// Byte goldens for the exporters over fixed inputs: every metric kind, a
// name that needs escaping, a negative gauge and a +Inf bucket.
MetricsSnapshot FixedSnapshot(uint64_t scale) {
  MetricsSnapshot snapshot;
  snapshot.counters["gate.crossings"] = 160 * scale;
  snapshot.counters["odd \"name\"\\\x01"] = 3 * scale;
  snapshot.gauges["heap.live"] = 4096;
  snapshot.gauges["pool.delta"] = -7;
  MetricsSnapshot::HistogramData lat;
  lat.bounds = {10, 20, 1000};
  lat.bucket_counts = {6 * scale, 4 * scale, 1 * scale, scale};
  lat.count = 12 * scale;
  lat.sum = 4321 * scale;
  snapshot.histograms["lat_ns"] = lat;
  return snapshot;
}

TEST(EmitterGoldenTest, StatsJson) {
  std::ostringstream out;
  WriteStatsJson(out, FixedSnapshot(2));
  golden::ExpectMatches(out.str(), "stats.json");
}

TEST(EmitterGoldenTest, SampleLine) {
  const std::string line =
      Sampler::FormatSampleLine(1234, 2.5, FixedSnapshot(1), FixedSnapshot(3));
  golden::ExpectMatches(line + "\n", "sample_line.jsonl");
}

TEST(EmitterGoldenTest, ChromeTrace) {
  std::ostringstream out;
  WriteChromeTrace(out, SampleEvents());
  golden::ExpectMatches(out.str(), "chrome_trace.json");
}

}  // namespace
}  // namespace telemetry
}  // namespace pkrusafe
