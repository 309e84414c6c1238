#include "src/telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/support/async_signal.h"
#include "src/support/json.h"
#include "src/telemetry/crash_report.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace telemetry {
namespace {

// Fake async-signal-safe resolvers standing in for the runtime's wiring.
size_t FakeRanges(void* ctx, uint64_t addr, CrashRange* out, size_t max) {
  (void)ctx;
  if (max == 0) {
    return 0;
  }
  out[0].begin = addr & ~uint64_t{0xFFF};
  out[0].end = (addr & ~uint64_t{0xFFF}) + 0x1000;
  out[0].key = 1;
  return 1;
}

void FakeProvenance(void* ctx, uint64_t addr, CrashProvenance* out) {
  (void)ctx;
  out->found = true;
  out->base = addr;
  out->size = 64;
  out->function_id = 1;
  out->block_id = 2;
  out->site_id = 3;
}

uint32_t FakePkru(void* ctx) {
  (void)ctx;
  return 0x4;
}

FatalFaultInfo MpkViolation(uint64_t address) {
  FatalFaultInfo info;
  info.reason = "mpk-violation";
  info.signo = 11;
  info.has_fault_address = true;
  info.fault_address = address;
  info.access_kind = 1;
  info.has_pkey = true;
  info.pkey = 1;
  info.has_pkru = true;
  info.pkru = 0x4;
  return info;
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FlightRecorder::Global().Shutdown();
    FlightRecorder::Global().ResetForTesting();
  }
};

TEST_F(FlightRecorderTest, UnconfiguredWritesNothing) {
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_FALSE(recorder.configured());
  EXPECT_EQ(recorder.WriteFatalReport(MpkViolation(0x1000)), 0u);
}

TEST_F(FlightRecorderTest, WritesParseableReport) {
  const std::string path = ::testing::TempDir() + "/flight_recorder_report.json";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Configure(path).ok());
  ASSERT_TRUE(recorder.configured());

  int ctx = 0;
  recorder.SetBackendName("faketest");
  recorder.SetRangeResolver(&FakeRanges, &ctx);
  recorder.SetProvenanceResolver(&FakeProvenance, &ctx);
  recorder.SetPkruReader(&FakePkru, &ctx);

  Counter* counter = MetricsRegistry::Global().GetOrCreateCounter("fr_test.events");
  counter->Increment(7);
  recorder.RefreshMetricHandles();

  SetEnabled(true);
  RecordEvent(TraceEventType::kGateEnter, 0, 1, 0x4);
  RecordEvent(TraceEventType::kFaultDenied, 1, 0xdead5000, 1);

  const size_t written = recorder.WriteFatalReport(MpkViolation(0xdead5000));
  SetEnabled(false);
  EXPECT_GT(written, 0u);

  auto report = LoadCrashReport(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->GetString("kind"), "pkru_safe_crash_report");
  EXPECT_EQ(report->GetString("reason"), "mpk-violation");
  EXPECT_EQ(report->GetString("backend"), "faketest");
  EXPECT_EQ(report->GetInt("signal"), 11);

  const json::Value* fault = report->Find("fault");
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->GetUint("address"), 0xdead5000u);
  EXPECT_EQ(fault->GetString("access"), "write");
  EXPECT_EQ(fault->GetUint("pkey"), 1u);
  EXPECT_EQ(fault->GetUint("pkru"), 0x4u);

  const json::Value* ranges = report->Find("page_key_map");
  ASSERT_NE(ranges, nullptr);
  ASSERT_EQ(ranges->AsArray().size(), 1u);
  EXPECT_EQ(ranges->AsArray()[0].GetUint("begin"), 0xdead5000u & ~uint64_t{0xFFF});
  EXPECT_EQ(ranges->AsArray()[0].GetUint("key"), 1u);
  EXPECT_TRUE(ranges->AsArray()[0].Find("contains_fault")->AsBool());

  const json::Value* provenance = report->Find("provenance");
  ASSERT_NE(provenance, nullptr);
  EXPECT_EQ(provenance->GetString("status"), "found");
  EXPECT_EQ(provenance->GetString("alloc_id"), "1:2:3");
  EXPECT_EQ(provenance->GetUint("size"), 64u);

  const json::Value* counters = report->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetUint("fr_test.events"), 7u);

  const json::Value* trace = report->Find("trace");
  ASSERT_NE(trace, nullptr);
  bool saw_denied = false;
  for (const json::Value& event : trace->AsArray()) {
    if (event.GetString("type") == "fault_denied") {
      saw_denied = true;
      EXPECT_EQ(event.GetUint("a"), 0xdead5000u);
    }
  }
  EXPECT_TRUE(saw_denied);

  // The human rendering names the essentials.
  const std::string text = RenderCrashReportText(*report);
  EXPECT_NE(text.find("mpk-violation"), std::string::npos);
  EXPECT_NE(text.find("faketest"), std::string::npos);
  EXPECT_NE(text.find("1:2:3"), std::string::npos);
  EXPECT_NE(text.find("0xdead5000"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, SecondReportIsSuppressed) {
  const std::string path = ::testing::TempDir() + "/flight_recorder_dup.json";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Configure(path).ok());
  EXPECT_GT(recorder.WriteFatalReport(MpkViolation(0x2000)), 0u);
  EXPECT_EQ(recorder.WriteFatalReport(MpkViolation(0x3000)), 0u);
  recorder.ResetForTesting();
  EXPECT_GT(recorder.WriteFatalReport(MpkViolation(0x4000)), 0u);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, ClearResolversForDropsOnlyMatchingContext) {
  const std::string path = ::testing::TempDir() + "/flight_recorder_clear.json";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Configure(path).ok());
  int dying_ctx = 0;
  int live_ctx = 0;
  recorder.SetRangeResolver(&FakeRanges, &dying_ctx);
  recorder.SetProvenanceResolver(&FakeProvenance, &live_ctx);
  recorder.ClearResolversFor(&dying_ctx);

  EXPECT_GT(recorder.WriteFatalReport(MpkViolation(0x5000)), 0u);
  auto report = LoadCrashReport(path);
  ASSERT_TRUE(report.ok());
  // The range resolver is gone; the provenance resolver survived.
  EXPECT_TRUE(report->Find("page_key_map")->AsArray().empty());
  EXPECT_EQ(report->Find("provenance")->GetString("status"), "found");
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, ParseRejectsNonReports) {
  EXPECT_FALSE(ParseCrashReport("{}").ok());
  EXPECT_FALSE(ParseCrashReport("[1,2]").ok());
  EXPECT_FALSE(ParseCrashReport("{\"kind\":\"something_else\"}").ok());
  EXPECT_FALSE(ParseCrashReport("not json").ok());
}

// --- AS-safety audit: the unsafe points must trip inside signal context ----

using AsyncSignalDeathTest = FlightRecorderTest;

TEST_F(AsyncSignalDeathTest, RegistrySnapshotTripsInSignalContext) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedAsyncSignalContext guard;
        (void)MetricsRegistry::Global().Snapshot();
      },
      "async-signal-safety violation.*MetricsRegistry::Snapshot");
}

TEST_F(AsyncSignalDeathTest, CollectTraceTripsInSignalContext) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedAsyncSignalContext guard;
        (void)CollectTrace();
      },
      "async-signal-safety violation.*CollectTrace");
}

TEST(AsyncSignalContextTest, NestsAndUnwinds) {
  EXPECT_FALSE(InAsyncSignalContext());
  {
    ScopedAsyncSignalContext outer;
    EXPECT_TRUE(InAsyncSignalContext());
    {
      ScopedAsyncSignalContext inner;
      EXPECT_TRUE(InAsyncSignalContext());
    }
    EXPECT_TRUE(InAsyncSignalContext());
  }
  EXPECT_FALSE(InAsyncSignalContext());
}

// WriteFatalReport itself must be clean: it runs under a scoped context, so
// any transitively-reached unsafe point would abort this test.
TEST_F(FlightRecorderTest, FatalPathHitsNoUnsafePoints) {
  const std::string path = ::testing::TempDir() + "/flight_recorder_as_safe.json";
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_TRUE(recorder.Configure(path).ok());
  int ctx = 0;
  recorder.SetRangeResolver(&FakeRanges, &ctx);
  recorder.SetProvenanceResolver(&FakeProvenance, &ctx);
  recorder.RefreshMetricHandles();
  ScopedAsyncSignalContext guard;  // arm the audit for the whole call
  EXPECT_GT(recorder.WriteFatalReport(MpkViolation(0x6000)), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace telemetry
}  // namespace pkrusafe
