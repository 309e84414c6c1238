// Fleet transport cost: what does moving profile deltas over a live socket
// add, against the file-tailing baseline PR 6 shipped?
//
// Three questions, one run:
//   * parity     — the same delta set aggregated via file tailing and via
//                  PSD1 frames over a loopback socket must produce an
//                  identical rolling profile (and identical rejections: none);
//   * pipeline   — deltas/s through each transport, producer to aggregate;
//   * producer   — the per-flush cost of the stream writer with a file sink
//                  only vs file + live socket, normalized to the shipped
//                  sampler cadence (one flush per 100ms tick). The socket
//                  sink is non-blocking by design, so the extra cost per
//                  tick must be noise.
//
// Acceptance: streamed aggregation matches file aggregation exactly, and the
// socket sink costs the producer no more than 5% of wall time at the
// default sampler tick.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/runtime/profile_delta.h"
#include "src/telemetry/aggregator.h"
#include "src/telemetry/stream_net.h"

namespace pkrusafe {
namespace {

constexpr uint64_t kIrHash = 0xbe7afee7;
constexpr size_t kDeltas = 2000;
constexpr size_t kSitesPerDelta = 32;
constexpr int kFlushes = 400;
// The shipped sampler flushes once per tick; --sample-ms defaults to 100.
constexpr double kTickMicros = 100000.0;

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

std::vector<AllocId> BenchSites() {
  std::vector<AllocId> sites;
  for (size_t i = 0; i < kSitesPerDelta; ++i) {
    sites.push_back(AllocId{static_cast<uint32_t>(10 + i), 0, 0});
  }
  return sites;
}

ProfileDelta MakeDelta(uint64_t sequence, const std::vector<AllocId>& sites) {
  ProfileDelta delta("bench", kIrHash, sequence);
  for (size_t i = 0; i < sites.size(); ++i) {
    delta.Add(sites[i], 1 + (sequence + i) % 7);
  }
  return delta;
}

telemetry::ProfileAggregator MakeAggregator(const std::vector<AllocId>& sites) {
  telemetry::AggregatorOptions options;
  options.expected_ir_hash = kIrHash;
  options.static_shared.insert(sites.begin(), sites.end());
  return telemetry::ProfileAggregator(std::move(options));
}

// File transport: producer appends JSONL, aggregator tails the file.
double AggregateViaFile(const std::vector<AllocId>& sites, Profile* rolling_out) {
  const std::string path = "/tmp/bench_fleet_stream.jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::abort();
  }
  telemetry::ProfileAggregator aggregator = MakeAggregator(sites);
  aggregator.AddStream(path);

  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kDeltas; ++i) {
    const std::string line = MakeDelta(i, sites).ToJsonLine();
    std::fputs(line.c_str(), out);
    std::fputc('\n', out);
  }
  std::fflush(out);
  auto applied = aggregator.Poll(nullptr);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  std::fclose(out);
  std::remove(path.c_str());
  if (!applied.ok() || *applied != kDeltas) {
    std::fprintf(stderr, "file aggregation applied %zu/%zu deltas\n",
                 applied.ok() ? *applied : 0, kDeltas);
    std::abort();
  }
  *rolling_out = aggregator.rolling();
  return static_cast<double>(kDeltas) / Seconds(elapsed);
}

// Socket transport: the same deltas as PSD1 frames through a loopback
// NetSink into a FrameServer, consumed serve-style.
double AggregateViaSocket(const std::vector<AllocId>& sites, Profile* rolling_out) {
  telemetry::FrameServer server;
  if (!server.Start().ok()) {
    std::abort();
  }
  telemetry::NetSinkOptions sink_options;
  sink_options.port = server.port();
  telemetry::NetSink sink(sink_options);
  telemetry::ProfileAggregator aggregator = MakeAggregator(sites);

  size_t applied = 0;
  const auto on_frame = [&](uint64_t client, telemetry::Frame&& frame) {
    if (frame.type == telemetry::FrameType::kProfileDelta &&
        aggregator.ConsumeNetworkDelta("tcp:" + std::to_string(client), frame.payload, nullptr)) {
      ++applied;
    }
  };

  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kDeltas; ++i) {
    sink.Send(telemetry::FrameType::kProfileDelta, MakeDelta(i, sites).EncodeBinary());
    if (i % 16 == 0) {
      (void)server.PollOnce(0, on_frame);
    }
  }
  // Drain the tail: everything sent must arrive (loopback, server up).
  for (int spin = 0; spin < 10000 && applied < kDeltas; ++spin) {
    sink.Pump();
    (void)server.PollOnce(1, on_frame);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (applied != kDeltas) {
    std::fprintf(stderr, "socket aggregation applied %zu/%zu deltas (dropped %llu)\n", applied,
                 kDeltas, static_cast<unsigned long long>(sink.stats().frames_dropped));
    std::abort();
  }
  *rolling_out = aggregator.rolling();
  server.Stop();
  return static_cast<double>(kDeltas) / Seconds(elapsed);
}

// Producer-side cost: what one sampler-tick flush of a growing profile
// costs the producer, with the stream writer pointed at a file only vs a
// file plus a live socket (drained by a poll thread, as `serve` would).
// Returns microseconds per flush.
double MeasureFlushMicros(bool with_net) {
  telemetry::FrameServer server;
  std::thread drain;
  std::atomic<bool> stop{false};
  if (with_net) {
    if (!server.Start().ok()) {
      std::abort();
    }
    drain = std::thread([&] {
      while (!stop.load()) {
        (void)server.PollOnce(1, [](uint64_t, telemetry::Frame&&) {});
      }
    });
  }

  ProfileStreamWriter::Options options;
  options.path = "/tmp/bench_fleet_writer.jsonl";
  options.epoch = "bench";
  options.ir_hash = kIrHash;
  if (with_net) {
    options.net_port = server.port();
  }
  ProfileStreamWriter writer(std::move(options));
  if (!writer.Open().ok()) {
    std::abort();
  }

  const std::vector<AllocId> sites = BenchSites();
  Profile growing;
  const auto start = std::chrono::steady_clock::now();
  for (int flush = 0; flush < kFlushes; ++flush) {
    for (const AllocId& site : sites) {
      growing.Add(site, 1);
    }
    if (!writer.Flush(growing).ok()) {
      std::abort();
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  writer.Close();
  std::remove("/tmp/bench_fleet_writer.jsonl");
  if (with_net) {
    stop.store(true);
    drain.join();
    server.Stop();
  }
  return Seconds(elapsed) * 1e6 / static_cast<double>(kFlushes);
}

bool SameProfile(const Profile& a, const Profile& b, const std::vector<AllocId>& sites) {
  if (a.site_count() != b.site_count()) {
    return false;
  }
  for (const AllocId& site : sites) {
    if (a.CountFor(site) != b.CountFor(site)) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace pkrusafe

int main() {
  using namespace pkrusafe;  // NOLINT: bench brevity

  const std::vector<AllocId> sites = BenchSites();

  // Warmup (first-connect, page-in).
  {
    Profile ignored;
    (void)AggregateViaSocket(sites, &ignored);
  }

  std::printf("# Fleet transport (%zu deltas x %zu sites; producer: %d flushes per variant)\n",
              kDeltas, kSitesPerDelta, kFlushes);

  Profile via_file;
  Profile via_socket;
  const double file_rate = AggregateViaFile(sites, &via_file);
  const double socket_rate = AggregateViaSocket(sites, &via_socket);
  const bool parity = SameProfile(via_file, via_socket, sites);
  std::printf("%-28s %14.0f deltas/s\n", "aggregate via file", file_rate);
  std::printf("%-28s %14.0f deltas/s\n", "aggregate via socket", socket_rate);
  std::printf("%-28s %14s\n", "rolling-profile parity", parity ? "exact" : "MISMATCH");
  if (!parity) {
    return 1;
  }

  // Warm both variants, then take the best of two interleaved runs each
  // (first-run page-in and connect costs otherwise dominate).
  (void)MeasureFlushMicros(false);
  (void)MeasureFlushMicros(true);
  double flush_file = 1e18;
  double flush_net = 1e18;
  for (int round = 0; round < 2; ++round) {
    flush_file = std::min(flush_file, MeasureFlushMicros(false));
    flush_net = std::min(flush_net, MeasureFlushMicros(true));
  }
  // The producer flushes once per sampler tick; normalize the extra socket
  // work to that cadence to get the share of producer wall time it costs.
  const double overhead = std::max(0.0, flush_net - flush_file) / kTickMicros;
  std::printf("%-28s %14.2f us/flush\n", "producer flush, file sink", flush_file);
  std::printf("%-28s %14.2f us/flush\n", "producer flush, file+socket", flush_net);
  std::printf("\nsocket sink overhead at the 100ms sampler tick: %.3f%%\n", overhead * 100.0);
  std::printf("# acceptance: parity exact; socket overhead within 5%%.\n");

  bench::BenchJsonWriter out("fleet");
  out.Add("aggregate_deltas_per_sec/transport:file", file_rate, "deltas/s");
  out.Add("aggregate_deltas_per_sec/transport:socket", socket_rate, "deltas/s");
  out.Add("rolling_profile_parity", parity ? 1.0 : 0.0, "bool");
  out.Add("flush_micros/sink:file", flush_file, "us");
  out.Add("flush_micros/sink:file_socket", flush_net, "us");
  out.Add("producer_socket_overhead_at_tick", overhead * 100.0, "%");
  return out.Write() ? 0 : 1;
}
