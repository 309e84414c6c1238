// Fleet transport cost: what does a live socket sink add to the producer?
//
// The per-flush cost of the stream writer with a file sink only vs file +
// live socket, normalized to the shipped sampler cadence (one flush per
// 100ms tick). Both sinks write the same PSF frames; the socket sink is
// non-blocking by design, so the extra cost per tick must be noise.
//
// Acceptance: the socket sink costs the producer no more than 5% of wall
// time at the default sampler tick.
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
#include "src/telemetry/stream_net.h"

namespace pkrusafe {
namespace {

constexpr uint64_t kIrHash = 0xbe7afee7;
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
  options.path = "/tmp/bench_fleet_writer.psf";
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
  std::remove("/tmp/bench_fleet_writer.psf");
  if (with_net) {
    stop.store(true);
    drain.join();
    server.Stop();
  }
  return Seconds(elapsed) * 1e6 / static_cast<double>(kFlushes);
}

}  // namespace
}  // namespace pkrusafe

int main() {
  using namespace pkrusafe;  // NOLINT: bench brevity

  std::printf("# Fleet transport (producer: %d flushes of %zu sites per variant)\n", kFlushes,
              kSitesPerDelta);

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
  std::printf("# acceptance: socket overhead within 5%%.\n");

  bench::BenchJsonWriter out("fleet");
  out.Add("flush_micros/sink:file", flush_file, "us");
  out.Add("flush_micros/sink:file_socket", flush_net, "us");
  out.Add("producer_socket_overhead_at_tick", overhead * 100.0, "%");
  return out.Write() ? 0 : 1;
}
