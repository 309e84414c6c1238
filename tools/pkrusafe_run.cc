// pkrusafe_run: the toolchain driver for IR programs.
//
//   pkrusafe_run prog.ir                        # baseline (no partitioning)
//   pkrusafe_run prog.ir --mode=profile --emit-profile=prog.artifact
//   pkrusafe_run prog.ir --mode=enforce --profile=prog.artifact
//   pkrusafe_run prog.ir --mode=enforce --static    # profile via static analysis
//   pkrusafe_run prog.ir --dump-ir                  # print instrumented IR
//
// Profiles on disk are ProfileArtifacts (src/runtime/profile_artifact.h):
// --emit-profile stamps the instrumented IR hash, and --profile is refused
// when the artifact was recorded against a different module.
//
// Programs link against a small standard library of externs:
//   trusted:   @t_print(1)
//   untrusted (library "clib"): @u_read(1)  @u_write(2)  @u_sum(2)  @u_fill(3)
// The untrusted externs access memory through MPK-checked loads/stores, so
// enforcement semantics apply to them exactly as to real unsafe code.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "src/analysis/points_to.h"
#include "src/core/pkru_safe.h"
#include "src/mpk/fault_signal.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/ir/parser.h"
#include "src/runtime/profile_artifact.h"
#include "src/runtime/profile_delta.h"
#include "src/runtime/site_stats.h"
#include "src/support/json.h"
#include "src/telemetry/export.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/telemetry.h"

namespace {

using namespace pkrusafe;  // NOLINT: tool brevity

ExternRegistry StandardExterns(std::vector<int64_t>* prints) {
  ExternRegistry externs;
  externs.Register("t_print",
                   [prints](Interpreter&, const std::vector<int64_t>& args) -> Result<int64_t> {
                     prints->push_back(args[0]);
                     std::printf("t_print: %lld\n", static_cast<long long>(args[0]));
                     return 0;
                   });
  externs.Register("u_read",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     return interp.LoadChecked(args[0]);
                   });
  externs.Register("u_write",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     PS_RETURN_IF_ERROR(interp.StoreChecked(args[0], args[1]));
                     return 0;
                   });
  externs.Register("u_sum",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     int64_t sum = 0;
                     for (int64_t i = 0; i < args[1]; ++i) {
                       PS_ASSIGN_OR_RETURN(int64_t v, interp.LoadChecked(args[0] + i * 8));
                       sum += v;
                     }
                     return sum;
                   });
  externs.Register("u_fill",
                   [](Interpreter& interp, const std::vector<int64_t>& args) -> Result<int64_t> {
                     for (int64_t i = 0; i < args[1]; ++i) {
                       PS_RETURN_IF_ERROR(interp.StoreChecked(args[0] + i * 8, args[2]));
                     }
                     return args[1];
                   });
  return externs;
}

// Applies kPolicyUpdate frames the serve endpoint pushed back: promotions
// and demotions land on the live runtime without a restart.
void ApplyPolicyFrames(PkruSafeRuntime& runtime, telemetry::NetSink* sink) {
  if (sink == nullptr) {
    return;
  }
  for (telemetry::Frame& frame : sink->TakeIncoming()) {
    if (frame.type != telemetry::FrameType::kPolicyUpdate) {
      continue;
    }
    auto update = json::Parse(frame.payload);
    if (!update.ok() || !update->is_object() ||
        update->GetString("kind") != "pkru_safe_policy_update") {
      continue;
    }
    const json::Value* sites = update->Find("sites");
    if (sites == nullptr || !sites->is_array()) {
      continue;
    }
    std::vector<AllocId> ids;
    for (const json::Value& entry : sites->AsArray()) {
      if (!entry.is_string()) {
        continue;
      }
      if (auto id = AllocId::Parse(entry.AsString()); id.ok()) {
        ids.push_back(*id);
      }
    }
    const std::string action = update->GetString("action");
    if (action == "promote") {
      const auto applied = runtime.ApplyPromotions(ids);
      std::printf("policy update: promoted %zu site(s), %zu refused, %zu page(s) opened\n",
                  applied.promoted, applied.refused, applied.pages_opened);
    } else if (action == "demote") {
      const auto applied = runtime.ApplyDemotions(ids);
      std::printf("policy update: demoted %zu site(s), %zu page(s) closed\n",
                  applied.demoted, applied.pages_closed);
    }
    std::fflush(stdout);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: pkrusafe_run <prog.ir> [--mode=off|profile|enforce]\n"
               "         [--profile=FILE] [--emit-profile=FILE] [--static]\n"
               "         [--backend=sim|mprotect|hardware|auto] [--entry=NAME]\n"
               "         [--dump-ir] [--trace-out=FILE] [--stats[=json|text]]\n"
               "         [--crash-report=FILE] [--sample-out=FILE] [--sample-ms=N]\n"
               "         [--site-stats[=FILE]] [--latch-sites]\n"
               "         [--sampled[=FRACTION]] [--sample-budget-ns=N]\n"
               "         [--sample-interval-ms=N] [--profile-stream=DEST] [--epoch=NAME]\n"
               "         [--expected-epoch=NAME]\n"
               "  --profile=FILE    profile artifact supplying the enforcement profile\n"
               "                    (from --emit-profile or `profile_tool merge|\n"
               "                    aggregate|serve`); verified against this module's\n"
               "                    instrumented IR hash at load and unioned with\n"
               "                    --static when both are given\n"
               "  --emit-profile=FILE  write the recorded profile as an artifact\n"
               "                    (IR hash + one --epoch provenance line)\n"
               "  --latch-sites     profiling mode: after a site's first fault,\n"
               "                    downgrade pages it fully covers to the shared\n"
               "                    key (counts become approximate, sites exact;\n"
               "                    see runtime.fault.latched in --stats)\n"
               "  --trace-out=FILE  enable telemetry tracing; write Chrome-trace\n"
               "                    JSON (open in Perfetto / chrome://tracing)\n"
               "  --stats[=text]    dump the metrics registry after the run\n"
               "  --stats=json      ... as one machine-readable JSON object\n"
               "  --crash-report=FILE  arm the flight recorder: if the run dies\n"
               "                    on an MPK violation, SIGSEGV or abort, a\n"
               "                    postmortem JSON report lands in FILE\n"
               "                    (render with `profile_tool report FILE`)\n"
               "  --sample-out=FILE write live JSONL metric samples to FILE\n"
               "  --sample-ms=N     sampling period in ms (default 100)\n"
               "  --site-stats[=FILE]  per-site heap attribution: print the top\n"
               "                    sites by live bytes; with =FILE also write\n"
               "                    the full table as JSON for `profile_tool sites`\n"
               "  --sampled[=F]     enforce mode: always-on sampled profiling. The\n"
               "                    statically-shared-but-unpromoted sites record\n"
               "                    instead of dying; fraction F of their pages\n"
               "                    (default 0.01) stay trap-on-touch for counts\n"
               "  --sample-budget-ns=N  fault-service budget per interval (default 2e6)\n"
               "  --sample-interval-ms=N  budget refill interval (default 100)\n"
               "  --profile-stream=DEST  ship IR-versioned profile deltas. DEST is\n"
               "                    a frame-log file (feed to `profile_tool aggregate`)\n"
               "                    or tcp://HOST:PORT (a `profile_tool serve`\n"
               "                    endpoint; policy updates pushed back are\n"
               "                    applied live). Repeat for both sinks\n"
               "  --epoch=NAME      epoch stamp for --profile-stream and\n"
               "                    --emit-profile (default dev)\n"
               "  --expected-epoch=NAME  warn when the --profile artifact's newest\n"
               "                    epoch is not NAME (stale artifact)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string path;
  std::string mode = "off";
  std::string profile_path;
  std::string emit_profile_path;
  std::string backend = "sim";
  std::string entry = "main";
  std::string trace_out;
  std::string stats_format;  // "", "json" or "text"
  std::string crash_report_path;
  std::string sample_out;
  uint64_t sample_ms = 100;
  std::string site_stats_path;
  bool site_stats = false;
  bool use_static = false;
  bool dump_ir = false;
  bool latch_sites = false;
  bool sampled = false;
  double sampled_fraction = 0.01;
  uint64_t sample_budget_ns = 2'000'000;
  uint64_t sample_interval_ms = 100;
  std::vector<std::string> profile_stream_dests;
  std::string epoch = "dev";
  std::string expected_epoch;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      return std::strncmp(arg.c_str(), prefix, std::strlen(prefix)) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    const char* v = nullptr;
    if ((v = value_of("--mode="))) {
      mode = v;
    } else if ((v = value_of("--profile="))) {
      profile_path = v;
    } else if ((v = value_of("--emit-profile="))) {
      emit_profile_path = v;
    } else if ((v = value_of("--backend="))) {
      backend = v;
    } else if ((v = value_of("--entry="))) {
      entry = v;
    } else if ((v = value_of("--trace-out="))) {
      trace_out = v;
    } else if ((v = value_of("--stats="))) {
      stats_format = v;
      if (stats_format != "json" && stats_format != "text") {
        return Usage();
      }
    } else if (arg == "--stats") {
      stats_format = "text";
    } else if ((v = value_of("--crash-report="))) {
      crash_report_path = v;
    } else if ((v = value_of("--sample-out="))) {
      sample_out = v;
    } else if ((v = value_of("--sample-ms="))) {
      sample_ms = std::strtoull(v, nullptr, 10);
      if (sample_ms == 0) {
        return Usage();
      }
    } else if ((v = value_of("--site-stats="))) {
      site_stats = true;
      site_stats_path = v;
    } else if (arg == "--site-stats") {
      site_stats = true;
    } else if (arg == "--latch-sites") {
      latch_sites = true;
    } else if ((v = value_of("--sampled="))) {
      sampled = true;
      sampled_fraction = std::strtod(v, nullptr);
      if (sampled_fraction < 0.0 || sampled_fraction > 1.0) {
        return Usage();
      }
    } else if (arg == "--sampled") {
      sampled = true;
    } else if ((v = value_of("--sample-budget-ns="))) {
      sample_budget_ns = std::strtoull(v, nullptr, 10);
    } else if ((v = value_of("--sample-interval-ms="))) {
      sample_interval_ms = std::strtoull(v, nullptr, 10);
    } else if ((v = value_of("--profile-stream="))) {
      profile_stream_dests.push_back(v);
    } else if ((v = value_of("--epoch="))) {
      epoch = v;
    } else if ((v = value_of("--expected-epoch="))) {
      expected_epoch = v;
    } else if (arg == "--static") {
      use_static = true;
    } else if (arg == "--dump-ir") {
      dump_ir = true;
    } else if (arg[0] == '-') {
      return Usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    return Usage();
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string source = buffer.str();

  SystemConfig config;
  auto backend_kind = ParseBackendKind(backend);
  if (!backend_kind.ok()) {
    std::fprintf(stderr, "%s\n", backend_kind.status().ToString().c_str());
    return 1;
  }
  config.backend = *backend_kind;
  if (mode == "off" || mode == "disabled") {
    config.mode = RuntimeMode::kDisabled;
  } else if (mode == "profile" || mode == "profiling") {
    config.mode = RuntimeMode::kProfiling;
  } else if (mode == "enforce" || mode == "enforcing") {
    config.mode = RuntimeMode::kEnforcing;
  } else {
    return Usage();
  }
  config.latch_sites = latch_sites;
  config.site_stats = site_stats;
  if (sampled) {
    if (config.mode != RuntimeMode::kEnforcing) {
      std::fprintf(stderr, "--sampled requires --mode=enforce\n");
      return Usage();
    }
    config.sampled_profiling = true;
    config.sampling.page_fraction = sampled_fraction;
    config.sampling.service_ns_per_interval = sample_budget_ns;
    config.sampling.interval_ms = sample_interval_ms;
  }

  if (!trace_out.empty()) {
    telemetry::SetEnabled(true);
  }
  if (!crash_report_path.empty()) {
    // Tracing feeds the report's trace tail; arm it even without --trace-out.
    telemetry::SetEnabled(true);
    if (auto status = telemetry::FlightRecorder::Global().Configure(crash_report_path);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  config.profile_artifact = profile_path;
  config.expected_epoch = expected_epoch;
  if (use_static) {
    // Compute the profile at compile time instead of loading one.
    auto module = ParseModule(source);
    if (!module.ok()) {
      std::fprintf(stderr, "%s\n", module.status().ToString().c_str());
      return 1;
    }
    PassManager pm;
    pm.Add(std::make_unique<AllocIdPass>());
    pm.Add(std::make_unique<GateInsertionPass>());
    if (auto status = pm.Run(*module); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    analysis::PointsToAnalysis points_to(&*module);
    if (auto status = points_to.Run(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    const std::vector<AllocId> shared = points_to.SharedSites();
    for (const AllocId& id : shared) {
      config.profile.Add(id);
    }
    std::printf("static analysis: %zu shared site(s) in %d iteration(s)\n", shared.size(),
                points_to.iterations());
  }

  std::vector<int64_t> prints;
  auto system = System::Create(source, config, StandardExterns(&prints));
  if (!system.ok()) {
    std::fprintf(stderr, "compile: %s\n", system.status().ToString().c_str());
    return 1;
  }
  std::printf("build: mode=%s sites=%zu gates=%zu moved=%zu\n", mode.c_str(),
              (*system)->total_alloc_sites(), (*system)->gates_inserted(),
              (*system)->sites_moved_to_untrusted());
  if (dump_ir) {
    std::printf("%s", (*system)->DumpIr().c_str());
  }

  // Delta stream: the continuous-profiling output. Flushed on each sampler
  // tick (when sampling) and once more at exit, so short runs still ship
  // their observations. Destinations: a frame-log file, a tcp://host:port serve
  // endpoint, or both (one writer, two sinks). Deltas are keyed by the
  // instrumented pre-apply hash, which stays stable across profile
  // iterations where the post-apply module text does not.
  std::unique_ptr<ProfileStreamWriter> stream;
  if (!profile_stream_dests.empty()) {
    ProfileStreamWriter::Options stream_options;
    stream_options.epoch = epoch;
    stream_options.ir_hash = (*system)->instrumented_ir_hash();
    for (const std::string& dest : profile_stream_dests) {
      if (dest.rfind("tcp://", 0) == 0) {
        const std::string endpoint = dest.substr(6);
        const size_t colon = endpoint.rfind(':');
        const uint64_t port =
            colon == std::string::npos ? 0
                                       : std::strtoull(endpoint.c_str() + colon + 1, nullptr, 10);
        if (colon == std::string::npos || colon == 0 || port == 0 || port > 65535) {
          std::fprintf(stderr, "bad --profile-stream endpoint %s (want tcp://HOST:PORT)\n",
                       dest.c_str());
          return 1;
        }
        stream_options.net_host = endpoint.substr(0, colon);
        stream_options.net_port = static_cast<uint16_t>(port);
      } else {
        stream_options.path = dest;
      }
    }
    stream = std::make_unique<ProfileStreamWriter>(std::move(stream_options));
    if (auto status = stream->Open(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  telemetry::Sampler sampler;
  if (!sample_out.empty()) {
    telemetry::Sampler::Options options;
    options.path = sample_out;
    options.period_ms = sample_ms;
    if (stream != nullptr) {
      auto* system_ptr = system->get();
      auto* stream_ptr = stream.get();
      options.on_sample = [system_ptr, stream_ptr] {
        (void)stream_ptr->Flush(system_ptr->TakeProfile());
        // Policy frames the serve endpoint pushed back ride the same tick.
        ApplyPolicyFrames(system_ptr->runtime(), stream_ptr->net_sink());
      };
    }
    if (auto status = sampler.Start(options); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }

  auto result = (*system)->Call(entry);
  if (!result.ok()) {
    std::fprintf(stderr, "run: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const int64_t value : (*system)->interpreter().output()) {
    std::printf("print: %lld\n", static_cast<long long>(value));
  }
  std::printf("@%s returned %lld\n", entry.c_str(), static_cast<long long>(*result));

  if (!emit_profile_path.empty()) {
    ProfileArtifact artifact;
    artifact.ir_hash = (*system)->instrumented_ir_hash();
    artifact.profile = (*system)->TakeProfile();
    artifact.epochs.push_back(
        {epoch, artifact.profile.site_count(), artifact.profile.TotalCount()});
    if (auto status = artifact.SaveToFile(emit_profile_path); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu site(s) to %s\n", artifact.profile.site_count(),
                emit_profile_path.c_str());
  }

  if (!trace_out.empty()) {
    if (auto status = telemetry::WriteChromeTraceFile(trace_out); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    const telemetry::TraceStats trace_stats = telemetry::GatherTraceStats();
    std::printf("wrote %llu trace event(s) to %s (%llu overwritten, %llu dropped)\n",
                static_cast<unsigned long long>(trace_stats.events_recorded -
                                               trace_stats.events_overwritten),
                trace_out.c_str(),
                static_cast<unsigned long long>(trace_stats.events_overwritten),
                static_cast<unsigned long long>(trace_stats.events_dropped));
  }
  if (sampler.running()) {
    sampler.Stop();
    std::printf("wrote %llu sample(s) to %s\n",
                static_cast<unsigned long long>(sampler.samples_written()), sample_out.c_str());
  }
  if (stream != nullptr) {
    // Final flush after the sampler has stopped, so nothing observed between
    // the last tick and exit is lost.
    if (auto status = stream->Flush((*system)->TakeProfile()); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    ApplyPolicyFrames((*system)->runtime(), stream->net_sink());
    std::string dests;
    for (const std::string& dest : profile_stream_dests) {
      if (!dests.empty()) {
        dests += ", ";
      }
      dests += dest;
    }
    std::printf("wrote %llu delta(s) to %s (epoch %s)\n",
                static_cast<unsigned long long>(stream->deltas_written()), dests.c_str(),
                epoch.c_str());
    stream->Close();
  }
  if (site_stats) {
    const std::vector<SiteTotals> all = (*system)->runtime().SiteHeapTotals();
    const auto top = TopKByLiveBytes(all, 10, SiteTotals::kUntrusted);
    std::printf("top sites by M_U live bytes:\n");
    std::printf("  %-16s %12s %8s %12s %8s\n", "site", "U bytes", "U objs", "T bytes",
                "T objs");
    for (const auto& totals : top) {
      std::printf("  %-16s %12lld %8lld %12lld %8lld\n", totals.site.ToString().c_str(),
                  static_cast<long long>(totals.live_bytes[SiteTotals::kUntrusted]),
                  static_cast<long long>(totals.live_objects[SiteTotals::kUntrusted]),
                  static_cast<long long>(totals.live_bytes[SiteTotals::kTrusted]),
                  static_cast<long long>(totals.live_objects[SiteTotals::kTrusted]));
    }
    if (!site_stats_path.empty()) {
      std::ofstream site_out(site_stats_path, std::ios::trunc);
      if (!site_out) {
        std::fprintf(stderr, "cannot open %s\n", site_stats_path.c_str());
        return 1;
      }
      site_out << SiteStatsToJson(all) << '\n';
      std::printf("wrote %zu site record(s) to %s\n", all.size(), site_stats_path.c_str());
    }
  }
  if (!stats_format.empty()) {
    // Snapshot while the system is alive so the runtime.* callback gauges
    // still read the real counters.
    const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
    if (stats_format == "json") {
      telemetry::WriteStatsJson(std::cout, snapshot);
    } else {
      telemetry::WriteStatsText(std::cout, snapshot);
      // Per-thread fault service table (signal-engine backends only).
      constexpr size_t kMaxThreads = 64;
      ThreadFaultStats threads[kMaxThreads];
      const size_t n = FaultSignalEngine::SnapshotThreadStats(threads, kMaxThreads);
      if (n > 0) {
        std::printf("per-thread fault service:\n");
        std::printf("  %-10s %12s %16s %12s\n", "tid", "serviced", "service ns", "avg ns");
        for (size_t i = 0; i < n; ++i) {
          std::printf("  %-10llu %12llu %16llu %12llu\n",
                      static_cast<unsigned long long>(threads[i].tid),
                      static_cast<unsigned long long>(threads[i].serviced),
                      static_cast<unsigned long long>(threads[i].service_ns),
                      static_cast<unsigned long long>(
                          threads[i].serviced == 0 ? 0
                                                   : threads[i].service_ns / threads[i].serviced));
        }
      }
    }
  }
  return 0;
}
