// profile_tool: inspect, merge and aggregate PKRU-Safe profiles.
//
// The paper's deployment story (§6) merges profiles from many runs/users
// before the enforcement build ("operating systems and applications often
// test and profile applications ... using a subset of their installation
// base"); this tool is that step.
//
//   profile_tool show  a.artifact [--stats=json|text]
//   profile_tool merge out.artifact a.artifact b.artifact ...
//   profile_tool diff  a.artifact b.artifact
//   profile_tool check module.ir a.artifact
//   profile_tool aggregate --module=m.ir [--out=a.artifact] a.psf b.psf ...
//   profile_tool serve --module=m.ir [--port=N] [--artifact=a.artifact] [a.psf ...]
//
// Every profile file is a ProfileArtifact (src/runtime/profile_artifact.h):
// the tool reads, verifies and writes nothing else.
//
// --stats renders the profile's aggregate numbers (site count, fault totals,
// per-site fault counts) through the telemetry stats formats, so profiling
// pipelines can consume `show` output the same way they consume
// `pkrusafe_run --stats=json`.
//
// `merge` refuses inputs recorded against different IR (their site ids name
// different allocation sites); the output keeps that ir_hash and every
// input's epoch lines in argument order.
//
// `check` verifies an artifact against the module about to receive it in an
// enforcement build: an artifact recorded against other IR
// (stale-profile-hash) or naming an AllocId the module does not contain
// (stale-profile-site) is reported and the exit code is nonzero.
//
// `aggregate` and `serve` share one ingest loop (telemetry::FrameIngest) and
// one closing report. Both read profile deltas as PSF frames: `aggregate`
// drains frame logs once, `serve` also takes producers over TCP and follows
// its frame logs until --max-frames or --idle-exit-polls.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/analysis/lint.h"
#include "src/analysis/points_to.h"
#include "src/ir/module_hash.h"
#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/runtime/profile.h"
#include "src/runtime/profile_artifact.h"
#include "src/runtime/site_stats.h"
#include "src/support/json.h"
#include "src/telemetry/aggregator.h"
#include "src/telemetry/crash_report.h"
#include "src/telemetry/export.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/stream_net.h"

namespace {

using namespace pkrusafe;  // NOLINT: tool brevity

int Usage() {
  std::fprintf(stderr,
               "usage: profile_tool show <artifact> [--stats[=json|text]]\n"
               "       profile_tool merge <out> <in>...\n"
               "       profile_tool diff <a> <b>\n"
               "       profile_tool check <module.ir> <artifact>\n"
               "       profile_tool report <crash.json> [--json]\n"
               "       profile_tool sites <sites.json> [--top=N]\n"
               "           [--domain=trusted|untrusted] [--module=FILE]\n"
               "       profile_tool aggregate --module=FILE [--threshold=N]\n"
               "           [--min-epochs=N] [--out=FILE] <frame-log>...\n"
               "       profile_tool serve --module=FILE [--port=N] [--threshold=N]\n"
               "           [--min-epochs=N] [--demote-cold-epochs=N] [--baseline=FILE]\n"
               "           [--artifact=FILE]\n"
               "           [--interval-ms=N] [--max-frames=N] [--idle-exit-polls=N]\n"
               "           [<frame-log>...]\n"
               "  Every profile file is a profile artifact (ir_hash + per-epoch\n"
               "  provenance + sites + crc32); merge refuses mismatched ir_hash\n"
               "  report  render a flight-recorder crash report for humans\n"
               "          (--json echoes the validated raw JSON instead)\n"
               "  sites   top-K heap-attribution table from a\n"
               "          `pkrusafe_run --site-stats=FILE` dump; with --module,\n"
               "          cross-check each site against the static points-to\n"
               "          sharing analysis (dynamic M_U traffic the analyzer\n"
               "          missed is an error)\n"
               "  aggregate  drain frame logs (pkrusafe_run --profile-stream=FILE)\n"
               "          into a versioned rolling profile; promotion candidates\n"
               "          are cross-checked against the static points-to bound\n"
               "          of --module (rejections exit 1); --out=FILE writes the\n"
               "          rolling profile, its epochs and the live promoted set\n"
               "          as an artifact\n"
               "  serve   fleet endpoint: accept delta streams over TCP\n"
               "          (pkrusafe_run --profile-stream=tcp://host:port) and\n"
               "          follow any <frame-log> operands, fold them through the\n"
               "          same ingest loop as aggregate, and push\n"
               "          promote/demote policy frames back to every\n"
               "          connected producer; --port=0 binds an ephemeral port\n"
               "          (printed on stdout); --max-frames / --idle-exit-polls\n"
               "          bound the loop for scripted runs; --artifact=FILE is\n"
               "          reloaded at startup and snapshotted periodically, so\n"
               "          the rolling profile and promotions survive restarts;\n"
               "          --baseline=FILE is the artifact the fleet was built with\n"
               "          (its sites are never demoted)\n");
  return 2;
}

// Builds a throwaway registry describing `profile` so the standard stats
// exporters can render it.
telemetry::MetricsSnapshot ProfileSnapshot(const Profile& profile) {
  telemetry::MetricsRegistry registry;
  for (const AllocId& id : profile.Sites()) {
    registry.GetOrCreateCounter("profile.site." + id.ToString() + ".faults")
        ->Increment(profile.CountFor(id));
  }
  registry.GetOrCreateGauge("profile.sites")->Set(static_cast<int64_t>(profile.site_count()));
  registry.GetOrCreateCounter("profile.faults.total")->Increment(profile.TotalCount());
  return registry.Snapshot();
}

Result<ProfileArtifact> Load(const char* path) { return ProfileArtifact::LoadFromFile(path); }

Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError(std::string("cannot open ") + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Shared front half of check/sites/aggregate/serve: parse the module, run
// the instrumented-build passes (AllocId + gates, no profile apply) and
// compute the static sharing bound. ir_hash is the instrumented pre-apply
// content hash — the key every stream and artifact must match.
struct InstrumentedModule {
  IrModule module;
  std::vector<AllocId> static_shared;  // PointsToAnalysis::SharedSites(), sorted
  uint64_t ir_hash = 0;
};

Result<InstrumentedModule> LoadInstrumented(const std::string& path) {
  PS_ASSIGN_OR_RETURN(const std::string text, ReadFile(path.c_str()));
  InstrumentedModule out;
  PS_ASSIGN_OR_RETURN(out.module, ParseModule(text));
  PassManager pm;
  pm.Add(std::make_unique<AllocIdPass>());
  pm.Add(std::make_unique<GateInsertionPass>());
  PS_RETURN_IF_ERROR(pm.Run(out.module));
  analysis::PointsToAnalysis points_to(&out.module);
  PS_RETURN_IF_ERROR(points_to.Run());
  out.static_shared = points_to.SharedSites();
  out.ir_hash = ModuleContentHash(out.module);
  return out;
}

// Writes an artifact snapshot atomically: a kill mid-write must never leave
// a torn file where the previous good snapshot was (the crc would reject it,
// but the history would still be lost).
Status SaveArtifactAtomically(const ProfileArtifact& artifact, const std::string& path) {
  const std::string tmp = path + ".tmp";
  PS_RETURN_IF_ERROR(artifact.SaveToFile(tmp));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return InternalError("cannot rename artifact snapshot into place: " + path);
  }
  return Status::Ok();
}

// Final write of an aggregator's state (aggregate --out, serve --artifact).
bool WriteArtifact(const telemetry::ProfileAggregator& aggregator, uint64_t ir_hash,
                   const std::string& path) {
  const ProfileArtifact artifact = aggregator.ExportArtifact(ir_hash);
  if (auto status = SaveArtifactAtomically(artifact, path); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  std::printf("wrote artifact (%zu site(s), %zu epoch(s), %zu promoted, ir_hash 0x%016llx) "
              "to %s\n",
              artifact.profile.site_count(), artifact.epochs.size(), artifact.promoted.size(),
              static_cast<unsigned long long>(artifact.ir_hash), path.c_str());
  return true;
}

// The kPolicyUpdate frame payload pushed back to producers.
std::string PolicyUpdateJson(const char* action, const std::vector<AllocId>& sites) {
  std::string payload;
  json::Writer w(&payload);
  w.BeginObject().Key("kind").String("pkru_safe_policy_update").Key("action").String(action);
  w.Key("sites").BeginArray();
  for (const AllocId& site : sites) {
    w.String(site.ToString());
  }
  w.EndArray().EndObject();
  return payload;
}

// `aggregate` and `serve`: one ingest loop over frame sources. `aggregate`
// drains its frame logs once. `serve` also accepts producers on a socket and
// loops, following its frame logs and pushing promote/demote policy frames
// back to every connected producer.
int Ingest(int argc, char** argv, bool serve) {
  std::string module_path;
  std::string artifact_path;  // aggregate --out, serve --artifact
  std::string baseline_path;
  uint64_t threshold = 1;
  size_t min_epochs = 1;
  size_t demote_cold_epochs = 0;
  uint16_t port = 0;
  uint64_t interval_ms = 50;
  uint64_t max_frames = 0;       // 0 = unbounded
  uint64_t idle_exit_polls = 0;  // 0 = never idle-exit
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    // The value of `--name=VALUE`, or nullptr when `arg` is another flag.
    const auto value = [&arg](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      return arg.compare(0, n, name) == 0 ? arg.c_str() + n : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--module="))) {
      module_path = v;
    } else if ((v = value(serve ? "--artifact=" : "--out="))) {
      artifact_path = v;
    } else if ((v = value("--threshold="))) {
      threshold = std::strtoull(v, nullptr, 10);
    } else if ((v = value("--min-epochs="))) {
      min_epochs = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (serve && (v = value("--baseline="))) {
      baseline_path = v;
    } else if (serve && (v = value("--demote-cold-epochs="))) {
      demote_cold_epochs = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (serve && (v = value("--port="))) {
      port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (serve && (v = value("--interval-ms="))) {
      interval_ms = std::strtoull(v, nullptr, 10);
    } else if (serve && (v = value("--max-frames="))) {
      max_frames = std::strtoull(v, nullptr, 10);
    } else if (serve && (v = value("--idle-exit-polls="))) {
      idle_exit_polls = std::strtoull(v, nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (module_path.empty() || (!serve && files.empty())) {
    return Usage();
  }

  // The static safety bound comes from the same instrumented build the
  // streams were recorded against: instrument, analyze, and check every
  // delta's IR hash against this module.
  auto instrumented = LoadInstrumented(module_path);
  if (!instrumented.ok()) {
    std::fprintf(stderr, "%s\n", instrumented.status().ToString().c_str());
    return 1;
  }
  telemetry::AggregatorOptions options;
  options.promotion_threshold = threshold;
  options.min_epochs = min_epochs;
  options.demote_cold_epochs = demote_cold_epochs;
  options.module = &instrumented->module;
  options.static_shared.insert(instrumented->static_shared.begin(),
                               instrumented->static_shared.end());
  if (!baseline_path.empty()) {
    auto baseline = Load(baseline_path.c_str());
    if (!baseline.ok()) {
      std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
      return 1;
    }
    if (baseline->ir_hash != instrumented->ir_hash) {
      std::fprintf(stderr, "baseline %s was recorded against IR hash 0x%016llx, not %s\n",
                   baseline_path.c_str(), static_cast<unsigned long long>(baseline->ir_hash),
                   module_path.c_str());
      return 1;
    }
    for (const AllocId& id : baseline->profile.Sites()) {
      options.baseline.insert(id);
    }
  }
  telemetry::ProfileAggregator aggregator(std::move(options));

  // serve's --artifact is a two-way file. If a prior serve left a snapshot
  // there, reload it so the fleet's history — including which sites were
  // already promoted — survives the restart; a snapshot from a different
  // build (IR hash mismatch) or a corrupted one is warned about and ignored,
  // starting fresh.
  if (serve && !artifact_path.empty()) {
    auto snapshot = ProfileArtifact::LoadFromFile(artifact_path);
    if (snapshot.ok()) {
      if (auto status = aggregator.RestoreFromArtifact(*snapshot); status.ok()) {
        std::printf("restored %zu site(s), %zu epoch(s), %zu promotion(s) from %s\n",
                    snapshot->profile.site_count(), snapshot->epochs.size(),
                    snapshot->promoted.size(), artifact_path.c_str());
        std::fflush(stdout);
      } else {
        std::fprintf(stderr, "warning: ignoring artifact %s: %s\n", artifact_path.c_str(),
                     status.ToString().c_str());
      }
    } else if (snapshot.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "warning: ignoring artifact %s: %s\n", artifact_path.c_str(),
                   snapshot.status().ToString().c_str());
    }
  }

  telemetry::FrameIngest ingest(&aggregator);
  for (const std::string& file : files) {
    ingest.AddFile(file);
  }
  telemetry::FrameServer server;
  if (serve) {
    if (auto status = server.Start(port); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    // Scripts parse this line for the ephemeral port; flush before looping.
    std::printf("serving on 127.0.0.1:%u\n", server.port());
    std::fflush(stdout);
  }

  std::set<uint64_t> producers;  // connected clients, for policy pushes
  std::vector<telemetry::PromotionCandidate> promotions;  // this iteration
  const auto on_frame = [&](uint64_t client_id, telemetry::Frame&& frame) {
    producers.insert(client_id);
    ingest.Handle("tcp:" + std::to_string(client_id), std::move(frame), &promotions);
  };
  const auto on_disconnect = [&](uint64_t client_id, bool mid_frame) {
    producers.erase(client_id);
    ingest.Close("tcp:" + std::to_string(client_id), mid_frame);
  };
  // Prints a policy change and pushes it to every connected producer.
  // Delivery is best-effort: a dead client is reaped by the next poll.
  const auto publish = [&](const char* action, const std::vector<AllocId>& sites) {
    const std::string payload = PolicyUpdateJson(action, sites);
    for (const uint64_t client_id : producers) {
      (void)server.SendTo(client_id, telemetry::FrameType::kPolicyUpdate, payload);
    }
    std::fflush(stdout);
  };

  // Snapshot pacing: write immediately when policy changed hands, else
  // every ~20 polls while new deltas arrived. Version 0-or-restored is the
  // baseline so an idle serve never rewrites an unchanged file.
  uint64_t snapshot_version = aggregator.version();
  uint64_t polls_since_snapshot = 0;
  uint64_t idle_polls = 0;
  for (;;) {
    promotions.clear();
    size_t frames = 0;
    if (serve) {
      auto dispatched = server.PollOnce(static_cast<int>(interval_ms), on_frame, on_disconnect);
      if (!dispatched.ok()) {
        std::fprintf(stderr, "%s\n", dispatched.status().ToString().c_str());
        return 1;
      }
      frames += *dispatched;
    }
    frames += ingest.PollFiles(&promotions);
    std::vector<telemetry::DemotionCandidate> demotions;
    aggregator.CollectDemotions(&demotions);

    if (!promotions.empty()) {
      std::vector<AllocId> sites;
      for (const auto& candidate : promotions) {
        sites.push_back(candidate.site);
        std::printf("promote: %s (count %llu over %zu epoch(s))\n",
                    candidate.site.ToString().c_str(),
                    static_cast<unsigned long long>(candidate.count), candidate.epochs);
      }
      publish("promote", sites);
    }
    if (!demotions.empty()) {
      std::vector<AllocId> sites;
      for (const auto& candidate : demotions) {
        sites.push_back(candidate.site);
        std::printf("demote: %s (cold for %zu epoch(s))\n", candidate.site.ToString().c_str(),
                    candidate.cold_epochs);
      }
      publish("demote", sites);
    }
    if (!serve) {
      break;
    }

    // Snapshot to --artifact mid-serve, so a crash or kill does not discard
    // the fleet's history.
    if (!artifact_path.empty()) {
      ++polls_since_snapshot;
      const bool changed = aggregator.version() != snapshot_version;
      const bool policy_moved = !promotions.empty() || !demotions.empty();
      if (changed && (policy_moved || polls_since_snapshot >= 20)) {
        const ProfileArtifact artifact = aggregator.ExportArtifact(instrumented->ir_hash);
        if (auto status = SaveArtifactAtomically(artifact, artifact_path); status.ok()) {
          snapshot_version = aggregator.version();
          polls_since_snapshot = 0;
        } else {
          std::fprintf(stderr, "warning: artifact snapshot failed: %s\n",
                       status.ToString().c_str());
        }
      }
    }

    const uint64_t frames_total = ingest.stats().frames;
    if (max_frames != 0 && frames_total >= max_frames) {
      break;
    }
    idle_polls = frames == 0 ? idle_polls + 1 : 0;
    if (idle_exit_polls != 0 && frames_total > 0 && producers.empty() &&
        idle_polls >= idle_exit_polls) {
      break;
    }
  }
  server.Stop();

  analysis::RenderFindingsText(std::cout, aggregator.diagnostics().findings());
  const auto& stats = aggregator.stats();
  const telemetry::FrameIngest::Stats ingest_stats = ingest.stats();
  telemetry::FrameDecoder::Stats decoder_stats = server.decoder_stats();
  decoder_stats += ingest.file_decoder_stats();
  std::printf("ingested %llu frame(s) from %zu stream(s) (%llu sampler row(s), %llu torn): "
              "%llu delta(s), %zu site(s), version %llu\n",
              static_cast<unsigned long long>(ingest_stats.frames), ingest.stream_count(),
              static_cast<unsigned long long>(ingest_stats.sampler_rows),
              static_cast<unsigned long long>(ingest_stats.torn),
              static_cast<unsigned long long>(stats.deltas_applied),
              aggregator.rolling().site_count(),
              static_cast<unsigned long long>(aggregator.version()));
  for (const std::string& epoch : aggregator.EpochNames()) {
    const Profile* epoch_profile = aggregator.EpochProfile(epoch);
    std::printf("  epoch %-12s %zu site(s)\n", epoch.c_str(),
                epoch_profile != nullptr ? epoch_profile->site_count() : 0);
  }
  std::printf("rejected: %llu hash, %llu malformed, %llu sequence; frames: %llu resync "
              "byte(s), %llu bad version, %llu bad type, %llu oversized, %llu bad crc\n",
              static_cast<unsigned long long>(stats.rejected_hash),
              static_cast<unsigned long long>(stats.rejected_malformed),
              static_cast<unsigned long long>(stats.rejected_sequence),
              static_cast<unsigned long long>(decoder_stats.bad_magic),
              static_cast<unsigned long long>(decoder_stats.bad_version),
              static_cast<unsigned long long>(decoder_stats.bad_type),
              static_cast<unsigned long long>(decoder_stats.oversized),
              static_cast<unsigned long long>(decoder_stats.bad_crc));
  std::printf("promotions: %llu emitted, %llu rejected by static bound; demotions: "
              "%llu emitted, %llu kept by baseline\n",
              static_cast<unsigned long long>(stats.promotions_emitted),
              static_cast<unsigned long long>(stats.promotions_rejected_static),
              static_cast<unsigned long long>(stats.demotions_emitted),
              static_cast<unsigned long long>(stats.demotions_suppressed_baseline));

  if (!artifact_path.empty() &&
      !WriteArtifact(aggregator, instrumented->ir_hash, artifact_path)) {
    return 1;
  }
  // Rejections and stale streams are error findings: surface them in the
  // exit code so CI pipelines notice poisoned inputs.
  for (const auto& finding : aggregator.diagnostics().findings()) {
    if (finding.severity == analysis::Severity::kError) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string command = argv[1];

  if (command == "show") {
    std::string stats_format;  // "", "json" or "text"
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--stats" || arg == "--stats=text") {
        stats_format = "text";
      } else if (arg == "--stats=json") {
        stats_format = "json";
      } else {
        return Usage();
      }
    }
    auto artifact = Load(argv[2]);
    if (!artifact.ok()) {
      std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
      return 1;
    }
    const Profile& profile = artifact->profile;
    if (!stats_format.empty()) {
      const auto snapshot = ProfileSnapshot(profile);
      if (stats_format == "json") {
        telemetry::WriteStatsJson(std::cout, snapshot);
      } else {
        telemetry::WriteStatsText(std::cout, snapshot);
      }
      return 0;
    }
    std::printf("ir_hash 0x%016llx, %zu epoch(s), newest '%s'\n",
                static_cast<unsigned long long>(artifact->ir_hash), artifact->epochs.size(),
                artifact->NewestEpoch().c_str());
    std::printf("%zu shared site(s):\n", profile.site_count());
    for (const AllocId& id : profile.Sites()) {
      std::printf("  %-16s %llu fault(s)\n", id.ToString().c_str(),
                  static_cast<unsigned long long>(profile.CountFor(id)));
    }
    return 0;
  }

  if (command == "merge") {
    if (argc < 4) {
      return Usage();
    }
    ProfileArtifact merged;
    for (int i = 3; i < argc; ++i) {
      auto input = Load(argv[i]);
      if (!input.ok()) {
        std::fprintf(stderr, "%s: %s\n", argv[i], input.status().ToString().c_str());
        return 1;
      }
      if (i == 3) {
        merged.ir_hash = input->ir_hash;
      }
      if (auto status = merged.MergeFrom(*input); !status.ok()) {
        std::fprintf(stderr, "%s: %s\n", argv[i], status.ToString().c_str());
        return 1;
      }
      std::printf("merged %s (%zu sites)\n", argv[i], input->profile.site_count());
    }
    if (auto status = SaveArtifactAtomically(merged, argv[2]); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu site(s) to %s\n", merged.profile.site_count(), argv[2]);
    return 0;
  }

  if (command == "diff") {
    if (argc != 4) {
      return Usage();
    }
    auto a_artifact = Load(argv[2]);
    auto b_artifact = Load(argv[3]);
    if (!a_artifact.ok() || !b_artifact.ok()) {
      std::fprintf(stderr, "failed to load inputs\n");
      return 1;
    }
    const Profile* a = &a_artifact->profile;
    const Profile* b = &b_artifact->profile;
    int only_a = 0;
    int only_b = 0;
    int shifted = 0;
    for (const AllocId& id : a->Sites()) {
      if (!b->Contains(id)) {
        std::printf("removed: %s (%llu fault(s) in %s)\n", id.ToString().c_str(),
                    static_cast<unsigned long long>(a->CountFor(id)), argv[2]);
        ++only_a;
      }
    }
    for (const AllocId& id : b->Sites()) {
      if (!a->Contains(id)) {
        std::printf("added:   %s (%llu fault(s) in %s)\n", id.ToString().c_str(),
                    static_cast<unsigned long long>(b->CountFor(id)), argv[3]);
        ++only_b;
      }
    }
    // Epoch drift: sites present in both but with shifted counts. With two
    // rolling-profile snapshots (epoch N vs N+1) this is the workload drift
    // an operator reviews before promoting.
    for (const AllocId& id : a->Sites()) {
      if (!b->Contains(id)) {
        continue;
      }
      const uint64_t old_count = a->CountFor(id);
      const uint64_t new_count = b->CountFor(id);
      if (old_count != new_count) {
        std::printf("shifted: %s %llu -> %llu fault(s)\n", id.ToString().c_str(),
                    static_cast<unsigned long long>(old_count),
                    static_cast<unsigned long long>(new_count));
        ++shifted;
      }
    }
    std::printf("drift: %d added, %d removed, %d count-shifted (of %zu / %zu site(s))\n",
                only_b, only_a, shifted, a->site_count(), b->site_count());
    // Precision read: with a static profile as <a> and a dynamic one as <b>,
    // this is the over-sharing factor (static sites / dynamic sites).
    if (b->site_count() > 0) {
      std::printf("precision: %zu / %zu site(s) = %.3f\n", a->site_count(), b->site_count(),
                  static_cast<double>(a->site_count()) / static_cast<double>(b->site_count()));
    }
    return only_a == 0 && only_b == 0 ? 0 : 1;
  }

  if (command == "report") {
    bool raw_json = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        raw_json = true;
      } else {
        return Usage();
      }
    }
    auto text = ReadFile(argv[2]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto report = telemetry::ParseCrashReport(*text);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    if (raw_json) {
      std::printf("%s", text->c_str());
      if (text->empty() || text->back() != '\n') {
        std::printf("\n");
      }
      return 0;
    }
    std::printf("%s", telemetry::RenderCrashReportText(*report).c_str());
    return 0;
  }

  if (command == "sites") {
    size_t top_k = 10;
    std::string domain_name = "untrusted";
    std::string module_path;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--top=", 0) == 0) {
        top_k = static_cast<size_t>(std::strtoull(arg.c_str() + 6, nullptr, 10));
      } else if (arg.rfind("--domain=", 0) == 0) {
        domain_name = arg.substr(9);
        if (domain_name != "trusted" && domain_name != "untrusted") {
          return Usage();
        }
      } else if (arg.rfind("--module=", 0) == 0) {
        module_path = arg.substr(9);
      } else {
        return Usage();
      }
    }
    auto text = ReadFile(argv[2]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto rows = ParseSiteStatsJson(*text);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
      return 1;
    }
    const int d = domain_name == "untrusted" ? SiteTotals::kUntrusted : SiteTotals::kTrusted;
    std::stable_sort(rows->begin(), rows->end(), [d](const SiteTotals& lhs,
                                                     const SiteTotals& rhs) {
      if (lhs.live_bytes[d] != rhs.live_bytes[d]) {
        return lhs.live_bytes[d] > rhs.live_bytes[d];
      }
      return lhs.total_bytes[d] > rhs.total_bytes[d];
    });

    // Optional cross-check: the static points-to analysis predicts which
    // sites flow to the untrusted library; dynamic attribution records which
    // sites actually allocated from M_U. Every dynamic M_U site the analyzer
    // missed is unsound (it would fault under enforcement); static-only
    // sites measure over-sharing.
    std::vector<AllocId> static_shared;
    bool have_static = false;
    if (!module_path.empty()) {
      auto instrumented = LoadInstrumented(module_path);
      if (!instrumented.ok()) {
        std::fprintf(stderr, "%s\n", instrumented.status().ToString().c_str());
        return 1;
      }
      static_shared = std::move(instrumented->static_shared);
      have_static = true;
    }
    const auto statically_shared = [&](const AllocId& id) {
      return std::binary_search(static_shared.begin(), static_shared.end(), id);
    };

    std::printf("top %zu site(s) by %s live bytes (%zu total):\n",
                std::min(top_k, rows->size()), domain_name.c_str(), rows->size());
    std::printf("  %-16s %12s %8s %12s %8s%s\n", "site", "live B", "live #", "total B",
                "total #", have_static ? "  static" : "");
    for (size_t i = 0; i < rows->size() && i < top_k; ++i) {
      const SiteTotals& row = (*rows)[i];
      std::printf("  %-16s %12lld %8lld %12llu %8llu", row.site.ToString().c_str(),
                  static_cast<long long>(row.live_bytes[d]),
                  static_cast<long long>(row.live_objects[d]),
                  static_cast<unsigned long long>(row.total_bytes[d]),
                  static_cast<unsigned long long>(row.total_objects[d]));
      if (have_static) {
        std::printf("  %s", statically_shared(row.site) ? "shared" : "private");
      }
      std::printf("\n");
    }

    if (!have_static) {
      return 0;
    }
    int missed = 0;
    int over_shared = 0;
    for (const SiteTotals& row : *rows) {
      if (row.total_bytes[SiteTotals::kUntrusted] > 0 && !statically_shared(row.site)) {
        std::printf("analyzer MISS: site %s allocated %llu byte(s) from M_U but is "
                    "statically private\n",
                    row.site.ToString().c_str(),
                    static_cast<unsigned long long>(row.total_bytes[SiteTotals::kUntrusted]));
        ++missed;
      }
    }
    for (const AllocId& id : static_shared) {
      bool dynamic_untrusted = false;
      for (const SiteTotals& row : *rows) {
        if (row.site == id && row.total_bytes[SiteTotals::kUntrusted] > 0) {
          dynamic_untrusted = true;
          break;
        }
      }
      if (!dynamic_untrusted) {
        ++over_shared;
      }
    }
    std::printf("cross-check: %d analyzer miss(es), %d statically-shared site(s) with no "
                "dynamic M_U traffic\n",
                missed, over_shared);
    return missed == 0 ? 0 : 1;
  }

  if (command == "aggregate" || command == "serve") {
    return Ingest(argc, argv, /*serve=*/command == "serve");
  }

  if (command == "check") {
    if (argc != 4) {
      return Usage();
    }
    auto instrumented = LoadInstrumented(argv[2]);
    if (!instrumented.ok()) {
      std::fprintf(stderr, "%s\n", instrumented.status().ToString().c_str());
      return 1;
    }
    auto artifact = Load(argv[3]);
    if (!artifact.ok()) {
      std::fprintf(stderr, "%s\n", artifact.status().ToString().c_str());
      return 1;
    }
    analysis::DiagnosticSink sink;
    analysis::LintProfileDeltaIrHash(instrumented->module, artifact->ir_hash, argv[3], sink);
    analysis::LintStaleProfileSites(instrumented->module, artifact->profile, sink);
    analysis::RenderFindingsText(std::cout, sink.findings());
    if (!sink.empty()) {
      return 1;
    }
    std::printf("all %zu profile site(s) resolve in %s\n", artifact->profile.site_count(),
                argv[2]);
    return 0;
  }

  return Usage();
}
