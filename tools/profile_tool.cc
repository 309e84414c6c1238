// profile_tool: inspect and merge PKRU-Safe profiles.
//
// The paper's deployment story (§6) merges profiles from many runs/users
// before the enforcement build ("operating systems and applications often
// test and profile applications ... using a subset of their installation
// base"); this tool is that step.
//
//   profile_tool show  a.profile [--stats=json|text]
//   profile_tool merge out.profile a.profile b.profile ...
//   profile_tool diff  a.profile b.profile
//   profile_tool check module.ir a.profile
//
// --stats renders the profile's aggregate numbers (site count, fault totals,
// per-site fault counts) through the telemetry stats formats, so profiling
// pipelines can consume `show` output the same way they consume
// `pkrusafe_run --stats=json`.
//
// `check` runs the stale/unknown-site lint against a module about to receive
// the profile in an enforcement build: any profile entry naming an AllocId
// the module does not contain is reported and the exit code is nonzero
// (previously stale profiles were silently accepted and their sites simply
// never matched).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/analysis/lint.h"
#include "src/ir/module_hash.h"
#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/passes/static_sharing_analysis.h"
#include "src/runtime/profile.h"
#include "src/runtime/profile_artifact.h"
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
               "usage: profile_tool show <file> [--stats[=json|text]]\n"
               "       profile_tool merge <out> <in>...\n"
               "       profile_tool diff <a> <b>\n"
               "       profile_tool check <module.ir> <profile>\n"
               "       profile_tool report <crash.json> [--json]\n"
               "       profile_tool sites <sites.json> [--top=N]\n"
               "           [--domain=trusted|untrusted] [--module=FILE]\n"
               "       profile_tool aggregate --module=FILE [--threshold=N]\n"
               "           [--min-epochs=N] [--out=FILE] [--promotions=FILE]\n"
               "           [--follow [--interval-ms=N] [--max-polls=N]] <stream.jsonl>...\n"
               "       profile_tool serve --module=FILE [--port=N] [--threshold=N]\n"
               "           [--min-epochs=N] [--demote-cold-epochs=N] [--baseline=FILE]\n"
               "           [--out=FILE] [--promotions=FILE] [--artifact=FILE]\n"
               "           [--interval-ms=N] [--max-frames=N] [--idle-exit-polls=N]\n"
               "       profile_tool export-artifact --module=FILE --out=FILE\n"
               "           <stream.jsonl>...\n"
               "  report  render a flight-recorder crash report for humans\n"
               "          (--json echoes the validated raw JSON instead)\n"
               "  sites   top-K heap-attribution table from a\n"
               "          `pkrusafe_run --site-stats=FILE` dump; with --module,\n"
               "          cross-check each site against the static points-to\n"
               "          sharing analysis (dynamic M_U traffic the analyzer\n"
               "          missed is an error)\n"
               "  aggregate  tail delta streams into a versioned rolling profile;\n"
               "          promotion candidates are cross-checked against the\n"
               "          static points-to bound of --module (rejections exit 1);\n"
               "          --follow polls until streams go quiet or --max-polls\n"
               "  serve   fleet endpoint: accept framed delta streams over TCP\n"
               "          (pkrusafe_run --profile-stream=tcp://host:port), fold\n"
               "          them through the same validation as aggregate, and\n"
               "          push promote/demote policy frames back to every\n"
               "          connected producer; --port=0 binds an ephemeral port\n"
               "          (printed on stdout); --max-frames / --idle-exit-polls\n"
               "          bound the loop for scripted runs; --artifact=FILE is\n"
               "          reloaded at startup and snapshotted periodically, so\n"
               "          the rolling profile and promotions survive restarts\n"
               "  export-artifact  freeze aggregated streams into a provenance-\n"
               "          checked artifact (ir_hash + per-epoch provenance +\n"
               "          rolling profile + crc32) that System::Create verifies\n");
  return 2;
}

// Builds a throwaway registry describing `profile` so the standard stats
// exporters can render it.
telemetry::MetricsSnapshot ProfileSnapshot(const Profile& profile) {
  telemetry::MetricsRegistry registry;
  uint64_t total_faults = 0;
  for (const AllocId& id : profile.Sites()) {
    const uint64_t count = profile.CountFor(id);
    total_faults += count;
    registry.GetOrCreateCounter("profile.site." + id.ToString() + ".faults")->Increment(count);
  }
  registry.GetOrCreateGauge("profile.sites")->Set(static_cast<int64_t>(profile.site_count()));
  registry.GetOrCreateCounter("profile.faults.total")->Increment(total_faults);
  return registry.Snapshot();
}

Result<Profile> Load(const char* path) { return Profile::LoadFromFile(path); }

Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError(std::string("cannot open ") + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// One row of a `pkrusafe_run --site-stats=FILE` dump.
struct SiteRow {
  AllocId id;
  int64_t live_bytes[2] = {0, 0};    // [0]=trusted, [1]=untrusted
  int64_t live_objects[2] = {0, 0};
  uint64_t total_bytes[2] = {0, 0};
  uint64_t total_objects[2] = {0, 0};
};

Result<std::vector<SiteRow>> ParseSiteStats(std::string_view text) {
  PS_ASSIGN_OR_RETURN(json::Value root, json::Parse(text));
  if (!root.is_object() || root.GetString("kind") != "pkru_safe_site_stats") {
    return InvalidArgumentError("not a pkru_safe_site_stats dump");
  }
  const json::Value* sites = root.Find("sites");
  if (sites == nullptr || !sites->is_array()) {
    return InvalidArgumentError("site stats dump has no sites array");
  }
  std::vector<SiteRow> rows;
  rows.reserve(sites->AsArray().size());
  for (const json::Value& entry : sites->AsArray()) {
    SiteRow row;
    PS_ASSIGN_OR_RETURN(row.id, AllocId::Parse(entry.GetString("id")));
    static constexpr const char* kDomainNames[2] = {"trusted", "untrusted"};
    for (int d = 0; d < 2; ++d) {
      const json::Value* domain = entry.Find(kDomainNames[d]);
      if (domain == nullptr) {
        continue;
      }
      row.live_bytes[d] = domain->GetInt("live_bytes");
      row.live_objects[d] = domain->GetInt("live_objects");
      row.total_bytes[d] = domain->GetUint("total_bytes");
      row.total_objects[d] = domain->GetUint("total_objects");
    }
    rows.push_back(row);
  }
  return rows;
}

// Shared front half of aggregate/serve/export-artifact: parse the module,
// run the instrumented-build passes (AllocId + gates, no profile apply) and
// compute the static sharing bound. ir_hash is the instrumented pre-apply
// content hash — the key every stream and artifact must match.
struct InstrumentedModule {
  IrModule module;
  Profile static_profile;
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
  StaticSharingAnalysis analysis(&out.module);
  PS_ASSIGN_OR_RETURN(out.static_profile, analysis.Run());
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
    auto profile = Load(argv[2]);
    if (!profile.ok()) {
      std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
      return 1;
    }
    if (!stats_format.empty()) {
      const auto snapshot = ProfileSnapshot(*profile);
      if (stats_format == "json") {
        telemetry::WriteStatsJson(std::cout, snapshot);
      } else {
        telemetry::WriteStatsText(std::cout, snapshot);
      }
      return 0;
    }
    std::printf("%zu shared site(s):\n", profile->site_count());
    for (const AllocId& id : profile->Sites()) {
      std::printf("  %-16s %llu fault(s)\n", id.ToString().c_str(),
                  static_cast<unsigned long long>(profile->CountFor(id)));
    }
    return 0;
  }

  if (command == "merge") {
    if (argc < 4) {
      return Usage();
    }
    Profile merged;
    for (int i = 3; i < argc; ++i) {
      auto profile = Load(argv[i]);
      if (!profile.ok()) {
        std::fprintf(stderr, "%s: %s\n", argv[i], profile.status().ToString().c_str());
        return 1;
      }
      merged.Merge(*profile);
      std::printf("merged %s (%zu sites)\n", argv[i], profile->site_count());
    }
    if (auto status = merged.SaveToFile(argv[2]); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu site(s) to %s\n", merged.site_count(), argv[2]);
    return 0;
  }

  if (command == "diff") {
    if (argc != 4) {
      return Usage();
    }
    auto a = Load(argv[2]);
    auto b = Load(argv[3]);
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "failed to load inputs\n");
      return 1;
    }
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
    auto rows = ParseSiteStats(*text);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
      return 1;
    }
    const int d = domain_name == "untrusted" ? 1 : 0;
    std::stable_sort(rows->begin(), rows->end(), [d](const SiteRow& lhs, const SiteRow& rhs) {
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
    Profile static_profile;
    bool have_static = false;
    if (!module_path.empty()) {
      auto module_text = ReadFile(module_path.c_str());
      if (!module_text.ok()) {
        std::fprintf(stderr, "%s\n", module_text.status().ToString().c_str());
        return 1;
      }
      auto module = ParseModule(*module_text);
      if (!module.ok()) {
        std::fprintf(stderr, "parse: %s\n", module.status().ToString().c_str());
        return 1;
      }
      PassManager pm;
      pm.Add(std::make_unique<AllocIdPass>());
      pm.Add(std::make_unique<GateInsertionPass>());
      if (auto status = pm.Run(*module); !status.ok()) {
        std::fprintf(stderr, "instrument: %s\n", status.ToString().c_str());
        return 1;
      }
      StaticSharingAnalysis analysis(&*module);
      auto analyzed = analysis.Run();
      if (!analyzed.ok()) {
        std::fprintf(stderr, "analysis: %s\n", analyzed.status().ToString().c_str());
        return 1;
      }
      static_profile = *analyzed;
      have_static = true;
    }

    std::printf("top %zu site(s) by %s live bytes (%zu total):\n",
                std::min(top_k, rows->size()), domain_name.c_str(), rows->size());
    std::printf("  %-16s %12s %8s %12s %8s%s\n", "site", "live B", "live #", "total B",
                "total #", have_static ? "  static" : "");
    for (size_t i = 0; i < rows->size() && i < top_k; ++i) {
      const SiteRow& row = (*rows)[i];
      std::printf("  %-16s %12lld %8lld %12llu %8llu", row.id.ToString().c_str(),
                  static_cast<long long>(row.live_bytes[d]),
                  static_cast<long long>(row.live_objects[d]),
                  static_cast<unsigned long long>(row.total_bytes[d]),
                  static_cast<unsigned long long>(row.total_objects[d]));
      if (have_static) {
        std::printf("  %s", static_profile.Contains(row.id) ? "shared" : "private");
      }
      std::printf("\n");
    }

    if (!have_static) {
      return 0;
    }
    int missed = 0;
    int over_shared = 0;
    for (const SiteRow& row : *rows) {
      if (row.total_bytes[1] > 0 && !static_profile.Contains(row.id)) {
        std::printf("analyzer MISS: site %s allocated %llu byte(s) from M_U but is "
                    "statically private\n",
                    row.id.ToString().c_str(),
                    static_cast<unsigned long long>(row.total_bytes[1]));
        ++missed;
      }
    }
    for (const AllocId& id : static_profile.Sites()) {
      bool dynamic_untrusted = false;
      for (const SiteRow& row : *rows) {
        if (row.id == id && row.total_bytes[1] > 0) {
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

  if (command == "aggregate") {
    std::string module_path;
    std::string out_path;
    std::string promotions_path;
    uint64_t threshold = 1;
    size_t min_epochs = 1;
    bool follow = false;
    uint64_t interval_ms = 200;
    uint64_t max_polls = 0;  // 0 = until no stream grows (follow mode only)
    std::vector<std::string> stream_paths;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--module=", 0) == 0) {
        module_path = arg.substr(9);
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
      } else if (arg.rfind("--promotions=", 0) == 0) {
        promotions_path = arg.substr(13);
      } else if (arg.rfind("--threshold=", 0) == 0) {
        threshold = std::strtoull(arg.c_str() + 12, nullptr, 10);
      } else if (arg.rfind("--min-epochs=", 0) == 0) {
        min_epochs = static_cast<size_t>(std::strtoull(arg.c_str() + 13, nullptr, 10));
      } else if (arg == "--follow") {
        follow = true;
      } else if (arg.rfind("--interval-ms=", 0) == 0) {
        interval_ms = std::strtoull(arg.c_str() + 14, nullptr, 10);
      } else if (arg.rfind("--max-polls=", 0) == 0) {
        max_polls = std::strtoull(arg.c_str() + 12, nullptr, 10);
      } else if (arg.rfind("--", 0) == 0) {
        return Usage();
      } else {
        stream_paths.push_back(arg);
      }
    }
    if (module_path.empty() || stream_paths.empty()) {
      return Usage();
    }

    // The static safety bound comes from the same instrumented build the
    // streams were recorded against: instrument, analyze, and check every
    // delta's IR hash against this module.
    auto module_text = ReadFile(module_path.c_str());
    if (!module_text.ok()) {
      std::fprintf(stderr, "%s\n", module_text.status().ToString().c_str());
      return 1;
    }
    auto module = ParseModule(*module_text);
    if (!module.ok()) {
      std::fprintf(stderr, "parse: %s\n", module.status().ToString().c_str());
      return 1;
    }
    PassManager pm;
    pm.Add(std::make_unique<AllocIdPass>());
    pm.Add(std::make_unique<GateInsertionPass>());
    if (auto status = pm.Run(*module); !status.ok()) {
      std::fprintf(stderr, "instrument: %s\n", status.ToString().c_str());
      return 1;
    }
    StaticSharingAnalysis analysis(&*module);
    auto static_profile = analysis.Run();
    if (!static_profile.ok()) {
      std::fprintf(stderr, "analysis: %s\n", static_profile.status().ToString().c_str());
      return 1;
    }

    telemetry::AggregatorOptions options;
    options.promotion_threshold = threshold;
    options.min_epochs = min_epochs;
    options.module = &*module;
    for (const AllocId& id : static_profile->Sites()) {
      options.static_shared.insert(id);
    }
    telemetry::ProfileAggregator aggregator(std::move(options));
    for (const std::string& path : stream_paths) {
      aggregator.AddStream(path);
    }

    std::vector<telemetry::PromotionCandidate> promotions;
    uint64_t polls = 0;
    for (;;) {
      auto applied = aggregator.Poll(&promotions);
      if (!applied.ok()) {
        std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
        return 1;
      }
      ++polls;
      if (!follow) {
        break;
      }
      if (max_polls != 0 && polls >= max_polls) {
        break;
      }
      if (max_polls == 0 && *applied == 0 && polls > 1) {
        break;  // streams have gone quiet
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }

    analysis::RenderFindingsText(std::cout, aggregator.diagnostics().findings());
    const auto& stats = aggregator.stats();
    std::printf("aggregated %llu delta(s) from %zu stream(s) over %llu poll(s): "
                "%zu site(s), version %llu\n",
                static_cast<unsigned long long>(stats.deltas_applied), stream_paths.size(),
                static_cast<unsigned long long>(polls), aggregator.rolling().site_count(),
                static_cast<unsigned long long>(aggregator.version()));
    for (const std::string& epoch : aggregator.EpochNames()) {
      const Profile* epoch_profile = aggregator.EpochProfile(epoch);
      std::printf("  epoch %-12s %zu site(s)\n", epoch.c_str(),
                  epoch_profile != nullptr ? epoch_profile->site_count() : 0);
    }
    std::printf("rejected: %llu hash, %llu malformed, %llu sequence\n",
                static_cast<unsigned long long>(stats.rejected_hash),
                static_cast<unsigned long long>(stats.rejected_malformed),
                static_cast<unsigned long long>(stats.rejected_sequence));
    std::printf("promotions: %llu emitted, %llu rejected by static bound\n",
                static_cast<unsigned long long>(stats.promotions_emitted),
                static_cast<unsigned long long>(stats.promotions_rejected_static));
    for (const auto& candidate : promotions) {
      std::printf("promote: %s (count %llu over %zu epoch(s))\n",
                  candidate.site.ToString().c_str(),
                  static_cast<unsigned long long>(candidate.count), candidate.epochs);
    }

    if (!out_path.empty()) {
      if (auto status = aggregator.rolling().SaveToFile(out_path); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote rolling profile (%zu site(s)) to %s\n",
                  aggregator.rolling().site_count(), out_path.c_str());
    }
    if (!promotions_path.empty()) {
      // Promotions land as a profile so the enforcement build can merge them
      // straight into its input profile (and ApplyPromotions consumers can
      // load the same file).
      Profile promoted;
      for (const auto& candidate : promotions) {
        promoted.Add(candidate.site, candidate.count);
      }
      if (auto status = promoted.SaveToFile(promotions_path); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %zu promotion(s) to %s\n", promoted.site_count(),
                  promotions_path.c_str());
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

  if (command == "serve") {
    std::string module_path;
    std::string out_path;
    std::string promotions_path;
    std::string artifact_path;
    std::string baseline_path;
    uint64_t threshold = 1;
    size_t min_epochs = 1;
    size_t demote_cold_epochs = 0;
    uint16_t port = 0;
    uint64_t interval_ms = 50;
    uint64_t max_frames = 0;       // 0 = unbounded
    uint64_t idle_exit_polls = 0;  // 0 = never idle-exit
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--module=", 0) == 0) {
        module_path = arg.substr(9);
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
      } else if (arg.rfind("--promotions=", 0) == 0) {
        promotions_path = arg.substr(13);
      } else if (arg.rfind("--artifact=", 0) == 0) {
        artifact_path = arg.substr(11);
      } else if (arg.rfind("--baseline=", 0) == 0) {
        baseline_path = arg.substr(11);
      } else if (arg.rfind("--threshold=", 0) == 0) {
        threshold = std::strtoull(arg.c_str() + 12, nullptr, 10);
      } else if (arg.rfind("--min-epochs=", 0) == 0) {
        min_epochs = static_cast<size_t>(std::strtoull(arg.c_str() + 13, nullptr, 10));
      } else if (arg.rfind("--demote-cold-epochs=", 0) == 0) {
        demote_cold_epochs = static_cast<size_t>(std::strtoull(arg.c_str() + 21, nullptr, 10));
      } else if (arg.rfind("--port=", 0) == 0) {
        port = static_cast<uint16_t>(std::strtoul(arg.c_str() + 7, nullptr, 10));
      } else if (arg.rfind("--interval-ms=", 0) == 0) {
        interval_ms = std::strtoull(arg.c_str() + 14, nullptr, 10);
      } else if (arg.rfind("--max-frames=", 0) == 0) {
        max_frames = std::strtoull(arg.c_str() + 13, nullptr, 10);
      } else if (arg.rfind("--idle-exit-polls=", 0) == 0) {
        idle_exit_polls = std::strtoull(arg.c_str() + 18, nullptr, 10);
      } else {
        return Usage();
      }
    }
    if (module_path.empty()) {
      return Usage();
    }

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
    for (const AllocId& id : instrumented->static_profile.Sites()) {
      options.static_shared.insert(id);
    }
    if (!baseline_path.empty()) {
      auto baseline = Load(baseline_path.c_str());
      if (!baseline.ok()) {
        std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
        return 1;
      }
      for (const AllocId& id : baseline->Sites()) {
        options.baseline.insert(id);
      }
    }
    telemetry::ProfileAggregator aggregator(std::move(options));

    // Serve-side persistence: --artifact is now a two-way file. If a prior
    // serve left a snapshot there, reload it so the fleet's history —
    // including which sites were already promoted — survives the restart; a
    // snapshot from a different build (IR hash mismatch) or a corrupted one
    // is warned about and ignored, starting fresh.
    if (!artifact_path.empty()) {
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

    telemetry::FrameServer server;
    telemetry::FrameServer::Options server_options;
    server_options.port = port;
    if (auto status = server.Start(server_options); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    // Scripts parse this line for the ephemeral port; flush before looping.
    std::printf("serving on 127.0.0.1:%u\n", server.port());
    std::fflush(stdout);

    // Connected producers by client id -> stream name (hello can rename).
    std::map<uint64_t, std::string> producers;
    std::vector<telemetry::PromotionCandidate> all_promotions;
    std::vector<telemetry::DemotionCandidate> all_demotions;
    uint64_t frames_total = 0;
    uint64_t sampler_rows = 0;
    uint64_t torn_disconnects = 0;
    uint64_t idle_polls = 0;
    bool had_producer = false;

    std::vector<telemetry::PromotionCandidate> promotions;  // this iteration
    // Snapshot pacing: write immediately when policy changed hands, else
    // every ~20 polls while new deltas arrived. Version 0-or-restored is the
    // baseline so an idle serve never rewrites an unchanged file.
    uint64_t snapshot_version = aggregator.version();
    uint64_t polls_since_snapshot = 0;
    const auto on_frame = [&](uint64_t client_id, telemetry::Frame&& frame) {
      ++frames_total;
      had_producer = true;
      auto [it, fresh] =
          producers.try_emplace(client_id, "tcp:" + std::to_string(client_id));
      switch (frame.type) {
        case telemetry::FrameType::kHello: {
          auto hello = json::Parse(frame.payload);
          if (hello.ok() && hello->is_object() &&
              hello->GetString("kind") == "pkru_safe_hello") {
            const std::string name = hello->GetString("stream");
            if (!name.empty()) {
              it->second = name;
            }
          }
          break;
        }
        case telemetry::FrameType::kProfileDelta:
          aggregator.ConsumeNetworkDelta(it->second, frame.payload, &promotions);
          break;
        case telemetry::FrameType::kSamplerRow:
          ++sampler_rows;
          break;
        case telemetry::FrameType::kPolicyUpdate:
          break;  // server-to-client only; a client echoing it is ignored
      }
      (void)fresh;
    };
    const auto on_disconnect = [&](uint64_t client_id, bool mid_frame) {
      producers.erase(client_id);
      if (mid_frame) {
        ++torn_disconnects;
      }
    };

    for (;;) {
      promotions.clear();
      auto dispatched = server.PollOnce(static_cast<int>(interval_ms), on_frame, on_disconnect);
      if (!dispatched.ok()) {
        std::fprintf(stderr, "%s\n", dispatched.status().ToString().c_str());
        return 1;
      }
      std::vector<telemetry::DemotionCandidate> demotions;
      aggregator.CollectDemotions(&demotions);

      // Push policy updates to every connected producer. Delivery is
      // best-effort: a dead client is reaped by the next poll.
      if (!promotions.empty()) {
        std::vector<AllocId> sites;
        for (const auto& candidate : promotions) {
          sites.push_back(candidate.site);
          std::printf("promote: %s (count %llu over %zu epoch(s))\n",
                      candidate.site.ToString().c_str(),
                      static_cast<unsigned long long>(candidate.count), candidate.epochs);
        }
        const std::string payload = PolicyUpdateJson("promote", sites);
        for (const auto& [client_id, name] : producers) {
          (void)server.SendTo(client_id, telemetry::FrameType::kPolicyUpdate, payload);
        }
        all_promotions.insert(all_promotions.end(), promotions.begin(), promotions.end());
        std::fflush(stdout);
      }
      if (!demotions.empty()) {
        std::vector<AllocId> sites;
        for (const auto& candidate : demotions) {
          sites.push_back(candidate.site);
          std::printf("demote: %s (cold for %zu epoch(s))\n",
                      candidate.site.ToString().c_str(), candidate.cold_epochs);
        }
        const std::string payload = PolicyUpdateJson("demote", sites);
        for (const auto& [client_id, name] : producers) {
          (void)server.SendTo(client_id, telemetry::FrameType::kPolicyUpdate, payload);
        }
        all_demotions.insert(all_demotions.end(), demotions.begin(), demotions.end());
        std::fflush(stdout);
      }

      // The restart-survival fix: the rolling profile and promoted set used
      // to live only in memory until exit, so a crash or kill silently
      // discarded the fleet's history. Snapshot to --artifact mid-serve.
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

      if (max_frames != 0 && frames_total >= max_frames) {
        break;
      }
      if (*dispatched == 0) {
        ++idle_polls;
      } else {
        idle_polls = 0;
      }
      if (idle_exit_polls != 0 && had_producer && producers.empty() &&
          idle_polls >= idle_exit_polls) {
        break;
      }
    }
    server.Stop();

    analysis::RenderFindingsText(std::cout, aggregator.diagnostics().findings());
    const auto& stats = aggregator.stats();
    const auto decoder_stats = server.decoder_stats();
    std::printf("served %llu frame(s) (%llu sampler row(s), %llu torn disconnect(s)): "
                "%llu delta(s), %zu site(s), version %llu\n",
                static_cast<unsigned long long>(frames_total),
                static_cast<unsigned long long>(sampler_rows),
                static_cast<unsigned long long>(torn_disconnects),
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

    if (!out_path.empty()) {
      if (auto status = aggregator.rolling().SaveToFile(out_path); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote rolling profile (%zu site(s)) to %s\n",
                  aggregator.rolling().site_count(), out_path.c_str());
    }
    if (!promotions_path.empty()) {
      Profile promoted;
      for (const auto& candidate : all_promotions) {
        promoted.Add(candidate.site, candidate.count);
      }
      if (auto status = promoted.SaveToFile(promotions_path); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %zu promotion(s) to %s\n", promoted.site_count(),
                  promotions_path.c_str());
    }
    if (!artifact_path.empty()) {
      const ProfileArtifact artifact = aggregator.ExportArtifact(instrumented->ir_hash);
      if (auto status = SaveArtifactAtomically(artifact, artifact_path); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote artifact (%zu site(s), %zu epoch(s), ir_hash 0x%016llx) to %s\n",
                  artifact.profile.site_count(), artifact.epochs.size(),
                  static_cast<unsigned long long>(artifact.ir_hash), artifact_path.c_str());
    }
    for (const auto& finding : aggregator.diagnostics().findings()) {
      if (finding.severity == analysis::Severity::kError) {
        return 1;
      }
    }
    return 0;
  }

  if (command == "export-artifact") {
    std::string module_path;
    std::string out_path;
    std::vector<std::string> stream_paths;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--module=", 0) == 0) {
        module_path = arg.substr(9);
      } else if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
      } else if (arg.rfind("--", 0) == 0) {
        return Usage();
      } else {
        stream_paths.push_back(arg);
      }
    }
    if (module_path.empty() || out_path.empty() || stream_paths.empty()) {
      return Usage();
    }

    auto instrumented = LoadInstrumented(module_path);
    if (!instrumented.ok()) {
      std::fprintf(stderr, "%s\n", instrumented.status().ToString().c_str());
      return 1;
    }
    telemetry::AggregatorOptions options;
    options.module = &instrumented->module;
    for (const AllocId& id : instrumented->static_profile.Sites()) {
      options.static_shared.insert(id);
    }
    telemetry::ProfileAggregator aggregator(std::move(options));
    for (const std::string& stream_path : stream_paths) {
      aggregator.AddStream(stream_path);
    }
    auto applied = aggregator.Poll(nullptr);
    if (!applied.ok()) {
      std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
      return 1;
    }
    analysis::RenderFindingsText(std::cout, aggregator.diagnostics().findings());

    const ProfileArtifact artifact = aggregator.ExportArtifact(instrumented->ir_hash);
    if (auto status = artifact.SaveToFile(out_path); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote artifact (%zu site(s), %zu epoch(s), ir_hash 0x%016llx) to %s\n",
                artifact.profile.site_count(), artifact.epochs.size(),
                static_cast<unsigned long long>(artifact.ir_hash), out_path.c_str());
    for (const auto& finding : aggregator.diagnostics().findings()) {
      if (finding.severity == analysis::Severity::kError) {
        return 1;
      }
    }
    return 0;
  }

  if (command == "check") {
    if (argc != 4) {
      return Usage();
    }
    std::ifstream in(argv[2]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto module = ParseModule(buffer.str());
    if (!module.ok()) {
      std::fprintf(stderr, "parse: %s\n", module.status().ToString().c_str());
      return 1;
    }
    PassManager pm;
    pm.Add(std::make_unique<AllocIdPass>());
    if (auto status = pm.Run(*module); !status.ok()) {
      std::fprintf(stderr, "instrument: %s\n", status.ToString().c_str());
      return 1;
    }
    auto profile = Load(argv[3]);
    if (!profile.ok()) {
      std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
      return 1;
    }
    analysis::DiagnosticSink sink;
    analysis::LintStaleProfileSites(*module, *profile, sink);
    analysis::RenderFindingsText(std::cout, sink.findings());
    if (!sink.empty()) {
      return 1;
    }
    std::printf("all %zu profile site(s) resolve in %s\n", profile->site_count(), argv[2]);
    return 0;
  }

  return Usage();
}
