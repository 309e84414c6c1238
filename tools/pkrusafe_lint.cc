// pkrusafe_lint: static compartment diagnostics for IR modules and built
// binaries.
//
//   pkrusafe_lint prog.ir                         # instrument + lint
//   pkrusafe_lint prog.ir --profile=p.profile     # + stale-site check and
//                                                 #   precision metric
//   pkrusafe_lint prog.ir --no-gates              # lint the ungated module
//                                                 #   (missing-gate demo)
//   pkrusafe_lint --scan=build/tools/pkrusafe_run # WRPKRU/XRSTOR gadget scan
//   pkrusafe_lint --scan-self                     # scan this very binary
//   pkrusafe_lint prog.ir --format=json           # machine-readable output
//   pkrusafe_lint prog.ir --format=sarif          # SARIF 2.1.0 output
//   pkrusafe_lint check-binary BIN [prog.ir...]   # link-time gate-integrity
//                                                 #   check (registry vs scan,
//                                                 #   optionally vs IR gates)
//
// Exit codes: 0 clean (below --fail-on, default error), 1 findings at or
// above the threshold, 2 usage/load errors.
//
// The precision metric (printed with --profile, and in the JSON summary) is
// `static sites ÷ dynamic sites` — how far the static over-approximation
// over-shares relative to an observed profile (paper §6: sound static
// analyses over-share; the points-to model narrows the gap).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/analysis/gadget_scan.h"
#include "src/analysis/gate_integrity.h"
#include "src/analysis/lint.h"
#include "src/analysis/pkru_flow.h"
#include "src/analysis/points_to.h"
#include "src/ir/parser.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/passes/static_sharing_analysis.h"
#include "src/support/string_util.h"

namespace {

using namespace pkrusafe;  // NOLINT: tool brevity

int Usage() {
  std::fprintf(stderr,
               "usage: pkrusafe_lint [<module.ir>] [options]\n"
               "       pkrusafe_lint check-binary <binary> [<module.ir>...] [options]\n"
               "  --profile=FILE       check the module against a recorded profile and\n"
               "                       report the static/dynamic precision ratio\n"
               "  --no-gates           skip GateInsertionPass before linting (shows\n"
               "                       missing-gate findings on annotated modules)\n"
               "  --scan=BINARY        WRPKRU/XRSTOR gadget-scan a built binary\n"
               "                       (repeatable)\n"
               "  --scan-self          gadget-scan this pkrusafe_lint binary\n"
               "  --format=text|json|sarif   output format (default text)\n"
               "  --fail-on=error|warning|note   exit-1 threshold (default error)\n"
               "\n"
               "check-binary cross-checks the binary's .pkru_gate_sites registry against\n"
               "an ERIM-style byte scan (and, given modules, against their IR-level gate\n"
               "inventory from the PKRU flow analysis); mismatches are errors.\n");
  return 2;
}

// Loads, instruments (AllocId + gate insertion unless disabled) and returns a
// module, or exits via `return 2` semantics (nullopt).
std::optional<IrModule> LoadModule(const std::string& path, bool apply_gates) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto module = ParseModule(buffer.str());
  if (!module.ok()) {
    std::fprintf(stderr, "parse %s: %s\n", path.c_str(), module.status().ToString().c_str());
    return std::nullopt;
  }
  PassManager pm;
  pm.Add(std::make_unique<AllocIdPass>());
  if (apply_gates) {
    pm.Add(std::make_unique<GateInsertionPass>());
  }
  if (auto status = pm.Run(*module); !status.ok()) {
    std::fprintf(stderr, "instrument %s: %s\n", path.c_str(), status.ToString().c_str());
    return std::nullopt;
  }
  return std::move(*module);
}

}  // namespace

int main(int argc, char** argv) {
  std::string module_path;
  std::string profile_path;
  std::string format = "text";
  std::string fail_on = "error";
  std::vector<std::string> scan_paths;
  bool apply_gates = true;
  bool check_binary = false;
  std::string binary_path;
  std::vector<std::string> inventory_modules;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      return std::strncmp(arg.c_str(), prefix, std::strlen(prefix)) == 0
                 ? arg.c_str() + std::strlen(prefix)
                 : nullptr;
    };
    if (const char* v = value_of("--profile=")) {
      profile_path = v;
    } else if (const char* v = value_of("--scan=")) {
      scan_paths.push_back(v);
    } else if (arg == "--scan-self") {
      scan_paths.push_back("/proc/self/exe");
    } else if (const char* v = value_of("--format=")) {
      format = v;
      if (format != "text" && format != "json" && format != "sarif") {
        return Usage();
      }
    } else if (const char* v = value_of("--fail-on=")) {
      fail_on = v;
      if (fail_on != "error" && fail_on != "warning" && fail_on != "note") {
        return Usage();
      }
    } else if (arg == "--no-gates") {
      apply_gates = false;
    } else if (arg[0] == '-') {
      return Usage();
    } else if (arg == "check-binary" && !check_binary && module_path.empty()) {
      check_binary = true;
    } else if (check_binary && binary_path.empty()) {
      binary_path = arg;
    } else if (check_binary) {
      inventory_modules.push_back(arg);
    } else if (module_path.empty()) {
      module_path = arg;
    } else {
      return Usage();
    }
  }
  if (check_binary ? binary_path.empty() : (module_path.empty() && scan_paths.empty())) {
    return Usage();
  }

  analysis::DiagnosticSink sink;
  std::function<void(json::Writer&)> extra_summary;

  if (check_binary) {
    analysis::GateInventory inventory;
    for (const std::string& path : inventory_modules) {
      auto module = LoadModule(path, apply_gates);
      if (!module.has_value()) {
        return 2;
      }
      analysis::PkruFlowAnalysis flow(&*module);
      if (auto status = flow.Run(); !status.ok()) {
        std::fprintf(stderr, "pkru-flow %s: %s\n", path.c_str(), status.ToString().c_str());
        return 2;
      }
      inventory.to_untrusted_sites += flow.gate_inventory().to_untrusted_sites;
      inventory.to_trusted_sites += flow.gate_inventory().to_trusted_sites;
      inventory.sites.insert(inventory.sites.end(), flow.gate_inventory().sites.begin(),
                             flow.gate_inventory().sites.end());
    }
    auto report = analysis::ScanBinaryGates(binary_path);
    if (!report.ok()) {
      std::fprintf(stderr, "check-binary: %s\n", report.status().ToString().c_str());
      return 2;
    }
    analysis::CheckGateIntegrity(*report, inventory_modules.empty() ? nullptr : &inventory,
                                 sink);
    if (format == "text") {
      std::printf("check-binary %s: %zu sanctioned, %zu unsanctioned, %zu registered\n",
                  binary_path.c_str(), report->sanctioned, report->unsanctioned,
                  report->registered);
    }
  }

  if (!module_path.empty()) {
    auto module = LoadModule(module_path, apply_gates);
    if (!module.has_value()) {
      return 2;
    }

    analysis::PointsToAnalysis points_to(&*module);
    if (auto status = points_to.Run(); !status.ok()) {
      std::fprintf(stderr, "points-to: %s\n", status.ToString().c_str());
      return 2;
    }

    Profile profile;
    bool have_profile = false;
    if (!profile_path.empty()) {
      auto loaded = Profile::LoadFromFile(profile_path);
      if (!loaded.ok()) {
        std::fprintf(stderr, "profile: %s\n", loaded.status().ToString().c_str());
        return 2;
      }
      profile = std::move(*loaded);
      have_profile = true;
    }
    analysis::RunAllLints(*module, points_to, have_profile ? &profile : nullptr, sink);
    if (auto status = analysis::RunPkruFlowLints(*module, &points_to, sink); !status.ok()) {
      std::fprintf(stderr, "pkru-flow: %s\n", status.ToString().c_str());
      return 2;
    }

    const size_t static_sites = points_to.SharedSites().size();
    if (have_profile) {
      const size_t dynamic_sites = profile.site_count();
      const double ratio = dynamic_sites == 0 ? 0.0
                                              : static_cast<double>(static_sites) /
                                                    static_cast<double>(dynamic_sites);
      extra_summary = [static_sites, dynamic_sites, ratio](json::Writer& w) {
        w.Key("precision").BeginObject().Key("static_sites").Uint(static_sites);
        w.Key("dynamic_sites").Uint(dynamic_sites).Key("ratio").Number(StrFormat("%.3f", ratio));
        w.EndObject();
      };
      if (format == "text") {
        if (dynamic_sites == 0) {
          std::printf("precision: %zu static site(s), empty dynamic profile\n", static_sites);
        } else {
          std::printf("precision: %zu static / %zu dynamic site(s) = %.3f\n", static_sites,
                      dynamic_sites, ratio);
        }
      }
    } else {
      extra_summary = [static_sites](json::Writer& w) {
        w.Key("precision").BeginObject().Key("static_sites").Uint(static_sites).EndObject();
      };
      if (format == "text") {
        std::printf("static profile: %zu shared site(s), %zu abstract object(s), %d "
                    "iteration(s)\n",
                    static_sites, points_to.object_count(), points_to.iterations());
      }
    }
  }

  for (const std::string& path : scan_paths) {
    auto hits = analysis::ScanFile(path);
    if (!hits.ok()) {
      std::fprintf(stderr, "scan: %s\n", hits.status().ToString().c_str());
      return 2;
    }
    analysis::ReportGadgets(*hits, path, sink);
    if (format == "text") {
      std::printf("scanned %s: %zu wrpkru/xrstor occurrence(s)\n", path.c_str(), hits->size());
    }
  }

  if (format == "json") {
    analysis::RenderFindingsJson(std::cout, sink.findings(), extra_summary);
  } else if (format == "sarif") {
    const std::string artifact = !module_path.empty() ? module_path
                                 : check_binary       ? binary_path
                                 : scan_paths.empty() ? std::string()
                                                      : scan_paths.front();
    analysis::RenderFindingsSarif(std::cout, sink.findings(), artifact);
  } else {
    analysis::RenderFindingsText(std::cout, sink.findings());
  }

  const analysis::Severity threshold = fail_on == "note"      ? analysis::Severity::kNote
                                       : fail_on == "warning" ? analysis::Severity::kWarning
                                                              : analysis::Severity::kError;
  return sink.CountAtLeast(threshold) > 0 ? 1 : 0;
}
