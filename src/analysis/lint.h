// pkrusafe_lint rules: pre-deployment diagnostics over an instrumented IR
// module, its points-to facts, and (optionally) a profile about to drive an
// enforcement build.
//
// Rules (one Finding per occurrence, reported through DiagnosticSink):
//   missing-gate       error    call crosses into U without a gate mark
//   redundant-gate     note     gated callee provably touches no trusted
//                               memory (feeds future gate elision)
//   trusted-leak       warning  store publishes a trusted pointer into a
//                               U-reachable object
//   stale-profile-site error    profile names an AllocId the module does not
//                               contain (stale/foreign profile)
//   stale-profile-hash error    profile delta's or artifact's IR content hash
//                               does not match the module it is checked
//                               against
//   free-across-domain warning  free of a pointer with mixed/U-controlled
//                               provenance at the IR level
#ifndef SRC_ANALYSIS_LINT_H_
#define SRC_ANALYSIS_LINT_H_

#include "src/analysis/diagnostics.h"
#include "src/analysis/points_to.h"
#include "src/ir/module.h"
#include "src/runtime/profile.h"

namespace pkrusafe {
namespace analysis {

// Individual rules, composable by tools.
void LintMissingGates(const IrModule& module, DiagnosticSink& sink);
void LintRedundantGates(const IrModule& module, const PointsToAnalysis& pts,
                        DiagnosticSink& sink);
void LintTrustedLeaks(const IrModule& module, const PointsToAnalysis& pts, DiagnosticSink& sink);
void LintStaleProfileSites(const IrModule& module, const Profile& profile, DiagnosticSink& sink);
// Checks a profile delta's or artifact's IR content hash against the
// module's own (ModuleContentHash). `origin` names the stream or file the
// profile came from.
void LintProfileDeltaIrHash(const IrModule& module, uint64_t delta_ir_hash,
                            std::string_view origin, DiagnosticSink& sink);
void LintFreeAcrossDomain(const IrModule& module, const PointsToAnalysis& pts,
                          DiagnosticSink& sink);

// Runs every rule. `profile` may be null (skips stale-profile-site). The
// points-to analysis must have Run() successfully on `module`.
void RunAllLints(const IrModule& module, const PointsToAnalysis& pts, const Profile* profile,
                 DiagnosticSink& sink);

}  // namespace analysis
}  // namespace pkrusafe

#endif  // SRC_ANALYSIS_LINT_H_
