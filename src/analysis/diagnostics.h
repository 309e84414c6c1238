// Structured diagnostics for the static compartment analyzer.
//
// Every lint rule and the gadget scanner report through the same sink: a
// Finding names the rule that fired, where it fired (function/block/
// instruction for IR findings, file/offset for binary findings), the
// allocation site involved if any, and a fix hint. Findings render as
// human-readable text or as machine-readable JSON so `pkrusafe_lint` output
// can gate CI (scripts/check.sh lint).
#ifndef SRC_ANALYSIS_DIAGNOSTICS_H_
#define SRC_ANALYSIS_DIAGNOSTICS_H_

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/alloc_id.h"
#include "src/support/json.h"

namespace pkrusafe {
namespace analysis {

enum class Severity : uint8_t { kNote, kWarning, kError };

const char* SeverityName(Severity severity);

struct Finding {
  Severity severity = Severity::kWarning;
  // Stable rule identifier, e.g. "missing-gate", "wrpkru-gadget".
  std::string rule;
  // IR location (empty/-1 when not applicable, e.g. binary scans).
  std::string function;
  std::string block;
  int instr_index = -1;
  // Allocation site involved, if the finding is about one.
  std::optional<AllocId> site;
  std::string message;
  std::string fix_hint;
};

// Accumulates findings; rules append, tools render and decide the exit code.
class DiagnosticSink {
 public:
  void Report(Finding finding) { findings_.push_back(std::move(finding)); }

  const std::vector<Finding>& findings() const { return findings_; }
  size_t CountAtLeast(Severity severity) const;
  bool empty() const { return findings_.empty(); }
  size_t size() const { return findings_.size(); }

 private:
  std::vector<Finding> findings_;
};

// "error[missing-gate] @main/e#2: call to @u_read crosses into U without a
//  gate\n  hint: run GateInsertionPass ..."
void RenderFindingsText(std::ostream& out, const std::vector<Finding>& findings);

// One JSON object: {"findings": [...], "summary": {"errors": N, ...}}.
// `extend_summary`, when set, writes further summary members after the counts
// (pkrusafe_lint adds its precision metric there).
void RenderFindingsJson(std::ostream& out, const std::vector<Finding>& findings,
                        const std::function<void(json::Writer&)>& extend_summary = {});

// SARIF 2.1.0 (one run, driver "pkrusafe_lint"): each distinct rule id
// becomes a reportingDescriptor, each finding a result whose logical
// location is the "@fn/block#i" form used by the text renderer. `artifact`
// names the analyzed module or binary (results' artifactLocation.uri; pass
// "" to omit). Output is deterministic — rules sorted by id, results in
// finding order — so goldens can diff it byte-for-byte.
void RenderFindingsSarif(std::ostream& out, const std::vector<Finding>& findings,
                         const std::string& artifact = "");

}  // namespace analysis
}  // namespace pkrusafe

#endif  // SRC_ANALYSIS_DIAGNOSTICS_H_
