#include "src/analysis/diagnostics.h"

#include <algorithm>
#include <ostream>

#include "src/support/string_util.h"

namespace pkrusafe {
namespace analysis {

namespace {

std::string Location(const Finding& f) {
  if (f.function.empty()) {
    return "";
  }
  std::string loc = "@" + f.function;
  if (!f.block.empty()) {
    loc += "/" + f.block;
  }
  if (f.instr_index >= 0) {
    loc += StrFormat("#%d", f.instr_index);
  }
  return loc;
}

struct SeverityCounts {
  size_t errors = 0;
  size_t warnings = 0;
  size_t notes = 0;
};

SeverityCounts CountBySeverity(const std::vector<Finding>& findings) {
  SeverityCounts counts;
  for (const Finding& f : findings) {
    switch (f.severity) {
      case Severity::kError:
        ++counts.errors;
        break;
      case Severity::kWarning:
        ++counts.warnings;
        break;
      case Severity::kNote:
        ++counts.notes;
        break;
    }
  }
  return counts;
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

size_t DiagnosticSink::CountAtLeast(Severity severity) const {
  size_t n = 0;
  for (const Finding& f : findings_) {
    if (f.severity >= severity) {
      ++n;
    }
  }
  return n;
}

void RenderFindingsText(std::ostream& out, const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    out << SeverityName(f.severity) << "[" << f.rule << "]";
    const std::string loc = Location(f);
    if (!loc.empty()) {
      out << " " << loc;
    }
    out << ": " << f.message;
    if (f.site.has_value()) {
      out << " (site " << f.site->ToString() << ")";
    }
    out << "\n";
    if (!f.fix_hint.empty()) {
      out << "  hint: " << f.fix_hint << "\n";
    }
  }
  const SeverityCounts counts = CountBySeverity(findings);
  out << StrFormat("%zu finding(s): %zu error(s), %zu warning(s), %zu note(s)\n", findings.size(),
                   counts.errors, counts.warnings, counts.notes);
}

void RenderFindingsJson(std::ostream& out, const std::vector<Finding>& findings,
                        const std::function<void(json::Writer&)>& extend_summary) {
  std::string text;
  json::Writer w(&text);
  w.BeginObject().Key("findings").BeginArray();
  for (const Finding& f : findings) {
    w.BeginObject().Key("severity").String(SeverityName(f.severity)).Key("rule").String(f.rule);
    if (!f.function.empty()) {
      w.Key("function").String(f.function);
    }
    if (!f.block.empty()) {
      w.Key("block").String(f.block);
    }
    if (f.instr_index >= 0) {
      w.Key("instr").Int(f.instr_index);
    }
    if (f.site.has_value()) {
      w.Key("site").String(f.site->ToString());
    }
    w.Key("message").String(f.message);
    if (!f.fix_hint.empty()) {
      w.Key("hint").String(f.fix_hint);
    }
    w.EndObject();
  }
  const SeverityCounts counts = CountBySeverity(findings);
  w.EndArray().Key("summary").BeginObject();
  w.Key("errors").Uint(counts.errors).Key("warnings").Uint(counts.warnings);
  w.Key("notes").Uint(counts.notes);
  if (extend_summary) {
    extend_summary(w);
  }
  w.EndObject().EndObject();
  out << text << "\n";
}

void RenderFindingsSarif(std::ostream& out, const std::vector<Finding>& findings,
                         const std::string& artifact) {
  // SARIF's level vocabulary maps 1:1 onto ours ("note"/"warning"/"error").
  std::vector<std::string> rules;
  for (const Finding& f : findings) {
    if (std::find(rules.begin(), rules.end(), f.rule) == rules.end()) {
      rules.push_back(f.rule);
    }
  }
  std::sort(rules.begin(), rules.end());

  std::string text;
  json::Writer w(&text);
  w.BeginObject().Key("$schema").String("https://json.schemastore.org/sarif-2.1.0.json");
  w.Key("version").String("2.1.0").Key("runs").BeginArray().BeginObject();
  w.Key("tool").BeginObject().Key("driver").BeginObject().Key("name").String("pkrusafe_lint");
  w.Key("informationUri").String("https://github.com/pkru-safe").Key("rules").BeginArray();
  for (const std::string& rule : rules) {
    w.BeginObject().Key("id").String(rule).EndObject();
  }
  w.EndArray().EndObject().EndObject().Key("results").BeginArray();
  for (const Finding& f : findings) {
    const auto rule_it = std::find(rules.begin(), rules.end(), f.rule);
    w.BeginObject().Key("ruleId").String(f.rule).Key("ruleIndex").Int(rule_it - rules.begin());
    w.Key("level").String(SeverityName(f.severity));
    std::string message = f.message;
    if (f.site.has_value()) {
      message += " (site " + f.site->ToString() + ")";
    }
    if (!f.fix_hint.empty()) {
      message += " | hint: " + f.fix_hint;
    }
    w.Key("message").BeginObject().Key("text").String(message).EndObject();
    const std::string loc = Location(f);
    if (!loc.empty() || !artifact.empty()) {
      w.Key("locations").BeginArray().BeginObject();
      if (!artifact.empty()) {
        w.Key("physicalLocation").BeginObject().Key("artifactLocation").BeginObject();
        w.Key("uri").String(artifact).EndObject().EndObject();
      }
      if (!loc.empty()) {
        w.Key("logicalLocations").BeginArray().BeginObject();
        w.Key("fullyQualifiedName").String(loc).EndObject().EndArray();
      }
      w.EndObject().EndArray();
    }
    w.EndObject();
  }
  w.EndArray().EndObject().EndArray().EndObject();
  out << text << "\n";
}

}  // namespace analysis
}  // namespace pkrusafe
