#include "src/analysis/lint.h"

#include <set>

#include "src/ir/module_hash.h"
#include "src/support/string_util.h"

namespace pkrusafe {
namespace analysis {

namespace {

// Visits every instruction with its location, so rules stay declarative.
template <typename Fn>
void ForEachInstruction(const IrModule& module, Fn&& fn) {
  for (const IrFunction& function : module.functions) {
    for (const BasicBlock& block : function.blocks) {
      for (size_t i = 0; i < block.instructions.size(); ++i) {
        fn(function, block, static_cast<int>(i), block.instructions[i]);
      }
    }
  }
}

Finding At(Severity severity, const char* rule, const IrFunction& fn, const BasicBlock& block,
           int index, std::string message, std::string hint) {
  Finding finding;
  finding.severity = severity;
  finding.rule = rule;
  finding.function = fn.name;
  finding.block = block.label;
  finding.instr_index = index;
  finding.message = std::move(message);
  finding.fix_hint = std::move(hint);
  return finding;
}

}  // namespace

void LintMissingGates(const IrModule& module, DiagnosticSink& sink) {
  ForEachInstruction(module, [&](const IrFunction& fn, const BasicBlock& block, int index,
                                 const Instruction& instr) {
    if (instr.opcode != Opcode::kCall || instr.gated) {
      return;
    }
    // Functions with explicit gate_enter/gate_exit brackets are judged by the
    // PKRU flow analysis (pkru_flow.h), which knows whether a bracket is open
    // around the call; a site-local rule would double-report every one.
    if (fn.UsesExplicitGates()) {
      return;
    }
    if (module.IsUntrustedExtern(instr.callee)) {
      sink.Report(At(Severity::kError, "missing-gate", fn, block, index,
                     "call to @" + instr.callee + " crosses into U without a gate mark",
                     "run GateInsertionPass (or mark the site gated) so the PKRU transition "
                     "wraps the call"));
    }
  });
}

void LintRedundantGates(const IrModule& module, const PointsToAnalysis& pts,
                        DiagnosticSink& sink) {
  ForEachInstruction(module, [&](const IrFunction& fn, const BasicBlock& block, int index,
                                 const Instruction& instr) {
    if (instr.opcode != Opcode::kCall || !instr.gated) {
      return;
    }
    // Everything the callee can touch through this call: the closure of the
    // argument points-to sets over contents cells. If no trusted object is
    // in there, dropping M_T rights protects nothing extra — the gate is
    // elidable (a future gate-elision pass consumes exactly this).
    ObjectSet arg_roots;
    for (const Operand& op : instr.operands) {
      if (op.is_reg()) {
        const ObjectSet& set = pts.RegPointsTo(fn.name, op.reg());
        arg_roots.insert(set.begin(), set.end());
      }
    }
    for (const ObjectId obj : pts.ReachableObjects(arg_roots)) {
      if (pts.objects()[obj].trusted()) {
        return;  // the gate earns its keep
      }
    }
    sink.Report(At(Severity::kNote, "redundant-gate", fn, block, index,
                   "gated call to @" + instr.callee +
                       " can reach no trusted memory through its arguments",
                   "the PKRU transition here is elidable (gate-elision candidate)"));
  });
}

void LintTrustedLeaks(const IrModule& module, const PointsToAnalysis& pts,
                      DiagnosticSink& sink) {
  ForEachInstruction(module, [&](const IrFunction& fn, const BasicBlock& block, int index,
                                 const Instruction& instr) {
    if (instr.opcode != Opcode::kStore) {
      return;
    }
    const Operand& addr = instr.operands[0];
    const Operand& value = instr.operands[2];
    if (!addr.is_reg() || !value.is_reg()) {
      return;
    }
    bool target_u_reachable = false;
    for (const ObjectId obj : pts.RegPointsTo(fn.name, addr.reg())) {
      if (pts.IsUReachable(obj)) {
        target_u_reachable = true;
        break;
      }
    }
    if (!target_u_reachable) {
      return;
    }
    for (const ObjectId obj : pts.RegPointsTo(fn.name, value.reg())) {
      const AbstractObject& object = pts.objects()[obj];
      if (!object.trusted()) {
        continue;
      }
      Finding finding =
          At(Severity::kWarning, "trusted-leak", fn, block, index,
             StrFormat("store publishes trusted allocation %s (from @%s) into a U-reachable "
                       "object",
                       object.site.ToString().c_str(), object.function.c_str()),
             "every pointer stored here becomes reachable from U; move the allocation to M_U "
             "or keep the shared object pointer-free");
      finding.site = object.site;
      sink.Report(std::move(finding));
    }
  });
}

void LintStaleProfileSites(const IrModule& module, const Profile& profile,
                           DiagnosticSink& sink) {
  std::set<AllocId> module_sites;
  ForEachInstruction(module, [&](const IrFunction&, const BasicBlock&, int,
                                 const Instruction& instr) {
    if (instr.alloc_id.has_value()) {
      module_sites.insert(*instr.alloc_id);
    }
  });
  for (const AllocId& id : profile.Sites()) {
    if (module_sites.contains(id)) {
      continue;
    }
    Finding finding;
    finding.severity = Severity::kError;
    finding.rule = "stale-profile-site";
    finding.site = id;
    finding.message = StrFormat("profile names allocation site %s, which this module does not "
                                "contain",
                                id.ToString().c_str());
    finding.fix_hint = "the profile is stale or from another build; re-run profiling against "
                       "this module before the enforcement build";
    sink.Report(std::move(finding));
  }
}

void LintProfileDeltaIrHash(const IrModule& module, uint64_t delta_ir_hash,
                            std::string_view origin, DiagnosticSink& sink) {
  const uint64_t module_hash = ModuleContentHash(module);
  if (delta_ir_hash == module_hash) {
    return;
  }
  Finding finding;
  finding.severity = Severity::kError;
  finding.rule = "stale-profile-hash";
  finding.message = StrFormat(
      "profile data from %.*s was recorded against IR with content hash "
      "0x%016llx, but this module hashes to 0x%016llx",
      static_cast<int>(origin.size()), origin.data(),
      static_cast<unsigned long long>(delta_ir_hash),
      static_cast<unsigned long long>(module_hash));
  finding.fix_hint = "the profile comes from a different build; re-profile against this "
                     "module (or rotate the fleet onto its epoch) before merging counts or "
                     "enforcing";
  sink.Report(std::move(finding));
}

void LintFreeAcrossDomain(const IrModule& module, const PointsToAnalysis& pts,
                          DiagnosticSink& sink) {
  ForEachInstruction(module, [&](const IrFunction& fn, const BasicBlock& block, int index,
                                 const Instruction& instr) {
    if (instr.opcode != Opcode::kFree || !instr.operands[0].is_reg()) {
      return;
    }
    const ObjectSet& set = pts.RegPointsTo(fn.name, instr.operands[0].reg());
    bool any_trusted = false;
    bool any_untrusted = false;
    bool any_external = false;
    bool any_stack = false;
    for (const ObjectId obj : set) {
      const AbstractObject& object = pts.objects()[obj];
      any_external |= object.external;
      any_stack |= object.stack();
      if (!object.external) {
        (object.trusted() ? any_trusted : any_untrusted) = true;
      }
    }
    if (any_stack) {
      sink.Report(At(Severity::kWarning, "free-across-domain", fn, block, index,
                     "free may release a function-scoped (stackalloc) object that its frame "
                     "also releases",
                     "stackalloc objects are freed at return; drop the explicit free"));
    }
    if (any_trusted && (any_untrusted || any_external)) {
      sink.Report(At(Severity::kWarning, "free-across-domain", fn, block, index,
                     "free of a pointer with mixed provenance: may be an M_T or an M_U "
                     "object, so the wrong heap may service it",
                     "separate the trusted and untrusted pointer flows before this free"));
    } else if (!any_trusted && !any_untrusted && any_external) {
      sink.Report(At(Severity::kWarning, "free-across-domain", fn, block, index,
                     "free of a pointer U handed back: T would free U-controlled memory",
                     "validate pointers returned from the untrusted compartment before "
                     "freeing them"));
    }
  });
}

void RunAllLints(const IrModule& module, const PointsToAnalysis& pts, const Profile* profile,
                 DiagnosticSink& sink) {
  LintMissingGates(module, sink);
  LintRedundantGates(module, pts, sink);
  LintTrustedLeaks(module, pts, sink);
  if (profile != nullptr) {
    LintStaleProfileSites(module, *profile, sink);
  }
  LintFreeAcrossDomain(module, pts, sink);
}

}  // namespace analysis
}  // namespace pkrusafe
