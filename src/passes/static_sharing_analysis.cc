#include "src/passes/static_sharing_analysis.h"

#include <map>
#include <set>
#include <vector>

#include "src/analysis/points_to.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {

namespace {

using SiteSet = std::set<AllocId>;

bool Merge(SiteSet& into, const SiteSet& from) {
  bool changed = false;
  for (const AllocId& id : from) {
    changed |= into.insert(id).second;
  }
  return changed;
}

struct FunctionState {
  const IrFunction* fn = nullptr;
  std::vector<SiteSet> regs;  // per virtual register (params live in regs[0..n))
  SiteSet return_sites;
};

uint32_t MaxRegister(const IrFunction& fn) {
  uint32_t max_reg = fn.num_params == 0 ? 0 : fn.num_params - 1;
  for (const BasicBlock& block : fn.blocks) {
    for (const Instruction& instr : block.instructions) {
      if (instr.dest.has_value()) {
        max_reg = std::max(max_reg, *instr.dest);
      }
      for (const Operand& op : instr.operands) {
        if (op.is_reg()) {
          max_reg = std::max(max_reg, op.reg());
        }
      }
    }
  }
  return max_reg;
}

}  // namespace

void StaticSharingAnalysis::PublishStats(size_t shared_sites) const {
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetOrCreateCounter("analysis.static_sharing.runs")->Increment();
  registry.GetOrCreateCounter("analysis.static_sharing.iterations_total")
      ->Increment(static_cast<uint64_t>(iterations_));
  registry.GetOrCreateGauge("analysis.static_sharing.iterations")->Set(iterations_);
  registry.GetOrCreateGauge("analysis.static_sharing.shared_sites")
      ->Set(static_cast<int64_t>(shared_sites));
  if (model_ == SharingModel::kPointsTo) {
    registry.GetOrCreateGauge("analysis.points_to.objects")
        ->Set(static_cast<int64_t>(abstract_objects_));
    registry.GetOrCreateGauge("analysis.points_to.edges")
        ->Set(static_cast<int64_t>(points_to_edges_));
  }
}

Result<Profile> StaticSharingAnalysis::Run() {
  if (model_ == SharingModel::kOneCell) {
    return RunOneCell();
  }
  analysis::PointsToAnalysis points_to(module_);
  PS_RETURN_IF_ERROR(points_to.Run());
  iterations_ = points_to.iterations();
  abstract_objects_ = points_to.object_count();
  points_to_edges_ = points_to.edge_count();

  Profile profile;
  for (const AllocId& id : points_to.SharedSites()) {
    profile.Add(id);
  }
  PublishStats(profile.site_count());
  return profile;
}

// The original analysis: flow-insensitive taint with a single global memory
// abstraction. Every load returns every site ever stored anywhere — the
// worst-case over-sharing the paper warns about (§6), preserved verbatim as
// the precision baseline the points-to model is measured against.
Result<Profile> StaticSharingAnalysis::RunOneCell() {
  std::map<std::string, FunctionState> states;
  for (const IrFunction& fn : module_->functions) {
    FunctionState state;
    state.fn = &fn;
    state.regs.assign(MaxRegister(fn) + 1, {});
    states.emplace(fn.name, std::move(state));
  }

  SiteSet memory;   // one global memory abstraction for loads
  SiteSet shared;   // the answer: sites that may reach U

  // Verify preconditions: every alloc must carry a site id.
  for (const IrFunction& fn : module_->functions) {
    for (const BasicBlock& block : fn.blocks) {
      for (const Instruction& instr : block.instructions) {
        if ((instr.opcode == Opcode::kAlloc || instr.opcode == Opcode::kAllocUntrusted ||
             instr.opcode == Opcode::kStackAlloc ||
             instr.opcode == Opcode::kStackAllocUntrusted) &&
            !instr.alloc_id.has_value()) {
          return FailedPreconditionError("static analysis requires AllocIdPass to run first");
        }
      }
    }
  }

  bool changed = true;
  iterations_ = 0;
  while (changed) {
    changed = false;
    ++iterations_;
    if (iterations_ > 1000) {
      return InternalError("static sharing analysis failed to converge");
    }

    for (auto& [name, state] : states) {
      auto sites_of = [&](const Operand& op) -> SiteSet {
        return op.is_reg() ? state.regs[op.reg()] : SiteSet{};
      };

      for (const BasicBlock& block : state.fn->blocks) {
        for (const Instruction& instr : block.instructions) {
          switch (instr.opcode) {
            case Opcode::kConst:
              break;
            case Opcode::kAlloc:
            case Opcode::kAllocUntrusted:
            case Opcode::kStackAlloc:
            case Opcode::kStackAllocUntrusted:
              changed |= state.regs[*instr.dest].insert(*instr.alloc_id).second;
              break;
            case Opcode::kLoad:
              // The loaded value may be any pointer ever stored.
              changed |= Merge(state.regs[*instr.dest], memory);
              break;
            case Opcode::kStore: {
              // Value escapes into memory.
              changed |= Merge(memory, sites_of(instr.operands[2]));
              // A pointer stored into a shared object becomes U-reachable.
              const SiteSet target = sites_of(instr.operands[0]);
              bool target_shared = false;
              for (const AllocId& id : target) {
                if (shared.contains(id)) {
                  target_shared = true;
                  break;
                }
              }
              if (target_shared) {
                changed |= Merge(shared, sites_of(instr.operands[2]));
              }
              break;
            }
            case Opcode::kCall: {
              if (module_->FindFunction(instr.callee) != nullptr) {
                FunctionState& callee_state = states.at(instr.callee);
                for (size_t i = 0; i < instr.operands.size(); ++i) {
                  changed |= Merge(callee_state.regs[i], sites_of(instr.operands[i]));
                }
                if (instr.dest.has_value()) {
                  changed |= Merge(state.regs[*instr.dest], callee_state.return_sites);
                }
              } else if (instr.gated || module_->IsUntrustedExtern(instr.callee)) {
                // Sink: every argument's sites may be used by U.
                for (const Operand& op : instr.operands) {
                  changed |= Merge(shared, sites_of(op));
                }
                // U may hand back anything it was ever given.
                if (instr.dest.has_value()) {
                  changed |= Merge(state.regs[*instr.dest], shared);
                }
              }
              // Trusted externs: assumed leak-free; results carry no sites.
              break;
            }
            case Opcode::kRet:
              if (!instr.operands.empty()) {
                changed |= Merge(state.return_sites, sites_of(instr.operands[0]));
              }
              break;
            case Opcode::kFree:
            case Opcode::kBr:
            case Opcode::kBrIf:
            case Opcode::kPrint:
              break;
            default:
              // Binary ops: taint flows through arithmetic.
              if (instr.dest.has_value()) {
                for (const Operand& op : instr.operands) {
                  changed |= Merge(state.regs[*instr.dest], sites_of(op));
                }
              }
              break;
          }
        }
      }
    }
  }

  abstract_objects_ = 0;
  points_to_edges_ = 0;
  Profile profile;
  for (const AllocId& id : shared) {
    profile.Add(id);
  }
  PublishStats(profile.site_count());
  return profile;
}

}  // namespace pkrusafe
