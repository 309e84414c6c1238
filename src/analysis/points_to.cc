#include "src/analysis/points_to.h"

#include <algorithm>

#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace analysis {

namespace {

bool IsAllocOpcode(Opcode opcode) {
  return opcode == Opcode::kAlloc || opcode == Opcode::kAllocUntrusted ||
         opcode == Opcode::kStackAlloc || opcode == Opcode::kStackAllocUntrusted;
}

bool Merge(ObjectSet& into, const ObjectSet& from) {
  bool changed = false;
  for (const ObjectId id : from) {
    changed |= into.insert(id).second;
  }
  return changed;
}

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

Status PointsToAnalysis::BuildObjects() {
  objects_.clear();
  object_of_site_.clear();
  AbstractObject external;
  external.external = true;
  objects_.push_back(std::move(external));

  for (const IrFunction& fn : module_->functions) {
    for (const BasicBlock& block : fn.blocks) {
      for (const Instruction& instr : block.instructions) {
        if (!IsAllocOpcode(instr.opcode)) {
          continue;
        }
        if (!instr.alloc_id.has_value()) {
          return FailedPreconditionError("points-to analysis requires AllocIdPass to run first");
        }
        if (object_of_site_.contains(*instr.alloc_id)) {
          return InvalidArgumentError("duplicate AllocId " + instr.alloc_id->ToString() +
                                      " (module violates verifier invariants)");
        }
        AbstractObject object;
        object.site = *instr.alloc_id;
        object.opcode = instr.opcode;
        object.function = fn.name;
        object.block = block.label;
        object_of_site_.emplace(*instr.alloc_id, static_cast<ObjectId>(objects_.size()));
        objects_.push_back(std::move(object));
      }
    }
  }
  contents_.assign(objects_.size(), {});
  return Status::Ok();
}

Status PointsToAnalysis::Run() {
  PS_RETURN_IF_ERROR(BuildObjects());
  call_graph_ = CallGraph::Build(*module_);

  states_.clear();
  for (const IrFunction& fn : module_->functions) {
    FunctionState state;
    state.fn = &fn;
    state.regs.assign(MaxRegister(fn) + 1, {});
    states_.emplace(fn.name, std::move(state));
  }

  u_reachable_ = {kExternalObject};

  iterations_ = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    if (++iterations_ > 1000) {
      return InternalError("points-to analysis failed to converge");
    }
    for (auto& [name, state] : states_) {
      changed |= TransferFunction(state);
    }
    changed |= PropagateUReachability();
  }
  PublishStats();
  return Status::Ok();
}

void PointsToAnalysis::PublishStats() const {
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.GetOrCreateCounter("analysis.static_sharing.runs")->Increment();
  registry.GetOrCreateCounter("analysis.static_sharing.iterations_total")
      ->Increment(static_cast<uint64_t>(iterations_));
  registry.GetOrCreateGauge("analysis.static_sharing.iterations")->Set(iterations_);
  registry.GetOrCreateGauge("analysis.static_sharing.shared_sites")
      ->Set(static_cast<int64_t>(SharedSites().size()));
  registry.GetOrCreateGauge("analysis.points_to.objects")
      ->Set(static_cast<int64_t>(object_count()));
  registry.GetOrCreateGauge("analysis.points_to.edges")->Set(static_cast<int64_t>(edge_count()));
}

bool PointsToAnalysis::TransferFunction(FunctionState& state) {
  bool changed = false;
  auto pts_of = [&](const Operand& op) -> const ObjectSet& {
    static const ObjectSet kEmpty;
    return op.is_reg() ? state.regs[op.reg()] : kEmpty;
  };

  for (const BasicBlock& block : state.fn->blocks) {
    for (const Instruction& instr : block.instructions) {
      switch (instr.opcode) {
        case Opcode::kAlloc:
        case Opcode::kAllocUntrusted:
        case Opcode::kStackAlloc:
        case Opcode::kStackAllocUntrusted:
          changed |= state.regs[*instr.dest].insert(object_of_site_.at(*instr.alloc_id)).second;
          break;
        case Opcode::kLoad:
          // dest may point to anything stored into any object the address
          // may point to — and nothing else (the precision win over the
          // one-cell model).
          for (const ObjectId obj : pts_of(instr.operands[0])) {
            changed |= Merge(state.regs[*instr.dest], contents_[obj]);
          }
          break;
        case Opcode::kStore:
          // *addr = value: the value's objects flow into the contents of
          // every object the address may point to (weak update).
          for (const ObjectId obj : pts_of(instr.operands[0])) {
            changed |= Merge(contents_[obj], pts_of(instr.operands[2]));
          }
          break;
        case Opcode::kCall: {
          if (module_->FindFunction(instr.callee) != nullptr) {
            FunctionState& callee_state = states_.at(instr.callee);
            for (size_t i = 0; i < instr.operands.size() && i < callee_state.regs.size(); ++i) {
              changed |= Merge(callee_state.regs[i], pts_of(instr.operands[i]));
            }
            if (instr.dest.has_value()) {
              changed |= Merge(state.regs[*instr.dest], callee_state.return_set);
            }
          } else if (instr.gated || module_->IsUntrustedExtern(instr.callee)) {
            // Boundary edge: every argument escapes to U ...
            for (const Operand& op : instr.operands) {
              changed |= Merge(u_reachable_, pts_of(op));
            }
            // ... and U may hand back any pointer it ever saw (the
            // u_reachable_ set keeps growing; the fixed point catches up).
            if (instr.dest.has_value()) {
              changed |= Merge(state.regs[*instr.dest], u_reachable_);
            }
          }
          // Trusted externs: part of T's TCB, assumed not to propagate or
          // leak pointers.
          break;
        }
        case Opcode::kRet:
          if (!instr.operands.empty()) {
            changed |= Merge(state.return_set, pts_of(instr.operands[0]));
          }
          break;
        case Opcode::kConst:
        case Opcode::kFree:
        case Opcode::kBr:
        case Opcode::kBrIf:
        case Opcode::kPrint:
          break;
        default:
          // Binary ops: pointer arithmetic keeps the pointee set.
          if (instr.dest.has_value()) {
            for (const Operand& op : instr.operands) {
              changed |= Merge(state.regs[*instr.dest], pts_of(op));
            }
          }
          break;
      }
    }
  }
  return changed;
}

bool PointsToAnalysis::PropagateUReachability() {
  bool changed = false;
  // Reachability closes over contents, and U may store any pointer it knows
  // (conservatively: the external object) into anything it can reach.
  std::vector<ObjectId> worklist(u_reachable_.begin(), u_reachable_.end());
  while (!worklist.empty()) {
    const ObjectId obj = worklist.back();
    worklist.pop_back();
    changed |= contents_[obj].insert(kExternalObject).second;
    for (const ObjectId pointee : contents_[obj]) {
      if (u_reachable_.insert(pointee).second) {
        changed = true;
        worklist.push_back(pointee);
      }
    }
  }
  return changed;
}

const ObjectSet& PointsToAnalysis::RegPointsTo(const std::string& fn, uint32_t reg) const {
  static const ObjectSet kEmpty;
  auto it = states_.find(fn);
  if (it == states_.end() || reg >= it->second.regs.size()) {
    return kEmpty;
  }
  return it->second.regs[reg];
}

ObjectSet PointsToAnalysis::ReachableObjects(const ObjectSet& from) const {
  ObjectSet reachable = from;
  std::vector<ObjectId> worklist(from.begin(), from.end());
  while (!worklist.empty()) {
    const ObjectId obj = worklist.back();
    worklist.pop_back();
    for (const ObjectId pointee : contents_[obj]) {
      if (reachable.insert(pointee).second) {
        worklist.push_back(pointee);
      }
    }
  }
  return reachable;
}

std::vector<AllocId> PointsToAnalysis::SharedSites() const {
  std::vector<AllocId> sites;
  for (const ObjectId obj : u_reachable_) {
    if (!objects_[obj].external) {
      sites.push_back(objects_[obj].site);
    }
  }
  std::sort(sites.begin(), sites.end());
  return sites;
}

size_t PointsToAnalysis::edge_count() const {
  size_t edges = 0;
  for (const ObjectSet& cell : contents_) {
    edges += cell.size();
  }
  for (const auto& [name, state] : states_) {
    edges += state.return_set.size();
    for (const ObjectSet& regs : state.regs) {
      edges += regs.size();
    }
  }
  return edges;
}

}  // namespace analysis
}  // namespace pkrusafe
