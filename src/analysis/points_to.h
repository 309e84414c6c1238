// Andersen-style, field-insensitive, per-allocation-site points-to analysis:
// the static sharing analysis, the compile-time alternative to dynamic
// profiling (paper §4.3 / §6 — "PKRU-Safe supports instrumentation entirely
// based on static analysis in principle"). It models memory with one
// abstract object per allocation instruction:
//
//   * abstract objects = the module's alloc / alloc_untrusted / stackalloc /
//     stackalloc_untrusted sites, named by their AllocId, plus one
//     distinguished "external" object standing for all memory the untrusted
//     side owns or fabricates;
//   * every virtual register has a points-to set over those objects;
//   * every object has one field-insensitive contents cell: the set of
//     objects whose addresses may be stored anywhere inside it;
//   * calls are resolved through the CallGraph: internal edges propagate
//     argument sets into parameters and return sets back (context
//     insensitive); trusted externs are assumed leak-free (TCB, like the
//     standard library in the paper's partitioning); untrusted-extern /
//     gated edges are the compartment boundary.
//
// Sharing is reachability from U: the arguments of boundary calls are roots,
// the contents of a U-reachable object are U-reachable, and U may write any
// pointer it ever saw into memory it can reach — so the contents of every
// U-reachable object additionally include the external object, and the
// result of a boundary call may point to anything U-reachable.
//
// Soundness (w.r.t. the interpreter): every dynamic profile of the module is
// a subset of SharedSites() — tested as a property over examples/ir/.
// Precision: a store into a private object does not taint unrelated loads,
// so the static profile shrinks toward the dynamic one (§6's over-sharing
// gap, narrowed; docs/static_analysis.md records the corpus numbers against
// the retired one-cell model).
//
// Each Run() publishes its cost to the telemetry metrics registry
// (analysis.static_sharing.* and analysis.points_to.*, see
// docs/static_analysis.md), so `--stats=json` covers analysis cost alongside
// runtime cost.
#ifndef SRC_ANALYSIS_POINTS_TO_H_
#define SRC_ANALYSIS_POINTS_TO_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ir/call_graph.h"
#include "src/ir/module.h"
#include "src/runtime/alloc_id.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace analysis {

// Index into PointsToAnalysis::objects(). Object 0 is always the external-U
// object.
using ObjectId = uint32_t;
using ObjectSet = std::set<ObjectId>;

inline constexpr ObjectId kExternalObject = 0;

struct AbstractObject {
  AllocId site;           // meaningless for the external object
  Opcode opcode = Opcode::kAlloc;
  bool external = false;  // the U-universe object
  std::string function;   // enclosing function (for diagnostics)
  std::string block;

  // Objects born in M_T. Untrusted-variant sites and the external object
  // live in M_U, so U touching them faults nothing.
  bool trusted() const {
    return !external && (opcode == Opcode::kAlloc || opcode == Opcode::kStackAlloc);
  }
  bool stack() const {
    return !external &&
           (opcode == Opcode::kStackAlloc || opcode == Opcode::kStackAllocUntrusted);
  }
};

class PointsToAnalysis {
 public:
  // The module must already carry AllocIds (run AllocIdPass first). Gate
  // marks (GateInsertionPass) are honoured but not required: calls to
  // untrusted externs count as boundary edges even when unmarked.
  explicit PointsToAnalysis(const IrModule* module) : module_(module) {}

  // Runs to the fixed point and publishes the run's cost metrics.
  Status Run();

  const std::vector<AbstractObject>& objects() const { return objects_; }

  // Points-to set of register `reg` in function `fn` (flow-insensitive: one
  // set per register over the whole function). Empty set for unknown names.
  const ObjectSet& RegPointsTo(const std::string& fn, uint32_t reg) const;

  // Field-insensitive contents cell of an object.
  const ObjectSet& Contents(ObjectId object) const { return contents_[object]; }

  bool IsUReachable(ObjectId object) const { return u_reachable_.contains(object); }

  // Everything reachable from `from` by following contents cells (`from`
  // included).
  ObjectSet ReachableObjects(const ObjectSet& from) const;

  // The analysis result: allocation sites whose objects U may reach, sorted.
  // This is the static sharing profile; each site counts once (static
  // analysis has no fault counts).
  std::vector<AllocId> SharedSites() const;

  const CallGraph& call_graph() const { return call_graph_; }

  // Cost of the last Run (also published to telemetry).
  int iterations() const { return iterations_; }
  size_t object_count() const { return objects_.size(); }
  // Total size of all register/contents/return points-to sets at the fixed
  // point — the analysis' memory footprint in edges.
  size_t edge_count() const;

 private:
  struct FunctionState {
    const IrFunction* fn = nullptr;
    std::vector<ObjectSet> regs;
    ObjectSet return_set;
  };

  Status BuildObjects();
  bool TransferFunction(FunctionState& state);
  bool PropagateUReachability();
  void PublishStats() const;

  const IrModule* module_;
  CallGraph call_graph_;
  std::vector<AbstractObject> objects_;
  std::map<AllocId, ObjectId> object_of_site_;
  std::map<std::string, FunctionState> states_;
  std::vector<ObjectSet> contents_;
  ObjectSet u_reachable_;
  int iterations_ = 0;
};

}  // namespace analysis
}  // namespace pkrusafe

#endif  // SRC_ANALYSIS_POINTS_TO_H_
