// Public facade: one object that runs the paper's four-stage pipeline over a
// program (Fig. 1) and executes the result.
//
//   1. developer annotations — `untrusted "lib"` directives in the IR source;
//   2. instrumented build    — AllocIdPass + GateInsertionPass;
//   3. profiling runs        — execute under RuntimeMode::kProfiling, then
//                              TakeProfile() (saved to disk as a
//                              ProfileArtifact keyed by
//                              instrumented_ir_hash());
//   4. enforcement build     — recreate the System with the profile (in
//                              memory, or as a verified artifact file): the
//                              ProfileApplyPass moves the recorded sites to
//                              M_U and the runtime denies everything else.
//
// See examples/quickstart.cc for the complete three-step walkthrough
// (artifact experiment E1).
#ifndef SRC_CORE_PKRU_SAFE_H_
#define SRC_CORE_PKRU_SAFE_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/interp/interpreter.h"
#include "src/ir/module.h"
#include "src/runtime/runtime.h"

namespace pkrusafe {

struct SystemConfig {
  BackendKind backend = BackendKind::kSim;
  RuntimeMode mode = RuntimeMode::kDisabled;
  // Applied by the ProfileApplyPass (IR rewriting) *and* installed as the
  // runtime's site policy, so both mechanisms agree.
  Profile profile;
  bool verify_gates = true;
  // Profiling-mode first-fault latching (see RuntimeConfig::latch_sites).
  bool latch_sites = false;
  // Always-on sampled profiling in enforce mode: keep observing the
  // statically-shared-but-unpromoted sites (the points-to envelope minus the
  // loaded profile) while enforcement stays live. The candidate set is
  // derived here from StaticSharingAnalysis; see RuntimeConfig for the exact
  // semantics and FaultRateBudgetOptions for the cost knobs.
  bool sampled_profiling = false;
  FaultRateBudgetOptions sampling;
  size_t trusted_pool_bytes = size_t{2} << 30;
  size_t untrusted_pool_bytes = size_t{2} << 30;
  // Path to a profile artifact (the only profile file format; see
  // src/runtime/profile_artifact.h). When set, Create verifies it at load and
  // merges its sites into `profile` (the union, so a statically derived
  // profile can ride along):
  //   * checksum failure or malformed content   -> hard error
  //   * artifact ir_hash != this module's instrumented (pre-profile-apply)
  //     content hash                            -> hard error — the site ids
  //     were recorded against different IR
  //   * newest contributing epoch != `expected_epoch` (when that is
  //     non-empty)                              -> warning only: the profile
  //     still applies, but the fleet has moved past it
  std::string profile_artifact;
  std::string expected_epoch;
};

class System {
 public:
  // Parses `ir_source`, runs the pass pipeline per `config`, creates the
  // runtime and wires the interpreter. `externs` supplies native
  // implementations for the module's extern declarations.
  static Result<std::unique_ptr<System>> Create(std::string_view ir_source, SystemConfig config,
                                                ExternRegistry externs = {});

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Calls an IR function from the trusted side.
  Result<int64_t> Call(const std::string& function, const std::vector<int64_t>& args = {});

  PkruSafeRuntime& runtime() { return *runtime_; }
  Interpreter& interpreter() { return *interpreter_; }
  const IrModule& module() const { return module_; }

  // ModuleContentHash of the instrumented, profile-free module (after
  // AllocIdPass + GateInsertionPass, before ProfileApplyPass). This is the
  // hash profile streams and artifacts are keyed by: it is stable across
  // profile iterations, where the post-apply module text is not.
  uint64_t instrumented_ir_hash() const { return instrumented_ir_hash_; }

  Profile TakeProfile() const { return runtime_->TakeProfile(); }

  // Instrumentation statistics (the §5.3 numbers for this program).
  size_t total_alloc_sites() const { return total_sites_; }
  size_t gates_inserted() const { return gates_inserted_; }
  size_t sites_moved_to_untrusted() const { return sites_rewritten_; }

  // The instrumented module in textual form (for inspection / docs).
  std::string DumpIr() const;

 private:
  System() = default;

  IrModule module_;
  uint64_t instrumented_ir_hash_ = 0;
  std::unique_ptr<PkruSafeRuntime> runtime_;
  std::unique_ptr<Interpreter> interpreter_;
  size_t total_sites_ = 0;
  size_t gates_inserted_ = 0;
  size_t sites_rewritten_ = 0;
};

}  // namespace pkrusafe

#endif  // SRC_CORE_PKRU_SAFE_H_
