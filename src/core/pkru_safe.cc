#include "src/core/pkru_safe.h"

#include "src/analysis/points_to.h"
#include "src/ir/module_hash.h"
#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/passes/alloc_id_pass.h"
#include "src/passes/gate_insertion_pass.h"
#include "src/passes/pass.h"
#include "src/passes/profile_apply_pass.h"
#include "src/runtime/profile_artifact.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace pkrusafe {

Result<std::unique_ptr<System>> System::Create(std::string_view ir_source, SystemConfig config,
                                               ExternRegistry externs) {
  auto system = std::unique_ptr<System>(new System());

  PS_ASSIGN_OR_RETURN(system->module_, ParseModule(ir_source));

  // Instrumented build: site naming and boundary gating run first, so the
  // module hash that streams and artifacts are keyed by can be taken BEFORE
  // any profile is applied (the pre-apply text is the stable anchor across
  // profile iterations).
  auto alloc_ids = std::make_unique<AllocIdPass>();
  auto gates = std::make_unique<GateInsertionPass>();
  auto* alloc_ids_ptr = alloc_ids.get();
  auto* gates_ptr = gates.get();

  PassManager pm;
  pm.Add(std::move(alloc_ids));
  pm.Add(std::move(gates));
  PS_RETURN_IF_ERROR(pm.Run(system->module_));
  system->total_sites_ = alloc_ids_ptr->sites_assigned();
  system->gates_inserted_ = gates_ptr->gates_inserted();
  system->instrumented_ir_hash_ = ModuleContentHash(system->module_);

  // Provenance-checked artifact: the recorded profile, verified before it
  // may influence the partition, then unioned with any in-memory profile
  // (e.g. statically derived sites).
  if (!config.profile_artifact.empty()) {
    PS_ASSIGN_OR_RETURN(const ProfileArtifact artifact,
                        ProfileArtifact::LoadFromFile(config.profile_artifact));
    if (artifact.ir_hash != system->instrumented_ir_hash_) {
      return FailedPreconditionError(StrFormat(
          "profile artifact %s was recorded against IR hash 0x%016llx but this module's "
          "instrumented hash is 0x%016llx — its site ids do not apply; re-profile and "
          "re-export",
          config.profile_artifact.c_str(), static_cast<unsigned long long>(artifact.ir_hash),
          static_cast<unsigned long long>(system->instrumented_ir_hash_)));
    }
    if (!config.expected_epoch.empty() && artifact.NewestEpoch() != config.expected_epoch) {
      PS_LOG(Warning) << "profile artifact " << config.profile_artifact
                      << " is stale: newest contributing epoch is '" << artifact.NewestEpoch()
                      << "', expected '" << config.expected_epoch
                      << "' — applying it anyway; consider re-exporting";
    }
    config.profile.Merge(artifact.profile);
  }

  // Enforcement builds additionally apply the (now-verified) profile.
  if (config.mode == RuntimeMode::kEnforcing && !config.profile.empty()) {
    PassManager apply_pm;
    auto apply = std::make_unique<ProfileApplyPass>(config.profile);
    auto* apply_ptr = apply.get();
    apply_pm.Add(std::move(apply));
    PS_RETURN_IF_ERROR(apply_pm.Run(system->module_));
    system->sites_rewritten_ = apply_ptr->sites_rewritten();
  }

  RuntimeConfig rc;
  rc.backend = config.backend;
  rc.mode = config.mode;
  rc.latch_sites = config.latch_sites;
  rc.site_stats = config.site_stats;
  // 2 GiB of address space per pool; pages are populated on demand.
  rc.allocator.trusted_pool_bytes = size_t{2} << 30;
  rc.allocator.untrusted_pool_bytes = size_t{2} << 30;
  if (config.mode == RuntimeMode::kEnforcing && config.sampled_profiling) {
    // Sampling candidates = the static points-to envelope minus what the
    // profile already promoted: sites that MAY flow to U but were not
    // observed doing so yet. Those fault-and-record instead of fault-and-die.
    analysis::PointsToAnalysis points_to(&system->module_);
    PS_RETURN_IF_ERROR(points_to.Run());
    for (const AllocId id : points_to.SharedSites()) {
      if (!config.profile.Contains(id)) {
        rc.sampling_candidates.insert(id);
      }
    }
    rc.sampled_profiling = true;
    rc.sampling = config.sampling;
  }
  // Defence in depth: even if an alloc instruction escaped rewriting, the
  // runtime's site policy redirects it.
  rc.policy = SitePolicy::FromProfile(config.profile);
  PS_ASSIGN_OR_RETURN(system->runtime_, PkruSafeRuntime::Create(std::move(rc)));

  system->interpreter_ =
      std::make_unique<Interpreter>(&system->module_, system->runtime_.get(), std::move(externs));
  return system;
}

Result<int64_t> System::Call(const std::string& function, const std::vector<int64_t>& args) {
  return interpreter_->Call(function, args);
}

std::string System::DumpIr() const { return PrintModule(module_); }

}  // namespace pkrusafe
