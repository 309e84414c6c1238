// Allocation-site policy: which pool each trusted allocation site uses.
//
// This is the output of the paper's feedback step: sites present in the
// profile were observed flowing into U, so the enforcement build serves them
// from M_U; everything else stays in M_T (§4.3.1 — "If the profiling corpus
// does not record an allocation being used by U ... it will reside in M_T").
// A policy only configures a runtime: PkruSafeRuntime::Create marks these
// sites shared (and baseline) in its per-site records, where online
// promotion and demotion change them later.
#ifndef SRC_RUNTIME_SITE_POLICY_H_
#define SRC_RUNTIME_SITE_POLICY_H_

#include <vector>

#include "src/runtime/alloc_id.h"
#include "src/runtime/profile.h"

namespace pkrusafe {

class SitePolicy {
 public:
  SitePolicy() = default;

  static SitePolicy FromProfile(const Profile& profile) {
    SitePolicy policy;
    policy.shared_sites_ = profile.Sites();
    return policy;
  }

  // Shared sites in deterministic (sorted) order.
  const std::vector<AllocId>& SharedSites() const { return shared_sites_; }

 private:
  std::vector<AllocId> shared_sites_;
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_SITE_POLICY_H_
