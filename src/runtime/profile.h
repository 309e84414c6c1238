// The sharing profile: the set of trusted allocation sites observed crossing
// the compartment boundary, with fault counts.
//
// Produced by profiling runs, consumed by the enforcement build (the
// ProfileApplyPass rewrites exactly these sites to allocate from M_U). This
// is the in-memory map only; on disk a profile is always a ProfileArtifact
// (src/runtime/profile_artifact.h), which adds the IR hash the site ids were
// recorded against, per-epoch provenance and a checksum.
#ifndef SRC_RUNTIME_PROFILE_H_
#define SRC_RUNTIME_PROFILE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/alloc_id.h"
#include "src/support/status.h"

namespace pkrusafe {

class Profile {
 public:
  Profile() = default;

  void Add(AllocId id, uint64_t count = 1) { counts_[id] += count; }

  // Like Add, but fails instead of wrapping when the merged count would
  // overflow uint64_t. Used by the artifact parser, which is fed untrusted
  // input.
  Status AddChecked(AllocId id, uint64_t count);

  bool Contains(AllocId id) const { return counts_.contains(id); }
  uint64_t CountFor(AllocId id) const {
    auto it = counts_.find(id);
    return it == counts_.end() ? 0 : it->second;
  }
  size_t site_count() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  // Sites in deterministic (sorted) order.
  std::vector<AllocId> Sites() const;
  // Sum of every site's count, saturating at UINT64_MAX.
  uint64_t TotalCount() const;

  // Folds `other` into this profile (per-site counts add, saturating).
  void Merge(const Profile& other);

 private:
  std::unordered_map<AllocId, uint64_t, AllocIdHasher> counts_;
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_PROFILE_H_
