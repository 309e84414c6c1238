#include "src/runtime/profile.h"

#include <algorithm>

namespace pkrusafe {

Status Profile::AddChecked(AllocId id, uint64_t count) {
  uint64_t& existing = counts_[id];
  if (count > UINT64_MAX - existing) {
    return OutOfRangeError("profile count overflows uint64 for site " + id.ToString());
  }
  existing += count;
  return Status::Ok();
}

std::vector<AllocId> Profile::Sites() const {
  std::vector<AllocId> sites;
  sites.reserve(counts_.size());
  for (const auto& [id, count] : counts_) {
    sites.push_back(id);
  }
  std::sort(sites.begin(), sites.end());
  return sites;
}

uint64_t Profile::TotalCount() const {
  uint64_t total = 0;
  for (const auto& [id, count] : counts_) {
    total = count > UINT64_MAX - total ? UINT64_MAX : total + count;
  }
  return total;
}

void Profile::Merge(const Profile& other) {
  for (const auto& [id, count] : other.counts_) {
    uint64_t& existing = counts_[id];
    existing = count > UINT64_MAX - existing ? UINT64_MAX : existing + count;
  }
}

}  // namespace pkrusafe
