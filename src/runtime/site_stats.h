// Per-allocation-site heap attribution: its one row type and its dump format.
//
// Answers "which allocation sites hold how much memory, in which domain" —
// the table profile_tool prints as "sites that would move to M_U". The
// paper's evaluation argues about exactly this: what fraction of the heap
// actually needs to be shared.
//
// The rows come from PkruSafeRuntime::SiteHeapTotals (switched on by
// RuntimeConfig::site_stats): cumulative traffic from each site's record,
// live blocks from one walk of the allocator's site tags. This module only
// ranks, writes and reads them.
#ifndef SRC_RUNTIME_SITE_STATS_H_
#define SRC_RUNTIME_SITE_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/alloc_id.h"
#include "src/support/status.h"

namespace pkrusafe {

struct SiteTotals {
  // Index into the per-domain arrays below (the values of Domain).
  static constexpr int kTrusted = 0;    // M_T
  static constexpr int kUntrusted = 1;  // M_U

  AllocId site;
  int64_t live_bytes[2] = {0, 0};
  int64_t live_objects[2] = {0, 0};
  uint64_t total_bytes[2] = {0, 0};
  uint64_t total_objects[2] = {0, 0};
};

// The `k` sites with the largest live bytes in `domain`, ties kept in the
// order of `sites`. Used for the "top sites" tables.
std::vector<SiteTotals> TopKByLiveBytes(std::vector<SiteTotals> sites, size_t k, int domain);

// Renders site totals as one JSON object the tools read back
// (`profile_tool sites`):
//   {"kind":"pkru_safe_site_stats","version":1,"sites":[
//     {"id":"f:b:s",
//      "trusted":{"live_bytes":N,"live_objects":N,
//                 "total_bytes":N,"total_objects":N},
//      "untrusted":{...}}]}
std::string SiteStatsToJson(const std::vector<SiteTotals>& sites);

// Reads a SiteStatsToJson dump back; a missing domain object reads as zeros.
Result<std::vector<SiteTotals>> ParseSiteStatsJson(std::string_view text);

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_SITE_STATS_H_
