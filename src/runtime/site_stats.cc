#include "src/runtime/site_stats.h"

#include <algorithm>

#include "src/support/json.h"

namespace pkrusafe {

namespace {

constexpr const char* kDomainNames[2] = {"trusted", "untrusted"};

}  // namespace

std::vector<SiteTotals> TopKByLiveBytes(std::vector<SiteTotals> sites, size_t k, int domain) {
  std::stable_sort(sites.begin(), sites.end(),
                   [domain](const SiteTotals& lhs, const SiteTotals& rhs) {
                     return lhs.live_bytes[domain] > rhs.live_bytes[domain];
                   });
  if (sites.size() > k) {
    sites.resize(k);
  }
  return sites;
}

std::string SiteStatsToJson(const std::vector<SiteTotals>& sites) {
  std::string out;
  json::Writer w(&out);
  w.BeginObject().Key("kind").String("pkru_safe_site_stats").Key("version").Int(1);
  w.Key("sites").BeginArray();
  for (const SiteTotals& totals : sites) {
    w.BeginObject().Key("id").String(totals.site.ToString());
    for (int d = 0; d < 2; ++d) {
      w.Key(kDomainNames[d]).BeginObject();
      w.Key("live_bytes").Int(totals.live_bytes[d]).Key("live_objects").Int(totals.live_objects[d]);
      w.Key("total_bytes").Uint(totals.total_bytes[d]);
      w.Key("total_objects").Uint(totals.total_objects[d]).EndObject();
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

Result<std::vector<SiteTotals>> ParseSiteStatsJson(std::string_view text) {
  PS_ASSIGN_OR_RETURN(json::Value root, json::Parse(text));
  if (!root.is_object() || root.GetString("kind") != "pkru_safe_site_stats") {
    return InvalidArgumentError("not a pkru_safe_site_stats dump");
  }
  const json::Value* sites = root.Find("sites");
  if (sites == nullptr || !sites->is_array()) {
    return InvalidArgumentError("site stats dump has no sites array");
  }
  std::vector<SiteTotals> rows;
  rows.reserve(sites->AsArray().size());
  for (const json::Value& entry : sites->AsArray()) {
    SiteTotals row;
    PS_ASSIGN_OR_RETURN(row.site, AllocId::Parse(entry.GetString("id")));
    for (int d = 0; d < 2; ++d) {
      const json::Value* domain = entry.Find(kDomainNames[d]);
      if (domain == nullptr) {
        continue;
      }
      row.live_bytes[d] = domain->GetInt("live_bytes");
      row.live_objects[d] = domain->GetInt("live_objects");
      row.total_bytes[d] = domain->GetUint("total_bytes");
      row.total_objects[d] = domain->GetUint("total_objects");
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace pkrusafe
