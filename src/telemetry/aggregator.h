// Incremental profile aggregation service.
//
// The fleet-scale loop: processes running with always-on sampled profiling
// flush ProfileDelta JSONL streams next to their metrics; this aggregator
// tails any number of those streams, folds validated deltas into a versioned
// rolling profile with per-epoch provenance, and emits promotion candidates —
// sites whose observed share count crossed the threshold in enough distinct
// epochs. Every candidate is cross-checked against the static points-to bound
// BEFORE it is emitted: a poisoned or stale stream can therefore never widen
// sharing beyond what the analysis proved may flow to U. Rejections surface
// both as the aggregator.promotions.rejected_static counter and as a
// "promotion-outside-static" lint diagnostic.
//
// Deltas are rejected (never partially applied) when:
//   * the line is not a well-formed delta record        (rejected_malformed)
//   * the IR content hash does not match the module's   (rejected_hash,
//     plus a "stale-profile-hash" diagnostic)
//   * the per-stream sequence number did not increase   (rejected_sequence —
//     a replayed or rewritten stream)
//
// Driven by `profile_tool aggregate`, either one-shot (drain what exists) or
// follow mode (poll in a loop). The class itself is poll-based and owns no
// thread.
#ifndef SRC_TELEMETRY_AGGREGATOR_H_
#define SRC_TELEMETRY_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/ir/module.h"
#include "src/runtime/alloc_id.h"
#include "src/runtime/profile.h"
#include "src/runtime/profile_artifact.h"
#include "src/runtime/profile_delta.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace telemetry {

struct AggregatorOptions {
  // A site becomes a promotion candidate once its rolling count reaches this.
  uint64_t promotion_threshold = 1;
  // ... and at least this many distinct epochs observed it (guards against a
  // single bad build's stream promoting alone when set > 1).
  size_t min_epochs = 1;
  // The static safety bound: sites the points-to analysis proved may flow to
  // U (analysis::PointsToAnalysis::SharedSites()). Promotions outside
  // this set are rejected. An EMPTY set rejects every promotion — the caller
  // must supply the bound; there is no unchecked mode.
  std::unordered_set<AllocId, AllocIdHasher> static_shared;
  // Module the streams must have been recorded against. When set, every
  // delta's IR hash is checked against ModuleContentHash(*module) and the
  // stale-profile-hash lint fires on mismatch. `module` must outlive the
  // aggregator.
  const IrModule* module = nullptr;
  // Explicit expected hash for when no parsed module is at hand (tests,
  // replay tooling). Ignored when `module` is set; 0 disables the check.
  uint64_t expected_ir_hash = 0;
  // Two-way lifecycle: when > 0, a promoted site that no epoch has observed
  // for this many consecutive epochs (epochs are ordered by first
  // appearance across all streams) is emitted as a demotion candidate.
  // 0 disables demotion entirely.
  size_t demote_cold_epochs = 0;
  // Sites of the baseline profile the fleet's builds were partitioned with.
  // Never demoted: a cold streak must not contradict the loaded profile
  // (the fleet may simply not have exercised the path this window).
  std::unordered_set<AllocId, AllocIdHasher> baseline;
};

// A site whose rolling count crossed the threshold and passed the static
// cross-check. Emitted exactly once per site.
struct PromotionCandidate {
  AllocId site;
  uint64_t count = 0;     // rolling count at emission
  size_t epochs = 0;      // distinct epochs that observed the site
};

// A previously-promoted site gone cold: no epoch has observed it for
// `cold_epochs` consecutive epochs. The site may re-promote later, but only
// after ANOTHER `promotion_threshold` observations on top of the count it
// was demoted at (a hysteresis floor, so a site oscillating around the
// threshold does not flap).
struct DemotionCandidate {
  AllocId site;
  size_t cold_epochs = 0;  // epochs since the site was last observed
};

class ProfileAggregator {
 public:
  struct Stats {
    uint64_t deltas_applied = 0;
    uint64_t rejected_hash = 0;
    uint64_t rejected_malformed = 0;
    uint64_t rejected_sequence = 0;
    uint64_t promotions_emitted = 0;
    uint64_t promotions_rejected_static = 0;
    uint64_t demotions_emitted = 0;
    uint64_t demotions_suppressed_baseline = 0;
  };

  explicit ProfileAggregator(AggregatorOptions options);

  // Registers a JSONL delta stream to tail. The file need not exist yet.
  void AddStream(std::string path);

  // Drains every registered stream to its current end, applying complete
  // lines (a partially-written trailing line is left for the next poll).
  // Newly-crossed, statically-valid promotion candidates are appended to
  // `promotions` (may be null), and — when demotion is enabled — newly-cold
  // sites to `demotions`. Returns the number of deltas applied.
  Result<size_t> Poll(std::vector<PromotionCandidate>* promotions,
                      std::vector<DemotionCandidate>* demotions = nullptr);

  // Feeds one PSD1-encoded delta (a kProfileDelta frame payload) from a
  // named network stream. Validation is identical to file tailing —
  // malformed, hash, sequence, then the static cross-check on promotion —
  // with `stream_name` (e.g. "tcp:<client-id>") standing in for the file
  // path in diagnostics. Returns true when the delta was applied.
  bool ConsumeNetworkDelta(const std::string& stream_name, std::string_view psd1_bytes,
                           std::vector<PromotionCandidate>* promotions);

  // Runs the cold-site sweep immediately (Poll does this itself; the serve
  // loop calls it after consuming network frames). Appends newly-cold sites
  // to `demotions` (may be null). No-op unless demote_cold_epochs > 0.
  void CollectDemotions(std::vector<DemotionCandidate>* demotions);

  // The rolling merged profile across all streams and epochs.
  const Profile& rolling() const { return rolling_; }
  // Bumped every time a delta is applied; lets consumers cheaply detect "has
  // anything changed since I last looked".
  uint64_t version() const { return version_; }

  // Per-epoch provenance: which epochs have contributed, and what each one
  // contributed on its own. Names come back in first-seen (aggregation)
  // order; the last entry is the newest epoch.
  std::vector<std::string> EpochNames() const;
  const Profile* EpochProfile(const std::string& epoch) const;

  // Freezes the aggregator's state as a provenance-checked artifact: the
  // rolling profile, per-epoch provenance (with any restored provenance
  // folded in — counts add, distinct-site counts take the max), and the
  // live promoted set with each site's rolling count. A snapshot written
  // periodically makes the fleet history survive a serve restart.
  ProfileArtifact ExportArtifact(uint64_t ir_hash) const;

  // Seeds a fresh aggregator from an ExportArtifact snapshot: merges the
  // profile into the rolling profile, recreates the epoch ordinals in
  // provenance order, and re-arms the promoted set — restored promotions
  // are NOT re-emitted as candidates, and their cold-streak clock restarts
  // at the snapshot's newest epoch. Refuses when the artifact's ir_hash
  // contradicts the aggregator's expected hash (both nonzero) and must run
  // before any delta is consumed.
  Status RestoreFromArtifact(const ProfileArtifact& artifact);

  const Stats& stats() const { return stats_; }
  // Validation failures and rejected promotions, as lint-style findings.
  const analysis::DiagnosticSink& diagnostics() const { return sink_; }

 private:
  struct StreamState {
    std::string path;
    uint64_t offset = 0;                   // bytes of the file already consumed
    std::optional<uint64_t> last_sequence; // last accepted seq on this stream
  };

  // Validates and applies one line from `stream`. Returns true when a delta
  // was applied.
  bool ConsumeLine(StreamState& stream, std::string_view line,
                   std::vector<PromotionCandidate>* promotions);
  // The shared validate-and-fold tail of ConsumeLine / ConsumeNetworkDelta:
  // hash check, sequence check, apply, promotion sweep.
  bool ConsumeDelta(StreamState& stream, const ProfileDelta& delta,
                    std::vector<PromotionCandidate>* promotions);
  void MaybePromote(AllocId site, std::vector<PromotionCandidate>* promotions);
  void ReportMalformed(const std::string& origin, const Status& status);

  const AggregatorOptions options_;
  const uint64_t expected_hash_;  // 0 = unchecked
  std::vector<StreamState> streams_;
  std::map<std::string, StreamState> net_streams_;  // name -> per-connection state

  Profile rolling_;
  uint64_t version_ = 0;
  std::map<std::string, Profile> epochs_;                  // epoch -> contribution
  std::map<AllocId, std::set<std::string>> site_epochs_;   // site -> epochs seen in
  std::set<AllocId> promoted_;   // live promotions (demotion removes)
  std::set<AllocId> rejected_;   // statically-rejected sites (diagnosed once)
  // Cold-site tracking: epochs get ordinals in first-seen order; a site is
  // cold when the newest ordinal has moved demote_cold_epochs past the last
  // ordinal that observed it.
  std::map<std::string, size_t> epoch_ordinal_;
  std::map<AllocId, size_t> site_last_ordinal_;
  // Re-promotion hysteresis: rolling count at demotion time; re-promotion
  // requires threshold MORE observations on top of this floor.
  std::map<AllocId, uint64_t> demoted_floor_;
  // Baseline sites that went cold (suppression counted once per site).
  std::set<AllocId> baseline_suppressed_;
  // Provenance carried over from a restored snapshot: epochs_ only holds
  // live contributions, so exports fold these back in by name.
  std::map<std::string, ProfileArtifact::EpochProvenance> restored_epochs_;

  Stats stats_;
  analysis::DiagnosticSink sink_;
};

}  // namespace telemetry
}  // namespace pkrusafe

#endif  // SRC_TELEMETRY_AGGREGATOR_H_
