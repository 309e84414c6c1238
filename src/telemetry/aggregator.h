// Incremental profile aggregation service.
//
// The fleet-scale loop: processes running with always-on sampled profiling
// ship ProfileDelta PSF frames (src/telemetry/stream_net.h) to a frame-log
// file, a `profile_tool serve` socket, or both. This aggregator folds
// validated deltas from any number of streams into a versioned rolling
// profile with per-epoch provenance, and emits promotion candidates — sites
// whose observed share count crossed the threshold in enough distinct
// epochs. Every candidate is cross-checked against the static points-to
// bound BEFORE it is emitted: a poisoned or stale stream can therefore never
// widen sharing beyond what the analysis proved may flow to U. Rejections
// surface both as the aggregator.promotions.rejected_static counter and as a
// "promotion-outside-static" lint diagnostic.
//
// Deltas are rejected (never partially applied) when:
//   * the payload is not a well-formed PSD1 delta       (rejected_malformed)
//   * the IR content hash does not match the module's   (rejected_hash,
//     plus a "stale-profile-hash" diagnostic)
//   * the per-stream sequence number did not increase   (rejected_sequence —
//     a replayed or rewritten stream)
//
// FrameIngest feeds frames from frame-log files and socket connections into
// the aggregator; `profile_tool aggregate` (one drain of its files) and
// `profile_tool serve` (a poll loop over a socket and files) share it.
// Nothing here owns a thread.
#ifndef SRC_TELEMETRY_AGGREGATOR_H_
#define SRC_TELEMETRY_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/ir/module.h"
#include "src/runtime/alloc_id.h"
#include "src/runtime/profile.h"
#include "src/runtime/profile_artifact.h"
#include "src/runtime/profile_delta.h"
#include "src/support/status.h"
#include "src/telemetry/stream_net.h"

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

  // Validates and folds one PSD1-encoded delta (a kProfileDelta frame
  // payload) from the stream named `stream_name`: malformed, hash, sequence
  // (tracked per stream name), then the static cross-check on promotion.
  // Newly-crossed, statically-valid promotion candidates are appended to
  // `promotions` (may be null). Returns true when the delta was applied.
  bool ConsumeDelta(const std::string& stream_name, std::string_view psd1_bytes,
                    std::vector<PromotionCandidate>* promotions);

  // Runs the cold-site sweep (the ingest loop calls it after each round of
  // frames). Appends newly-cold sites to `demotions` (may be null). No-op
  // unless demote_cold_epochs > 0.
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
  void MaybePromote(AllocId site, std::vector<PromotionCandidate>* promotions);
  void ReportMalformed(const std::string& origin, const Status& status);

  const AggregatorOptions options_;
  const uint64_t expected_hash_;  // 0 = unchecked
  std::map<std::string, uint64_t> last_sequence_;  // stream name -> last accepted seq

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

// Routes PSF frames from their sources into a ProfileAggregator. A source is
// a frame-log file (its path) or a socket connection ("tcp:<id>"). A
// kHello's `stream` names its source's stream; without one the source's own
// name is the stream name. kProfileDelta frames go to ConsumeDelta under
// that name, kSamplerRow frames are counted, and kPolicyUpdate frames (the
// server's own direction) are ignored.
class FrameIngest {
 public:
  struct Stats {
    uint64_t frames = 0;        // frames handled, all sources
    uint64_t sampler_rows = 0;
    // Closed connections that ended in the middle of a frame, plus frame
    // logs that end in one now.
    uint64_t torn = 0;
  };

  // `aggregator` must outlive the ingest.
  explicit FrameIngest(ProfileAggregator* aggregator) : aggregator_(aggregator) {}

  // Registers a frame log to drain. It need not exist yet; a path given
  // twice is one source.
  void AddFile(const std::string& path);

  // Reads every frame log to its current end and handles its complete
  // frames. A torn trailing frame stays pending for the next call; a file
  // not written yet yields nothing. Returns the number of frames handled.
  size_t PollFiles(std::vector<PromotionCandidate>* promotions);

  // Handles one frame from `source`.
  void Handle(const std::string& source, Frame&& frame,
              std::vector<PromotionCandidate>* promotions);

  // The connection is gone; `mid_frame` reports a torn tail.
  void Close(const std::string& source, bool mid_frame);

  Stats stats() const;
  // Decoder counters (resync bytes, bad CRCs, ...) over every frame log.
  FrameDecoder::Stats file_decoder_stats() const;
  // Distinct stream names that delivered a delta.
  size_t stream_count() const { return streams_.size(); }

 private:
  struct FileSource {
    std::string path;
    uint64_t offset = 0;  // bytes of the file already fed to the decoder
    FrameDecoder decoder;
  };

  ProfileAggregator* const aggregator_;
  std::vector<FileSource> files_;
  std::map<std::string, std::string> names_;  // source -> hello's stream name
  std::set<std::string> streams_;
  Stats stats_;  // torn counts closed connections only
};

}  // namespace telemetry
}  // namespace pkrusafe

#endif  // SRC_TELEMETRY_AGGREGATOR_H_
