#include "src/telemetry/aggregator.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

#include "src/analysis/lint.h"
#include "src/ir/module_hash.h"
#include "src/support/json.h"
#include "src/support/string_util.h"
#include "src/telemetry/metrics.h"

namespace pkrusafe {
namespace telemetry {

namespace {

// Fleet-visible counters, shared by every aggregator instance (stats() has
// the per-instance values).
Counter* DeltasAppliedCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("aggregator.deltas.applied");
  return counter;
}

Counter* RejectedHashCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("aggregator.deltas.rejected_hash");
  return counter;
}

Counter* RejectedMalformedCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("aggregator.deltas.rejected_malformed");
  return counter;
}

Counter* RejectedSequenceCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("aggregator.deltas.rejected_sequence");
  return counter;
}

Counter* PromotionsEmittedCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("aggregator.promotions.emitted");
  return counter;
}

Counter* PromotionsRejectedStaticCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("aggregator.promotions.rejected_static");
  return counter;
}

Counter* DemotionsEmittedCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("aggregator.demotions.emitted");
  return counter;
}

Counter* DemotionsSuppressedBaselineCounter() {
  static Counter* counter = MetricsRegistry::Global().GetOrCreateCounter(
      "aggregator.demotions.suppressed_baseline");
  return counter;
}

}  // namespace

ProfileAggregator::ProfileAggregator(AggregatorOptions options)
    : options_(std::move(options)),
      expected_hash_(options_.module != nullptr ? ModuleContentHash(*options_.module)
                                                : options_.expected_ir_hash) {
  (void)DeltasAppliedCounter();
  (void)RejectedHashCounter();
  (void)RejectedMalformedCounter();
  (void)RejectedSequenceCounter();
  (void)PromotionsEmittedCounter();
  (void)PromotionsRejectedStaticCounter();
}

void ProfileAggregator::CollectDemotions(std::vector<DemotionCandidate>* demotions) {
  if (options_.demote_cold_epochs == 0 || epoch_ordinal_.empty()) {
    return;
  }
  const size_t newest = epoch_ordinal_.size() - 1;
  std::vector<std::pair<AllocId, size_t>> cold;  // (site, epochs cold)
  for (const AllocId site : promoted_) {
    const auto it = site_last_ordinal_.find(site);
    const size_t last = it == site_last_ordinal_.end() ? 0 : it->second;
    const size_t age = newest - last;
    if (age < options_.demote_cold_epochs) {
      continue;
    }
    if (options_.baseline.contains(site)) {
      // The loaded profile says this site flows to U; a cold streak in the
      // fleet window cannot override it. The site stays promoted (and stays
      // "cold" indefinitely); the suppression is counted once.
      if (baseline_suppressed_.insert(site).second) {
        ++stats_.demotions_suppressed_baseline;
        DemotionsSuppressedBaselineCounter()->Increment();
      }
      continue;
    }
    cold.emplace_back(site, age);
  }
  for (const auto& [site, age] : cold) {
    promoted_.erase(site);
    demoted_floor_[site] = rolling_.CountFor(site);
    ++stats_.demotions_emitted;
    DemotionsEmittedCounter()->Increment();
    if (demotions != nullptr) {
      demotions->push_back(DemotionCandidate{site, age});
    }
    analysis::Finding finding;
    finding.severity = analysis::Severity::kNote;
    finding.rule = "site-demoted-cold";
    finding.site = site;
    finding.message = StrFormat(
        "site %s demoted: no epoch observed it for %zu consecutive epochs",
        site.ToString().c_str(), age);
    finding.fix_hint = "the site returns to trap-on-touch; renewed activity re-promotes it "
                       "after another threshold's worth of observations";
    sink_.Report(std::move(finding));
  }
}

void ProfileAggregator::ReportMalformed(const std::string& origin, const Status& status) {
  ++stats_.rejected_malformed;
  RejectedMalformedCounter()->Increment();
  analysis::Finding finding;
  finding.severity = analysis::Severity::kWarning;
  finding.rule = "malformed-profile-delta";
  finding.message = StrFormat("%s: %s", origin.c_str(), status.ToString().c_str());
  finding.fix_hint = "the stream is corrupt or not a profile delta stream; drop it from "
                     "the aggregation set";
  sink_.Report(std::move(finding));
}

bool ProfileAggregator::ConsumeDelta(const std::string& stream_name,
                                     std::string_view psd1_bytes,
                                     std::vector<PromotionCandidate>* promotions) {
  Result<ProfileDelta> decoded = ProfileDelta::DecodeBinary(psd1_bytes);
  if (!decoded.ok()) {
    ReportMalformed(stream_name, decoded.status());
    return false;
  }
  const ProfileDelta& delta = *decoded;
  if (expected_hash_ != 0 && delta.ir_hash() != expected_hash_) {
    ++stats_.rejected_hash;
    RejectedHashCounter()->Increment();
    if (options_.module != nullptr) {
      analysis::LintProfileDeltaIrHash(*options_.module, delta.ir_hash(), stream_name, sink_);
    } else {
      analysis::Finding finding;
      finding.severity = analysis::Severity::kError;
      finding.rule = "stale-profile-hash";
      finding.message = StrFormat(
          "%s: delta recorded against IR hash 0x%016llx, expected 0x%016llx",
          stream_name.c_str(), static_cast<unsigned long long>(delta.ir_hash()),
          static_cast<unsigned long long>(expected_hash_));
      finding.fix_hint = "the stream comes from a different build; aggregate it against the "
                         "module it was recorded on";
      sink_.Report(std::move(finding));
    }
    return false;
  }

  const auto [last, first] = last_sequence_.try_emplace(stream_name, delta.sequence());
  if (!first) {
    if (delta.sequence() <= last->second) {
      ++stats_.rejected_sequence;
      RejectedSequenceCounter()->Increment();
      analysis::Finding finding;
      finding.severity = analysis::Severity::kWarning;
      finding.rule = "replayed-profile-delta";
      finding.message = StrFormat(
          "%s: sequence %llu after %llu — replayed or rewritten stream", stream_name.c_str(),
          static_cast<unsigned long long>(delta.sequence()),
          static_cast<unsigned long long>(last->second));
      finding.fix_hint = "each stream must carry strictly increasing sequence numbers; "
                         "give every producer its own --profile-stream file";
      sink_.Report(std::move(finding));
      return false;
    }
    last->second = delta.sequence();
  }

  delta.ApplyTo(&rolling_);
  delta.ApplyTo(&epochs_[delta.epoch()]);
  const size_t ordinal =
      epoch_ordinal_.try_emplace(delta.epoch(), epoch_ordinal_.size()).first->second;
  for (const auto& [site, count] : delta.entries()) {
    site_epochs_[site].insert(delta.epoch());
    auto [last_it, fresh] = site_last_ordinal_.try_emplace(site, ordinal);
    if (!fresh && ordinal > last_it->second) {
      last_it->second = ordinal;
    }
    MaybePromote(site, promotions);
  }
  ++stats_.deltas_applied;
  DeltasAppliedCounter()->Increment();
  ++version_;
  return true;
}

void ProfileAggregator::MaybePromote(AllocId site,
                                     std::vector<PromotionCandidate>* promotions) {
  if (promoted_.contains(site) || rejected_.contains(site)) {
    return;
  }
  const uint64_t count = rolling_.CountFor(site);
  const size_t epochs = site_epochs_[site].size();
  // A demoted site must earn a full threshold of NEW observations on top of
  // the count it was demoted at — otherwise its (already-over-threshold)
  // rolling count would re-promote it on the very next delta.
  const auto floor_it = demoted_floor_.find(site);
  const uint64_t threshold = floor_it == demoted_floor_.end()
                                 ? options_.promotion_threshold
                                 : floor_it->second + options_.promotion_threshold;
  if (count < threshold || epochs < options_.min_epochs) {
    return;
  }
  // The static cross-check: dynamic observations may only ever CONFIRM what
  // the points-to analysis already allows (dynamic ⊆ static). A site outside
  // the bound means a poisoned stream, a stale profile, or an analysis bug —
  // never a promotion.
  if (!options_.static_shared.contains(site)) {
    rejected_.insert(site);
    ++stats_.promotions_rejected_static;
    PromotionsRejectedStaticCounter()->Increment();
    analysis::Finding finding;
    finding.severity = analysis::Severity::kError;
    finding.rule = "promotion-outside-static";
    finding.site = site;
    finding.message = StrFormat(
        "site %s crossed the promotion threshold (count %llu over %zu epochs) but is "
        "outside the static points-to bound; refusing to widen sharing",
        site.ToString().c_str(), static_cast<unsigned long long>(count), epochs);
    finding.fix_hint = "audit the contributing streams for poisoning, and the analysis for "
                       "missed flows; promotion requires the static analyzer to agree";
    sink_.Report(std::move(finding));
    return;
  }
  promoted_.insert(site);
  ++stats_.promotions_emitted;
  PromotionsEmittedCounter()->Increment();
  if (promotions != nullptr) {
    promotions->push_back(PromotionCandidate{site, count, epochs});
  }
}

ProfileArtifact ProfileAggregator::ExportArtifact(uint64_t ir_hash) const {
  ProfileArtifact artifact;
  artifact.ir_hash = ir_hash;
  for (const std::string& name : EpochNames()) {
    ProfileArtifact::EpochProvenance epoch;
    epoch.name = name;
    if (const Profile* contribution = EpochProfile(name)) {
      epoch.sites = contribution->site_count();
      epoch.count = contribution->TotalCount();
    }
    const auto restored = restored_epochs_.find(name);
    if (restored != restored_epochs_.end()) {
      // The epoch also contributed before the restart. Observation counts
      // add; distinct-site counts cannot (the overlap is unknown), so take
      // the larger as the floor.
      epoch.sites = std::max(epoch.sites, restored->second.sites);
      epoch.count += restored->second.count;
    }
    artifact.epochs.push_back(std::move(epoch));
  }
  for (const AllocId site : promoted_) {
    // promoted_ iterates sorted, matching the artifact's strict site order.
    artifact.promoted.emplace_back(site, rolling_.CountFor(site));
  }
  artifact.profile = rolling_;
  return artifact;
}

Status ProfileAggregator::RestoreFromArtifact(const ProfileArtifact& artifact) {
  if (version_ != 0 || !epoch_ordinal_.empty()) {
    return FailedPreconditionError(
        "RestoreFromArtifact must run before any delta is consumed");
  }
  if (expected_hash_ != 0 && artifact.ir_hash != 0 && artifact.ir_hash != expected_hash_) {
    return InvalidArgumentError(StrFormat(
        "artifact recorded against IR hash 0x%016llx, aggregator expects 0x%016llx — "
        "the snapshot comes from a different build",
        static_cast<unsigned long long>(artifact.ir_hash),
        static_cast<unsigned long long>(expected_hash_)));
  }
  for (const ProfileArtifact::EpochProvenance& epoch : artifact.epochs) {
    epoch_ordinal_.try_emplace(epoch.name, epoch_ordinal_.size());
    restored_epochs_[epoch.name] = epoch;
  }
  for (const AllocId& site : artifact.profile.Sites()) {
    PS_RETURN_IF_ERROR(rolling_.AddChecked(site, artifact.profile.CountFor(site)));
  }
  const size_t newest = epoch_ordinal_.empty() ? 0 : epoch_ordinal_.size() - 1;
  for (const auto& [site, count] : artifact.promoted) {
    (void)count;  // recorded for review; the rolling profile carries the state
    promoted_.insert(site);
    // Restart the cold-streak clock at the snapshot's newest epoch: a
    // restart must not read as "this site has been cold the whole time".
    site_last_ordinal_[site] = newest;
  }
  ++version_;
  return Status::Ok();
}

std::vector<std::string> ProfileAggregator::EpochNames() const {
  // First-seen (aggregation) order, so the last name is the newest epoch —
  // the order artifacts record provenance in.
  std::vector<std::string> names(epoch_ordinal_.size());
  for (const auto& [name, ordinal] : epoch_ordinal_) {
    names[ordinal] = name;
  }
  return names;
}

const Profile* ProfileAggregator::EpochProfile(const std::string& epoch) const {
  auto it = epochs_.find(epoch);
  return it == epochs_.end() ? nullptr : &it->second;
}

void FrameIngest::AddFile(const std::string& path) {
  for (const FileSource& file : files_) {
    if (file.path == path) {
      return;
    }
  }
  files_.push_back(FileSource{path, 0, FrameDecoder()});
}

size_t FrameIngest::PollFiles(std::vector<PromotionCandidate>* promotions) {
  size_t handled = 0;
  for (FileSource& file : files_) {
    const int fd = ::open(file.path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      continue;  // not written yet: a source may be registered ahead of its producer
    }
    char buffer[64 * 1024];
    for (;;) {
      const ssize_t n = ::pread(fd, buffer, sizeof(buffer), static_cast<off_t>(file.offset));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        break;
      }
      file.offset += static_cast<uint64_t>(n);
      file.decoder.Feed(std::string_view(buffer, static_cast<size_t>(n)));
      while (auto frame = file.decoder.Next()) {
        Handle(file.path, std::move(*frame), promotions);
        ++handled;
      }
    }
    ::close(fd);
  }
  return handled;
}

void FrameIngest::Handle(const std::string& source, Frame&& frame,
                         std::vector<PromotionCandidate>* promotions) {
  ++stats_.frames;
  const auto named = names_.find(source);
  const std::string& name = named == names_.end() ? source : named->second;
  switch (frame.type) {
    case FrameType::kHello: {
      auto hello = json::Parse(frame.payload);
      if (hello.ok() && hello->is_object() && hello->GetString("kind") == "pkru_safe_hello") {
        const std::string stream = hello->GetString("stream");
        if (!stream.empty()) {
          names_[source] = stream;
        }
      }
      break;
    }
    case FrameType::kProfileDelta:
      streams_.insert(name);
      aggregator_->ConsumeDelta(name, frame.payload, promotions);
      break;
    case FrameType::kSamplerRow:
      ++stats_.sampler_rows;
      break;
    case FrameType::kPolicyUpdate:
      break;  // server-to-client only; a client echoing it is ignored
  }
}

void FrameIngest::Close(const std::string& source, bool mid_frame) {
  names_.erase(source);
  if (mid_frame) {
    ++stats_.torn;
  }
}

FrameIngest::Stats FrameIngest::stats() const {
  Stats stats = stats_;
  for (const FileSource& file : files_) {
    stats.torn += file.decoder.mid_frame() ? 1 : 0;
  }
  return stats;
}

FrameDecoder::Stats FrameIngest::file_decoder_stats() const {
  FrameDecoder::Stats total;
  for (const FileSource& file : files_) {
    total += file.decoder.stats();
  }
  return total;
}

}  // namespace telemetry
}  // namespace pkrusafe
