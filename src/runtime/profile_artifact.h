// Provenance-checked profile artifacts: the only profile file format.
//
// Every tool that writes a profile writes one of these (`pkrusafe_run
// --emit-profile`, `profile_tool merge`, `profile_tool aggregate --out`,
// `profile_tool serve --artifact`), and every tool that reads one verifies
// it. An artifact carries the profile together with the provenance that
// produced it — which epochs contributed, how much each one saw, and the
// content hash of the instrumented IR every site id was recorded against.
// `System::Create` verifies the artifact at load: an IR hash mismatch is a
// hard error (the profile's site ids mean nothing against different IR), a
// stale epoch is a warning (the profile still applies, but the fleet has
// moved on), and a checksum failure rejects the file outright.
//
// The format is line-oriented text, so artifacts diff and review like code:
//
//   # pkru-safe profile artifact v1
//   ir_hash 0x<16 hex digits>
//   epoch <name> <sites> <count>     one per contributing epoch, in
//                                    aggregation (first-seen) order
//   promoted <f>:<b>:<s> <count>     sites the aggregator had promoted, with
//                                    their rolling count at snapshot time —
//                                    present only in aggregator snapshots
//                                    (`aggregate --out`, `serve --artifact`),
//                                    sorted; lets a restarted `profile_tool
//                                    serve` resume without re-promoting
//   site <f>:<b>:<s> <count>         the rolling profile, sorted
//   crc32 0x<8 hex digits>           CRC-32 of every preceding byte
#ifndef SRC_RUNTIME_PROFILE_ARTIFACT_H_
#define SRC_RUNTIME_PROFILE_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/profile.h"
#include "src/support/status.h"

namespace pkrusafe {

struct ProfileArtifact {
  struct EpochProvenance {
    std::string name;
    uint64_t sites = 0;  // distinct sites this epoch observed
    uint64_t count = 0;  // total observations this epoch contributed
  };

  // ModuleContentHash of the instrumented, profile-free module (after
  // AllocIdPass + GateInsertionPass, before ProfileApplyPass) the streams
  // were recorded against.
  uint64_t ir_hash = 0;
  // Contributing epochs in aggregation (first-seen) order; the last entry is
  // the newest.
  std::vector<EpochProvenance> epochs;
  // Sites already promoted when the snapshot was taken, with their rolling
  // counts, sorted by site. Empty outside aggregator snapshots; the line is
  // omitted when empty, so artifacts without promotion state stay
  // byte-identical to the pre-field format.
  std::vector<std::pair<AllocId, uint64_t>> promoted;
  Profile profile;

  // The newest contributing epoch's name, or "" when no epoch contributed.
  const std::string& NewestEpoch() const;

  // Folds `other` in: its epochs append after ours and site counts add
  // (saturating); promoted lines are not carried over. Refuses an artifact
  // recorded against a different ir_hash — its site ids name other sites.
  Status MergeFrom(const ProfileArtifact& other);

  // Serializes including the trailing crc32 line.
  std::string Serialize() const;
  // Rejects checksum mismatches, malformed lines, unsorted/duplicate sites
  // and truncation (a missing crc32 line is truncation).
  static Result<ProfileArtifact> Deserialize(std::string_view text);

  Status SaveToFile(const std::string& path) const;
  static Result<ProfileArtifact> LoadFromFile(const std::string& path);
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_PROFILE_ARTIFACT_H_
