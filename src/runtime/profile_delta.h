// Delta-encoded, IR-versioned profile streams.
//
// A continuously-profiling process does not re-ship its whole profile every
// sampler tick; it ships the change since the last flush. A ProfileDelta is
// that change: the set of sites whose counts grew, encoded as varint site-id
// deltas (sites are sorted, so function ids are ascending and encode small)
// plus varint count diffs, stamped with
//
//   * an epoch name — which baseline profile the stream diffs against (the
//     deploy/build identifier); aggregators keep per-epoch provenance;
//   * the IR content hash (ModuleContentHash) of the module the process is
//     running — a delta recorded against different IR must never merge, since
//     site ids are only meaningful relative to their module text;
//   * a per-stream sequence number, so the aggregator can detect gaps and
//     replays when tailing a stream.
//
// Wire format (EncodeBinary):
//
//   "PSD1"                      magic
//   u64-le ir_hash
//   u8     epoch length, epoch bytes
//   varint sequence
//   varint entry count
//   per entry (sites strictly ascending):
//     varint function-id delta from previous entry (first: absolute)
//     varint block id
//     varint site id
//     varint count              (>= 1)
//
// Entries with equal function ids must have strictly ascending (block, site);
// Decode rejects violations, truncation, and zero counts. The JSONL framing
// (ToJsonLine) wraps the binary payload in hex with the header fields
// duplicated for grep-ability; FromJsonLine cross-checks them against the
// payload.
#ifndef SRC_RUNTIME_PROFILE_DELTA_H_
#define SRC_RUNTIME_PROFILE_DELTA_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/alloc_id.h"
#include "src/runtime/profile.h"
#include "src/support/status.h"
#include "src/telemetry/stream_net.h"

namespace pkrusafe {

class ProfileDelta {
 public:
  ProfileDelta() = default;
  ProfileDelta(std::string epoch, uint64_t ir_hash, uint64_t sequence)
      : epoch_(std::move(epoch)), ir_hash_(ir_hash), sequence_(sequence) {}

  // The growth from `base` to `current`: every site whose count in `current`
  // exceeds its count in `base` (new sites included). Sites that shrank or
  // vanished are ignored — fault counts only grow within an epoch.
  static ProfileDelta Between(const Profile& base, const Profile& current,
                              std::string epoch, uint64_t ir_hash,
                              uint64_t sequence);

  // Adds a site's count growth. Counts of zero are dropped (a delta only
  // carries growth).
  void Add(AllocId id, uint64_t count);

  // Folds this delta into `profile`, saturating like Profile::Merge.
  void ApplyTo(Profile* profile) const;

  const std::string& epoch() const { return epoch_; }
  uint64_t ir_hash() const { return ir_hash_; }
  uint64_t sequence() const { return sequence_; }
  size_t site_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  // Sorted by AllocId.
  const std::vector<std::pair<AllocId, uint64_t>>& entries() const {
    return entries_;
  }

  std::string EncodeBinary() const;
  static Result<ProfileDelta> DecodeBinary(std::string_view bytes);

  // One JSONL record:
  //   {"kind":"pkru_safe_profile_delta","v":1,"epoch":"...",
  //    "ir_hash":"0x...","seq":N,"sites":N,"payload":"<hex>"}
  std::string ToJsonLine() const;
  static Result<ProfileDelta> FromJsonLine(std::string_view line);

 private:
  std::string epoch_;
  uint64_t ir_hash_ = 0;
  uint64_t sequence_ = 0;
  // Sorted by AllocId; counts always >= 1.
  std::vector<std::pair<AllocId, uint64_t>> entries_;
};

// Flushes the growth of a live profile to a JSONL stream, one delta per
// flush. The sampler calls Flush on its tick, so deltas land on disk at the
// same cadence as metrics rows. Thread-safe.
//
// Sinks (either or both):
//   * a file (`path`): accepted lines go through a bounded pending buffer,
//     so a short or failed write never leaves a torn JSONL line in the file
//     — the unwritten tail is retried on the next flush, and when the
//     buffer overflows, whole not-yet-started lines drop from the front
//     (the aggregator tolerates sequence gaps; it rejects rewrites).
//   * a TCP endpoint (`net_host`/`net_port`): each delta is framed as a
//     kProfileDelta PSD1 frame over the fleet stream protocol
//     (telemetry::NetSink — non-blocking, bounded, reconnecting).
class ProfileStreamWriter {
 public:
  struct Options {
    std::string path;   // file sink; "" = none
    // Adopt an already-open descriptor as the file sink instead of opening
    // `path` (ownership transfers; Close closes it). Lets tests drive the
    // short-write/EAGAIN paths with a non-blocking pipe.
    int adopt_fd = -1;
    std::string epoch;
    uint64_t ir_hash = 0;
    // Cap on buffered-but-unwritten file bytes before whole lines drop.
    size_t max_pending_bytes = 1u << 20;
    // Network sink; port 0 = none.
    std::string net_host = "127.0.0.1";
    uint16_t net_port = 0;
  };

  explicit ProfileStreamWriter(Options options);
  ~ProfileStreamWriter();

  // Creates/truncates the stream file and/or starts the network sink.
  Status Open();

  // Writes Between(last flushed, current) if non-empty. Callers pass the full
  // current profile (e.g. ProfileRecorder::TakeProfile()); the writer keeps
  // the previous snapshot to diff against.
  Status Flush(const Profile& current);

  // Switches the epoch stamped on subsequent deltas (a live deploy-epoch
  // roll; the delta baseline and sequence continue).
  void SetEpoch(std::string epoch);

  void Close();

  uint64_t deltas_written() const { return deltas_written_; }
  // Whole lines dropped from the pending buffer (file sink backpressure).
  uint64_t lines_dropped() const { return lines_dropped_; }
  // Bytes accepted but not yet written to the file (0 = fully drained).
  size_t pending_bytes() const;
  // The network sink, or nullptr when none was configured. Callers use it to
  // pump reconnects and to receive policy-update frames.
  telemetry::NetSink* net_sink() { return net_sink_.get(); }

 private:
  // Appends pending_ to the file, tolerating EINTR/EAGAIN/short writes by
  // keeping the unwritten tail for the next call.
  Status DrainPendingLocked();

  const Options options_;
  mutable std::mutex mutex_;
  std::string epoch_;       // guarded by mutex_
  Profile last_;            // guarded by mutex_
  uint64_t next_sequence_ = 0;  // guarded by mutex_
  uint64_t deltas_written_ = 0;
  uint64_t lines_dropped_ = 0;
  int fd_ = -1;             // guarded by mutex_
  std::string pending_;     // accepted, unwritten file bytes; guarded by mutex_
  // True when a prefix of pending_'s first line is already in the file — that
  // line must never be dropped, or the file would keep a torn line.
  bool front_partially_written_ = false;
  std::unique_ptr<telemetry::NetSink> net_sink_;
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_PROFILE_DELTA_H_
