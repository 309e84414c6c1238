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
//     replays.
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
// Decode rejects violations, truncation, and zero counts. The payload
// travels in exactly one framing: a kProfileDelta PSF frame
// (src/telemetry/stream_net.h), whether in a file or on a socket.
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

 private:
  std::string epoch_;
  uint64_t ir_hash_ = 0;
  uint64_t sequence_ = 0;
  // Sorted by AllocId; counts always >= 1.
  std::vector<std::pair<AllocId, uint64_t>> entries_;
};

// Flushes the growth of a live profile as PSF frames, one kProfileDelta
// frame per flush. The sampler calls Flush on its tick, so deltas ship at
// the same cadence as metrics rows. Thread-safe.
//
// Sinks (either or both) get the same frames: a kHello frame naming the
// stream (its file path, if any) and epoch, then the deltas.
//   * a file (`path`): a frame log for `profile_tool aggregate`.
//   * a TCP endpoint (`net_host`/`net_port`): telemetry::NetSink to a
//     `profile_tool serve` (non-blocking, reconnecting).
// Each sink queues frames in a bounded telemetry::FrameQueue, so a short or
// failed write never leaves a torn frame at rest: the unwritten tail goes
// out on a later flush, and on overflow whole not-yet-started frames drop
// (the aggregator tolerates sequence gaps; it rejects rewrites).
class ProfileStreamWriter {
 public:
  struct Options {
    std::string path;   // file sink; "" = none
    std::string epoch;
    uint64_t ir_hash = 0;
    // Network sink; port 0 = none.
    std::string net_host = "127.0.0.1";
    uint16_t net_port = 0;
  };

  explicit ProfileStreamWriter(Options options);
  ~ProfileStreamWriter();

  // Creates/truncates the stream file and/or starts the network sink, and
  // queues the hello frame on each.
  Status Open();

  // Writes Between(last flushed, current) if non-empty. Callers pass the full
  // current profile (e.g. PkruSafeRuntime::TakeProfile()); the writer keeps
  // the previous snapshot to diff against.
  Status Flush(const Profile& current);

  // Switches the epoch stamped on subsequent deltas (a live deploy-epoch
  // roll; the delta baseline and sequence continue).
  void SetEpoch(std::string epoch);

  void Close();

  uint64_t deltas_written() const { return deltas_written_; }
  // The network sink, or nullptr when none was configured. Callers use it to
  // pump reconnects and to receive policy-update frames.
  telemetry::NetSink* net_sink() { return net_sink_.get(); }

 private:
  // Appends the file queue to the file; a short write or EAGAIN keeps the
  // unwritten tail queued for the next call.
  Status WriteFileLocked();

  const Options options_;
  std::mutex mutex_;
  std::string epoch_;       // guarded by mutex_
  Profile last_;            // guarded by mutex_
  uint64_t next_sequence_ = 0;  // guarded by mutex_
  uint64_t deltas_written_ = 0;
  int fd_ = -1;             // guarded by mutex_
  telemetry::FrameQueue file_queue_;  // guarded by mutex_
  std::unique_ptr<telemetry::NetSink> net_sink_;
};

}  // namespace pkrusafe

#endif  // SRC_RUNTIME_PROFILE_DELTA_H_
