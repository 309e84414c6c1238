// Fleet telemetry transport: a length-prefixed framed stream protocol plus a
// non-blocking TCP client (NetSink) and a multi-client server (FrameServer).
//
// A PSF frame is the one framing of a profile delta. ProfileStreamWriter
// writes the same frames to a file (a frame log, which `profile_tool
// aggregate` drains) and to a socket (which `profile_tool serve` reads live
// and answers with policy updates: promotions/demotions).
//
// Wire format (all integers little-endian):
//
//   "PSF"        3-byte magic
//   u8 version   protocol version (kProtocolVersion = 1)
//   u8 type      FrameType
//   u8 flags     reserved, must be 0
//   u16 reserved must be 0
//   u32 length   payload byte count (<= kMaxFramePayload)
//   u32 crc32    CRC-32 (IEEE) of the payload bytes
//   payload...
//
// The decoder is adversarial-input safe by construction: bad magic resyncs
// byte-by-byte, version skew and oversized lengths skip without trusting the
// header, CRC mismatches drop exactly the framed bytes, and a torn tail
// (mid-frame disconnect) simply stays pending. Nothing in this file throws,
// blocks, or crashes on hostile input — the server feeds frames from
// arbitrary network peers straight into these paths.
//
// Both sinks queue frames in a FrameQueue: bounded, whole frames only. The
// client never blocks the caller: Send enqueues and opportunistically pumps
// the socket. When the peer is down, frames accumulate up to the cap and
// then drop oldest-first, while reconnect attempts back off exponentially
// with deterministic jitter. Drop/reconnect behavior is observable via
// telemetry.net.{sent,dropped,reconnects}.
#ifndef SRC_TELEMETRY_STREAM_NET_H_
#define SRC_TELEMETRY_STREAM_NET_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/rng.h"
#include "src/support/socket_loop.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace telemetry {

inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderSize = 16;
inline constexpr uint32_t kMaxFramePayload = 4u << 20;  // 4 MiB

enum class FrameType : uint8_t {
  // Client -> server, optional, first frame: JSON
  // {"kind":"pkru_safe_hello","stream":NAME,"epoch":EPOCH} naming the stream
  // for provenance/diagnostics (defaults to the file path or "tcp:<id>").
  kHello = 1,
  // Client -> server: one ProfileDelta in PSD1 binary encoding
  // (ProfileDelta::EncodeBinary). The aggregator rejects malformed, stale
  // (hash) and replayed (sequence) deltas and cross-checks promotions
  // against the static bound.
  kProfileDelta = 2,
  // Client -> server: one Sampler JSONL metrics row (UTF-8 text).
  kSamplerRow = 3,
  // Server -> client: JSON {"kind":"pkru_safe_policy_update",
  // "action":"promote"|"demote","sites":["f:b:s",...]}. The client applies
  // it via Runtime::ApplyPromotions / ApplyDemotions.
  kPolicyUpdate = 4,
};

inline bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kPolicyUpdate);
}

struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

// Serializes one frame (header + payload). Payloads over kMaxFramePayload
// are refused (empty string returned) — callers own chunking.
std::string EncodeFrame(FrameType type, std::string_view payload);

// Incremental frame parser over an adversarial byte stream.
class FrameDecoder {
 public:
  struct Stats {
    uint64_t frames = 0;       // complete, valid frames produced
    uint64_t bad_magic = 0;    // resync bytes skipped at a frame boundary
    uint64_t bad_version = 0;  // frames refused for version skew
    uint64_t bad_type = 0;     // unknown FrameType / nonzero reserved bits
    uint64_t oversized = 0;    // declared length over kMaxFramePayload
    uint64_t bad_crc = 0;      // payload failed the checksum

    Stats& operator+=(const Stats& other);
  };

  // Appends raw bytes from the wire. Buffered data is bounded: a sane
  // header's frame at most, otherwise resync discards as it scans.
  void Feed(std::string_view bytes);

  // Returns the next complete, valid frame, or nullopt when more bytes are
  // needed. Invalid framing is skipped (recorded in stats), never thrown.
  std::optional<Frame> Next();

  // True when a partial frame is pending — after EOF this is a torn frame
  // (mid-frame disconnect); the bytes are discarded with the decoder.
  bool mid_frame() const { return !buffer_.empty(); }

  const Stats& stats() const { return stats_; }

 private:
  std::string buffer_;
  Stats stats_;
};

// A bounded FIFO of encoded frames on their way to one byte sink: NetSink's
// socket or ProfileStreamWriter's frame log. Frames leave whole. A short
// write keeps the rest of the front frame queued and the next Write resumes
// there. When a Push takes the unsent bytes past the cap, the oldest frames
// that have not started drop whole (never the newest); the started one
// never drops, so the sink never holds a torn frame at rest. Not
// thread-safe: each sink guards its queue with its own lock.
class FrameQueue {
 public:
  static constexpr size_t kDefaultMaxBytes = 4u << 20;

  // Writes up to `size` bytes and returns the count written, or -1 with
  // errno set: ::write and ::send fit.
  using Writer = std::function<ssize_t(const char* data, size_t size)>;

  struct Written {
    size_t frames = 0;  // frames completed
    size_t bytes = 0;
    int error = 0;      // errno of a failed write; 0 when the sink only filled
  };

  explicit FrameQueue(size_t max_bytes = kDefaultMaxBytes) : max_bytes_(max_bytes) {}

  // Appends one encoded frame. Returns how many older frames dropped.
  size_t Push(std::string frame);

  // Writes until the queue empties or the writer takes no more bytes
  // (EAGAIN or a zero-byte write). EINTR retries.
  Written Write(const Writer& writer);

  // Drops the front frame if part of it is written: its sink died
  // mid-frame, and resending from the start could duplicate it. Returns
  // whether a frame dropped.
  bool DropStarted();

  bool empty() const { return frames_.empty(); }
  size_t unsent_bytes() const { return bytes_ - front_offset_; }

 private:
  const size_t max_bytes_;
  std::deque<std::string> frames_;
  size_t bytes_ = 0;         // all bytes of frames_
  size_t front_offset_ = 0;  // bytes of frames_.front() already written
};

// --- Client ---

struct NetSinkOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Bounded send buffer: beyond this, the oldest unsent whole frames drop.
  size_t max_buffer_bytes = FrameQueue::kDefaultMaxBytes;
  // Reconnect schedule: initial * 2^attempt, capped, plus up to 50% jitter.
  uint64_t backoff_initial_ms = 50;
  uint64_t backoff_max_ms = 5000;
};

// Non-blocking framed TCP client. Thread-safe; every call is O(buffered
// bytes) at worst and never waits on the network.
class NetSink {
 public:
  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t frames_dropped = 0;  // buffer overflow or died mid-send
    uint64_t reconnects = 0;      // connections re-established after the first
                                  // (failed attempts within an outage do not count)
    uint64_t bytes_sent = 0;
  };

  explicit NetSink(NetSinkOptions options);
  ~NetSink();
  NetSink(const NetSink&) = delete;
  NetSink& operator=(const NetSink&) = delete;

  // Enqueues one frame and pumps the socket. Never blocks; on overflow the
  // oldest unsent frames are dropped (counted).
  void Send(FrameType type, std::string_view payload);

  // Drives connect/flush/receive without enqueuing anything new.
  void Pump();

  // Incoming frames decoded from the server (policy updates). Drains.
  std::vector<Frame> TakeIncoming();

  // Flushes until the buffer drains, the connection dies, or `deadline_ms`
  // passes. The one intentionally-waiting call, for orderly shutdown.
  void DrainFor(uint64_t deadline_ms);

  bool connected() const;
  size_t buffered_bytes() const;
  Stats stats() const;

  // The reconnect schedule as a pure function (exposed for tests):
  // initial * 2^attempt capped at max, plus [0, 50%) deterministic jitter.
  static uint64_t BackoffMs(const NetSinkOptions& options, uint64_t attempt,
                            SplitMix64* jitter);

 private:
  void PumpLocked();
  void ConnectLocked(uint64_t now_ms);
  // Records a successful (re-)establishment: bumps the reconnect stat only
  // when a previous connection existed.
  void NoteConnectionEstablishedLocked();
  void DisconnectLocked(bool schedule_backoff);
  void FlushLocked();
  void ReadLocked();

  const NetSinkOptions options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  bool connecting_ = false;
  bool ever_connected_ = false;    // a connection has been established before
  uint64_t attempt_ = 0;           // consecutive failed attempts
  uint64_t next_attempt_ms_ = 0;   // earliest time for the next connect
  SplitMix64 jitter_{1};           // deterministic jitter stream, fixed seed
  FrameQueue queue_;               // encoded frames on their way out
  FrameDecoder decoder_;           // server -> client frames
  std::vector<Frame> incoming_;
  Stats stats_;
};

// --- Server ---

// Multi-client framed TCP listener: framing glue over a SocketLoop the
// caller drives (poll-based, like the rest of the ingest path: no thread
// here either). Producers are long-lived streams: none is closed as idle.
class FrameServer {
 public:
  // (client_id, frame). client_id is stable for the connection's lifetime.
  using FrameHandler = std::function<void(uint64_t, Frame&&)>;
  // Invoked when a connection closes; `mid_frame` reports a torn tail.
  using DisconnectHandler = std::function<void(uint64_t, bool mid_frame)>;

  FrameServer() = default;
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  // 0 = ephemeral; port() reports the bound port.
  Status Start(uint16_t port = 0);
  void Stop();

  uint16_t port() const { return loop_.port(); }
  size_t client_count() const { return loop_.connection_count(); }

  // One poll iteration: accept new clients, read every readable socket,
  // decode and dispatch frames, reap disconnects. Waits at most `timeout_ms`
  // for activity. Returns the number of frames dispatched.
  Result<size_t> PollOnce(int timeout_ms, const FrameHandler& on_frame,
                          const DisconnectHandler& on_disconnect = nullptr);

  // Framed send to one client; never blocks (PollOnce flushes the queue).
  // Unknown ids return NotFound; a client that stopped reading and filled
  // its queue gets ResourceExhausted, and the frame is dropped whole.
  Status SendTo(uint64_t client_id, FrameType type, std::string_view payload);

  // Decoder stats summed over all connections, dead and alive.
  FrameDecoder::Stats decoder_stats() const;

 private:
  SocketLoop loop_{SocketLoop::kNeverIdle};
  std::map<uint64_t, FrameDecoder> decoders_;  // by client id, from its first byte
  FrameDecoder::Stats closed_stats_;  // summed from reaped connections
};

}  // namespace telemetry
}  // namespace pkrusafe

#endif  // SRC_TELEMETRY_STREAM_NET_H_
