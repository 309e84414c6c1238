#include "src/telemetry/stream_net.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "src/support/crc32.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace pkrusafe {
namespace telemetry {

namespace {

constexpr char kMagic[3] = {'P', 'S', 'F'};

Counter* NetSentCounter() {
  static Counter* counter = MetricsRegistry::Global().GetOrCreateCounter("telemetry.net.sent");
  return counter;
}

Counter* NetDroppedCounter() {
  static Counter* counter = MetricsRegistry::Global().GetOrCreateCounter("telemetry.net.dropped");
  return counter;
}

Counter* NetReconnectsCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("telemetry.net.reconnects");
  return counter;
}

Counter* NetRejectedFramesCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetOrCreateCounter("telemetry.net.rejected_frames");
  return counter;
}

void PutU16Le(std::string* out, uint16_t value) {
  out->push_back(static_cast<char>(value & 0xFF));
  out->push_back(static_cast<char>(value >> 8));
}

void PutU32Le(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>(value >> (8 * i)));
  }
}

uint32_t GetU32Le(const char* p) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

uint64_t NowMs() { return NowNs() / 1000000; }

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return std::string();
  }
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(0);  // flags
  PutU16Le(&out, 0);  // reserved
  PutU32Le(&out, static_cast<uint32_t>(payload.size()));
  PutU32Le(&out, Crc32(payload));
  out.append(payload);
  return out;
}

void FrameDecoder::Feed(std::string_view bytes) { buffer_.append(bytes); }

std::optional<Frame> FrameDecoder::Next() {
  for (;;) {
    if (buffer_.size() < kFrameHeaderSize) {
      // Not enough for a header. If what we have cannot even start a frame,
      // resync now so mid_frame() only reports genuinely-pending frames.
      size_t skip = 0;
      while (skip < buffer_.size()) {
        const size_t n = std::min(sizeof(kMagic), buffer_.size() - skip);
        if (std::memcmp(buffer_.data() + skip, kMagic, n) == 0) {
          break;
        }
        ++skip;
      }
      if (skip > 0) {
        stats_.bad_magic += skip;
        buffer_.erase(0, skip);
      }
      return std::nullopt;
    }
    if (std::memcmp(buffer_.data(), kMagic, sizeof(kMagic)) != 0) {
      // Resync byte-by-byte: hostile bytes may contain partial magics.
      ++stats_.bad_magic;
      buffer_.erase(0, 1);
      continue;
    }
    const uint8_t version = static_cast<uint8_t>(buffer_[3]);
    const uint8_t type = static_cast<uint8_t>(buffer_[4]);
    const uint8_t flags = static_cast<uint8_t>(buffer_[5]);
    const uint16_t reserved = static_cast<uint16_t>(static_cast<uint8_t>(buffer_[6]) |
                                                    (static_cast<uint8_t>(buffer_[7]) << 8));
    const uint32_t length = GetU32Le(buffer_.data() + 8);
    const uint32_t crc = GetU32Le(buffer_.data() + 12);
    if (version != kProtocolVersion) {
      // Unknown layout beyond this header: cannot trust `length`. Skip one
      // byte and resync on the next magic.
      ++stats_.bad_version;
      buffer_.erase(0, 1);
      continue;
    }
    if (!IsKnownFrameType(type) || flags != 0 || reserved != 0) {
      ++stats_.bad_type;
      buffer_.erase(0, 1);
      continue;
    }
    if (length > kMaxFramePayload) {
      // A hostile length must not make us buffer gigabytes waiting for a
      // "payload" that never ends.
      ++stats_.oversized;
      buffer_.erase(0, 1);
      continue;
    }
    if (buffer_.size() < kFrameHeaderSize + length) {
      return std::nullopt;  // wait for the rest of the payload
    }
    const std::string_view payload(buffer_.data() + kFrameHeaderSize, length);
    if (Crc32(payload) != crc) {
      ++stats_.bad_crc;
      buffer_.erase(0, kFrameHeaderSize + length);
      continue;
    }
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload.assign(payload);
    buffer_.erase(0, kFrameHeaderSize + length);
    ++stats_.frames;
    return frame;
  }
}

FrameDecoder::Stats& FrameDecoder::Stats::operator+=(const Stats& other) {
  frames += other.frames;
  bad_magic += other.bad_magic;
  bad_version += other.bad_version;
  bad_type += other.bad_type;
  oversized += other.oversized;
  bad_crc += other.bad_crc;
  return *this;
}

// --- FrameQueue ---

size_t FrameQueue::Push(std::string frame) {
  bytes_ += frame.size();
  frames_.push_back(std::move(frame));
  size_t dropped = 0;
  // The oldest frame not yet started; the newest one always stays.
  const size_t victim = front_offset_ > 0 ? 1 : 0;
  while (unsent_bytes() > max_bytes_ && victim + 1 < frames_.size()) {
    bytes_ -= frames_[victim].size();
    frames_.erase(frames_.begin() + static_cast<ptrdiff_t>(victim));
    ++dropped;
  }
  return dropped;
}

FrameQueue::Written FrameQueue::Write(const Writer& writer) {
  Written written;
  while (!frames_.empty()) {
    const std::string& frame = frames_.front();
    const ssize_t n = writer(frame.data() + front_offset_, frame.size() - front_offset_);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        written.error = errno;
      }
      return written;
    }
    if (n == 0) {
      return written;  // no progress; try again on the next call
    }
    front_offset_ += static_cast<size_t>(n);
    written.bytes += static_cast<size_t>(n);
    if (front_offset_ == frame.size()) {
      bytes_ -= frame.size();
      frames_.pop_front();
      front_offset_ = 0;
      ++written.frames;
    }
  }
  return written;
}

bool FrameQueue::DropStarted() {
  if (front_offset_ == 0) {
    return false;
  }
  bytes_ -= frames_.front().size();
  frames_.pop_front();
  front_offset_ = 0;
  return true;
}

// --- NetSink ---

uint64_t NetSink::BackoffMs(const NetSinkOptions& options, uint64_t attempt,
                            SplitMix64* jitter) {
  uint64_t base = options.backoff_initial_ms;
  // Saturating doubling: attempt counts failures so far.
  for (uint64_t i = 0; i < attempt && base < options.backoff_max_ms; ++i) {
    base *= 2;
  }
  if (base > options.backoff_max_ms) {
    base = options.backoff_max_ms;
  }
  // Up to 50% additive jitter decorrelates a fleet reconnecting after a
  // server restart (no thundering herd on one shared schedule).
  const uint64_t spread = base / 2;
  return base + (spread != 0 && jitter != nullptr ? jitter->NextBelow(spread) : 0);
}

NetSink::NetSink(NetSinkOptions options)
    : options_(std::move(options)), queue_(options_.max_buffer_bytes) {
  (void)NetSentCounter();
  (void)NetDroppedCounter();
  (void)NetReconnectsCounter();
}

NetSink::~NetSink() {
  std::lock_guard lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NetSink::Send(FrameType type, std::string_view payload) {
  std::string encoded = EncodeFrame(type, payload);
  if (encoded.empty()) {
    NetDroppedCounter()->Increment();
    std::lock_guard lock(mutex_);
    ++stats_.frames_dropped;
    return;
  }
  std::lock_guard lock(mutex_);
  const size_t dropped = queue_.Push(std::move(encoded));
  stats_.frames_dropped += dropped;
  NetDroppedCounter()->Increment(dropped);
  PumpLocked();
}

void NetSink::Pump() {
  std::lock_guard lock(mutex_);
  PumpLocked();
}

std::vector<Frame> NetSink::TakeIncoming() {
  std::lock_guard lock(mutex_);
  PumpLocked();
  std::vector<Frame> out;
  out.swap(incoming_);
  return out;
}

void NetSink::DrainFor(uint64_t deadline_ms) {
  const uint64_t deadline = NowMs() + deadline_ms;
  for (;;) {
    {
      std::lock_guard lock(mutex_);
      PumpLocked();
      if (queue_.empty()) {
        return;
      }
    }
    if (NowMs() >= deadline) {
      return;
    }
    struct pollfd pfd;
    int fd;
    {
      std::lock_guard lock(mutex_);
      fd = fd_;
    }
    if (fd < 0) {
      // Disconnected: wait out a slice of the backoff, then retry.
      ::poll(nullptr, 0, 10);
      continue;
    }
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    (void)::poll(&pfd, 1, 10);
  }
}

bool NetSink::connected() const {
  std::lock_guard lock(mutex_);
  return fd_ >= 0 && !connecting_;
}

size_t NetSink::buffered_bytes() const {
  std::lock_guard lock(mutex_);
  return queue_.unsent_bytes();
}

NetSink::Stats NetSink::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void NetSink::PumpLocked() {
  const uint64_t now_ms = NowMs();
  if (fd_ < 0) {
    if (now_ms < next_attempt_ms_) {
      return;
    }
    ConnectLocked(now_ms);
    if (fd_ < 0) {
      return;
    }
  }
  if (connecting_) {
    // Did the non-blocking connect resolve?
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    if (::poll(&pfd, 1, 0) <= 0) {
      return;  // still in flight
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      DisconnectLocked(/*schedule_backoff=*/true);
      return;
    }
    connecting_ = false;
    attempt_ = 0;
    NoteConnectionEstablishedLocked();
  }
  ReadLocked();
  if (fd_ >= 0) {
    FlushLocked();
  }
}

void NetSink::ConnectLocked(uint64_t now_ms) {
  (void)now_ms;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    DisconnectLocked(/*schedule_backoff=*/true);
    return;
  }
  SetNonBlocking(fd);
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    fd_ = -1;
    DisconnectLocked(/*schedule_backoff=*/true);
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    fd_ = fd;
    connecting_ = false;
    attempt_ = 0;
    NoteConnectionEstablishedLocked();
    return;
  }
  if (errno == EINPROGRESS) {
    fd_ = fd;
    connecting_ = true;
    return;
  }
  ::close(fd);
  DisconnectLocked(/*schedule_backoff=*/true);
}

void NetSink::NoteConnectionEstablishedLocked() {
  // One reconnect per connection actually re-established — never per attempt.
  // Counting attempts inflated the metric unboundedly during a single long
  // outage (every backoff retry incremented it), which made
  // telemetry.net.reconnects useless for spotting flapping peers.
  if (ever_connected_) {
    ++stats_.reconnects;
    NetReconnectsCounter()->Increment();
  }
  ever_connected_ = true;
}

void NetSink::DisconnectLocked(bool schedule_backoff) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  connecting_ = false;
  // A frame sent partway is unrecoverable: the server will see a torn frame
  // and discard it; resending from the start could double-count if the peer
  // actually received it. Drop it whole and move on — the delta protocol
  // tolerates gaps (sequence numbers only need to increase).
  if (queue_.DropStarted()) {
    ++stats_.frames_dropped;
    NetDroppedCounter()->Increment();
  }
  decoder_ = FrameDecoder();
  if (schedule_backoff) {
    next_attempt_ms_ = NowMs() + BackoffMs(options_, attempt_, &jitter_);
    ++attempt_;
  }
}

void NetSink::FlushLocked() {
  const FrameQueue::Written written = queue_.Write([this](const char* data, size_t size) {
    return ::send(fd_, data, size, MSG_NOSIGNAL | MSG_DONTWAIT);
  });
  stats_.bytes_sent += written.bytes;
  stats_.frames_sent += written.frames;
  NetSentCounter()->Increment(written.frames);
  if (written.error != 0) {
    DisconnectLocked(/*schedule_backoff=*/true);
  }
}

void NetSink::ReadLocked() {
  if (fd_ < 0 || connecting_) {
    return;
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      while (auto frame = decoder_.Next()) {
        incoming_.push_back(std::move(*frame));
      }
      continue;
    }
    if (n == 0) {
      DisconnectLocked(/*schedule_backoff=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return;
    }
    DisconnectLocked(/*schedule_backoff=*/true);
    return;
  }
}

// --- FrameServer ---

Status FrameServer::Start(uint16_t port) { return loop_.Listen(port); }

void FrameServer::Stop() {
  for (const auto& [id, decoder] : decoders_) {
    closed_stats_ += decoder.stats();
  }
  decoders_.clear();
  loop_.Shutdown();
}

Result<size_t> FrameServer::PollOnce(int timeout_ms, const FrameHandler& on_frame,
                                     const DisconnectHandler& on_disconnect) {
  size_t dispatched = 0;
  const auto on_input = [&](uint64_t id, std::string& input) {
    FrameDecoder& decoder = decoders_[id];
    decoder.Feed(input);
    input.clear();
    while (auto frame = decoder.Next()) {
      ++dispatched;
      if (on_frame) {
        on_frame(id, std::move(*frame));
      }
    }
  };
  const auto on_close = [&](uint64_t id) {
    bool torn = false;
    if (const auto it = decoders_.find(id); it != decoders_.end()) {
      torn = it->second.mid_frame();
      closed_stats_ += it->second.stats();
      decoders_.erase(it);
    }
    if (torn) {
      // A torn tail is a rejected partial frame, same bucket as CRC garbage.
      NetRejectedFramesCounter()->Increment();
    }
    if (on_disconnect) {
      on_disconnect(id, torn);
    }
  };
  PS_RETURN_IF_ERROR(loop_.PollOnce(timeout_ms, on_input, on_close));
  return dispatched;
}

Status FrameServer::SendTo(uint64_t client_id, FrameType type, std::string_view payload) {
  const std::string frame = EncodeFrame(type, payload);
  if (frame.empty()) {
    return InvalidArgumentError("frame server: payload too large");
  }
  return loop_.Send(client_id, frame);
}

FrameDecoder::Stats FrameServer::decoder_stats() const {
  FrameDecoder::Stats total = closed_stats_;
  for (const auto& [id, decoder] : decoders_) {
    total += decoder.stats();
  }
  return total;
}

}  // namespace telemetry
}  // namespace pkrusafe
