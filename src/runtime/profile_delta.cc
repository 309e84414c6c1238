#include "src/runtime/profile_delta.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/support/json.h"
#include "src/support/string_util.h"

namespace pkrusafe {
namespace {

constexpr char kMagic[4] = {'P', 'S', 'D', '1'};
constexpr size_t kMaxEpochLength = 255;

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

Result<uint64_t> GetVarint(std::string_view bytes, size_t* pos) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= bytes.size()) {
      return InvalidArgumentError("profile delta: truncated varint");
    }
    const uint8_t byte = static_cast<uint8_t>(bytes[(*pos)++]);
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (shift >= 63 && (byte >> 1) != 0) {
        return InvalidArgumentError("profile delta: varint overflows 64 bits");
      }
      return value;
    }
  }
  return InvalidArgumentError("profile delta: varint too long");
}

void PutU64Le(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>(value >> (8 * i)));
  }
}

std::string HexEncode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const uint8_t b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Result<std::string> HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return InvalidArgumentError("profile delta: odd-length hex payload");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return InvalidArgumentError("profile delta: invalid hex payload");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace

ProfileDelta ProfileDelta::Between(const Profile& base, const Profile& current,
                                   std::string epoch, uint64_t ir_hash,
                                   uint64_t sequence) {
  ProfileDelta delta(std::move(epoch), ir_hash, sequence);
  for (const AllocId id : current.Sites()) {
    const uint64_t now = current.CountFor(id);
    const uint64_t before = base.CountFor(id);
    if (now > before) delta.Add(id, now - before);
  }
  return delta;
}

void ProfileDelta::Add(AllocId id, uint64_t count) {
  if (count == 0) return;
  const auto entry = std::make_pair(id, count);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), entry,
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it != entries_.end() && it->first == id) {
    // Saturate rather than wrap, matching Profile::Merge.
    it->second = it->second > ~uint64_t{0} - count ? ~uint64_t{0}
                                                   : it->second + count;
    return;
  }
  entries_.insert(it, entry);
}

void ProfileDelta::ApplyTo(Profile* profile) const {
  Profile as_profile;
  for (const auto& [id, count] : entries_) as_profile.Add(id, count);
  profile->Merge(as_profile);
}

std::string ProfileDelta::EncodeBinary() const {
  std::string out(kMagic, sizeof(kMagic));
  PutU64Le(&out, ir_hash_);
  const size_t epoch_len = std::min(epoch_.size(), kMaxEpochLength);
  out.push_back(static_cast<char>(epoch_len));
  out.append(epoch_, 0, epoch_len);
  PutVarint(&out, sequence_);
  PutVarint(&out, entries_.size());
  uint32_t prev_function = 0;
  for (const auto& [id, count] : entries_) {
    PutVarint(&out, id.function_id - prev_function);
    PutVarint(&out, id.block_id);
    PutVarint(&out, id.site_id);
    PutVarint(&out, count);
    prev_function = id.function_id;
  }
  return out;
}

Result<ProfileDelta> ProfileDelta::DecodeBinary(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("profile delta: bad magic");
  }
  size_t pos = sizeof(kMagic);
  if (bytes.size() < pos + 8 + 1) {
    return InvalidArgumentError("profile delta: truncated header");
  }
  uint64_t ir_hash = 0;
  for (int i = 0; i < 8; ++i) {
    ir_hash |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[pos++])) << (8 * i);
  }
  const size_t epoch_len = static_cast<uint8_t>(bytes[pos++]);
  if (bytes.size() < pos + epoch_len) {
    return InvalidArgumentError("profile delta: truncated epoch");
  }
  std::string epoch(bytes.substr(pos, epoch_len));
  pos += epoch_len;

  PS_ASSIGN_OR_RETURN(const uint64_t sequence, GetVarint(bytes, &pos));
  PS_ASSIGN_OR_RETURN(const uint64_t entry_count, GetVarint(bytes, &pos));
  // Each entry is at least 4 bytes; reject counts the remaining bytes cannot
  // possibly hold before reserving anything.
  if (entry_count > (bytes.size() - pos) / 4 + 1) {
    return InvalidArgumentError("profile delta: entry count exceeds payload");
  }

  ProfileDelta delta(std::move(epoch), ir_hash, sequence);
  delta.entries_.reserve(entry_count);
  uint32_t prev_function = 0;
  AllocId prev_id{};
  for (uint64_t i = 0; i < entry_count; ++i) {
    PS_ASSIGN_OR_RETURN(const uint64_t fn_delta, GetVarint(bytes, &pos));
    PS_ASSIGN_OR_RETURN(const uint64_t block, GetVarint(bytes, &pos));
    PS_ASSIGN_OR_RETURN(const uint64_t site, GetVarint(bytes, &pos));
    PS_ASSIGN_OR_RETURN(const uint64_t count, GetVarint(bytes, &pos));
    const uint64_t function = prev_function + fn_delta;
    if (function > 0xffffffffULL || block > 0xffffffffULL || site > 0xffffffffULL) {
      return InvalidArgumentError("profile delta: site id overflows 32 bits");
    }
    if (count == 0) {
      return InvalidArgumentError("profile delta: zero count entry");
    }
    const AllocId id{static_cast<uint32_t>(function),
                     static_cast<uint32_t>(block),
                     static_cast<uint32_t>(site)};
    if (i > 0 && !(prev_id < id)) {
      return InvalidArgumentError("profile delta: sites not strictly ascending");
    }
    delta.entries_.emplace_back(id, count);
    prev_function = id.function_id;
    prev_id = id;
  }
  if (pos != bytes.size()) {
    return InvalidArgumentError("profile delta: trailing bytes after entries");
  }
  return delta;
}

std::string ProfileDelta::ToJsonLine() const {
  std::string out;
  json::Writer w(&out);
  w.BeginObject().Key("kind").String("pkru_safe_profile_delta").Key("v").Int(1);
  w.Key("epoch").String(epoch_);
  w.Key("ir_hash").String(StrFormat("0x%016llx", static_cast<unsigned long long>(ir_hash_)));
  w.Key("seq").Uint(sequence_).Key("sites").Uint(entries_.size());
  w.Key("payload").String(HexEncode(EncodeBinary())).EndObject();
  return out;
}

Result<ProfileDelta> ProfileDelta::FromJsonLine(std::string_view line) {
  PS_ASSIGN_OR_RETURN(const json::Value value, json::Parse(line));
  if (!value.is_object()) {
    return InvalidArgumentError("profile delta line: not a JSON object");
  }
  if (value.GetString("kind") != "pkru_safe_profile_delta") {
    return InvalidArgumentError("profile delta line: wrong kind");
  }
  if (value.GetUint("v") != 1) {
    return InvalidArgumentError("profile delta line: unsupported version");
  }
  const json::Value* payload = value.Find("payload");
  if (payload == nullptr || !payload->is_string()) {
    return InvalidArgumentError("profile delta line: missing payload");
  }
  PS_ASSIGN_OR_RETURN(const std::string bytes, HexDecode(payload->AsString()));
  PS_ASSIGN_OR_RETURN(ProfileDelta delta, DecodeBinary(bytes));

  // The header fields exist for humans and grep; they must agree with the
  // authoritative payload so a hand-edited line cannot smuggle a mismatch.
  const std::string hash_text = value.GetString("ir_hash");
  if (!hash_text.empty()) {
    const std::string expect =
        StrFormat("0x%016llx", static_cast<unsigned long long>(delta.ir_hash()));
    if (hash_text != expect) {
      return InvalidArgumentError(
          "profile delta line: ir_hash header disagrees with payload");
    }
  }
  if (const json::Value* seq = value.Find("seq");
      seq != nullptr && seq->AsUint() != delta.sequence()) {
    return InvalidArgumentError(
        "profile delta line: seq header disagrees with payload");
  }
  if (const json::Value* epoch = value.Find("epoch");
      epoch != nullptr && epoch->AsString() != delta.epoch()) {
    return InvalidArgumentError(
        "profile delta line: epoch header disagrees with payload");
  }
  return delta;
}

ProfileStreamWriter::ProfileStreamWriter(Options options)
    : options_(std::move(options)), epoch_(options_.epoch) {}

ProfileStreamWriter::~ProfileStreamWriter() { Close(); }

Status ProfileStreamWriter::Open() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.adopt_fd >= 0 && fd_ < 0) {
    fd_ = options_.adopt_fd;
  } else if (!options_.path.empty() && fd_ < 0) {
    fd_ = ::open(options_.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                 0644);
    if (fd_ < 0) {
      return InternalError(StrFormat("profile stream: open %s: %s",
                                     options_.path.c_str(), strerror(errno)));
    }
  }
  if (options_.net_port != 0 && net_sink_ == nullptr) {
    telemetry::NetSinkOptions net;
    net.host = options_.net_host;
    net.port = options_.net_port;
    net_sink_ = std::make_unique<telemetry::NetSink>(net);
    net_sink_->Send(telemetry::FrameType::kHello,
                    StrFormat(R"({"kind":"pkru_safe_hello","stream":"%s","epoch":"%s"})",
                              options_.path.empty() ? "net" : options_.path.c_str(),
                              epoch_.c_str()));
  }
  if (fd_ < 0 && options_.net_port == 0) {
    return InvalidArgumentError("profile stream: no sink configured");
  }
  return Status::Ok();
}

Status ProfileStreamWriter::DrainPendingLocked() {
  while (!pending_.empty()) {
    const ssize_t n = ::write(fd_, pending_.data(), pending_.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      // EAGAIN (a non-blocking sink, e.g. a full pipe in tests) and real
      // errors both defer: the accepted bytes stay pending, so the file
      // never keeps a torn line — the tail completes on a later flush.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::Ok();
      }
      return InternalError(StrFormat("profile stream: write %s: %s",
                                     options_.path.c_str(), strerror(errno)));
    }
    if (n == 0) {
      return Status::Ok();  // no progress; try again next flush
    }
    // Every accepted record ends in '\n', so the write stopped mid-line
    // exactly when the last byte out was not a newline.
    front_partially_written_ = pending_[static_cast<size_t>(n) - 1] != '\n';
    pending_.erase(0, static_cast<size_t>(n));
  }
  front_partially_written_ = false;
  return Status::Ok();
}

Status ProfileStreamWriter::Flush(const Profile& current) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0 && net_sink_ == nullptr) {
    return FailedPreconditionError("profile stream: not open");
  }
  ProfileDelta delta =
      ProfileDelta::Between(last_, current, epoch_, options_.ir_hash, next_sequence_);
  if (delta.empty()) {
    // Nothing new — but keep draining any deferred tail and pumping the net
    // sink (reconnects and policy frames don't wait for fresh data).
    if (net_sink_ != nullptr) {
      net_sink_->Pump();
    }
    return fd_ >= 0 ? DrainPendingLocked() : Status::Ok();
  }
  // The delta is accepted — the baseline and sequence advance — regardless
  // of sink backpressure; the sinks deliver (or drop whole records) on
  // their own schedule.
  last_ = current;
  ++next_sequence_;
  ++deltas_written_;
  if (net_sink_ != nullptr) {
    net_sink_->Send(telemetry::FrameType::kProfileDelta, delta.EncodeBinary());
  }
  if (fd_ < 0) {
    return Status::Ok();
  }
  std::string line = delta.ToJsonLine();
  line.push_back('\n');
  if (pending_.size() + line.size() > options_.max_pending_bytes) {
    // Overflow: drop whole NOT-YET-STARTED lines from the front. A line
    // with a prefix already in the file must finish, or the file keeps a
    // torn line forever (the exact bug this buffer exists to prevent).
    size_t keep_from = 0;
    if (front_partially_written_) {
      const size_t eol = pending_.find('\n');
      keep_from = eol == std::string::npos ? pending_.size() : eol + 1;
    }
    std::string kept = pending_.substr(0, keep_from);
    size_t drop_pos = keep_from;
    while (pending_.size() - drop_pos + kept.size() + line.size() >
               options_.max_pending_bytes &&
           drop_pos < pending_.size()) {
      const size_t eol = pending_.find('\n', drop_pos);
      drop_pos = eol == std::string::npos ? pending_.size() : eol + 1;
      ++lines_dropped_;
    }
    kept.append(pending_, drop_pos, std::string::npos);
    pending_ = std::move(kept);
  }
  pending_ += line;
  return DrainPendingLocked();
}

void ProfileStreamWriter::SetEpoch(std::string epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_ = std::move(epoch);
}

size_t ProfileStreamWriter::pending_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

void ProfileStreamWriter::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    // Last chance for a deferred tail; best-effort.
    (void)DrainPendingLocked();
    ::close(fd_);
    fd_ = -1;
  }
  if (net_sink_ != nullptr) {
    net_sink_->DrainFor(200);
    net_sink_.reset();
  }
}

}  // namespace pkrusafe
