#include "src/runtime/profile_artifact.h"

#include <fstream>
#include <sstream>

#include "src/support/crc32.h"
#include "src/support/string_util.h"

namespace pkrusafe {

namespace {

constexpr std::string_view kHeader = "# pkru-safe profile artifact v1";

Result<uint64_t> ParseHex(std::string_view text) {
  if (text.size() < 3 || text[0] != '0' || (text[1] != 'x' && text[1] != 'X')) {
    return InvalidArgumentError("expected 0x-prefixed hex: " + std::string(text));
  }
  uint64_t value = 0;
  for (const char c : text.substr(2)) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return InvalidArgumentError("bad hex digit in: " + std::string(text));
    }
    if (value > (UINT64_MAX >> 4)) {
      return OutOfRangeError("hex value too large: " + std::string(text));
    }
    value = (value << 4) | digit;
  }
  return value;
}

}  // namespace

const std::string& ProfileArtifact::NewestEpoch() const {
  static const std::string kEmpty;
  return epochs.empty() ? kEmpty : epochs.back().name;
}

Status ProfileArtifact::MergeFrom(const ProfileArtifact& other) {
  if (other.ir_hash != ir_hash) {
    return FailedPreconditionError(
        StrFormat("artifact recorded against IR hash 0x%016llx cannot merge into one recorded "
                  "against 0x%016llx: site ids of different builds name different sites",
                  static_cast<unsigned long long>(other.ir_hash),
                  static_cast<unsigned long long>(ir_hash)));
  }
  epochs.insert(epochs.end(), other.epochs.begin(), other.epochs.end());
  profile.Merge(other.profile);
  return Status::Ok();
}

std::string ProfileArtifact::Serialize() const {
  std::ostringstream out;
  out << kHeader << "\n";
  out << StrFormat("ir_hash 0x%016llx\n", static_cast<unsigned long long>(ir_hash));
  for (const EpochProvenance& epoch : epochs) {
    out << StrFormat("epoch %s %llu %llu\n", epoch.name.c_str(),
                     static_cast<unsigned long long>(epoch.sites),
                     static_cast<unsigned long long>(epoch.count));
  }
  for (const auto& [id, count] : promoted) {
    out << StrFormat("promoted %s %llu\n", id.ToString().c_str(),
                     static_cast<unsigned long long>(count));
  }
  for (const AllocId& id : profile.Sites()) {
    out << StrFormat("site %s %llu\n", id.ToString().c_str(),
                     static_cast<unsigned long long>(profile.CountFor(id)));
  }
  std::string body = out.str();
  body += StrFormat("crc32 0x%08x\n", Crc32(body));
  return body;
}

Result<ProfileArtifact> ProfileArtifact::Deserialize(std::string_view text) {
  ProfileArtifact artifact;
  bool saw_header = false;
  bool saw_hash = false;
  bool saw_crc = false;
  bool in_sites = false;  // epochs and promoted lines must precede sites
  AllocId last_site{0, 0, 0};
  bool have_last_site = false;
  AllocId last_promoted{0, 0, 0};
  bool have_last_promoted = false;
  uint32_t running = Crc32Init();

  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    // A final line without '\n' is truncation — the crc line always ends in
    // a newline, so anything after it (or instead of it) is rejected below.
    const std::string_view raw =
        eol == std::string_view::npos ? text.substr(pos) : text.substr(pos, eol - pos);
    const size_t next = eol == std::string_view::npos ? text.size() : eol + 1;

    const std::string_view line = StrStrip(raw);
    if (saw_crc && !line.empty()) {
      return InvalidArgumentError("artifact has content after the crc32 line");
    }
    if (line.empty()) {
      running = Crc32Update(running, text.substr(pos, next - pos));
      pos = next;
      continue;
    }
    const auto fields = StrSplit(line, ' ');
    if (line == kHeader) {
      saw_header = true;
    } else if (fields[0] == "ir_hash") {
      if (fields.size() != 2 || saw_hash) {
        return InvalidArgumentError("malformed ir_hash line");
      }
      PS_ASSIGN_OR_RETURN(artifact.ir_hash, ParseHex(fields[1]));
      saw_hash = true;
    } else if (fields[0] == "epoch") {
      if (fields.size() != 4) {
        return InvalidArgumentError("malformed epoch line: " + std::string(line));
      }
      if (in_sites || have_last_promoted) {
        return InvalidArgumentError("epoch line after promoted/site lines");
      }
      EpochProvenance epoch;
      epoch.name = std::string(fields[1]);
      PS_ASSIGN_OR_RETURN(epoch.sites, ParseUint64(fields[2]));
      PS_ASSIGN_OR_RETURN(epoch.count, ParseUint64(fields[3]));
      artifact.epochs.push_back(std::move(epoch));
    } else if (fields[0] == "promoted") {
      if (fields.size() != 3) {
        return InvalidArgumentError("malformed promoted line: " + std::string(line));
      }
      if (in_sites) {
        return InvalidArgumentError("promoted line after site lines");
      }
      PS_ASSIGN_OR_RETURN(AllocId id, AllocId::Parse(fields[1]));
      if (have_last_promoted && !(last_promoted < id)) {
        return InvalidArgumentError("promoted lines out of order or duplicated at " +
                                    id.ToString());
      }
      last_promoted = id;
      have_last_promoted = true;
      PS_ASSIGN_OR_RETURN(uint64_t count, ParseUint64(fields[2]));
      artifact.promoted.emplace_back(id, count);
    } else if (fields[0] == "site") {
      if (fields.size() != 3) {
        return InvalidArgumentError("malformed site line: " + std::string(line));
      }
      in_sites = true;
      PS_ASSIGN_OR_RETURN(AllocId id, AllocId::Parse(fields[1]));
      if (have_last_site && !(last_site < id)) {
        return InvalidArgumentError("site lines out of order or duplicated at " +
                                    id.ToString());
      }
      last_site = id;
      have_last_site = true;
      PS_ASSIGN_OR_RETURN(uint64_t count, ParseUint64(fields[2]));
      PS_RETURN_IF_ERROR(artifact.profile.AddChecked(id, count));
    } else if (fields[0] == "crc32") {
      if (fields.size() != 2) {
        return InvalidArgumentError("malformed crc32 line");
      }
      PS_ASSIGN_OR_RETURN(const uint64_t expected, ParseHex(fields[1]));
      const uint32_t actual = Crc32Finish(running);
      if (expected != actual) {
        return InvalidArgumentError(
            StrFormat("artifact checksum mismatch: file says 0x%08llx, content is 0x%08x "
                      "— the artifact was corrupted or hand-edited",
                      static_cast<unsigned long long>(expected), actual));
      }
      if (eol == std::string_view::npos) {
        return InvalidArgumentError("artifact truncated: crc32 line missing newline");
      }
      saw_crc = true;
    } else {
      return InvalidArgumentError("unrecognized artifact line: " + std::string(line));
    }
    if (!saw_crc || fields[0] != "crc32") {
      running = Crc32Update(running, text.substr(pos, next - pos));
    }
    pos = next;
  }
  if (!saw_header) {
    return InvalidArgumentError("missing artifact header");
  }
  if (!saw_hash) {
    return InvalidArgumentError("artifact missing ir_hash");
  }
  if (!saw_crc) {
    return InvalidArgumentError("artifact truncated: missing crc32 line");
  }
  return artifact;
}

Status ProfileArtifact::SaveToFile(const std::string& path) const {
  for (const EpochProvenance& epoch : epochs) {
    if (epoch.name.empty() ||
        epoch.name.find_first_of(" \t\r\n") != std::string::npos) {
      return InvalidArgumentError("epoch name unrepresentable in artifact: '" + epoch.name +
                                  "'");
    }
  }
  std::ofstream out(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out) {
    return InternalError("cannot open artifact file for writing: " + path);
  }
  out << Serialize();
  out.flush();
  if (!out) {
    return InternalError("short write to artifact file: " + path);
  }
  return Status::Ok();
}

Result<ProfileArtifact> ProfileArtifact::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open artifact file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Deserialize(buffer.str());
}

}  // namespace pkrusafe
