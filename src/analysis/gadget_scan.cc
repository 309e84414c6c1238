#include "src/analysis/gadget_scan.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "src/support/string_util.h"

namespace pkrusafe {
namespace analysis {

namespace {

// True only when all four marker bytes lie inside [0, size) and match. A
// wrpkru whose marker would extend past the buffer (a gate split across a
// section boundary, or a truncated fixture) is classified unsanctioned:
// the comparison must never read past `size`, so the bytes are checked
// individually up to the boundary. `pos > size` cannot occur (callers pass
// the offset just past a 3-byte match inside the buffer) but is rejected
// anyway so the subtraction below can't wrap.
bool MarkerFollows(const uint8_t* data, size_t size, size_t pos) {
  if (pos > size || size - pos < sizeof(kWrpkruGateMarker)) {
    return false;
  }
  for (size_t i = 0; i < sizeof(kWrpkruGateMarker); ++i) {
    if (data[pos + i] != kWrpkruGateMarker[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<GadgetHit> ScanBuffer(const uint8_t* data, size_t size, size_t base_offset,
                                  const std::string& section) {
  std::vector<GadgetHit> hits;
  if (size < 3) {
    return hits;
  }
  for (size_t i = 0; i + 2 < size; ++i) {
    if (data[i] != 0x0f) {
      continue;
    }
    if (data[i + 1] == 0x01 && data[i + 2] == 0xef) {
      GadgetHit hit;
      hit.kind = GadgetHit::Kind::kWrpkru;
      hit.offset = base_offset + i;
      hit.section = section;
      hit.sanctioned = MarkerFollows(data, size, i + 3);
      hits.push_back(std::move(hit));
    } else if (data[i + 1] == 0xae) {
      const uint8_t modrm = data[i + 2];
      const uint8_t mod = modrm >> 6;
      const uint8_t reg = (modrm >> 3) & 7;
      // xrstor is 0F AE /5 with a memory operand; mod==3 /5 is lfence.
      if (reg == 5 && mod != 3) {
        GadgetHit hit;
        hit.kind = GadgetHit::Kind::kXrstor;
        hit.offset = base_offset + i;
        hit.section = section;
        hits.push_back(std::move(hit));
      }
    }
  }
  return hits;
}

Result<BinaryImage> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  BinaryImage image;
  image.path = path;
  image.bytes = buffer.str();
  const uint8_t* data = image.data();
  const size_t size = image.bytes.size();

  // Not an ELF64 file: no sections (raw mode).
  if (size < sizeof(Elf64_Ehdr) || std::memcmp(data, ELFMAG, SELFMAG) != 0 ||
      data[EI_CLASS] != ELFCLASS64) {
    return image;
  }

  Elf64_Ehdr header;
  std::memcpy(&header, data, sizeof(header));
  if (header.e_shoff == 0 || header.e_shentsize < sizeof(Elf64_Shdr) ||
      header.e_shoff + static_cast<uint64_t>(header.e_shnum) * header.e_shentsize > size) {
    return InvalidArgumentError(path + ": malformed ELF section table");
  }
  image.elf = true;

  image.sections.resize(header.e_shnum);
  for (size_t i = 0; i < image.sections.size(); ++i) {
    std::memcpy(&image.sections[i], data + header.e_shoff + i * header.e_shentsize,
                sizeof(Elf64_Shdr));
  }

  // Section names, if the string table is intact (best effort).
  if (header.e_shstrndx < image.sections.size()) {
    const Elf64_Shdr& strs = image.sections[header.e_shstrndx];
    if (strs.sh_offset + strs.sh_size <= size) {
      image.names_offset = strs.sh_offset;
      image.names_size = strs.sh_size;
    }
  }
  return image;
}

Result<std::vector<GadgetHit>> ScanImage(const BinaryImage& image) {
  const size_t size = image.bytes.size();
  if (!image.elf) {
    return ScanBuffer(image.data(), size, 0, "(raw)");
  }
  std::vector<GadgetHit> hits;
  for (const Elf64_Shdr& section : image.sections) {
    if ((section.sh_flags & SHF_EXECINSTR) == 0 || section.sh_type == SHT_NOBITS) {
      continue;
    }
    if (section.sh_offset + section.sh_size > size) {
      return InvalidArgumentError(image.path + ": executable section extends past end of file");
    }
    auto section_hits =
        ScanBuffer(image.data() + section.sh_offset, section.sh_size, section.sh_offset,
                   image.SectionName(section).value_or("(exec)"));
    hits.insert(hits.end(), section_hits.begin(), section_hits.end());
  }
  return hits;
}

Result<std::vector<GadgetHit>> ScanFile(const std::string& path) {
  PS_ASSIGN_OR_RETURN(const BinaryImage image, ReadBinary(path));
  return ScanImage(image);
}

void ReportGadgets(const std::vector<GadgetHit>& hits, const std::string& origin,
                   DiagnosticSink& sink) {
  for (const GadgetHit& hit : hits) {
    Finding finding;
    finding.function = origin;
    if (hit.kind == GadgetHit::Kind::kWrpkru && hit.sanctioned) {
      finding.severity = Severity::kNote;
      finding.rule = "sanctioned-wrpkru";
      finding.message = StrFormat("sanctioned call-gate wrpkru at %s+0x%zx", hit.section.c_str(),
                                  hit.offset);
    } else if (hit.kind == GadgetHit::Kind::kWrpkru) {
      finding.severity = Severity::kError;
      finding.rule = "wrpkru-gadget";
      finding.message = StrFormat("stray wrpkru (0f 01 ef) at %s+0x%zx outside any sanctioned "
                                  "gate",
                                  hit.section.c_str(), hit.offset);
      finding.fix_hint = "escaped control flow can execute this byte sequence to lift the "
                         "compartment boundary; rebuild to displace it or route it through the "
                         "gate marker";
    } else {
      finding.severity = Severity::kWarning;
      finding.rule = "xrstor-gadget";
      finding.message = StrFormat("xrstor (0f ae /5) at %s+0x%zx can rewrite PKRU via XSAVE "
                                  "state",
                                  hit.section.c_str(), hit.offset);
      finding.fix_hint = "confirm the instruction's feature mask cannot carry the PKRU bit, or "
                         "compile with xsave disabled";
    }
    sink.Report(std::move(finding));
  }
}

}  // namespace analysis
}  // namespace pkrusafe
