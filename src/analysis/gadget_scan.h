// ERIM-style PKRU-update gadget scanner (PAPERS.md: ERIM, Garmr).
//
// A PKU sandbox is only as strong as the absence of stray PKRU-writing
// instructions: any executable `wrpkru` (0F 01 EF) outside a sanctioned call
// gate — including one hiding unaligned inside other instructions' bytes —
// lets escaped control flow lift the compartment boundary, and `xrstor` with
// the PKRU bit set in its feature mask does the same through XSAVE state.
//
// The scanner searches executable bytes for both patterns:
//   * wrpkru  = 0F 01 EF at any byte offset;
//   * xrstor  = 0F AE /5 with a memory operand (mod != 3 — mod 3 /5 is
//     lfence, which is everywhere and harmless).
//
// Sanctioned gates: the hardware backend emits the byte sequence
// kWrpkruGateMarker immediately after its intentional wrpkru — the moral
// equivalent of ERIM's mandated post-WRPKRU check sequence. A wrpkru
// followed by the marker is classified benign; everything else is a gadget.
//
// ScanFile understands ELF64 and restricts itself to executable sections;
// other files are scanned whole (raw mode) — which is how the synthetic
// gadget fixtures in the tests work.
#ifndef SRC_ANALYSIS_GADGET_SCAN_H_
#define SRC_ANALYSIS_GADGET_SCAN_H_

#include <elf.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace analysis {

// nopl 0xe1(%rax): a real instruction, so sanctioned gates stay executable,
// with a displacement no compiler emits by accident.
inline constexpr uint8_t kWrpkruGateMarker[4] = {0x0f, 0x1f, 0x40, 0xe1};

struct GadgetHit {
  enum class Kind : uint8_t { kWrpkru, kXrstor };
  Kind kind = Kind::kWrpkru;
  size_t offset = 0;        // file offset of the first pattern byte
  std::string section;      // ".text" for ELF scans, "(raw)" otherwise
  bool sanctioned = false;  // wrpkru immediately followed by the gate marker
};

// Scans `size` bytes. `base_offset` is added to reported offsets (for
// section-relative buffers); `section` labels the hits.
std::vector<GadgetHit> ScanBuffer(const uint8_t* data, size_t size, size_t base_offset,
                                  const std::string& section);

// A binary read and parsed once. For an ELF64 file, `sections` holds its
// section headers; any other file has none and is scanned whole.
struct BinaryImage {
  std::string path;
  std::string bytes;
  bool elf = false;
  std::vector<Elf64_Shdr> sections;
  // The section-name table's extent in `bytes`; empty when it is missing or
  // out of range.
  uint64_t names_offset = 0;
  uint64_t names_size = 0;

  const uint8_t* data() const { return reinterpret_cast<const uint8_t*>(bytes.data()); }
  // nullopt when the name table does not reach the section's name.
  std::optional<std::string> SectionName(const Elf64_Shdr& section) const {
    if (section.sh_name >= names_size) {
      return std::nullopt;
    }
    return std::string(bytes.data() + names_offset + section.sh_name);
  }
};

// Reads `path` and, for ELF64, parses its section table.
Result<BinaryImage> ReadBinary(const std::string& path);

// Scans an image's executable sections (ELF) or all of it (raw).
Result<std::vector<GadgetHit>> ScanImage(const BinaryImage& image);

// ReadBinary + ScanImage (see file comment).
Result<std::vector<GadgetHit>> ScanFile(const std::string& path);

// Converts hits to findings: unsanctioned wrpkru => error "wrpkru-gadget",
// xrstor => warning "xrstor-gadget", sanctioned wrpkru => note
// "sanctioned-wrpkru" (so gate inventory stays visible). `origin` labels the
// scanned artifact (shown as the finding's function field).
void ReportGadgets(const std::vector<GadgetHit>& hits, const std::string& origin,
                   DiagnosticSink& sink);

}  // namespace analysis
}  // namespace pkrusafe

#endif  // SRC_ANALYSIS_GADGET_SCAN_H_
