#include "src/analysis/gate_integrity.h"

#include <cstring>
#include <set>

#include "src/support/string_util.h"

namespace pkrusafe {
namespace analysis {

Result<BinaryGateReport> ScanBinaryGates(const std::string& path) {
  BinaryGateReport report;
  report.path = path;

  PS_ASSIGN_OR_RETURN(const BinaryImage image, ReadBinary(path));
  PS_ASSIGN_OR_RETURN(report.hits, ScanImage(image));
  std::set<size_t> sanctioned_offsets;
  for (const GadgetHit& hit : report.hits) {
    if (hit.kind == GadgetHit::Kind::kXrstor) {
      ++report.xrstor;
    } else if (hit.sanctioned) {
      ++report.sanctioned;
      sanctioned_offsets.insert(hit.offset);
    } else {
      ++report.unsanctioned;
    }
  }
  if (!image.elf) {
    return report;  // raw input: no registry to cross-check
  }
  report.elf = true;

  const Elf64_Shdr* registry = nullptr;
  for (const Elf64_Shdr& section : image.sections) {
    if (image.SectionName(section) == kGateRegistrySection) {
      registry = &section;
      break;
    }
  }
  if (registry == nullptr) {
    return report;
  }
  report.has_registry = true;

  if (registry->sh_type == SHT_NOBITS ||
      registry->sh_offset + registry->sh_size > image.bytes.size() ||
      registry->sh_size % sizeof(int32_t) != 0) {
    return InvalidArgumentError(path + ": malformed " + std::string(kGateRegistrySection) +
                                " section");
  }

  // Entry i sits at sh_addr + 4*i and holds the gate's offset from itself.
  report.registered = registry->sh_size / sizeof(int32_t);
  report.registry_vaddrs.reserve(report.registered);
  for (size_t i = 0; i < report.registered; ++i) {
    int32_t delta = 0;
    std::memcpy(&delta, image.data() + registry->sh_offset + i * sizeof(int32_t),
                sizeof(delta));
    report.registry_vaddrs.push_back(registry->sh_addr + i * sizeof(int32_t) +
                                     static_cast<uint64_t>(static_cast<int64_t>(delta)));
  }

  // Each registered vaddr maps to a file offset through the executable
  // section holding it. Registry entries (`.long 1f - .`) decode to link-time
  // vaddrs, which for PIE binaries match sh_addr as-is: both sides are
  // pre-relocation link-time addresses.
  std::set<size_t> claimed;
  for (const uint64_t vaddr : report.registry_vaddrs) {
    bool verified = false;
    for (const Elf64_Shdr& window : image.sections) {
      if (window.sh_type == SHT_NOBITS || (window.sh_flags & SHF_EXECINSTR) == 0 ||
          vaddr < window.sh_addr || vaddr - window.sh_addr >= window.sh_size) {
        continue;
      }
      const size_t file_offset = static_cast<size_t>(window.sh_offset + (vaddr - window.sh_addr));
      if (sanctioned_offsets.contains(file_offset)) {
        verified = true;
        claimed.insert(file_offset);
      }
      break;
    }
    if (!verified) {
      ++report.registered_unverified;
    }
  }
  report.sanctioned_unregistered = sanctioned_offsets.size() - claimed.size();
  return report;
}

size_t CheckGateIntegrity(const BinaryGateReport& report, const GateInventory* inventory,
                          DiagnosticSink& sink) {
  size_t errors = 0;
  auto error = [&](std::string message, std::string hint) {
    Finding finding;
    finding.severity = Severity::kError;
    finding.rule = "gate-count-mismatch";
    finding.function = report.path;
    finding.message = std::move(message);
    finding.fix_hint = std::move(hint);
    sink.Report(std::move(finding));
    ++errors;
  };

  if (report.unsanctioned > 0) {
    error(StrFormat("%zu executable wrpkru byte sequence(s) carry no gate marker",
                    report.unsanctioned),
          "every transition must be one of the TCB's marked gates; rebuild to displace the "
          "stray encoding or route it through the call gate");
  }

  if (report.has_registry) {
    if (report.registered_unverified > 0) {
      error(StrFormat("%zu of %zu registered gate site(s) have no marker-verified wrpkru at "
                      "their address",
                      report.registered_unverified, report.registered),
            "the linker dropped, moved or stripped a gate the TCB emitted; the registry and "
            ".text must describe the same transition surface");
    }
    if (report.sanctioned_unregistered > 0) {
      error(StrFormat("%zu marker-verified wrpkru site(s) are absent from %s",
                      report.sanctioned_unregistered, kGateRegistrySection),
            "a sanctioned-looking gate exists that the TCB never registered (duplicated or "
            "foreign copy of the gate sequence)");
    }
  } else if (report.elf && report.sanctioned > 0) {
    error(StrFormat("binary carries %zu sanctioned gate(s) but no %s registry section",
                    report.sanctioned, kGateRegistrySection),
          "link the hardware backend that registers its gates, or strip the gate sequences");
  }

  if (inventory != nullptr) {
    if (!inventory->balanced()) {
      error(StrFormat("IR gate inventory is unbalanced: %zu T->U site(s) vs %zu U->T site(s)",
                      inventory->to_untrusted_sites, inventory->to_trusted_sites),
            "fix the pkru-unbalanced-gate findings before trusting the binary cross-check");
    }
    const bool module_needs_gates = inventory->to_untrusted_sites > 0;
    if (module_needs_gates && report.has_registry && report.sanctioned == 0) {
      error(StrFormat("IR inventory has %zu transition site(s) but the binary exposes no "
                      "sanctioned gate",
                      inventory->to_untrusted_sites),
            "the runtime cannot perform any PKRU transition; the module's gates would trap or "
            "silently no-op");
    }
  }

  {
    Finding finding;
    finding.severity = Severity::kNote;
    finding.rule = "gate-inventory";
    finding.function = report.path;
    finding.message = StrFormat(
        "binary: %zu sanctioned / %zu unsanctioned wrpkru, %zu xrstor, %zu registered site(s)%s",
        report.sanctioned, report.unsanctioned, report.xrstor, report.registered,
        inventory == nullptr
            ? ""
            : StrFormat("; IR: %zu T->U / %zu U->T site(s)", inventory->to_untrusted_sites,
                        inventory->to_trusted_sites)
                  .c_str());
    sink.Report(std::move(finding));
  }
  return errors;
}

}  // namespace analysis
}  // namespace pkrusafe
