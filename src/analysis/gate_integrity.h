// Link-time gate-integrity verification (the binary half of pkru_flow.h).
//
// The IR-level flow analysis proves where sanctioned PKRU transitions live
// in the program the compiler saw. This module checks that the *built
// artifact* agrees, closing the gap Garmr-style tooling targets: a compiler
// or linker that duplicates, drops or re-materialises wrpkru instructions
// silently changes the transition surface without failing any IR-level
// check.
//
// Two independent inventories are taken from the ELF and cross-checked:
//
//   * the byte scan (gadget_scan.h): every executable wrpkru, classified
//     sanctioned iff the gate marker (the Garmr-style re-check sequence)
//     immediately follows;
//   * the gate-site registry: the hardware backend's WrPkru emits, next to
//     each inlined wrpkru copy, one PC-relative entry locating it in the
//     .pkru_gate_sites section — an authoritative list of the gates the TCB
//     meant to emit.
//
// CheckGateIntegrity demands a bijection between the two (every registered
// site is marker-verified at its registered address, every sanctioned hit is
// registered) and zero unsanctioned wrpkru bytes; with an IR-level
// GateInventory it additionally cross-checks that a module needing
// transitions runs on a binary that actually exposes sanctioned gates, and
// that the IR inventory itself is balanced. Mismatches render through the
// shared DiagnosticSink (rule gate-count-mismatch, error) so
// `pkrusafe_lint check-binary` can gate CI builds.
#ifndef SRC_ANALYSIS_GATE_INTEGRITY_H_
#define SRC_ANALYSIS_GATE_INTEGRITY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/analysis/gadget_scan.h"
#include "src/analysis/pkru_flow.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace analysis {

// Section the hardware backend's inline asm registers gate addresses in.
inline constexpr char kGateRegistrySection[] = ".pkru_gate_sites";

struct BinaryGateReport {
  std::string path;
  bool elf = false;           // ELF64 parse succeeded (raw scan otherwise)
  bool has_registry = false;  // a .pkru_gate_sites section exists

  // Byte-scan tallies over executable sections.
  size_t sanctioned = 0;    // wrpkru + gate marker
  size_t unsanctioned = 0;  // wrpkru without the marker (gadgets)
  size_t xrstor = 0;

  // Registry cross-check. `registered` counts registry entries, each a 4-byte
  // offset from the entry's own address, decoded into `registry_vaddrs`;
  // `registered_unverified` are entries whose address is NOT a sanctioned
  // scanner hit (dropped/overwritten/marker-stripped gate); `sanctioned_
  // unregistered` are sanctioned hits the registry does not claim
  // (duplicated or foreign gate carrying our marker).
  size_t registered = 0;
  std::vector<uint64_t> registry_vaddrs;
  size_t registered_unverified = 0;
  size_t sanctioned_unregistered = 0;

  std::vector<GadgetHit> hits;
};

// Scans `path` (ScanFile semantics) and, for ELF64 inputs, reads the gate
// registry and resolves each registered virtual address to a file offset via
// the executable sections' sh_addr/sh_offset windows to match it against the
// scanner's sanctioned hits.
Result<BinaryGateReport> ScanBinaryGates(const std::string& path);

// Emits gate-count-mismatch errors (and a sanctioned-site inventory note)
// for the report; `inventory` is the IR-level gate inventory to cross-check
// against, or null for a binary-only check. Returns the number of
// error-severity findings emitted.
size_t CheckGateIntegrity(const BinaryGateReport& report, const GateInventory* inventory,
                          DiagnosticSink& sink);

}  // namespace analysis
}  // namespace pkrusafe

#endif  // SRC_ANALYSIS_GATE_INTEGRITY_H_
