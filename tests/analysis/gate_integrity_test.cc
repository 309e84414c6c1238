// Link-time gate-integrity tests over hand-built minimal ELF64 images: a
// synthetic .text with wrpkru gates at known offsets plus a .pkru_gate_sites
// registry, exercised through ScanBinaryGates/CheckGateIntegrity in every
// mismatch direction.
#include "src/analysis/gate_integrity.h"

#include <gtest/gtest.h>

#include <elf.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace pkrusafe {
namespace analysis {
namespace {

// See gadget_scan_test.cc: keeps fixture byte patterns out of this binary's
// own .text so the self-scan smoke test stays clean.
volatile uint8_t g_opaque_zero = 0;

constexpr uint64_t kTextVaddr = 0x401000;
constexpr uint64_t kRegistryVaddr = 0x402000;

std::vector<uint8_t> Nops(size_t n) { return std::vector<uint8_t>(n, 0x90); }

void Append(std::vector<uint8_t>& out, std::initializer_list<uint8_t> raw) {
  for (uint8_t b : raw) {
    out.push_back(b ^ g_opaque_zero);
  }
}

// Appends a sanctioned gate (wrpkru + marker) and returns its .text offset.
size_t AppendGate(std::vector<uint8_t>& text, bool with_marker = true) {
  const size_t at = text.size();
  Append(text, {0x0f, 0x01, 0xef});
  if (with_marker) {
    for (uint8_t b : kWrpkruGateMarker) {
      text.push_back(b ^ g_opaque_zero);
    }
  }
  return at;
}

struct MiniElf {
  std::vector<uint8_t> text;
  // Gate vaddrs the registry claims; Write() encodes each as the hardware
  // backend does, a 4-byte offset from the entry's own address.
  std::vector<uint64_t> registry;
  bool include_registry_section = true;

  std::string Write(const std::string& name) const {
    std::vector<int32_t> entries;
    for (size_t i = 0; i < registry.size(); ++i) {
      entries.push_back(static_cast<int32_t>(registry[i] - (kRegistryVaddr + 4 * i)));
    }

    // "\0.text\0.pkru_gate_sites\0.shstrtab\0"
    std::string strtab("\0.text\0.pkru_gate_sites\0.shstrtab\0", 34);
    const uint32_t name_text = 1;
    const uint32_t name_registry = 7;
    const uint32_t name_strtab = 24;

    auto align8 = [](size_t v) { return (v + 7) & ~size_t{7}; };
    const size_t text_off = 0x100;
    const size_t reg_off = align8(text_off + text.size());
    const size_t str_off = reg_off + entries.size() * sizeof(int32_t);
    const size_t sh_off = align8(str_off + strtab.size());
    const size_t num_sections = include_registry_section ? 4 : 3;

    std::vector<uint8_t> image(sh_off + num_sections * sizeof(Elf64_Shdr), 0);

    Elf64_Ehdr ehdr{};
    std::memcpy(ehdr.e_ident, ELFMAG, SELFMAG);
    ehdr.e_ident[EI_CLASS] = ELFCLASS64;
    ehdr.e_ident[EI_DATA] = ELFDATA2LSB;
    ehdr.e_ident[EI_VERSION] = EV_CURRENT;
    ehdr.e_type = ET_EXEC;
    ehdr.e_machine = EM_X86_64;
    ehdr.e_version = EV_CURRENT;
    ehdr.e_shoff = sh_off;
    ehdr.e_ehsize = sizeof(Elf64_Ehdr);
    ehdr.e_shentsize = sizeof(Elf64_Shdr);
    ehdr.e_shnum = static_cast<uint16_t>(num_sections);
    ehdr.e_shstrndx = static_cast<uint16_t>(num_sections - 1);
    std::memcpy(image.data(), &ehdr, sizeof(ehdr));

    std::memcpy(image.data() + text_off, text.data(), text.size());
    if (!entries.empty()) {  // memcpy from an empty vector's null data() is UB
      std::memcpy(image.data() + reg_off, entries.data(), entries.size() * sizeof(int32_t));
    }
    std::memcpy(image.data() + str_off, strtab.data(), strtab.size());

    std::vector<Elf64_Shdr> shdrs(num_sections, Elf64_Shdr{});
    shdrs[1].sh_name = name_text;
    shdrs[1].sh_type = SHT_PROGBITS;
    shdrs[1].sh_flags = SHF_ALLOC | SHF_EXECINSTR;
    shdrs[1].sh_addr = kTextVaddr;
    shdrs[1].sh_offset = text_off;
    shdrs[1].sh_size = text.size();
    size_t next = 2;
    if (include_registry_section) {
      shdrs[next].sh_name = name_registry;
      shdrs[next].sh_type = SHT_PROGBITS;
      shdrs[next].sh_flags = SHF_ALLOC;
      shdrs[next].sh_addr = kRegistryVaddr;
      shdrs[next].sh_offset = reg_off;
      shdrs[next].sh_size = entries.size() * sizeof(int32_t);
      shdrs[next].sh_addralign = 4;
      ++next;
    }
    shdrs[next].sh_name = name_strtab;
    shdrs[next].sh_type = SHT_STRTAB;
    shdrs[next].sh_offset = str_off;
    shdrs[next].sh_size = strtab.size();
    std::memcpy(image.data() + sh_off, shdrs.data(), num_sections * sizeof(Elf64_Shdr));

    const std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()), image.size());
    return path;
  }
};

size_t Errors(const BinaryGateReport& report, const GateInventory* inventory) {
  DiagnosticSink sink;
  return CheckGateIntegrity(report, inventory, sink);
}

TEST(GateIntegrityTest, RegistryScanBijectionIsClean) {
  MiniElf elf;
  elf.text = Nops(16);
  const size_t gate = AppendGate(elf.text);
  elf.text.insert(elf.text.end(), 5, 0x90);
  elf.registry = {kTextVaddr + gate};

  const std::string path = elf.Write("bijection.elf");
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->elf);
  EXPECT_TRUE(report->has_registry);
  EXPECT_EQ(report->sanctioned, 1u);
  EXPECT_EQ(report->unsanctioned, 0u);
  EXPECT_EQ(report->registered, 1u);
  EXPECT_EQ(report->registered_unverified, 0u);
  EXPECT_EQ(report->sanctioned_unregistered, 0u);
  EXPECT_EQ(Errors(*report, nullptr), 0u);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, DroppedGateIsRegisteredButUnverified) {
  MiniElf elf;
  elf.text = Nops(8);
  const size_t gate = AppendGate(elf.text);
  // The registry claims a second gate the linker "dropped" (only nops there).
  elf.text.insert(elf.text.end(), 16, 0x90);
  elf.registry = {kTextVaddr + gate, kTextVaddr + gate + 12};

  const std::string path = elf.Write("dropped.elf");
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->registered, 2u);
  EXPECT_EQ(report->registered_unverified, 1u);
  EXPECT_EQ(Errors(*report, nullptr), 1u);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, DuplicatedGateIsSanctionedButUnregistered) {
  MiniElf elf;
  elf.text = Nops(8);
  const size_t gate = AppendGate(elf.text);
  elf.text.insert(elf.text.end(), 3, 0x90);
  AppendGate(elf.text);  // marker-carrying copy the registry never claims
  elf.registry = {kTextVaddr + gate};

  const std::string path = elf.Write("duplicated.elf");
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sanctioned, 2u);
  EXPECT_EQ(report->sanctioned_unregistered, 1u);
  EXPECT_EQ(Errors(*report, nullptr), 1u);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, UnsanctionedWrpkruIsAnError) {
  MiniElf elf;
  elf.text = Nops(4);
  AppendGate(elf.text, /*with_marker=*/false);
  elf.text.insert(elf.text.end(), 4, 0x90);

  const std::string path = elf.Write("stray.elf");
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->unsanctioned, 1u);
  EXPECT_EQ(Errors(*report, nullptr), 1u);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, SanctionedGatesWithoutRegistryIsAnError) {
  MiniElf elf;
  elf.text = Nops(4);
  AppendGate(elf.text);
  elf.include_registry_section = false;

  const std::string path = elf.Write("noregistry.elf");
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->elf);
  EXPECT_FALSE(report->has_registry);
  EXPECT_EQ(Errors(*report, nullptr), 1u);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, RawFileHasNoRegistryAndNoRegistryError) {
  const std::string path = ::testing::TempDir() + "/raw.bin";
  {
    std::ofstream out(path, std::ios::binary);
    std::vector<uint8_t> blob;
    Append(blob, {'r', 'a', 'w'});
    out.write(reinterpret_cast<const char*>(blob.data()), blob.size());
  }
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->elf);
  EXPECT_FALSE(report->has_registry);
  EXPECT_EQ(Errors(*report, nullptr), 0u);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, IrInventoryCrossChecks) {
  MiniElf elf;
  elf.text = Nops(4);
  const size_t gate = AppendGate(elf.text);
  elf.registry = {kTextVaddr + gate};
  const std::string path = elf.Write("inventory.elf");
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  GateInventory balanced;
  balanced.to_untrusted_sites = 2;
  balanced.to_trusted_sites = 2;
  EXPECT_EQ(Errors(*report, &balanced), 0u);

  GateInventory unbalanced;
  unbalanced.to_untrusted_sites = 2;
  unbalanced.to_trusted_sites = 1;
  EXPECT_EQ(Errors(*report, &unbalanced), 1u);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, ModuleNeedsGatesButBinaryHasNone) {
  MiniElf elf;
  elf.text = Nops(16);  // registry section present but empty, no gates
  const std::string path = elf.Write("gateless.elf");
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->has_registry);
  EXPECT_EQ(report->sanctioned, 0u);

  GateInventory needs_gates;
  needs_gates.to_untrusted_sites = 1;
  needs_gates.to_trusted_sites = 1;
  EXPECT_EQ(Errors(*report, &needs_gates), 1u);

  GateInventory no_gates;
  EXPECT_EQ(Errors(*report, &no_gates), 0u);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, InventoryNoteAlwaysEmitted) {
  MiniElf elf;
  elf.text = Nops(4);
  const size_t gate = AppendGate(elf.text);
  elf.registry = {kTextVaddr + gate};
  const std::string path = elf.Write("note.elf");
  auto report = ScanBinaryGates(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  DiagnosticSink sink;
  CheckGateIntegrity(*report, nullptr, sink);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.findings()[0].rule, "gate-inventory");
  EXPECT_EQ(sink.findings()[0].severity, Severity::kNote);
  std::remove(path.c_str());
}

TEST(GateIntegrityTest, MissingFileIsAnError) {
  EXPECT_FALSE(ScanBinaryGates("/nonexistent/never-here").ok());
}

}  // namespace
}  // namespace analysis
}  // namespace pkrusafe
