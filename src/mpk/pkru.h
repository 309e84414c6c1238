// Model of the 32-bit PKRU register.
//
// Bit layout (Intel SDM vol. 3, §4.6.2): for protection key i,
//   bit 2i   = AD (access disable: all data accesses fault)
//   bit 2i+1 = WD (write disable: writes fault, reads allowed)
// Key 0's bits exist but Linux keeps them clear; we model all 16 keys.
#ifndef SRC_MPK_PKRU_H_
#define SRC_MPK_PKRU_H_

#include <cstdint>
#include <string>

#include "src/mpk/pkey.h"

namespace pkrusafe {

enum class AccessKind : uint8_t { kRead, kWrite };

inline const char* AccessKindName(AccessKind kind) {
  return kind == AccessKind::kRead ? "read" : "write";
}

class PkruValue {
 public:
  constexpr PkruValue() = default;
  constexpr explicit PkruValue(uint32_t raw) : raw_(raw) {}

  // All keys readable and writable.
  static constexpr PkruValue AllowAll() { return PkruValue(0); }

  // Everything denied except key 0 — the most restrictive value Linux can
  // schedule a thread with.
  static constexpr PkruValue DenyAllButDefault() {
    return PkruValue(0xFFFFFFFCu);
  }

  constexpr uint32_t raw() const { return raw_; }

  constexpr bool access_disabled(PkeyId key) const { return (raw_ >> (2 * key)) & 1u; }
  constexpr bool write_disabled(PkeyId key) const { return (raw_ >> (2 * key + 1)) & 1u; }

  constexpr bool allows_read(PkeyId key) const { return !access_disabled(key); }
  constexpr bool allows_write(PkeyId key) const {
    return !access_disabled(key) && !write_disabled(key);
  }
  constexpr bool Allows(PkeyId key, AccessKind kind) const {
    return kind == AccessKind::kRead ? allows_read(key) : allows_write(key);
  }

  // Functional updates (the register is tiny; copies are free).
  constexpr PkruValue WithAccessDisabled(PkeyId key) const {
    return PkruValue(raw_ | (1u << (2 * key)));
  }
  constexpr PkruValue WithWriteDisabled(PkeyId key) const {
    return PkruValue(raw_ | (1u << (2 * key + 1)));
  }
  constexpr PkruValue WithKeyAllowed(PkeyId key) const {
    return PkruValue(raw_ & ~(3u << (2 * key)));
  }

  constexpr bool operator==(const PkruValue& other) const { return raw_ == other.raw_; }
  constexpr bool operator!=(const PkruValue& other) const { return raw_ != other.raw_; }

  // e.g. "pkru(0x00000004: AD[1])".
  std::string ToString() const;

 private:
  uint32_t raw_ = 0;
};

// The software PKRU register: one per thread, shared by the sim and mprotect
// backends (their ReadPkru/WritePkru). The hardware backend never touches it;
// its PKRU is the real register. Outside those two backends, read the PKRU
// through MpkBackend::ReadPkru, never here. Both accessors are inline over
// one constant-initialized thread_local, so a read or write is a single TLS
// access with no wrapper call.
namespace internal {
inline constinit thread_local uint32_t software_pkru = 0;
}  // namespace internal
inline PkruValue CurrentThreadPkru() { return PkruValue(internal::software_pkru); }
inline void SetCurrentThreadPkru(PkruValue value) { internal::software_pkru = value.raw(); }

}  // namespace pkrusafe

#endif  // SRC_MPK_PKRU_H_
