#include "src/mpk/pkru.h"

#include "src/support/string_util.h"

namespace pkrusafe {

std::string PkruValue::ToString() const {
  std::string bits;
  for (int key = 0; key < kNumPkeys; ++key) {
    const bool ad = access_disabled(static_cast<PkeyId>(key));
    const bool wd = write_disabled(static_cast<PkeyId>(key));
    if (ad) {
      bits += StrFormat("%sAD[%d]", bits.empty() ? "" : ",", key);
    } else if (wd) {
      bits += StrFormat("%sWD[%d]", bits.empty() ? "" : ",", key);
    }
  }
  return StrFormat("pkru(0x%08x: %s)", raw_, bits.empty() ? "-" : bits.c_str());
}

}  // namespace pkrusafe
