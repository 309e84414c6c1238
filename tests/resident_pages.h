// The resident pages of a MultiCompartment library pool, for layout tests
// that count what a key miss's TLB flush covers.
#ifndef TESTS_RESIDENT_PAGES_H_
#define TESTS_RESIDENT_PAGES_H_

#include <sys/mman.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "src/memmap/page.h"
#include "src/multidomain/multi_compartment.h"

namespace pkrusafe {

// The resident pages of the pool holding `inside`, by address. The pool's
// reservation is found page by page through PrivateOwnerOf.
inline std::vector<uintptr_t> ResidentPoolPages(const MultiCompartment& mc, const void* inside) {
  const std::optional<LibraryId> owner = mc.PrivateOwnerOf(inside);
  const auto owned = [&](uintptr_t page) {
    return mc.PrivateOwnerOf(reinterpret_cast<const void*>(page)) == owner;
  };
  uintptr_t begin = reinterpret_cast<uintptr_t>(inside) & ~(kPageSize - 1);
  while (owned(begin - kPageSize)) {
    begin -= kPageSize;
  }
  uintptr_t end = begin;
  while (owned(end)) {
    end += kPageSize;
  }
  std::vector<unsigned char> vec((end - begin) / kPageSize);
  std::vector<uintptr_t> resident;
  if (::mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()) != 0) {
    return resident;
  }
  for (size_t i = 0; i < vec.size(); ++i) {
    if ((vec[i] & 1) != 0) {
      resident.push_back(begin + i * kPageSize);
    }
  }
  return resident;
}

}  // namespace pkrusafe

#endif  // TESTS_RESIDENT_PAGES_H_
