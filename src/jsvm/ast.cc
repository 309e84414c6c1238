#include "src/jsvm/ast.h"

#include <algorithm>

namespace pkrusafe {

void AstArena::Reserve(size_t bytes) { next_chunk_ = std::max(next_chunk_, bytes); }

void* AstArena::AllocateSlow(size_t bytes) {
  constexpr size_t kMinChunk = 1024;
  const size_t size = std::max({bytes, next_chunk_, kMinChunk});
  blocks_.push_back(std::make_unique_for_overwrite<char[]>(size));
  next_chunk_ = size * 2;
  char* chunk = blocks_.back().get();
  next_ = chunk + bytes;
  left_ = size - bytes;
  return chunk;
}

}  // namespace pkrusafe
