// Compiled-program cache for the sandbox server.
//
// Every request used to lex, parse and compile its script, even when the
// identical text had arrived a millisecond earlier; compilation is the
// largest slice of a resident request. The cache keeps the bytecode of
// recurring scripts so a repeat request goes straight to Vm::Load's
// per-Vm interning.
//
//   * Key: the exact script text. A hash only picks a slot; a lookup
//     compares the whole text, so no two texts can share a program.
//   * Bound: an LRU of kCapacity entries.
//   * Admission: a hash-only doorkeeper of kDoorkeeperSlots slots admits a
//     program only the second time its text is seen, so traffic of unique
//     scripts pays one hash and never churns the LRU.
//   * Entries are compiled by the embedder (T) from the exact text and are
//     immutable; everything per-tenant (interned strings, globals) lives in
//     each request's Vm. An evicted program stays alive while a Vm still
//     holds it.
//
// Compilation runs outside the lock; only successful compiles are cached,
// so a bad script recompiles every time and keeps its exact error message.
// If two workers compile the same text at once, the first insert wins.
#ifndef SRC_SERVER_PROGRAM_CACHE_H_
#define SRC_SERVER_PROGRAM_CACHE_H_

#include <array>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/jsvm/bytecode.h"
#include "src/support/status.h"

namespace pkrusafe {
namespace server {

class ProgramCache {
 public:
  static constexpr size_t kCapacity = 64;
  static constexpr size_t kDoorkeeperSlots = 1024;

  // Programs are compiled against `host_names`, which must be the host
  // functions (in registration order) of every Vm that loads them.
  explicit ProgramCache(std::vector<std::string> host_names);

  ProgramCache(const ProgramCache&) = delete;
  ProgramCache& operator=(const ProgramCache&) = delete;

  // The compiled program for `source`: the cached one on a hit, otherwise a
  // fresh compile (cached if the doorkeeper has seen the text before), or
  // the compile error.
  Result<std::shared_ptr<const CompiledProgram>> Get(std::string_view source);

  // The doorkeeper slot `source` hashes to.
  static size_t DoorkeeperSlot(std::string_view source);

  // Cached entries right now.
  size_t size() const;

 private:
  struct Entry {
    std::string text;
    std::shared_ptr<const CompiledProgram> program;
  };

  const std::vector<std::string> host_names_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // most recently used first
  // Keys view the text of their lru_ node, which list splices never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  // Each slot holds the hash (low bit forced on, so an empty slot matches
  // nothing) of the last text seen there.
  std::array<size_t, kDoorkeeperSlots> doorkeeper_{};
};

}  // namespace server
}  // namespace pkrusafe

#endif  // SRC_SERVER_PROGRAM_CACHE_H_
