// Abstract syntax tree for MiniScript.
//
// A Program owns its whole tree in one AstArena: nodes, child lists and
// every name and string literal. Nodes point at each other with plain
// pointers and name their text with string_views into the arena, so
// building a tree costs no heap allocation per node, and dropping the
// Program frees it in a few chunk frees.
#ifndef SRC_JSVM_AST_H_
#define SRC_JSVM_AST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/jsvm/token.h"

namespace pkrusafe {

// Bump allocator for one tree. It runs no destructors, so it holds only
// trivially destructible objects.
class AstArena {
 public:
  AstArena() = default;
  AstArena(AstArena&& other) noexcept { *this = std::move(other); }
  AstArena& operator=(AstArena&& other) noexcept {
    blocks_ = std::move(other.blocks_);
    next_ = std::exchange(other.next_, nullptr);
    left_ = std::exchange(other.left_, 0);
    next_chunk_ = other.next_chunk_;
    return *this;
  }

  template <typename T>
  T* New() {
    static_assert(std::is_trivially_destructible_v<T>);
    return new (Allocate(sizeof(T), alignof(T))) T();
  }

  // A copy of `items` that lives as long as the arena.
  template <typename T>
  std::span<const T> CopyList(std::span<const T> items) {
    return {CopyArray(items.data(), items.size()), items.size()};
  }
  std::string_view CopyText(std::string_view text) {
    return {CopyArray(text.data(), text.size()), text.size()};
  }

  // Takes ownership of a buffer that arena text views into.
  void Adopt(std::unique_ptr<char[]> block) { blocks_.push_back(std::move(block)); }

  // Makes the next chunk at least `bytes` long (a size hint; optional).
  void Reserve(size_t bytes);

 private:
  template <typename T>
  T* CopyArray(const T* items, size_t n) {
    if (n == 0) {
      return nullptr;
    }
    auto* out = static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
    std::uninitialized_copy_n(items, n, out);
    return out;
  }

  void* Allocate(size_t bytes, size_t align) {
    const size_t skip = (align - reinterpret_cast<uintptr_t>(next_) % align) % align;
    if (skip + bytes > left_) {
      return AllocateSlow(bytes);
    }
    void* out = next_ + skip;
    next_ += skip + bytes;
    left_ -= skip + bytes;
    return out;
  }
  void* AllocateSlow(size_t bytes);

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* next_ = nullptr;
  size_t left_ = 0;
  size_t next_chunk_ = 0;
};

struct Expr;
struct Stmt;

enum class ExprKind : uint8_t {
  kNumber,
  kString,
  kBool,
  kNull,
  kVariable,
  kUnary,      // op operand
  kBinary,     // lhs op rhs (including && and ||)
  kAssign,     // target (variable or index) = value
  kCall,       // callee(args...)
  kIndex,      // base[index]
  kArrayLit,   // [elements...]
};

struct Expr {
  ExprKind kind = ExprKind::kNull;
  TokenType op = TokenType::kEof;  // kUnary / kBinary operator
  bool boolean = false;            // kBool
  int line = 0;

  double number = 0;        // kNumber
  std::string_view text;    // kString literal / kVariable / kCall callee name

  Expr* lhs = nullptr;      // kBinary lhs, kUnary operand, kIndex base,
                            // kAssign target
  Expr* rhs = nullptr;      // kBinary rhs, kIndex index, kAssign value
  std::span<Expr* const> args;  // kCall args, kArrayLit elements
};

enum class StmtKind : uint8_t {
  kExpr,
  kLet,
  kReturn,
  kIf,
  kWhile,
  kFor,
  kBlock,
  kBreak,
  kContinue,
};

struct Stmt {
  StmtKind kind = StmtKind::kExpr;
  int line = 0;

  std::string_view name;   // kLet variable name
  Expr* expr = nullptr;    // kExpr / kLet initializer / kReturn value / kIf /
                           // kWhile / kFor condition
  std::span<Stmt* const> body;       // kBlock statements, kIf then, kWhile/kFor body
  std::span<Stmt* const> else_body;  // kIf else
  Stmt* init = nullptr;    // kFor initializer
  Expr* step = nullptr;    // kFor step expression
};

struct FunctionDecl {
  std::string_view name;
  std::span<const std::string_view> params;
  std::span<Stmt* const> body;
  int line = 0;
  uint32_t node_count = 0;  // statements and expressions in the body
};

struct Program {
  std::vector<FunctionDecl> functions;
  std::span<Stmt* const> top_level;
  uint32_t top_level_node_count = 0;
  AstArena arena;  // owns every node, list and name above
};

}  // namespace pkrusafe

#endif  // SRC_JSVM_AST_H_
