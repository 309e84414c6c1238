// Bytecode representation produced by the compiler and executed by the VM.
#ifndef SRC_JSVM_BYTECODE_H_
#define SRC_JSVM_BYTECODE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/support/status.h"

namespace pkrusafe {

enum class Op : uint8_t {
  kConst,        // push constants[a]
  kNull,         // push null
  kTrue,
  kFalse,
  kPop,
  kDup,          // duplicate top of stack
  kLoadLocal,    // push locals[a]
  kStoreLocal,   // locals[a] = peek (value stays on stack)
  kLoadGlobal,   // push globals[a]
  kStoreGlobal,  // globals[a] = peek
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kNeg,
  kNot,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kJump,           // ip = a
  kJumpIfFalse,    // pop; if falsey ip = a
  kJumpIfFalseKeep,  // if falsey { ip = a } else { pop }   (for &&)
  kJumpIfTrueKeep,   // if truthy { ip = a } else { pop }   (for ||)
  kCall,      // a = script function index, b = argc
  kCallHost,  // a = host function index,  b = argc
  kCallBuiltin,  // a = BuiltinId,          b = argc
  kReturn,    // pop result, leave function
  kNewArray,  // pop a elements, push array
  kIndexGet,  // pop index, base; push base[index]
  kIndexSet,  // pop value, index, base; push value

  // Superinstructions: FuseInstructions (compiler.cc) folds each of these
  // from the two or three instructions named in its comment, and the Vm
  // charges a step for each of them. In the constant and branch forms, `b`
  // is a number constant's index and `a` a jump target.
  kStoreLocalPop,   // store_local a; pop
  kStoreGlobalPop,  // store_global a; pop
  kAddConst,        // const b; add
  kSubConst,        // const b; sub
  kMulConst,        // const b; mul
  kModConst,        // const b; mod
  kLtConst,         // const b; lt
  kLeConst,         // const b; le
  kGtConst,         // const b; gt
  kGeConst,         // const b; ge
  kJumpNotLt,       // lt; jump_if_false a
  kJumpNotLe,       // le; jump_if_false a
  kJumpNotGt,       // gt; jump_if_false a
  kJumpNotGe,       // ge; jump_if_false a
  kJumpNotLtConst,  // const b; lt; jump_if_false a
  kJumpNotLeConst,  // const b; le; jump_if_false a
  kJumpNotGtConst,  // const b; gt; jump_if_false a
  kJumpNotGeConst,  // const b; ge; jump_if_false a
};
inline constexpr Op kLastOp = Op::kJumpNotGeConst;

// Builtins resolved at compile time. The last three form the opt-in
// "CVE" used by the security evaluation (§5.4): an arbitrary
// read/write/addr-of primitive inside the untrusted engine, standing in for
// the type-confusion exploit of CVE-2019-11707.
enum class BuiltinId : uint8_t {
  kPrint,
  kLen,
  kPush,
  kPop,
  kSqrt,
  kSin,
  kCos,
  kFloor,
  kPow,
  kAbs,
  kMin,
  kMax,
  kSubstr,
  kOrd,
  kChr,
  kStr,
  kBand,  // 32-bit integer ops (JS |0 semantics), used by the crypto kernels
  kBor,
  kBxor,
  kShlB,
  kShrB,
  kAddrOf,  // __addrof(v): address of v's heap object
  kPeek,    // __peek(addr): 8-byte read anywhere in the address space
  kPoke,    // __poke(addr, v): 8-byte write anywhere in the address space
};
inline constexpr int kNumBuiltins = 24;

struct BcInstr {
  Op op;
  uint32_t a = 0;
  uint32_t b = 0;
};

// Compile-time constant; string constants are interned into the VM heap at
// load time.
using BcConstant = std::variant<double, std::string>;

struct CompiledFunction {
  std::string name;
  uint32_t arity = 0;
  uint32_t num_locals = 0;  // including parameters
  std::vector<BcInstr> code;
  std::vector<BcConstant> constants;
  std::vector<int> lines;  // per-instruction source line (diagnostics)
  uint32_t max_stack = 0;  // deepest operand stack; set by VerifyProgram
};

struct CompiledProgram {
  // functions[0] is the synthesized top-level "@main".
  std::vector<CompiledFunction> functions;
  std::vector<std::string> global_names;
  std::vector<std::string> host_names;  // index space of kCallHost

  // True once VerifyProgram has accepted the program (and set every
  // max_stack); Vm::Load runs nothing else. A copy starts unverified, since
  // it may be edited before it is loaded. A verified program must not be
  // edited.
  bool verified() const { return verified_.set; }

 private:
  friend Status VerifyProgram(CompiledProgram& program);
  struct Mark {
    bool set = false;
    Mark() = default;
    Mark(const Mark&) {}
    Mark(Mark&& other) noexcept : set(std::exchange(other.set, false)) {}
    Mark& operator=(const Mark&) {
      set = false;
      return *this;
    }
    Mark& operator=(Mark&& other) noexcept {
      set = std::exchange(other.set, false);
      return *this;
    }
  };
  Mark verified_;
};

}  // namespace pkrusafe

#endif  // SRC_JSVM_BYTECODE_H_
