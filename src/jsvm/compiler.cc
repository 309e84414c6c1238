#include "src/jsvm/compiler.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <variant>

#include "src/jsvm/parser.h"
#include "src/support/string_util.h"

namespace pkrusafe {

namespace {

// Builtin names, sorted for binary search.
constexpr std::pair<std::string_view, BuiltinId> kBuiltins[] = {
    {"__addrof", BuiltinId::kAddrOf}, {"__peek", BuiltinId::kPeek},
    {"__poke", BuiltinId::kPoke},     {"abs", BuiltinId::kAbs},
    {"band", BuiltinId::kBand},       {"bor", BuiltinId::kBor},
    {"bxor", BuiltinId::kBxor},       {"chr", BuiltinId::kChr},
    {"cos", BuiltinId::kCos},         {"floor", BuiltinId::kFloor},
    {"len", BuiltinId::kLen},         {"max", BuiltinId::kMax},
    {"min", BuiltinId::kMin},         {"ord", BuiltinId::kOrd},
    {"pop", BuiltinId::kPop},         {"pow", BuiltinId::kPow},
    {"print", BuiltinId::kPrint},     {"push", BuiltinId::kPush},
    {"shl", BuiltinId::kShlB},        {"shr", BuiltinId::kShrB},
    {"sin", BuiltinId::kSin},         {"sqrt", BuiltinId::kSqrt},
    {"str", BuiltinId::kStr},         {"substr", BuiltinId::kSubstr},
};
static_assert(std::size(kBuiltins) == kNumBuiltins);
static_assert(std::is_sorted(std::begin(kBuiltins), std::end(kBuiltins)));

std::optional<BuiltinId> FindBuiltin(std::string_view name) {
  const auto* it = std::lower_bound(
      std::begin(kBuiltins), std::end(kBuiltins), name,
      [](const std::pair<std::string_view, BuiltinId>& entry, std::string_view key) {
        return entry.first < key;
      });
  if (it == std::end(kBuiltins) || it->first != name) {
    return std::nullopt;
  }
  return it->second;
}

int BuiltinArity(BuiltinId id) {
  switch (id) {
    case BuiltinId::kPrint:
    case BuiltinId::kLen:
    case BuiltinId::kPop:
    case BuiltinId::kSqrt:
    case BuiltinId::kSin:
    case BuiltinId::kCos:
    case BuiltinId::kFloor:
    case BuiltinId::kAbs:
    case BuiltinId::kStr:
    case BuiltinId::kChr:
    case BuiltinId::kAddrOf:
    case BuiltinId::kPeek:
      return 1;
    case BuiltinId::kPush:
    case BuiltinId::kBand:
    case BuiltinId::kBor:
    case BuiltinId::kBxor:
    case BuiltinId::kShlB:
    case BuiltinId::kShrB:
    case BuiltinId::kPow:
    case BuiltinId::kMin:
    case BuiltinId::kMax:
    case BuiltinId::kOrd:
    case BuiltinId::kPoke:
      return 2;
    case BuiltinId::kSubstr:
      return 3;
  }
  return -1;
}

// How many values an instruction takes off the operand stack and how many
// it leaves. The keep-jumps leave their operand on the jump edge only.
struct StackEffect {
  uint32_t pops;
  uint32_t pushes;
};

StackEffect EffectOf(const BcInstr& instr) {
  switch (instr.op) {
    case Op::kJump:
      return {0, 0};
    case Op::kPop:
    case Op::kJumpIfFalse:
    case Op::kReturn:
    case Op::kStoreLocalPop:
    case Op::kStoreGlobalPop:
    case Op::kJumpNotLtConst:
    case Op::kJumpNotLeConst:
    case Op::kJumpNotGtConst:
    case Op::kJumpNotGeConst:
      return {1, 0};
    case Op::kJumpNotLt:
    case Op::kJumpNotLe:
    case Op::kJumpNotGt:
    case Op::kJumpNotGe:
      return {2, 0};
    case Op::kStoreLocal:
    case Op::kStoreGlobal:
    case Op::kNeg:
    case Op::kNot:
    case Op::kJumpIfFalseKeep:
    case Op::kJumpIfTrueKeep:
    case Op::kAddConst:
    case Op::kSubConst:
    case Op::kMulConst:
    case Op::kModConst:
    case Op::kLtConst:
    case Op::kLeConst:
    case Op::kGtConst:
    case Op::kGeConst:
      return {1, 1};
    case Op::kDup:
      return {1, 2};
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kIndexGet:
      return {2, 1};
    case Op::kIndexSet:
      return {3, 1};
    case Op::kCall:
    case Op::kCallHost:
    case Op::kCallBuiltin:
      return {instr.b, 1};
    case Op::kNewArray:
      return {instr.a, 1};
    default:  // constants and loads
      return {0, 1};
  }
}

bool IsJump(Op op) {
  switch (op) {
    case Op::kJump:
    case Op::kJumpIfFalse:
    case Op::kJumpIfFalseKeep:
    case Op::kJumpIfTrueKeep:
    case Op::kJumpNotLt:
    case Op::kJumpNotLe:
    case Op::kJumpNotGt:
    case Op::kJumpNotGe:
    case Op::kJumpNotLtConst:
    case Op::kJumpNotLeConst:
    case Op::kJumpNotGtConst:
    case Op::kJumpNotGeConst:
      return true;
    default:
      return false;
  }
}

// The rule a superinstruction's constant operand breaks, or nullptr. The Vm
// reads the constant as a number without a type test.
const char* NumberConstantRule(const CompiledFunction& fn, uint32_t index) {
  if (index >= fn.constants.size()) {
    return "constant index out of range";
  }
  return std::holds_alternative<double>(fn.constants[index]) ? nullptr
                                                             : "constant operand is not a number";
}

// The rule an operand breaks, or nullptr.
const char* OperandRule(const CompiledProgram& program, const CompiledFunction& fn,
                        const BcInstr& instr) {
  if (IsJump(instr.op) && instr.a >= fn.code.size()) {
    return "jump target out of range";
  }
  switch (instr.op) {
    case Op::kConst:
      return instr.a < fn.constants.size() ? nullptr : "constant index out of range";
    case Op::kLoadLocal:
    case Op::kStoreLocal:
    case Op::kStoreLocalPop:
      return instr.a < fn.num_locals ? nullptr : "local slot out of range";
    case Op::kLoadGlobal:
    case Op::kStoreGlobal:
    case Op::kStoreGlobalPop:
      return instr.a < program.global_names.size() ? nullptr : "global index out of range";
    case Op::kAddConst:
    case Op::kSubConst:
    case Op::kMulConst:
    case Op::kModConst:
    case Op::kLtConst:
    case Op::kLeConst:
    case Op::kGtConst:
    case Op::kGeConst:
    case Op::kJumpNotLtConst:
    case Op::kJumpNotLeConst:
    case Op::kJumpNotGtConst:
    case Op::kJumpNotGeConst:
      return NumberConstantRule(fn, instr.b);
    case Op::kCall:
      if (instr.a >= program.functions.size()) {
        return "function index out of range";
      }
      return instr.b == program.functions[instr.a].arity ? nullptr
                                                         : "argc differs from the callee's arity";
    case Op::kCallHost:
      return instr.a < program.host_names.size() ? nullptr : "host index out of range";
    case Op::kCallBuiltin:
      if (instr.a >= static_cast<uint32_t>(kNumBuiltins)) {
        return "builtin id out of range";
      }
      return static_cast<int>(instr.b) == BuiltinArity(static_cast<BuiltinId>(instr.a))
                 ? nullptr
                 : "argc differs from the builtin's arity";
    default:
      return instr.op <= kLastOp ? nullptr : "unknown opcode";
  }
}

// Checks one function and sets its max_stack. The flow pass follows every
// path from instruction 0 with the stack depth it carries; unreachable
// instructions only get their operands checked.
// `depth` and `worklist` are scratch, reused across a program's functions.
Status VerifyFunction(const CompiledProgram& program, CompiledFunction& fn,
                      std::vector<int64_t>& depth, std::vector<size_t>& worklist) {
  auto refuse = [&fn](const char* rule, size_t at) {
    return InvalidArgumentError(
        StrFormat("bytecode verifier: %s (in %s, at %zu)", rule, fn.name.c_str(), at));
  };
  if (fn.arity > fn.num_locals) {
    return refuse("more parameters than locals", 0);
  }
  for (size_t i = 0; i < fn.code.size(); ++i) {
    if (const char* rule = OperandRule(program, fn, fn.code[i])) {
      return refuse(rule, i);
    }
  }

  depth.assign(fn.code.size(), -1);  // -1: not reached yet
  worklist.clear();
  int64_t max_depth = 0;
  const char* broken = nullptr;  // the rule the first bad edge breaks
  size_t broken_at = 0;
  auto flow = [&](size_t from, size_t to, int64_t d) {
    if (to >= fn.code.size()) {
      broken = "falls off the end";
      broken_at = from;
    } else if (depth[to] < 0) {
      depth[to] = d;
      worklist.push_back(to);
    } else if (depth[to] != d) {
      broken = "stack depth differs between paths";
      broken_at = to;
    }
    return broken == nullptr;
  };
  flow(0, 0, 0);
  while (broken == nullptr && !worklist.empty()) {
    const size_t i = worklist.back();
    worklist.pop_back();
    const BcInstr& instr = fn.code[i];
    const StackEffect effect = EffectOf(instr);
    const int64_t d = depth[i];
    if (d < effect.pops) {
      return refuse("stack underflow", i);
    }
    const int64_t after = d - effect.pops + effect.pushes;
    max_depth = std::max(max_depth, after);
    switch (instr.op) {
      case Op::kReturn:
        break;
      case Op::kJump:
        flow(i, instr.a, after);
        break;
      case Op::kJumpIfFalse:
      case Op::kJumpNotLt:
      case Op::kJumpNotLe:
      case Op::kJumpNotGt:
      case Op::kJumpNotGe:
      case Op::kJumpNotLtConst:
      case Op::kJumpNotLeConst:
      case Op::kJumpNotGtConst:
      case Op::kJumpNotGeConst:
        if (flow(i, instr.a, after)) {
          flow(i, i + 1, after);
        }
        break;
      case Op::kJumpIfFalseKeep:
      case Op::kJumpIfTrueKeep:
        if (flow(i, instr.a, after)) {
          flow(i, i + 1, after - 1);
        }
        break;
      default:
        flow(i, i + 1, after);
        break;
    }
  }
  if (broken != nullptr) {
    return refuse(broken, broken_at);
  }
  fn.max_stack = static_cast<uint32_t>(max_depth);
  return Status::Ok();
}

// `op` taking a number constant as its right operand, or nullopt.
std::optional<Op> WithConstant(Op op) {
  switch (op) {
    case Op::kAdd:
      return Op::kAddConst;
    case Op::kSub:
      return Op::kSubConst;
    case Op::kMul:
      return Op::kMulConst;
    case Op::kMod:
      return Op::kModConst;
    case Op::kLt:
      return Op::kLtConst;
    case Op::kLe:
      return Op::kLeConst;
    case Op::kGt:
      return Op::kGtConst;
    case Op::kGe:
      return Op::kGeConst;
    default:
      return std::nullopt;
  }
}

// The compare-and-branch that compare `op` and a jump_if_false fuse into,
// or nullopt.
std::optional<Op> WithBranch(Op op) {
  switch (op) {
    case Op::kLt:
      return Op::kJumpNotLt;
    case Op::kLe:
      return Op::kJumpNotLe;
    case Op::kGt:
      return Op::kJumpNotGt;
    case Op::kGe:
      return Op::kJumpNotGe;
    case Op::kLtConst:
      return Op::kJumpNotLtConst;
    case Op::kLeConst:
      return Op::kJumpNotLeConst;
    case Op::kGtConst:
      return Op::kJumpNotGtConst;
    case Op::kGeConst:
      return Op::kJumpNotGeConst;
    default:
      return std::nullopt;
  }
}

// Folds the groups bytecode.h lists into superinstructions, in one linear
// pass over the code. A group's instructions after its first are never jump
// targets, so every path into the group runs all of it. Jump targets and
// the line table are remapped; a fused instruction keeps the line of the
// instruction in it that can fail, so a runtime error names the same line.
// `index` is scratch, reused across a program's functions.
void FuseInstructions(CompiledFunction& fn, std::vector<uint32_t>& index) {
  std::vector<BcInstr>& code = fn.code;
  const size_t n = code.size();
  // index[i] is 1 while i is an unvisited jump target, then i's new index.
  index.assign(n, 0);
  for (const BcInstr& instr : code) {
    if (IsJump(instr.op) && instr.a < n) {
      index[instr.a] = 1;
    }
  }
  // Whether instruction `i` exists and can join the group before it.
  auto joins = [&](size_t i) { return i < n && index[i] == 0; };
  size_t out = 0;
  for (size_t i = 0; i < n;) {
    BcInstr fused = code[i];
    int line = fn.lines[i];
    size_t length = 1;
    if (fused.op == Op::kConst && joins(i + 1) && fused.a < fn.constants.size() &&
        std::holds_alternative<double>(fn.constants[fused.a])) {
      if (const std::optional<Op> op = WithConstant(code[i + 1].op)) {
        fused = BcInstr{*op, 0, fused.a};
        line = fn.lines[i + 1];
        length = 2;
      }
    } else if ((fused.op == Op::kStoreLocal || fused.op == Op::kStoreGlobal) && joins(i + 1) &&
               code[i + 1].op == Op::kPop) {
      fused.op = fused.op == Op::kStoreLocal ? Op::kStoreLocalPop : Op::kStoreGlobalPop;
      length = 2;
    }
    if (const std::optional<Op> op = WithBranch(fused.op);
        op && joins(i + length) && code[i + length].op == Op::kJumpIfFalse) {
      fused.op = *op;
      fused.a = code[i + length].a;
      ++length;
    }
    index[i] = static_cast<uint32_t>(out);
    code[out] = fused;
    fn.lines[out] = line;
    ++out;
    i += length;
  }
  code.resize(out);
  fn.lines.resize(out);
  for (BcInstr& instr : code) {
    if (IsJump(instr.op) && instr.a < n) {
      instr.a = index[instr.a];
    }
  }
}

// Name -> dense index, open-addressed in one flat array: a lookup costs a
// hash and a probe or two, a new name allocates nothing until the table
// doubles, and a script with thousands of names or literals still compiles
// in linear time. The names view the AST, which outlives the table (a number
// literal's key is its double's bytes there).
class NameTable {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  uint32_t Find(std::string_view name) const {
    return slots_.empty() ? kAbsent : slots_[Probe(name)].index;
  }

  // Returns `name`'s index, first inserting it with `index` when absent.
  uint32_t FindOrInsert(std::string_view name, uint32_t index) {
    if (2 * (count_ + 1) > slots_.size()) {
      const size_t size = std::max<size_t>(16, 2 * slots_.size());
      std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(size));
      for (const Slot& slot : old) {
        if (slot.index != kAbsent) {
          slots_[Probe(slot.name)] = slot;
        }
      }
    }
    Slot& slot = slots_[Probe(name)];
    if (slot.index == kAbsent) {
      slot = Slot{name, index};
      ++count_;
    }
    return slot.index;
  }

 private:
  struct Slot {
    std::string_view name;
    uint32_t index = kAbsent;
  };

  // The slot holding `name`, or the empty slot that ends its probe sequence.
  size_t Probe(std::string_view name) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Hash(name) & mask;
    while (slots_[i].index != kAbsent && slots_[i].name != name) {
      i = (i + 1) & mask;
    }
    return i;
  }

  static size_t Hash(std::string_view name) {  // FNV-1a
    uint64_t hash = 14695981039346656037ull;
    for (const char c : name) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return static_cast<size_t>(hash);
  }

  std::vector<Slot> slots_;  // a power of two long, at most half full
  size_t count_ = 0;
};

class Compiler {
 public:
  Compiler(const Program& program, std::vector<std::string> host_names) : program_(program) {
    out_.host_names = std::move(host_names);
  }

  Result<CompiledProgram> Run() {
    // Pass 1: register all script functions (top-level is function 0).
    out_.functions.reserve(1 + program_.functions.size());
    out_.functions.emplace_back();
    out_.functions[0].name = "@main";
    for (const FunctionDecl& fn : program_.functions) {
      const auto index = static_cast<uint32_t>(out_.functions.size());
      if (functions_.FindOrInsert(fn.name, index) != index) {
        return InvalidArgumentError(StrFormat("duplicate function %.*s",
                                              static_cast<int>(fn.name.size()), fn.name.data()));
      }
      CompiledFunction& compiled = out_.functions.emplace_back();
      compiled.name = fn.name;
      compiled.arity = static_cast<uint32_t>(fn.params.size());
    }

    // Pass 2: compile bodies.
    for (size_t i = 0; i < program_.functions.size(); ++i) {
      PS_RETURN_IF_ERROR(CompileFunction(program_.functions[i], out_.functions[i + 1]));
    }
    PS_RETURN_IF_ERROR(CompileTopLevel());
    std::vector<uint32_t> scratch;
    for (CompiledFunction& fn : out_.functions) {
      FuseInstructions(fn, scratch);
    }
    PS_RETURN_IF_ERROR(VerifyProgram(out_));
    return std::move(out_);
  }

 private:
  struct LocalVar {
    std::string_view name;
    uint32_t slot;
    int depth;
  };

  struct FunctionCtx {
    CompiledFunction* fn = nullptr;
    std::vector<LocalVar> locals;
    int scope_depth = 0;
    uint32_t next_slot = 0;
    bool top_level = false;  // lets become globals
    NameTable numbers;       // constant index by the literal's bytes in the AST
    NameTable strings;       // constant index by text
  };

  // The innermost loops' patch lists live in break_sites_ and
  // continue_sites_ above these marks.
  struct LoopCtx {
    size_t break_mark;
    size_t continue_mark;
    size_t continue_target;  // while: the head; for: unused (sites are patched at the step)
    bool continue_deferred;  // for loops
  };

  // Sizes a function's code for its AST: about one and a half instructions
  // per node, plus the implicit return.
  static void ReserveCode(CompiledFunction& fn, uint32_t node_count) {
    const size_t estimate = node_count + node_count / 2 + 2;
    fn.code.reserve(estimate);
    fn.lines.reserve(estimate);
  }

  Status CompileFunction(const FunctionDecl& decl, CompiledFunction& fn) {
    FunctionCtx ctx;
    ctx.fn = &fn;
    ReserveCode(fn, decl.node_count);
    for (const std::string_view param : decl.params) {
      ctx.locals.push_back({param, ctx.next_slot++, 0});
    }
    PS_RETURN_IF_ERROR(CompileBody(ctx, decl.body));
    // Implicit `return null`.
    Emit(ctx, Op::kNull, 0, 0, decl.line);
    Emit(ctx, Op::kReturn, 0, 0, decl.line);
    ctx.fn->num_locals = ctx.next_slot;
    return Status::Ok();
  }

  Status CompileTopLevel() {
    FunctionCtx ctx;
    ctx.fn = &out_.functions[0];
    ctx.top_level = true;
    ReserveCode(*ctx.fn, program_.top_level_node_count);
    PS_RETURN_IF_ERROR(CompileBody(ctx, program_.top_level));
    Emit(ctx, Op::kNull, 0, 0, 0);
    Emit(ctx, Op::kReturn, 0, 0, 0);
    ctx.fn->num_locals = ctx.next_slot;
    return Status::Ok();
  }

  Status CompileBody(FunctionCtx& ctx, std::span<Stmt* const> body) {
    for (const Stmt* stmt : body) {
      PS_RETURN_IF_ERROR(CompileStmt(ctx, *stmt));
    }
    return Status::Ok();
  }

  size_t Emit(FunctionCtx& ctx, Op op, uint32_t a, uint32_t b, int line) {
    ctx.fn->code.push_back(BcInstr{op, a, b});
    ctx.fn->lines.push_back(line);
    return ctx.fn->code.size() - 1;
  }

  // Constants are deduplicated per function, the first occurrence keeping
  // the index. A constant pool or the global names start with room for a
  // small script's handful, not the doubling steps up to it.
  static constexpr size_t kFirstPoolSize = 8;

  // Returns the index of the constant `key` names, first appending a T made
  // from `value` when there is none.
  template <typename T, typename Value>
  static uint32_t AddConstant(FunctionCtx& ctx, NameTable& table, std::string_view key,
                              Value value) {
    std::vector<BcConstant>& constants = ctx.fn->constants;
    const auto next = static_cast<uint32_t>(constants.size());
    const uint32_t index = table.FindOrInsert(key, next);
    if (index == next) {
      constants.reserve(kFirstPoolSize);
      constants.emplace_back(std::in_place_type<T>, value);
    }
    return index;
  }

  std::optional<uint32_t> ResolveLocal(const FunctionCtx& ctx, std::string_view name) const {
    for (auto it = ctx.locals.rbegin(); it != ctx.locals.rend(); ++it) {
      if (it->name == name) {
        return it->slot;
      }
    }
    return std::nullopt;
  }

  uint32_t ResolveGlobal(std::string_view name) {
    const auto next = static_cast<uint32_t>(out_.global_names.size());
    const uint32_t index = globals_.FindOrInsert(name, next);
    if (index == next) {
      out_.global_names.reserve(kFirstPoolSize);
      out_.global_names.emplace_back(name);
    }
    return index;
  }

  Status CompileStmt(FunctionCtx& ctx, const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kExpr:
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *stmt.expr));
        Emit(ctx, Op::kPop, 0, 0, stmt.line);
        return Status::Ok();
      case StmtKind::kLet: {
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *stmt.expr));
        if (ctx.top_level && ctx.scope_depth == 0) {
          Emit(ctx, Op::kStoreGlobal, ResolveGlobal(stmt.name), 0, stmt.line);
        } else {
          const uint32_t slot = ctx.next_slot++;
          ctx.locals.push_back({stmt.name, slot, ctx.scope_depth});
          Emit(ctx, Op::kStoreLocal, slot, 0, stmt.line);
        }
        Emit(ctx, Op::kPop, 0, 0, stmt.line);
        return Status::Ok();
      }
      case StmtKind::kReturn:
        if (stmt.expr != nullptr) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *stmt.expr));
        } else {
          Emit(ctx, Op::kNull, 0, 0, stmt.line);
        }
        Emit(ctx, Op::kReturn, 0, 0, stmt.line);
        return Status::Ok();
      case StmtKind::kIf: {
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *stmt.expr));
        const size_t jump_else = Emit(ctx, Op::kJumpIfFalse, 0, 0, stmt.line);
        PS_RETURN_IF_ERROR(CompileScopedBody(ctx, stmt.body));
        if (!stmt.else_body.empty()) {
          const size_t jump_end = Emit(ctx, Op::kJump, 0, 0, stmt.line);
          Patch(ctx, jump_else);
          PS_RETURN_IF_ERROR(CompileScopedBody(ctx, stmt.else_body));
          Patch(ctx, jump_end);
        } else {
          Patch(ctx, jump_else);
        }
        return Status::Ok();
      }
      case StmtKind::kWhile: {
        const size_t head = ctx.fn->code.size();
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *stmt.expr));
        const size_t jump_out = Emit(ctx, Op::kJumpIfFalse, 0, 0, stmt.line);
        PS_RETURN_IF_ERROR(CompileLoopBody(ctx, stmt.body, head, false));
        Emit(ctx, Op::kJump, static_cast<uint32_t>(head), 0, stmt.line);
        Patch(ctx, jump_out);
        PatchBreaks(ctx);
        return Status::Ok();
      }
      case StmtKind::kFor: {
        ++ctx.scope_depth;
        const size_t saved_locals = ctx.locals.size();
        if (stmt.init != nullptr) {
          PS_RETURN_IF_ERROR(CompileStmt(ctx, *stmt.init));
        }
        const size_t head = ctx.fn->code.size();
        size_t jump_out = SIZE_MAX;
        if (stmt.expr != nullptr) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *stmt.expr));
          jump_out = Emit(ctx, Op::kJumpIfFalse, 0, 0, stmt.line);
        }
        // Body; continue jumps to the step expression.
        PS_RETURN_IF_ERROR(CompileLoopBody(ctx, stmt.body, 0, true));
        const size_t step_at = ctx.fn->code.size();
        for (size_t i = loops_.back().continue_mark; i < continue_sites_.size(); ++i) {
          ctx.fn->code[continue_sites_[i]].a = static_cast<uint32_t>(step_at);
        }
        continue_sites_.resize(loops_.back().continue_mark);
        if (stmt.step != nullptr) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *stmt.step));
          Emit(ctx, Op::kPop, 0, 0, stmt.line);
        }
        Emit(ctx, Op::kJump, static_cast<uint32_t>(head), 0, stmt.line);
        if (jump_out != SIZE_MAX) {
          Patch(ctx, jump_out);
        }
        PatchBreaks(ctx);
        ctx.locals.resize(saved_locals);
        --ctx.scope_depth;
        return Status::Ok();
      }
      case StmtKind::kBlock:
        return CompileScopedBody(ctx, stmt.body);
      case StmtKind::kBreak: {
        if (loops_.empty()) {
          return InvalidArgumentError(StrFormat("line %d: break outside loop", stmt.line));
        }
        break_sites_.push_back(Emit(ctx, Op::kJump, 0, 0, stmt.line));
        return Status::Ok();
      }
      case StmtKind::kContinue: {
        if (loops_.empty()) {
          return InvalidArgumentError(StrFormat("line %d: continue outside loop", stmt.line));
        }
        if (loops_.back().continue_deferred) {
          continue_sites_.push_back(Emit(ctx, Op::kJump, 0, 0, stmt.line));
        } else {
          Emit(ctx, Op::kJump, static_cast<uint32_t>(loops_.back().continue_target), 0,
               stmt.line);
        }
        return Status::Ok();
      }
    }
    return InternalError("unhandled statement kind");
  }

  Status CompileScopedBody(FunctionCtx& ctx, std::span<Stmt* const> body) {
    ++ctx.scope_depth;
    const size_t saved = ctx.locals.size();
    const Status status = CompileBody(ctx, body);
    ctx.locals.resize(saved);
    --ctx.scope_depth;
    return status;
  }

  // Opens a loop (closed by PatchBreaks) and compiles its body.
  Status CompileLoopBody(FunctionCtx& ctx, std::span<Stmt* const> body, size_t continue_target,
                         bool continue_deferred) {
    loops_.push_back(LoopCtx{break_sites_.size(), continue_sites_.size(), continue_target,
                             continue_deferred});
    return CompileScopedBody(ctx, body);
  }

  void Patch(FunctionCtx& ctx, size_t site) {
    ctx.fn->code[site].a = static_cast<uint32_t>(ctx.fn->code.size());
  }

  // Points the innermost loop's breaks here and closes the loop.
  void PatchBreaks(FunctionCtx& ctx) {
    const size_t mark = loops_.back().break_mark;
    for (size_t i = mark; i < break_sites_.size(); ++i) {
      Patch(ctx, break_sites_[i]);
    }
    break_sites_.resize(mark);
    loops_.pop_back();
  }

  Status CompileExpr(FunctionCtx& ctx, const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kNumber:
        // Number literals are never negative or NaN (the lexer reads only
        // digits), so equal bytes are equal values.
        Emit(ctx, Op::kConst,
             AddConstant<double>(ctx, ctx.numbers,
                                 {reinterpret_cast<const char*>(&expr.number), sizeof(double)},
                                 expr.number),
             0, expr.line);
        return Status::Ok();
      case ExprKind::kString:
        Emit(ctx, Op::kConst, AddConstant<std::string>(ctx, ctx.strings, expr.text, expr.text), 0,
             expr.line);
        return Status::Ok();
      case ExprKind::kBool:
        Emit(ctx, expr.boolean ? Op::kTrue : Op::kFalse, 0, 0, expr.line);
        return Status::Ok();
      case ExprKind::kNull:
        Emit(ctx, Op::kNull, 0, 0, expr.line);
        return Status::Ok();
      case ExprKind::kVariable: {
        if (auto slot = ResolveLocal(ctx, expr.text)) {
          Emit(ctx, Op::kLoadLocal, *slot, 0, expr.line);
        } else {
          Emit(ctx, Op::kLoadGlobal, ResolveGlobal(expr.text), 0, expr.line);
        }
        return Status::Ok();
      }
      case ExprKind::kUnary:
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.lhs));
        Emit(ctx, expr.op == TokenType::kMinus ? Op::kNeg : Op::kNot, 0, 0, expr.line);
        return Status::Ok();
      case ExprKind::kBinary: {
        if (expr.op == TokenType::kAndAnd || expr.op == TokenType::kOrOr) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.lhs));
          const Op jump_op =
              expr.op == TokenType::kAndAnd ? Op::kJumpIfFalseKeep : Op::kJumpIfTrueKeep;
          const size_t site = Emit(ctx, jump_op, 0, 0, expr.line);
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.rhs));
          Patch(ctx, site);
          return Status::Ok();
        }
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.lhs));
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.rhs));
        Op op;
        switch (expr.op) {
          case TokenType::kPlus:
            op = Op::kAdd;
            break;
          case TokenType::kMinus:
            op = Op::kSub;
            break;
          case TokenType::kStar:
            op = Op::kMul;
            break;
          case TokenType::kSlash:
            op = Op::kDiv;
            break;
          case TokenType::kPercent:
            op = Op::kMod;
            break;
          case TokenType::kEq:
            op = Op::kEq;
            break;
          case TokenType::kNe:
            op = Op::kNe;
            break;
          case TokenType::kLt:
            op = Op::kLt;
            break;
          case TokenType::kLe:
            op = Op::kLe;
            break;
          case TokenType::kGt:
            op = Op::kGt;
            break;
          case TokenType::kGe:
            op = Op::kGe;
            break;
          default:
            return InternalError("unexpected binary operator");
        }
        Emit(ctx, op, 0, 0, expr.line);
        return Status::Ok();
      }
      case ExprKind::kAssign: {
        const Expr& target = *expr.lhs;
        if (target.kind == ExprKind::kVariable) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.rhs));
          if (auto slot = ResolveLocal(ctx, target.text)) {
            Emit(ctx, Op::kStoreLocal, *slot, 0, expr.line);
          } else {
            Emit(ctx, Op::kStoreGlobal, ResolveGlobal(target.text), 0, expr.line);
          }
          return Status::Ok();
        }
        // target is base[index]: push base, index, value; kIndexSet.
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *target.lhs));
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *target.rhs));
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.rhs));
        Emit(ctx, Op::kIndexSet, 0, 0, expr.line);
        return Status::Ok();
      }
      case ExprKind::kCall: {
        for (const Expr* arg : expr.args) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *arg));
        }
        const auto argc = static_cast<uint32_t>(expr.args.size());
        const auto name_length = static_cast<int>(expr.text.size());
        if (const uint32_t index = functions_.Find(expr.text); index != NameTable::kAbsent) {
          const CompiledFunction& callee = out_.functions[index];
          if (callee.arity != argc) {
            return InvalidArgumentError(StrFormat("line %d: %.*s expects %u args, got %u",
                                                  expr.line, name_length, expr.text.data(),
                                                  callee.arity, argc));
          }
          Emit(ctx, Op::kCall, index, argc, expr.line);
          return Status::Ok();
        }
        if (const std::optional<BuiltinId> builtin = FindBuiltin(expr.text)) {
          const int arity = BuiltinArity(*builtin);
          if (static_cast<uint32_t>(arity) != argc) {
            return InvalidArgumentError(StrFormat("line %d: %.*s expects %d args, got %u",
                                                  expr.line, name_length, expr.text.data(),
                                                  arity, argc));
          }
          Emit(ctx, Op::kCallBuiltin, static_cast<uint32_t>(*builtin), argc, expr.line);
          return Status::Ok();
        }
        // The last registration of a host name wins.
        for (size_t i = out_.host_names.size(); i-- > 0;) {
          if (out_.host_names[i] == expr.text) {
            Emit(ctx, Op::kCallHost, static_cast<uint32_t>(i), argc, expr.line);
            return Status::Ok();
          }
        }
        return InvalidArgumentError(StrFormat("line %d: unknown function '%.*s'", expr.line,
                                              name_length, expr.text.data()));
      }
      case ExprKind::kIndex:
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.lhs));
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.rhs));
        Emit(ctx, Op::kIndexGet, 0, 0, expr.line);
        return Status::Ok();
      case ExprKind::kArrayLit: {
        for (const Expr* element : expr.args) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *element));
        }
        Emit(ctx, Op::kNewArray, static_cast<uint32_t>(expr.args.size()), 0, expr.line);
        return Status::Ok();
      }
    }
    return InternalError("unhandled expression kind");
  }

  const Program& program_;
  CompiledProgram out_;
  NameTable functions_;  // script functions by name; "@main" is not callable
  NameTable globals_;    // index into out_.global_names
  std::vector<LoopCtx> loops_;
  std::vector<size_t> break_sites_;
  std::vector<size_t> continue_sites_;  // for loops' continues, patched at the step
};

}  // namespace

Status VerifyProgram(CompiledProgram& program) {
  if (program.functions.empty()) {
    return InvalidArgumentError("bytecode verifier: program has no functions");
  }
  std::vector<int64_t> depth;
  std::vector<size_t> worklist;
  for (CompiledFunction& fn : program.functions) {
    PS_RETURN_IF_ERROR(VerifyFunction(program, fn, depth, worklist));
  }
  program.verified_.set = true;
  return Status::Ok();
}

Result<CompiledProgram> CompileProgram(const Program& program,
                                       std::vector<std::string> host_names) {
  return Compiler(program, std::move(host_names)).Run();
}

Result<CompiledProgram> CompileSource(std::string_view source,
                                      std::vector<std::string> host_names) {
  PS_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  return CompileProgram(program, std::move(host_names));
}

}  // namespace pkrusafe
