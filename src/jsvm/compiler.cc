#include "src/jsvm/compiler.h"

#include <algorithm>
#include <map>
#include <optional>

#include "src/jsvm/parser.h"
#include "src/support/string_util.h"

namespace pkrusafe {

namespace {

const std::map<std::string_view, BuiltinId>& Builtins() {
  static const auto* builtins = new std::map<std::string_view, BuiltinId>{
      {"print", BuiltinId::kPrint},   {"len", BuiltinId::kLen},
      {"push", BuiltinId::kPush},     {"pop", BuiltinId::kPop},
      {"sqrt", BuiltinId::kSqrt},     {"sin", BuiltinId::kSin},
      {"cos", BuiltinId::kCos},       {"floor", BuiltinId::kFloor},
      {"pow", BuiltinId::kPow},       {"abs", BuiltinId::kAbs},
      {"min", BuiltinId::kMin},       {"max", BuiltinId::kMax},
      {"substr", BuiltinId::kSubstr}, {"ord", BuiltinId::kOrd},
      {"chr", BuiltinId::kChr},       {"str", BuiltinId::kStr},
      {"band", BuiltinId::kBand},     {"bor", BuiltinId::kBor},
      {"bxor", BuiltinId::kBxor},     {"shl", BuiltinId::kShlB},
      {"shr", BuiltinId::kShrB},
      {"__addrof", BuiltinId::kAddrOf},
      {"__peek", BuiltinId::kPeek},
      {"__poke", BuiltinId::kPoke},
  };
  return *builtins;
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
      return {1, 0};
    case Op::kStoreLocal:
    case Op::kStoreGlobal:
    case Op::kNeg:
    case Op::kNot:
    case Op::kJumpIfFalseKeep:
    case Op::kJumpIfTrueKeep:
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

// The rule an operand breaks, or nullptr.
const char* OperandRule(const CompiledProgram& program, const CompiledFunction& fn,
                        const BcInstr& instr) {
  switch (instr.op) {
    case Op::kConst:
      return instr.a < fn.constants.size() ? nullptr : "constant index out of range";
    case Op::kLoadLocal:
    case Op::kStoreLocal:
      return instr.a < fn.num_locals ? nullptr : "local slot out of range";
    case Op::kLoadGlobal:
    case Op::kStoreGlobal:
      return instr.a < program.global_names.size() ? nullptr : "global index out of range";
    case Op::kJump:
    case Op::kJumpIfFalse:
    case Op::kJumpIfFalseKeep:
    case Op::kJumpIfTrueKeep:
      return instr.a < fn.code.size() ? nullptr : "jump target out of range";
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
Status VerifyFunction(const CompiledProgram& program, CompiledFunction& fn) {
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

  std::vector<int64_t> depth(fn.code.size(), -1);  // -1: not reached yet
  std::vector<size_t> worklist;
  int64_t max_depth = 0;
  auto flow = [&](size_t from, size_t to, int64_t d) -> Status {
    if (to >= fn.code.size()) {
      return refuse("falls off the end", from);
    }
    if (depth[to] < 0) {
      depth[to] = d;
      worklist.push_back(to);
    } else if (depth[to] != d) {
      return refuse("stack depth differs between paths", to);
    }
    return Status::Ok();
  };
  PS_RETURN_IF_ERROR(flow(0, 0, 0));
  while (!worklist.empty()) {
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
        PS_RETURN_IF_ERROR(flow(i, instr.a, after));
        break;
      case Op::kJumpIfFalse:
        PS_RETURN_IF_ERROR(flow(i, instr.a, after));
        PS_RETURN_IF_ERROR(flow(i, i + 1, after));
        break;
      case Op::kJumpIfFalseKeep:
      case Op::kJumpIfTrueKeep:
        PS_RETURN_IF_ERROR(flow(i, instr.a, after));
        PS_RETURN_IF_ERROR(flow(i, i + 1, after - 1));
        break;
      default:
        PS_RETURN_IF_ERROR(flow(i, i + 1, after));
        break;
    }
  }
  fn.max_stack = static_cast<uint32_t>(max_depth);
  return Status::Ok();
}

class Compiler {
 public:
  Compiler(const Program& program, std::vector<std::string> host_names)
      : program_(program) {
    for (size_t i = 0; i < host_names.size(); ++i) {
      host_index_[host_names[i]] = static_cast<uint32_t>(i);
    }
    out_.host_names = std::move(host_names);
  }

  Result<CompiledProgram> Run() {
    // Pass 1: register all script functions (top-level is function 0).
    out_.functions.emplace_back();
    out_.functions[0].name = "@main";
    function_index_["@main"] = 0;
    for (const FunctionDecl& fn : program_.functions) {
      if (function_index_.contains(fn.name)) {
        return InvalidArgumentError("duplicate function " + fn.name);
      }
      const auto index = static_cast<uint32_t>(out_.functions.size());
      function_index_[fn.name] = index;
      out_.functions.emplace_back();
      out_.functions[index].name = fn.name;
      out_.functions[index].arity = static_cast<uint32_t>(fn.params.size());
    }

    // Pass 2: compile bodies.
    for (const FunctionDecl& fn : program_.functions) {
      PS_RETURN_IF_ERROR(CompileFunction(fn));
    }
    PS_RETURN_IF_ERROR(CompileTopLevel());
    PS_RETURN_IF_ERROR(VerifyProgram(out_));
    return std::move(out_);
  }

 private:
  struct LocalVar {
    std::string name;
    uint32_t slot;
    int depth;
  };

  struct FunctionCtx {
    CompiledFunction* fn = nullptr;
    std::vector<LocalVar> locals;
    int scope_depth = 0;
    uint32_t next_slot = 0;
    bool top_level = false;  // lets become globals
    // Patch lists for break/continue in the innermost loop.
    std::vector<std::vector<size_t>>* break_patches = nullptr;
    std::vector<size_t>* continue_targets = nullptr;
  };

  Status CompileFunction(const FunctionDecl& decl) {
    FunctionCtx ctx;
    ctx.fn = &out_.functions[function_index_[decl.name]];
    for (const std::string& param : decl.params) {
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
    PS_RETURN_IF_ERROR(CompileBody(ctx, program_.top_level));
    Emit(ctx, Op::kNull, 0, 0, 0);
    Emit(ctx, Op::kReturn, 0, 0, 0);
    ctx.fn->num_locals = ctx.next_slot;
    return Status::Ok();
  }

  Status CompileBody(FunctionCtx& ctx, const std::vector<StmtPtr>& body) {
    for (const StmtPtr& stmt : body) {
      PS_RETURN_IF_ERROR(CompileStmt(ctx, *stmt));
    }
    return Status::Ok();
  }

  size_t Emit(FunctionCtx& ctx, Op op, uint32_t a, uint32_t b, int line) {
    ctx.fn->code.push_back(BcInstr{op, a, b});
    ctx.fn->lines.push_back(line);
    return ctx.fn->code.size() - 1;
  }

  uint32_t AddConstant(FunctionCtx& ctx, BcConstant constant) {
    for (size_t i = 0; i < ctx.fn->constants.size(); ++i) {
      if (ctx.fn->constants[i] == constant) {
        return static_cast<uint32_t>(i);
      }
    }
    ctx.fn->constants.push_back(std::move(constant));
    return static_cast<uint32_t>(ctx.fn->constants.size() - 1);
  }

  std::optional<uint32_t> ResolveLocal(const FunctionCtx& ctx, const std::string& name) const {
    for (auto it = ctx.locals.rbegin(); it != ctx.locals.rend(); ++it) {
      if (it->name == name) {
        return it->slot;
      }
    }
    return std::nullopt;
  }

  uint32_t ResolveGlobal(const std::string& name) {
    auto it = global_index_.find(name);
    if (it != global_index_.end()) {
      return it->second;
    }
    const auto index = static_cast<uint32_t>(out_.global_names.size());
    out_.global_names.push_back(name);
    global_index_[name] = index;
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
        PS_RETURN_IF_ERROR(CompileLoopBody(ctx, stmt.body, head));
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
        std::vector<size_t> continue_sites;
        PS_RETURN_IF_ERROR(CompileLoopBodyForFor(ctx, stmt.body, &continue_sites));
        const size_t step_at = ctx.fn->code.size();
        for (size_t site : continue_sites) {
          ctx.fn->code[site].a = static_cast<uint32_t>(step_at);
        }
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
        if (break_stack_.empty()) {
          return InvalidArgumentError(StrFormat("line %d: break outside loop", stmt.line));
        }
        break_stack_.back().push_back(Emit(ctx, Op::kJump, 0, 0, stmt.line));
        return Status::Ok();
      }
      case StmtKind::kContinue: {
        if (continue_stack_.empty()) {
          return InvalidArgumentError(StrFormat("line %d: continue outside loop", stmt.line));
        }
        if (continue_stack_.back().deferred != nullptr) {
          continue_stack_.back().deferred->push_back(Emit(ctx, Op::kJump, 0, 0, stmt.line));
        } else {
          Emit(ctx, Op::kJump, static_cast<uint32_t>(continue_stack_.back().target), 0,
               stmt.line);
        }
        return Status::Ok();
      }
    }
    return InternalError("unhandled statement kind");
  }

  Status CompileScopedBody(FunctionCtx& ctx, const std::vector<StmtPtr>& body) {
    ++ctx.scope_depth;
    const size_t saved = ctx.locals.size();
    const Status status = CompileBody(ctx, body);
    ctx.locals.resize(saved);
    --ctx.scope_depth;
    return status;
  }

  Status CompileLoopBody(FunctionCtx& ctx, const std::vector<StmtPtr>& body, size_t head) {
    break_stack_.emplace_back();
    continue_stack_.push_back({head, nullptr});
    const Status status = CompileScopedBody(ctx, body);
    continue_stack_.pop_back();
    return status;
  }

  Status CompileLoopBodyForFor(FunctionCtx& ctx, const std::vector<StmtPtr>& body,
                               std::vector<size_t>* continue_sites) {
    break_stack_.emplace_back();
    continue_stack_.push_back({0, continue_sites});
    const Status status = CompileScopedBody(ctx, body);
    continue_stack_.pop_back();
    return status;
  }

  void Patch(FunctionCtx& ctx, size_t site) {
    ctx.fn->code[site].a = static_cast<uint32_t>(ctx.fn->code.size());
  }

  void PatchBreaks(FunctionCtx& ctx) {
    for (size_t site : break_stack_.back()) {
      Patch(ctx, site);
    }
    break_stack_.pop_back();
  }

  Status CompileExpr(FunctionCtx& ctx, const Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kNumber:
        Emit(ctx, Op::kConst, AddConstant(ctx, expr.number), 0, expr.line);
        return Status::Ok();
      case ExprKind::kString:
        Emit(ctx, Op::kConst, AddConstant(ctx, expr.text), 0, expr.line);
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
        for (const ExprPtr& arg : expr.args) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *arg));
        }
        const auto argc = static_cast<uint32_t>(expr.args.size());
        if (auto it = function_index_.find(expr.text); it != function_index_.end()) {
          const CompiledFunction& callee = out_.functions[it->second];
          if (callee.arity != argc) {
            return InvalidArgumentError(StrFormat("line %d: %s expects %u args, got %u",
                                                  expr.line, expr.text.c_str(), callee.arity,
                                                  argc));
          }
          Emit(ctx, Op::kCall, it->second, argc, expr.line);
          return Status::Ok();
        }
        if (auto it = Builtins().find(expr.text); it != Builtins().end()) {
          const int arity = BuiltinArity(it->second);
          if (static_cast<uint32_t>(arity) != argc) {
            return InvalidArgumentError(StrFormat("line %d: %s expects %d args, got %u",
                                                  expr.line, expr.text.c_str(), arity, argc));
          }
          Emit(ctx, Op::kCallBuiltin, static_cast<uint32_t>(it->second), argc, expr.line);
          return Status::Ok();
        }
        if (auto it = host_index_.find(expr.text); it != host_index_.end()) {
          Emit(ctx, Op::kCallHost, it->second, argc, expr.line);
          return Status::Ok();
        }
        return InvalidArgumentError(
            StrFormat("line %d: unknown function '%s'", expr.line, expr.text.c_str()));
      }
      case ExprKind::kIndex:
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.lhs));
        PS_RETURN_IF_ERROR(CompileExpr(ctx, *expr.rhs));
        Emit(ctx, Op::kIndexGet, 0, 0, expr.line);
        return Status::Ok();
      case ExprKind::kArrayLit: {
        for (const ExprPtr& element : expr.args) {
          PS_RETURN_IF_ERROR(CompileExpr(ctx, *element));
        }
        Emit(ctx, Op::kNewArray, static_cast<uint32_t>(expr.args.size()), 0, expr.line);
        return Status::Ok();
      }
    }
    return InternalError("unhandled expression kind");
  }

  struct ContinueCtx {
    size_t target;                     // while: jump target
    std::vector<size_t>* deferred;     // for: patch sites resolved at step
  };

  const Program& program_;
  CompiledProgram out_;
  std::map<std::string, uint32_t> function_index_;
  std::map<std::string, uint32_t> global_index_;
  std::map<std::string, uint32_t> host_index_;
  std::vector<std::vector<size_t>> break_stack_;
  std::vector<ContinueCtx> continue_stack_;
};

}  // namespace

Status VerifyProgram(CompiledProgram& program) {
  if (program.functions.empty()) {
    return InvalidArgumentError("bytecode verifier: program has no functions");
  }
  for (CompiledFunction& fn : program.functions) {
    PS_RETURN_IF_ERROR(VerifyFunction(program, fn));
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
