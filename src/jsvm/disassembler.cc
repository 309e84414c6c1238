#include "src/jsvm/disassembler.h"

#include "src/support/string_util.h"

namespace pkrusafe {

namespace {

const char* OpName(Op op) {
  switch (op) {
    case Op::kConst:
      return "const";
    case Op::kNull:
      return "null";
    case Op::kTrue:
      return "true";
    case Op::kFalse:
      return "false";
    case Op::kPop:
      return "pop";
    case Op::kDup:
      return "dup";
    case Op::kLoadLocal:
      return "load_local";
    case Op::kStoreLocal:
      return "store_local";
    case Op::kLoadGlobal:
      return "load_global";
    case Op::kStoreGlobal:
      return "store_global";
    case Op::kAdd:
      return "add";
    case Op::kSub:
      return "sub";
    case Op::kMul:
      return "mul";
    case Op::kDiv:
      return "div";
    case Op::kMod:
      return "mod";
    case Op::kNeg:
      return "neg";
    case Op::kNot:
      return "not";
    case Op::kEq:
      return "eq";
    case Op::kNe:
      return "ne";
    case Op::kLt:
      return "lt";
    case Op::kLe:
      return "le";
    case Op::kGt:
      return "gt";
    case Op::kGe:
      return "ge";
    case Op::kJump:
      return "jump";
    case Op::kJumpIfFalse:
      return "jump_if_false";
    case Op::kJumpIfFalseKeep:
      return "jump_if_false_keep";
    case Op::kJumpIfTrueKeep:
      return "jump_if_true_keep";
    case Op::kCall:
      return "call";
    case Op::kCallHost:
      return "call_host";
    case Op::kCallBuiltin:
      return "call_builtin";
    case Op::kReturn:
      return "return";
    case Op::kNewArray:
      return "new_array";
    case Op::kIndexGet:
      return "index_get";
    case Op::kIndexSet:
      return "index_set";
    case Op::kStoreLocalPop:
      return "store_local_pop";
    case Op::kStoreGlobalPop:
      return "store_global_pop";
    case Op::kAddConst:
      return "add_const";
    case Op::kSubConst:
      return "sub_const";
    case Op::kMulConst:
      return "mul_const";
    case Op::kModConst:
      return "mod_const";
    case Op::kLtConst:
      return "lt_const";
    case Op::kLeConst:
      return "le_const";
    case Op::kGtConst:
      return "gt_const";
    case Op::kGeConst:
      return "ge_const";
    case Op::kJumpNotLt:
      return "jump_not_lt";
    case Op::kJumpNotLe:
      return "jump_not_le";
    case Op::kJumpNotGt:
      return "jump_not_gt";
    case Op::kJumpNotGe:
      return "jump_not_ge";
    case Op::kJumpNotLtConst:
      return "jump_not_lt_const";
    case Op::kJumpNotLeConst:
      return "jump_not_le_const";
    case Op::kJumpNotGtConst:
      return "jump_not_gt_const";
    case Op::kJumpNotGeConst:
      return "jump_not_ge_const";
  }
  return "?";
}

const char* BuiltinName(BuiltinId id) {
  switch (id) {
    case BuiltinId::kPrint:
      return "print";
    case BuiltinId::kLen:
      return "len";
    case BuiltinId::kPush:
      return "push";
    case BuiltinId::kPop:
      return "pop";
    case BuiltinId::kSqrt:
      return "sqrt";
    case BuiltinId::kSin:
      return "sin";
    case BuiltinId::kCos:
      return "cos";
    case BuiltinId::kFloor:
      return "floor";
    case BuiltinId::kPow:
      return "pow";
    case BuiltinId::kAbs:
      return "abs";
    case BuiltinId::kMin:
      return "min";
    case BuiltinId::kMax:
      return "max";
    case BuiltinId::kSubstr:
      return "substr";
    case BuiltinId::kOrd:
      return "ord";
    case BuiltinId::kChr:
      return "chr";
    case BuiltinId::kStr:
      return "str";
    case BuiltinId::kBand:
      return "band";
    case BuiltinId::kBor:
      return "bor";
    case BuiltinId::kBxor:
      return "bxor";
    case BuiltinId::kShlB:
      return "shl";
    case BuiltinId::kShrB:
      return "shr";
    case BuiltinId::kAddrOf:
      return "__addrof";
    case BuiltinId::kPeek:
      return "__peek";
    case BuiltinId::kPoke:
      return "__poke";
  }
  return "?";
}

std::string ConstantToString(const BcConstant& constant) {
  if (std::holds_alternative<double>(constant)) {
    return StrFormat("%g", std::get<double>(constant));
  }
  return "\"" + std::get<std::string>(constant) + "\"";
}

}  // namespace

std::string DisassembleInstruction(const CompiledFunction& fn, const CompiledProgram& program,
                                   size_t index) {
  const BcInstr& instr = fn.code[index];
  std::string out = StrFormat("%4zu  %-18s", index, OpName(instr.op));
  auto constant = [&](uint32_t at) {
    return StrFormat("#%u  ; %s", at, ConstantToString(fn.constants[at]).c_str());
  };
  switch (instr.op) {
    case Op::kConst:
      out += constant(instr.a);
      break;
    case Op::kLoadLocal:
    case Op::kStoreLocal:
    case Op::kStoreLocalPop:
      out += StrFormat("slot %u", instr.a);
      break;
    case Op::kLoadGlobal:
    case Op::kStoreGlobal:
    case Op::kStoreGlobalPop:
      out += StrFormat("%u  ; %s", instr.a, program.global_names[instr.a].c_str());
      break;
    case Op::kJump:
    case Op::kJumpIfFalse:
    case Op::kJumpIfFalseKeep:
    case Op::kJumpIfTrueKeep:
    case Op::kJumpNotLt:
    case Op::kJumpNotLe:
    case Op::kJumpNotGt:
    case Op::kJumpNotGe:
      out += StrFormat("-> %u", instr.a);
      break;
    case Op::kAddConst:
    case Op::kSubConst:
    case Op::kMulConst:
    case Op::kModConst:
    case Op::kLtConst:
    case Op::kLeConst:
    case Op::kGtConst:
    case Op::kGeConst:
      out += constant(instr.b);
      break;
    case Op::kJumpNotLtConst:
    case Op::kJumpNotLeConst:
    case Op::kJumpNotGtConst:
    case Op::kJumpNotGeConst:
      out += StrFormat("-> %u  ", instr.a) + constant(instr.b);
      break;
    case Op::kCall:
      out += StrFormat("@%s argc=%u", program.functions[instr.a].name.c_str(), instr.b);
      break;
    case Op::kCallHost:
      out += StrFormat("%s argc=%u", program.host_names[instr.a].c_str(), instr.b);
      break;
    case Op::kCallBuiltin:
      out += StrFormat("%s argc=%u", BuiltinName(static_cast<BuiltinId>(instr.a)), instr.b);
      break;
    case Op::kNewArray:
      out += StrFormat("n=%u", instr.a);
      break;
    default:
      break;
  }
  return out;
}

std::string DisassembleFunction(const CompiledFunction& fn, const CompiledProgram& program) {
  std::string out =
      StrFormat("fn %s (arity %u, %u locals, %zu instrs)\n", fn.name.c_str(), fn.arity,
                fn.num_locals, fn.code.size());
  for (size_t i = 0; i < fn.code.size(); ++i) {
    out += DisassembleInstruction(fn, program, i) + "\n";
  }
  return out;
}

std::string Disassemble(const CompiledProgram& program) {
  std::string out;
  for (const CompiledFunction& fn : program.functions) {
    out += DisassembleFunction(fn, program) + "\n";
  }
  return out;
}

}  // namespace pkrusafe
