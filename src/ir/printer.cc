#include "src/ir/printer.h"

#include <sstream>

#include "src/support/string_util.h"

namespace pkrusafe {

namespace {

std::string PrintOperand(const Operand& op) {
  if (op.is_reg()) {
    return StrFormat("%%%u", op.reg());
  }
  return StrFormat("%lld", static_cast<long long>(op.value));
}

std::string PrintOperandList(const std::vector<Operand>& operands) {
  std::vector<std::string> parts;
  parts.reserve(operands.size());
  for (const Operand& op : operands) {
    parts.push_back(PrintOperand(op));
  }
  return StrJoin(parts, ", ");
}

}  // namespace

std::string PrintInstruction(const Instruction& instr) {
  std::string out;
  if (instr.dest.has_value()) {
    out += StrFormat("%%%u = ", *instr.dest);
  }
  out += OpcodeName(instr.opcode);
  switch (instr.opcode) {
    case Opcode::kCall:
      out += StrFormat(" @%s(%s)", instr.callee.c_str(), PrintOperandList(instr.operands).c_str());
      break;
    case Opcode::kBr:
      out += " " + instr.targets[0];
      break;
    case Opcode::kBrIf:
      out += StrFormat(" %s, %s, %s", PrintOperand(instr.operands[0]).c_str(),
                       instr.targets[0].c_str(), instr.targets[1].c_str());
      break;
    default:
      if (!instr.operands.empty()) {
        out += ' ';
        out += PrintOperandList(instr.operands);
      }
      break;
  }
  if (instr.alloc_id.has_value()) {
    out += "  ; site " + instr.alloc_id->ToString();
  }
  if (instr.gated) {
    out += "  ; gated";
  }
  return out;
}

std::string PrintModule(const IrModule& module) {
  std::ostringstream out;
  out << "module " << module.name << "\n";
  for (const std::string& lib : module.untrusted_libraries) {
    out << "untrusted \"" << lib << "\"\n";
  }
  for (const ExternDecl& decl : module.externs) {
    out << "extern @" << decl.name << "(" << decl.num_params << ")";
    if (!decl.library.empty()) {
      out << " lib \"" << decl.library << "\"";
    }
    out << "\n";
  }
  for (const IrFunction& fn : module.functions) {
    out << "func @" << fn.name << "(" << fn.num_params << ") {\n";
    for (const BasicBlock& block : fn.blocks) {
      out << block.label << ":\n";
      for (const Instruction& instr : block.instructions) {
        out << "  " << PrintInstruction(instr) << "\n";
      }
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace pkrusafe
