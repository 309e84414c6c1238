// AST -> bytecode compiler.
//
// Name resolution is fully static: locals (parameters + lets, with block
// shadowing) resolve to frame slots; unresolved names in function bodies
// become globals; call targets resolve to script functions, then builtins,
// then registered host functions.
#ifndef SRC_JSVM_COMPILER_H_
#define SRC_JSVM_COMPILER_H_

#include <string_view>
#include <vector>

#include "src/jsvm/ast.h"
#include "src/jsvm/bytecode.h"
#include "src/support/status.h"

namespace pkrusafe {

// `host_names` lists the embedder's host functions (e.g. the DOM bindings);
// calls to them compile to kCallHost with the matching index. The emitted
// code is fused into the superinstructions bytecode.h lists, then verified.
Result<CompiledProgram> CompileProgram(const Program& program,
                                       std::vector<std::string> host_names);

// The bytecode verifier. It proves, once per program, what Vm::Execute
// would otherwise check at every step, and refuses the program otherwise:
//   * every jump target is in range and no path falls off a function's end;
//   * the stack depth is the same on every path into an instruction, and no
//     instruction pops more than is on the stack;
//   * every const, local, global, function, host and builtin operand is in
//     range, and every opcode is known;
//   * a superinstruction's constant operand is a number constant;
//   * kCall's argc is the callee's arity, kCallBuiltin's the builtin's.
// On success it sets each function's max_stack and marks the program
// verified. CompileProgram runs it on everything it emits; Vm::Load runs it
// on any program not yet verified.
Status VerifyProgram(CompiledProgram& program);

// Convenience: parse + compile.
Result<CompiledProgram> CompileSource(std::string_view source,
                                      std::vector<std::string> host_names = {});

}  // namespace pkrusafe

#endif  // SRC_JSVM_COMPILER_H_
