// Compiler-level tests: inspect emitted bytecode through the disassembler
// and the CompiledProgram structure directly.
#include "src/jsvm/compiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "src/jsvm/disassembler.h"
#include "src/jsvm/parser.h"

namespace pkrusafe {
namespace {

CompiledProgram Compile(const std::string& source,
                        std::vector<std::string> host_names = {}) {
  auto program = CompileSource(source, std::move(host_names));
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(*program);
}

TEST(CompilerTest, MainIsFunctionZero) {
  CompiledProgram program = Compile("fn f() { } let x = 1;");
  ASSERT_EQ(program.functions.size(), 2u);
  EXPECT_EQ(program.functions[0].name, "@main");
  EXPECT_EQ(program.functions[1].name, "f");
}

TEST(CompilerTest, ConstantsAreDeduplicated) {
  CompiledProgram program = Compile("let a = 7; let b = 7; let c = \"x\"; let d = \"x\";");
  const CompiledFunction& main_fn = program.functions[0];
  EXPECT_EQ(main_fn.constants.size(), 2u);  // 7 and "x", each once
}

// Every literal looks its value up in the function's constant table instead
// of scanning the pool, so compile time grows linearly with the number of
// distinct literals. Four times the literals must cost well under 16 times
// the time. A pool scan per literal read about 18x. Linear code reads 5-7x on
// a host with 2 MiB of L2, which the 80k-literal table outgrows and the 20k
// one does not.
TEST(CompilerTest, DistinctLiteralsCompileInLinearTime) {
  const auto array_of = [](int n) {
    std::string source = "let a = [0";
    for (int i = 1; i < n; ++i) {
      source += ',';
      source += std::to_string(i);
    }
    return source + "];";
  };
  // Only the compile step is timed: each source is lexed and parsed once here,
  // so their own cache-bound growth does not count against the pool.
  const auto compile_ns = [](const Program& ast, size_t literals) {
    const auto start = std::chrono::steady_clock::now();
    auto program = CompileProgram(ast, {});
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    if (program.ok()) {
      EXPECT_EQ(program->functions[0].constants.size(), literals);
    }
    return std::chrono::duration<double, std::nano>(elapsed).count();
  };
  Result<Program> small_ast = ParseProgram(array_of(20000));
  Result<Program> large_ast = ParseProgram(array_of(80000));
  ASSERT_TRUE(small_ast.ok()) << small_ast.status().ToString();
  ASSERT_TRUE(large_ast.ok()) << large_ast.status().ToString();
  // The fastest of 5 compiles each, interleaved so host drift hits both.
  double small = 1e18;
  double large = 1e18;
  for (int round = 0; round < 5; ++round) {
    small = std::min(small, compile_ns(*small_ast, 20000));
    large = std::min(large, compile_ns(*large_ast, 80000));
  }
  EXPECT_LE(large / small, 8.0) << "20k literals: " << small / 1e6 << " ms, 80k: " << large / 1e6
                                << " ms";
}

TEST(CompilerTest, TopLevelLetsBecomeGlobals) {
  CompiledProgram program = Compile("let x = 1; fn f() { return x; }");
  ASSERT_EQ(program.global_names.size(), 1u);
  EXPECT_EQ(program.global_names[0], "x");
  // f loads x as a global, not a local.
  const std::string listing = DisassembleFunction(program.functions[1], program);
  EXPECT_NE(listing.find("load_global"), std::string::npos);
  EXPECT_EQ(listing.find("load_local"), std::string::npos);
}

TEST(CompilerTest, ParametersResolveToSlots) {
  CompiledProgram program = Compile("fn f(a, b) { return b; }");
  const CompiledFunction& f = program.functions[1];
  EXPECT_EQ(f.arity, 2u);
  EXPECT_GE(f.num_locals, 2u);
  const std::string listing = DisassembleFunction(f, program);
  EXPECT_NE(listing.find("slot 1"), std::string::npos);
}

TEST(CompilerTest, FunctionScopedLetsGetFreshSlots) {
  CompiledProgram program = Compile("fn f(a) { let b = a; let c = b; return c; }");
  EXPECT_EQ(program.functions[1].num_locals, 3u);  // a, b, c
}

TEST(CompilerTest, CallsResolveInPriorityOrder) {
  // Script function shadows builtin shadows host function.
  CompiledProgram program = Compile(
      "fn len(a) { return 0; }\n"
      "len([1]);\n"
      "push([1], 2);\n"
      "hosty(1);\n",
      {"hosty"});
  const std::string listing = DisassembleFunction(program.functions[0], program);
  EXPECT_NE(listing.find("@len argc=1"), std::string::npos);
  EXPECT_NE(listing.find("push argc=2"), std::string::npos);
  EXPECT_NE(listing.find("hosty argc=1"), std::string::npos);
}

TEST(CompilerTest, ShortCircuitUsesKeepJumps) {
  CompiledProgram program = Compile("let r = true && false; let s = true || false;");
  const std::string listing = DisassembleFunction(program.functions[0], program);
  EXPECT_NE(listing.find("jump_if_false_keep"), std::string::npos);
  EXPECT_NE(listing.find("jump_if_true_keep"), std::string::npos);
}

TEST(CompilerTest, JumpTargetsAreInBounds) {
  CompiledProgram program = Compile(R"(
fn f(n) {
  let acc = 0;
  for (let i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) { continue; }
    if (i > 10) { break; }
    acc = acc + i;
  }
  while (acc > 100) { acc = acc - 1; }
  return acc;
}
)");
  for (const CompiledFunction& fn : program.functions) {
    for (const BcInstr& instr : fn.code) {
      switch (instr.op) {
        case Op::kJump:
        case Op::kJumpIfFalse:
        case Op::kJumpIfFalseKeep:
        case Op::kJumpIfTrueKeep:
          EXPECT_LE(instr.a, fn.code.size()) << fn.name;
          break;
        default:
          break;
      }
    }
  }
}

TEST(CompilerTest, EveryFunctionEndsWithReturn) {
  CompiledProgram program = Compile("fn f() { } fn g(a) { if (a) { return 1; } }");
  for (const CompiledFunction& fn : program.functions) {
    ASSERT_FALSE(fn.code.empty());
    EXPECT_EQ(fn.code.back().op, Op::kReturn) << fn.name;
  }
}

TEST(CompilerTest, LinesTrackInstructions) {
  CompiledProgram program = Compile("let a = 1;\nlet b = 2;\n");
  const CompiledFunction& main_fn = program.functions[0];
  ASSERT_EQ(main_fn.lines.size(), main_fn.code.size());
  EXPECT_EQ(main_fn.lines[0], 1);
}

TEST(CompilerTest, ArityMismatchesAreCompileErrors) {
  EXPECT_FALSE(CompileSource("fn f(a) { } f();", {}).ok());
  EXPECT_FALSE(CompileSource("len(1, 2);", {}).ok());
  EXPECT_FALSE(CompileSource("fn f() { } fn f() { }", {}).ok());
}

TEST(CompilerTest, DisassembleWholeProgramMentionsEveryFunction) {
  CompiledProgram program = Compile("fn alpha() { } fn beta() { alpha(); }");
  const std::string listing = Disassemble(program);
  EXPECT_NE(listing.find("fn @main"), std::string::npos);
  EXPECT_NE(listing.find("fn alpha"), std::string::npos);
  EXPECT_NE(listing.find("fn beta"), std::string::npos);
}

TEST(CompilerTest, ErrorTextIsExact) {
  const struct {
    const char* source;
    const char* message;
  } cases[] = {
      {"let a = 1;\n\nbreak;", "line 3: break outside loop"},
      {"\ncontinue;", "line 2: continue outside loop"},
      {"fn f(a) { }\nf(1, 2);", "line 2: f expects 1 args, got 2"},
      {"len(1, 2);", "line 1: len expects 1 args, got 2"},
      {"nosuch(1);", "line 1: unknown function 'nosuch'"},
      {"fn f() { }\nfn f() { }", "duplicate function f"},
  };
  for (const auto& c : cases) {
    auto program = CompileSource(c.source);
    ASSERT_FALSE(program.ok()) << c.source;
    EXPECT_EQ(program.status().message(), c.message) << c.source;
  }
}

}  // namespace
}  // namespace pkrusafe
