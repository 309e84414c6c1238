// Bytecode verifier tests: one hand-built malformed program per rule, each
// refused by VerifyProgram and by Vm::Load and never run, plus a seeded
// mutation fuzz over compiled programs. Vm::Execute drops the per-step
// checks these rules prove, so a rule that stops refusing is a memory-safety
// bug in the VM, not just a wrong message.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/jsvm/compiler.h"
#include "src/jsvm/vm.h"

namespace pkrusafe {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    RuntimeConfig config;
    config.backend = BackendKind::kSim;
    config.mode = RuntimeMode::kDisabled;
    config.allocator.trusted_pool_bytes = size_t{16} << 20;
    config.allocator.untrusted_pool_bytes = size_t{32} << 20;
    auto runtime = PkruSafeRuntime::Create(std::move(config));
    ASSERT_TRUE(runtime.ok());
    runtime_ = std::move(*runtime);
  }

  // Expects `program` to break `rule`: VerifyProgram names it, Vm::Load
  // refuses the program, and nothing runs.
  void ExpectRefused(CompiledProgram program, const std::string& rule) {
    CompiledProgram copy = program;
    const Status verified = VerifyProgram(copy);
    EXPECT_EQ(verified.code(), StatusCode::kInvalidArgument) << rule;
    EXPECT_NE(verified.message().find(rule), std::string::npos) << verified.message();
    EXPECT_FALSE(copy.verified());

    Vm vm(runtime_.get());
    const Status loaded = vm.Load(std::make_shared<const CompiledProgram>(std::move(program)));
    EXPECT_EQ(loaded.message(), verified.message());
    EXPECT_EQ(vm.Run().status().code(), StatusCode::kFailedPrecondition);  // nothing loaded
    EXPECT_EQ(vm.steps_executed(), 0u);
  }

  std::unique_ptr<PkruSafeRuntime> runtime_;
};

CompiledFunction Function(std::string name, std::vector<BcInstr> code, uint32_t arity = 0,
                          uint32_t num_locals = 0) {
  CompiledFunction fn;
  fn.name = std::move(name);
  fn.arity = arity;
  fn.num_locals = num_locals;
  fn.lines.assign(code.size(), 1);
  fn.code = std::move(code);
  return fn;
}

// A program whose @main is `code`.
CompiledProgram Main(std::vector<BcInstr> code, uint32_t num_locals = 0) {
  CompiledProgram program;
  program.functions.push_back(Function("@main", std::move(code), 0, num_locals));
  return program;
}

TEST_F(VerifierTest, AcceptsAHandBuiltProgramAndRecordsItsMaxStack) {
  CompiledProgram program = Main({{Op::kTrue},
                                  {Op::kJumpIfFalseKeep, 5},
                                  {Op::kNull},
                                  {Op::kNull},
                                  {Op::kEq},
                                  {Op::kReturn}});
  ASSERT_TRUE(VerifyProgram(program).ok());
  EXPECT_TRUE(program.verified());
  EXPECT_EQ(program.functions[0].max_stack, 2u);

  // Vm::Load verifies what was not verified, then runs it.
  Vm vm(runtime_.get());
  ASSERT_TRUE(vm.Load(std::make_shared<const CompiledProgram>(Main(program.functions[0].code)))
                  .ok());
  auto result = vm.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->is_bool() && result->boolean);
}

TEST_F(VerifierTest, CompiledProgramsArriveVerifiedAndCopiesDoNot) {
  auto compiled = CompileSource("fn f(a, b) { return [a, b, a + b]; } print(f(1, 2));");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->verified());
  EXPECT_EQ(compiled->functions[1].max_stack, 4u);  // a, b, then a + b's two operands
  const CompiledProgram copy = *compiled;
  EXPECT_FALSE(copy.verified());  // it could have been edited since
}

// Load keeps a verified program itself: a program-cache hit pays no
// verification (an unverified program is verified on a copy instead).
TEST_F(VerifierTest, LoadTakesAVerifiedProgramAsIs) {
  auto compiled = CompileSource("print(1);");
  ASSERT_TRUE(compiled.ok());
  const auto verified = std::make_shared<const CompiledProgram>(std::move(*compiled));
  const auto unverified = std::make_shared<const CompiledProgram>(CompiledProgram(*verified));
  Vm vm(runtime_.get());
  ASSERT_TRUE(vm.Load(verified).ok());
  EXPECT_EQ(verified.use_count(), 2);
  ASSERT_TRUE(vm.Load(unverified).ok());
  EXPECT_EQ(unverified.use_count(), 1);
  EXPECT_EQ(verified.use_count(), 1);
}

TEST_F(VerifierTest, RefusesAnEmptyProgram) { ExpectRefused(CompiledProgram(), "no functions"); }

TEST_F(VerifierTest, RefusesAJumpTargetOutOfRange) {
  ExpectRefused(Main({{Op::kNull}, {Op::kJump, 9}, {Op::kReturn}}), "jump target out of range");
}

TEST_F(VerifierTest, RefusesAPathThatFallsOffTheEnd) {
  ExpectRefused(Main({{Op::kNull}, {Op::kPop}}), "falls off the end");
  ExpectRefused(Main({}), "falls off the end");
  // Only the fallthrough edge of the conditional leaves the code.
  ExpectRefused(
      Main({{Op::kJump, 3}, {Op::kNull}, {Op::kReturn}, {Op::kTrue}, {Op::kJumpIfFalse, 1}}),
      "falls off the end");
}

TEST_F(VerifierTest, RefusesAStackUnderflow) {
  ExpectRefused(Main({{Op::kPop}, {Op::kNull}, {Op::kReturn}}), "stack underflow");
  ExpectRefused(Main({{Op::kNull}, {Op::kNewArray, 2}, {Op::kReturn}}), "stack underflow");
}

TEST_F(VerifierTest, RefusesJoinsReachedAtDifferentDepths) {
  // 3 is reached with depth 0 from the jump and depth 1 after kNull.
  ExpectRefused(Main({{Op::kTrue}, {Op::kJumpIfFalse, 3}, {Op::kNull}, {Op::kNull}, {Op::kReturn}}),
                "stack depth differs between paths");
}

TEST_F(VerifierTest, RefusesAConstantIndexOutOfRange) {
  ExpectRefused(Main({{Op::kConst, 0}, {Op::kReturn}}), "constant index out of range");
}

// A superinstruction's `b` is a number constant: the Vm reads its .number
// without a type test.
TEST_F(VerifierTest, RefusesASuperinstructionWhoseConstantIsNotANumber) {
  CompiledProgram program = Main({{Op::kNull}, {Op::kAddConst, 0, 0}, {Op::kReturn}});
  program.functions[0].constants = {std::string("x")};
  ExpectRefused(program, "constant operand is not a number");
  program.functions[0].code = {{Op::kNull}, {Op::kJumpNotLtConst, 2, 0}, {Op::kNull}, {Op::kReturn}};
  ExpectRefused(std::move(program), "constant operand is not a number");
}

TEST_F(VerifierTest, RefusesASuperinstructionConstantIndexOutOfRange) {
  CompiledProgram program = Main({{Op::kNull}, {Op::kMulConst, 0, 1}, {Op::kReturn}});
  program.functions[0].constants = {1.0};
  ExpectRefused(program, "constant index out of range");
  program.functions[0].code = {{Op::kNull}, {Op::kJumpNotGeConst, 2, 7}, {Op::kNull}, {Op::kReturn}};
  ExpectRefused(std::move(program), "constant index out of range");
}

TEST_F(VerifierTest, RefusesACompareAndBranchTargetOutOfRange) {
  ExpectRefused(Main({{Op::kNull}, {Op::kNull}, {Op::kJumpNotLt, 9}, {Op::kNull}, {Op::kReturn}}),
                "jump target out of range");
  CompiledProgram program = Main({{Op::kNull}, {Op::kJumpNotGtConst, 4, 0}, {Op::kNull}, {Op::kReturn}});
  program.functions[0].constants = {1.0};
  ExpectRefused(std::move(program), "jump target out of range");
}

// Each superinstruction pops what its parts popped together.
TEST_F(VerifierTest, RefusesASuperinstructionThatUnderflows) {
  ExpectRefused(Main({{Op::kNull}, {Op::kJumpNotLe, 3}, {Op::kNull}, {Op::kReturn}}),
                "stack underflow");
  ExpectRefused(Main({{Op::kNull}, {Op::kStoreLocalPop, 0}, {Op::kReturn}}, 1), "stack underflow");
}

TEST_F(VerifierTest, RefusesALocalSlotOutOfRange) {
  ExpectRefused(Main({{Op::kLoadLocal, 1}, {Op::kReturn}}, 1), "local slot out of range");
  ExpectRefused(Main({{Op::kNull}, {Op::kStoreLocal, 0}, {Op::kReturn}}), "local slot out of range");
}

TEST_F(VerifierTest, RefusesAGlobalIndexOutOfRange) {
  CompiledProgram program = Main({{Op::kLoadGlobal, 1}, {Op::kReturn}});
  program.global_names = {"only"};
  ExpectRefused(std::move(program), "global index out of range");
}

TEST_F(VerifierTest, RefusesAFunctionIndexOutOfRange) {
  ExpectRefused(Main({{Op::kCall, 1, 0}, {Op::kReturn}}), "function index out of range");
}

TEST_F(VerifierTest, RefusesAHostIndexOutOfRange) {
  ExpectRefused(Main({{Op::kCallHost, 0, 0}, {Op::kReturn}}), "host index out of range");
}

TEST_F(VerifierTest, RefusesABuiltinIdOutOfRange) {
  ExpectRefused(Main({{Op::kNull}, {Op::kCallBuiltin, kNumBuiltins, 1}, {Op::kReturn}}),
                "builtin id out of range");
}

TEST_F(VerifierTest, RefusesAnUnknownOpcode) {
  ExpectRefused(Main({{static_cast<Op>(static_cast<int>(kLastOp) + 1)}, {Op::kNull}, {Op::kReturn}}),
                "unknown opcode");
}

TEST_F(VerifierTest, RefusesACallWhoseArgcIsNotTheCalleesArity) {
  CompiledProgram program = Main({{Op::kNull}, {Op::kNull}, {Op::kCall, 1, 2}, {Op::kReturn}});
  program.functions.push_back(Function("f", {{Op::kLoadLocal, 0}, {Op::kReturn}}, 1, 1));
  ExpectRefused(std::move(program), "argc differs from the callee's arity");
}

TEST_F(VerifierTest, RefusesABuiltinCallWhoseArgcIsNotItsArity) {
  ExpectRefused(Main({{Op::kNull},
                      {Op::kNull},
                      {Op::kCallBuiltin, static_cast<uint32_t>(BuiltinId::kPrint), 2},
                      {Op::kReturn}}),
                "argc differs from the builtin's arity");
}

TEST_F(VerifierTest, RefusesMoreParametersThanLocals) {
  CompiledProgram program = Main({{Op::kNull}, {Op::kCall, 1, 1}, {Op::kReturn}});
  program.functions.push_back(Function("f", {{Op::kNull}, {Op::kReturn}}, 1, 0));
  ExpectRefused(std::move(program), "more parameters than locals");
}

// Seeded mutation fuzz: flip one op, a or b of a compiled program. Every
// mutant must be refused by Load or run to a Status (under ASan too, in
// scripts/check.sh asan), never crash or read out of bounds.
TEST_F(VerifierTest, MutatedProgramsAreRefusedOrRunToAStatus) {
  const char* corpus[] = {
      "let s = 123456; let i = 0; while (i < 40) { s = s + (i * 37) % 97; i = i + 1; } print(s);",
      "fn step(x) { return (x * 37 + 7) % 1000003; } let s = 123456; "
      "for (let i = 0; i < 40; i = i + 1) { s = step(s); } print(s);",
      "let v = []; for (let i = 0; i < 40; i = i + 1) { push(v, i * 37 + 123456); } "
      "let s = 0; for (let i = 0; i < len(v); i = i + 1) { s = s + v[i]; } print(s);",
      "fn f(a, b) { if (a > b && !(a == 3) || b < 0) { return -a; } return [a, b][1]; } "
      "let t = \"ab\" + 1; let r = [0, 0]; r[1] = f(2, 1); print(t[1] + str(r[1]) + substr(t, 0, 1));",
  };
  std::vector<CompiledProgram> programs;
  for (const char* source : corpus) {
    auto compiled = CompileSource(source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    programs.push_back(std::move(*compiled));
  }

  std::mt19937_64 rng(20261017);
  int refused = 0;
  int ran = 0;
  for (int i = 0; i < 4000; ++i) {
    CompiledProgram mutant = programs[rng() % programs.size()];
    CompiledFunction& fn = mutant.functions[rng() % mutant.functions.size()];
    BcInstr& instr = fn.code[rng() % fn.code.size()];
    const uint32_t value = rng() % 4 == 0 ? static_cast<uint32_t>(rng()) : rng() % 48;
    switch (rng() % 3) {
      case 0:
        instr.op = static_cast<Op>(value % 40);
        break;
      case 1:
        instr.a = value;
        break;
      default:
        instr.b = value;
        break;
    }
    VmOptions options;
    options.max_steps = 20'000;
    Vm vm(runtime_.get(), options);
    if (!vm.Load(std::make_shared<const CompiledProgram>(std::move(mutant))).ok()) {
      ++refused;
      continue;
    }
    (void)vm.Run();
    ++ran;
  }
  EXPECT_GT(refused, 500);
  EXPECT_GT(ran, 500);
}

}  // namespace
}  // namespace pkrusafe
