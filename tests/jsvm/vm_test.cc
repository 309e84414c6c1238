#include "src/jsvm/vm.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

namespace pkrusafe {
namespace {

class VmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetCurrentThreadPkru(PkruValue::AllowAll());
    RuntimeConfig config;
    config.backend = BackendKind::kSim;
    config.mode = RuntimeMode::kDisabled;
    config.allocator.trusted_pool_bytes = size_t{1} << 30;
    config.allocator.untrusted_pool_bytes = size_t{1} << 30;
    auto runtime = PkruSafeRuntime::Create(std::move(config));
    ASSERT_TRUE(runtime.ok());
    runtime_ = std::move(*runtime);
  }

  // Runs source and returns the print() lines.
  std::vector<std::string> RunScript(const std::string& source, VmOptions options = {}) {
    Vm vm(runtime_.get(), options);
    const Status load = vm.Load(source);
    EXPECT_TRUE(load.ok()) << load.ToString();
    if (!load.ok()) {
      return {};
    }
    auto result = vm.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return vm.print_output();
  }

  Status RunExpectingError(const std::string& source) {
    Vm vm(runtime_.get());
    Status load = vm.Load(source);
    if (!load.ok()) {
      return load;
    }
    return vm.Run().status();
  }

  std::unique_ptr<PkruSafeRuntime> runtime_;
};

TEST_F(VmTest, ArithmeticAndPrecedence) {
  auto out = RunScript("print(1 + 2 * 3); print((1 + 2) * 3); print(10 / 4); print(10 % 3);");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "7");
  EXPECT_EQ(out[1], "9");
  EXPECT_EQ(out[2], "2.5");
  EXPECT_EQ(out[3], "1");
}

TEST_F(VmTest, UnaryOperators) {
  auto out = RunScript("print(-5); print(!true); print(!0); print(- -3);");
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "-5");
  EXPECT_EQ(out[1], "false");
  EXPECT_EQ(out[2], "true");
  EXPECT_EQ(out[3], "3");
}

TEST_F(VmTest, ComparisonAndLogic) {
  auto out = RunScript(R"(
print(1 < 2 && 2 < 3);
print(1 > 2 || 3 > 2);
print("abc" < "abd");
print(1 == 1.0);
print("x" == "x");
print("x" != "y");
print(null == null);
)");
  ASSERT_EQ(out.size(), 7u);
  for (const auto& line : out) {
    EXPECT_EQ(line, "true");
  }
}

TEST_F(VmTest, ShortCircuitSkipsEvaluation) {
  auto out = RunScript(R"(
fn boom() { print("boom"); return true; }
let a = false && boom();
let b = true || boom();
print(a); print(b);
)");
  ASSERT_EQ(out.size(), 2u);  // no "boom"
  EXPECT_EQ(out[0], "false");
  EXPECT_EQ(out[1], "true");
}

TEST_F(VmTest, VariablesAndScoping) {
  auto out = RunScript(R"(
let x = 1;
{
  let x = 2;
  print(x);
}
print(x);
)");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "2");
  EXPECT_EQ(out[1], "1");
}

TEST_F(VmTest, WhileAndForLoops) {
  auto out = RunScript(R"(
let total = 0;
let i = 0;
while (i < 5) { total = total + i; i = i + 1; }
print(total);
let sum = 0;
for (let j = 0; j < 10; j = j + 1) { sum = sum + j; }
print(sum);
)");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "10");
  EXPECT_EQ(out[1], "45");
}

TEST_F(VmTest, BreakAndContinue) {
  auto out = RunScript(R"(
let acc = 0;
for (let i = 0; i < 100; i = i + 1) {
  if (i % 2 == 0) { continue; }
  if (i > 8) { break; }
  acc = acc + i;
}
print(acc);
)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "16");  // 1+3+5+7
}

TEST_F(VmTest, FunctionsAndRecursion) {
  auto out = RunScript(R"(
fn fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
print(fib(15));
)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "610");
}

TEST_F(VmTest, FunctionsSeeGlobals) {
  auto out = RunScript(R"(
let counter = 0;
fn bump() { counter = counter + 1; return counter; }
bump(); bump();
print(bump());
)");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "3");
}

TEST_F(VmTest, StringsConcatAndBuiltins) {
  auto out = RunScript(R"(
let s = "hello" + " " + "world";
print(s);
print(len(s));
print(substr(s, 6, 5));
print(ord(s, 0));
print(chr(65) + chr(66));
print("n=" + 42);
)");
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], "hello world");
  EXPECT_EQ(out[1], "11");
  EXPECT_EQ(out[2], "world");
  EXPECT_EQ(out[3], "104");
  EXPECT_EQ(out[4], "AB");
  EXPECT_EQ(out[5], "n=42");
}

TEST_F(VmTest, ArraysBasics) {
  auto out = RunScript(R"(
let a = [1, 2, 3];
a[1] = 20;
push(a, 4);
print(a[0] + a[1] + a[2] + a[3]);
print(len(a));
print(pop(a));
print(len(a));
print([1, [2, 3], "x"]);
)");
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0], "28");
  EXPECT_EQ(out[1], "4");
  EXPECT_EQ(out[2], "4");
  EXPECT_EQ(out[3], "3");
  EXPECT_EQ(out[4], "[1, [...], x]");
}

TEST_F(VmTest, StringIndexing) {
  auto out = RunScript("let s = \"abc\"; print(s[1]);");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "b");
}

TEST_F(VmTest, MathBuiltins) {
  auto out = RunScript(R"(
print(sqrt(16));
print(floor(2.9));
print(pow(2, 10));
print(abs(-3));
print(min(2, 5));
print(max(2, 5));
)");
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], "4");
  EXPECT_EQ(out[1], "2");
  EXPECT_EQ(out[2], "1024");
  EXPECT_EQ(out[3], "3");
  EXPECT_EQ(out[4], "2");
  EXPECT_EQ(out[5], "5");
}

TEST_F(VmTest, BitwiseBuiltins) {
  auto out = RunScript(R"(
print(band(12, 10));
print(bor(12, 10));
print(bxor(12, 10));
print(shl(1, 8));
print(shr(256, 4));
print(bxor(-1, 0));
print(shr(-1, 28));
)");
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[0], "8");
  EXPECT_EQ(out[1], "14");
  EXPECT_EQ(out[2], "6");
  EXPECT_EQ(out[3], "256");
  EXPECT_EQ(out[4], "16");
  EXPECT_EQ(out[5], "-1");
  EXPECT_EQ(out[6], "15");
}

TEST_F(VmTest, RuntimeErrors) {
  EXPECT_FALSE(RunExpectingError("let a = [1]; print(a[5]);").ok());
  EXPECT_FALSE(RunExpectingError("let a = [1]; a[-1] = 0;").ok());
  EXPECT_FALSE(RunExpectingError("print(1 < \"x\");").ok());
  EXPECT_FALSE(RunExpectingError("print(null + null);").ok());
  EXPECT_FALSE(RunExpectingError("print(-\"s\");").ok());
  EXPECT_FALSE(RunExpectingError("pop([]);").ok());
}

TEST_F(VmTest, CompileErrors) {
  EXPECT_FALSE(RunExpectingError("unknown_function();").ok());
  EXPECT_FALSE(RunExpectingError("fn f(a) { return a; } f(1, 2);").ok());
  EXPECT_FALSE(RunExpectingError("break;").ok());
  EXPECT_FALSE(RunExpectingError("let x = ;").ok());
  EXPECT_FALSE(RunExpectingError("1 = 2;").ok());
}

TEST_F(VmTest, StepBudgetStopsInfiniteLoops) {
  VmOptions options;
  options.max_steps = 10'000;
  Vm vm(runtime_.get(), options);
  ASSERT_TRUE(vm.Load("while (true) { }").ok());
  EXPECT_EQ(vm.Run().status().code(), StatusCode::kResourceExhausted);
}

TEST_F(VmTest, CallFunctionEntryPoint) {
  Vm vm(runtime_.get());
  ASSERT_TRUE(vm.Load("fn mul(a, b) { return a * b; }").ok());
  ASSERT_TRUE(vm.Run().ok());
  auto result = vm.CallFunction("mul", {Value::Number(6), Value::Number(7)});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->number, 42);
  EXPECT_FALSE(vm.CallFunction("missing", {}).ok());
  EXPECT_FALSE(vm.CallFunction("mul", {Value::Number(1)}).ok());
}

TEST_F(VmTest, HostFunctionsBridgeValues) {
  Vm vm(runtime_.get());
  double received = 0;
  vm.RegisterHost("host_fn", [&](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
    received = args[0].number;
    return host_vm.MakeString("from-host");
  });
  ASSERT_TRUE(vm.Load("print(host_fn(123));").ok());
  ASSERT_TRUE(vm.Run().ok());
  EXPECT_DOUBLE_EQ(received, 123);
  ASSERT_EQ(vm.print_output().size(), 1u);
  EXPECT_EQ(vm.print_output()[0], "from-host");
}

// Host functions written against the older vector signature still
// register; they get a copy of their arguments.
TEST_F(VmTest, VectorSignatureHostFunctionsStillWork) {
  Vm vm(runtime_.get());
  vm.RegisterHost("sum2", [](Vm&, const std::vector<Value>& args) -> Result<Value> {
    return Value::Number(args[0].number + args[1].number);
  });
  ASSERT_TRUE(vm.Load("print(sum2(40, 2));").ok());
  ASSERT_TRUE(vm.Run().ok());
  EXPECT_EQ(vm.print_output(), std::vector<std::string>{"42"});
}

TEST_F(VmTest, HostErrorsPropagate) {
  Vm vm(runtime_.get());
  vm.RegisterHost("fail", [](Vm&, std::span<const Value>) -> Result<Value> {
    return InternalError("host exploded");
  });
  ASSERT_TRUE(vm.Load("fail();").ok());
  EXPECT_EQ(vm.Run().status().code(), StatusCode::kInternal);
}

TEST_F(VmTest, GarbageCollectionKeepsLiveDataIntact) {
  VmOptions options;
  options.gc_threshold_bytes = 64 * 1024;  // collect often
  Vm vm(runtime_.get(), options);
  ASSERT_TRUE(vm.Load(R"(
let keep = [];
for (let i = 0; i < 200; i = i + 1) { push(keep, "v" + i); }
// Generate lots of garbage to force collections.
for (let i = 0; i < 20000; i = i + 1) { let junk = "junk" + i; }
print(len(keep));
print(keep[0]);
print(keep[199]);
)")
                  .ok());
  auto result = vm.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(vm.print_output().size(), 3u);
  EXPECT_EQ(vm.print_output()[0], "200");
  EXPECT_EQ(vm.print_output()[1], "v0");
  EXPECT_EQ(vm.print_output()[2], "v199");
  EXPECT_GT(vm.heap().stats().collections, 0u);
  EXPECT_GT(vm.heap().stats().objects_freed, 0u);
}

TEST_F(VmTest, VmHeapLivesInUntrustedPool) {
  Vm vm(runtime_.get());
  ASSERT_TRUE(vm.Load("let a = [1, 2, 3];").ok());
  ASSERT_TRUE(vm.Run().ok());
  // Every engine object must come from M_U: sample via a fresh string.
  auto str = vm.MakeString("sample");
  ASSERT_TRUE(str.ok());
  const auto owner = runtime_->allocator().OwnerOf(str->object);
  ASSERT_TRUE(owner.has_value());
  EXPECT_EQ(*owner, Domain::kUntrusted);
}

TEST_F(VmTest, VulnerabilityBuiltinsAreGatedByOption) {
  EXPECT_EQ(RunExpectingError("__peek(4096);").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(RunExpectingError("__poke(4096, 1);").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(RunExpectingError("__addrof([1]);").code(), StatusCode::kPermissionDenied);
}

TEST_F(VmTest, VulnerabilityReadsOwnHeapWhenEnabled) {
  VmOptions options;
  options.enable_vulnerability = true;
  Vm vm(runtime_.get(), options);
  ASSERT_TRUE(vm.Load(R"(
let a = [7];
let addr = __addrof(a);
print(addr > 0);
)")
                  .ok());
  auto result = vm.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(vm.print_output()[0], "true");
}

// The three script shapes of the repository benchmark's server workloads
// (loop arithmetic, a called function, an array fill and sum). The step
// budget counts every executed instruction, so these counts pin both the
// bytecode the compiler emits and the budget's accounting.
TEST_F(VmTest, StepCountsOfTheBenchmarkShapesArePinned) {
  const struct {
    const char* script;
    uint64_t steps;
  } shapes[] = {
      {"let s = 123456; let i = 0; while (i < 40) { s = s + (i * 37) % 97; i = i + 1; } "
       "print(s);",
       775},
      {"fn step(x) { return (x * 37 + 7) % 1000003; } let s = 123456; "
       "for (let i = 0; i < 40; i = i + 1) { s = step(s); } print(s);",
       895},
      {"let v = []; for (let i = 0; i < 40; i = i + 1) { push(v, i * 37 + 123456); } "
       "let s = 0; for (let i = 0; i < len(v); i = i + 1) { s = s + v[i]; } print(s);",
       1466},
  };
  for (const auto& shape : shapes) {
    Vm vm(runtime_.get());
    ASSERT_TRUE(vm.Load(shape.script).ok());
    ASSERT_TRUE(vm.Run().ok());
    EXPECT_EQ(vm.steps_executed(), shape.steps) << shape.script;
  }
}

// The step budget is exact: a script that needs N steps runs with a budget
// of N and fails with N - 1.
TEST_F(VmTest, StepBudgetIsExact) {
  const char* script = "let i = 0; while (i < 10) { i = i + 1; } print(i);";
  Vm probe(runtime_.get());
  ASSERT_TRUE(probe.Load(script).ok());
  ASSERT_TRUE(probe.Run().ok());
  const uint64_t needed = probe.steps_executed();

  VmOptions exact;
  exact.max_steps = needed;
  EXPECT_EQ(RunScript(script, exact), std::vector<std::string>{"10"});
  VmOptions short_by_one;
  short_by_one.max_steps = needed - 1;
  Vm vm(runtime_.get(), short_by_one);
  ASSERT_TRUE(vm.Load(script).ok());
  EXPECT_EQ(vm.Run().status().code(), StatusCode::kResourceExhausted);
}

// A superinstruction charges each instruction it stands for where that
// instruction would have run. Every budget short of a script's need ends in
// an exhausted budget one step past it, and a compare that fails inside a
// compare-and-branch fails before the branch's step is charged.
TEST_F(VmTest, SuperinstructionsChargeEachPartWhereItRan) {
  const char* script =
      "let s = 0; let i = 0; while (i < 10) { s = s + i % 3 * 2 - 1; i = i + 1; } "
      "let j = 0; while (j <= i) { j = j + 4; } print(s + j);";
  Vm probe(runtime_.get());
  ASSERT_TRUE(probe.Load(script).ok());
  ASSERT_TRUE(probe.Run().ok());
  EXPECT_EQ(probe.print_output(), std::vector<std::string>{"20"});
  const uint64_t needed = probe.steps_executed();
  for (uint64_t budget = 0; budget < needed; ++budget) {
    VmOptions options;
    options.max_steps = budget;
    Vm vm(runtime_.get(), options);
    ASSERT_TRUE(vm.Load(script).ok());
    EXPECT_EQ(vm.Run().status().code(), StatusCode::kResourceExhausted) << budget;
    EXPECT_EQ(vm.steps_executed(), budget + 1);
  }

  for (const char* failing :
       {"let x = \"a\"; if (x < 1) { }", "let x = \"a\"; let y = 1; while (x >= y) { }",
        "let x = null; print(x * 2);"}) {
    Vm vm(runtime_.get());
    ASSERT_TRUE(vm.Load(failing).ok());
    ASSERT_EQ(vm.Run().status().code(), StatusCode::kInvalidArgument) << failing;
    const uint64_t to_error = vm.steps_executed();
    VmOptions exact;
    exact.max_steps = to_error;
    Vm at_error(runtime_.get(), exact);
    ASSERT_TRUE(at_error.Load(failing).ok());
    EXPECT_EQ(at_error.Run().status().code(), StatusCode::kInvalidArgument) << failing;
    EXPECT_EQ(at_error.steps_executed(), to_error);
    VmOptions short_by_one;
    short_by_one.max_steps = to_error - 1;
    Vm short_vm(runtime_.get(), short_by_one);
    ASSERT_TRUE(short_vm.Load(failing).ok());
    EXPECT_EQ(short_vm.Run().status().code(), StatusCode::kResourceExhausted) << failing;
  }
}

// The fused forms compute what their parts did, on every operand type.
TEST_F(VmTest, SuperinstructionsKeepTheirPartsSemantics) {
  EXPECT_EQ(RunScript("let s = \"n\"; s = s + 1; print(s); print(\"a\" + 2.5);"),
            (std::vector<std::string>{"n1", "a2.5"}));
  EXPECT_EQ(RunScript("let x = 7; print(x % 3); print(-x % 3); print(x / 2 % 2); print(x - 1.5);"
                      "print(x * 1e20); print(0 - x % 1);"),
            (std::vector<std::string>{"1", "-1", "1.5", "5.5", "7e+20", "0"}));
  EXPECT_EQ(RunScript("let nan = 0 / 0; let n = 0; if (nan < 1) { n = n + 1; } "
                      "if (nan >= 1) { n = n + 2; } if (!(nan <= nan)) { n = n + 4; } "
                      "let b = \"b\"; if (b < \"c\") { n = n + 8; } if (b > \"c\") { n = n + 16; } "
                      "print(n); print(nan > 1); print(3 <= 3); print(b >= \"b\");"),
            (std::vector<std::string>{"12", "false", "true", "true"}));
  EXPECT_EQ(RunScript("fn f(a) { let k = a; k = k * 2; return k; } let g = f(4); print(g);"),
            std::vector<std::string>{"8"});
}

// Integral numbers below 1e15 print as integers, -0 as 0; the rest as %g.
TEST_F(VmTest, NumbersDisplayAsIntegersBelow1e15) {
  EXPECT_EQ(RunScript("print(-0); print(0 * -1); print(-5); print(999999999999999); "
                      "print(-999999999999999); print(1000000000000000); print(2.5); "
                      "print(1 / 0); print(\"n\" + -7);"),
            (std::vector<std::string>{"0", "0", "-5", "999999999999999", "-999999999999999",
                                      "1e+15", "2.5", "inf", "n-7"}));
}

// x % y takes an integer remainder for integer operands in range and
// std::fmod otherwise; either way its result is fmod's, bit for bit.
TEST(ModNumbersTest, MatchesFmodBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double two53 = 9007199254740992.0;
  std::vector<double> values = {0.0,       -0.0,      1,           -1,         2,
                                3,         -3,        7,           97,         1000003,
                                0.5,       -0.5,      2.5,         -7.25,      1e-300,
                                123456.75, two53 - 1, -(two53 - 1), two53,     -two53,
                                two53 + 2, 4294967296.0, 4294967297.0, 1e300, -1e300,
                                inf,       -inf,      nan,         -nan};
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 64; ++i) {
    values.push_back(static_cast<double>(rng() % 100000));
    values.push_back(static_cast<double>(rng() >> 11));  // up to 2^53 - 1
  }
  for (const double x : values) {
    for (const double y : values) {
      EXPECT_EQ(std::bit_cast<uint64_t>(ModNumbers(x, y)), std::bit_cast<uint64_t>(std::fmod(x, y)))
          << x << " % " << y;
    }
  }
  EXPECT_TRUE(std::signbit(ModNumbers(-0.0, 5)));
  EXPECT_FALSE(std::signbit(ModNumbers(0.0, 5)));
}

// Runtime errors name the function and source line of the failing
// instruction, in and out of nested calls.
TEST_F(VmTest, RuntimeErrorMessagesKeepTheirLines) {
  const struct {
    const char* script;
    const char* message;
  } cases[] = {
      {"let a = [1];\nfn f(x) {\n  return x[5];\n}\nprint(f(a));",
       "array index 5 out of bounds (size 1) (in f, line 3)"},
      {"let a = [1];\n\na[-1] = 0;", "array index out of bounds in assignment (in @main, line 3)"},
      {"fn g() {\n  return 1 < \"x\";\n}\ng();",
       "comparison on incompatible types (in g, line 2)"},
      {"print(null + null);", "invalid operands to '+' (in @main, line 1)"},
      {"let x = 1;\nprint(-\"s\");", "operand of '-' must be a number (in @main, line 2)"},
      {"let x = 1;\nlet y = x * [];", "arithmetic on non-numbers (in @main, line 2)"},
      {"let s = \"abc\";\nprint(s[9]);", "string index out of bounds (in @main, line 2)"},
      {"let a = [1];\nprint(a[\"k\"]);", "index must be a number (in @main, line 2)"},
      {"print(true[0]);", "only arrays and strings are indexable (in @main, line 1)"},
      {"let n = 1;\nn[0] = 1;", "only arrays support indexed assignment (in @main, line 2)"},
      {"fn f() {\n\n  pop([]);\n}\nf();", "pop() from empty array (in f, line 3)"},
  };
  for (const auto& c : cases) {
    const Status status = RunExpectingError(c.script);
    EXPECT_EQ(status.message(), c.message) << c.script;
  }
}

// Script numbers outside the int64 range (±1e300, NaN, ±inf) reach the
// index and integer builtins through defined conversions: an index is
// checked before it is truncated, and the bitwise builtins and chr() take
// ToInt32 (NaN and ±inf give 0, everything else wraps modulo 2^32).
// scripts/check.sh ubsan stops on the unchecked casts these replaced.
TEST_F(VmTest, OutOfRangeNumbersConvertWithoutUndefinedCasts) {
  const struct {
    const char* script;
    const char* message;
  } cases[] = {
      {"let a = [1];\nprint(a[1e300]);",
       "array index 1e+300 out of bounds (size 1) (in @main, line 2)"},
      {"let a = [1];\nprint(a[-1e300]);",
       "array index -1e+300 out of bounds (size 1) (in @main, line 2)"},
      {"let a = [1];\nprint(a[1.5]);", "array index 1 out of bounds (size 1) (in @main, line 2)"},
      {"let a = [1];\na[1e300] = 0;", "array index out of bounds in assignment (in @main, line 2)"},
      {"let a = [1];\na[0/0] = 0;", "array index out of bounds in assignment (in @main, line 2)"},
      {"print(\"abc\"[1e300]);", "string index out of bounds (in @main, line 1)"},
      {"print(\"abc\"[0/0]);", "string index out of bounds (in @main, line 1)"},
      {"print(ord(\"a\", 1e300));", "ord() index out of range (in @main, line 1)"},
      {"print(ord(\"a\", -1));", "ord() index out of range (in @main, line 1)"},
      {"print(substr(\"abc\", 1e300, 1));", "substr() start out of range (in @main, line 1)"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RunExpectingError(c.script).message(), c.message) << c.script;
  }
  // NaN prints with a platform-dependent sign.
  const std::string nan_index = RunExpectingError("let a = [1];\nprint(a[0/0]);").message();
  EXPECT_NE(nan_index.find("nan out of bounds (size 1) (in @main, line 2)"), std::string::npos)
      << nan_index;

  auto out = RunScript(R"(
print(band(1e300, 1));
print(bor(0/0, 5));
print(bxor(1/0, 3));
print(shl(-1/0, 2));
print(band(4294967296 + 7, 15));
print(bor(-4294967295, 0));
print(len(chr(1e300)));
print(ord(chr(1e300), 0));
print(ord(chr(321), 0));
print(substr("abc", 1, 1e300));
print(substr("abc", 0/0, 2));
print(substr("abc", -1e300, 1));
print(ord("ab", 1.9));
)");
  const std::vector<std::string> expected = {"0", "5",  "3",  "0",  "7", "1", "1",
                                             "0", "65", "bc", "ab", "a", "98"};
  EXPECT_EQ(out, expected);

  VmOptions vulnerable;
  vulnerable.enable_vulnerability = true;
  for (const char* script : {"__peek(1e300);", "__poke(0/0, 1);", "__poke(8, -1e300);"}) {
    Vm vm(runtime_.get(), vulnerable);
    ASSERT_TRUE(vm.Load(script).ok()) << script;
    const Status status = vm.Run().status();
    EXPECT_NE(status.message().find("out of range"), std::string::npos) << status.ToString();
  }
}

// Collection runs only at instruction boundaries, after instructions that
// allocate. With a 1-byte threshold it runs after every one of them; the
// output must not change: string concatenation across nested script calls
// and a host function that re-enters CallFunction (deep enough to grow the
// operand stack) while its caller's temporaries are live.
TEST_F(VmTest, CollectingAtEverySafepointChangesNoOutput) {
  const char* script = R"(
fn deep(n) { if (n == 0) { return ""; } return chr(97 + n % 26) + deep(n - 1); }
fn inner(k) { return "<" + str(k) + ":" + reenter(k * 9) + ">"; }
fn outer(k) {
  let acc = "";
  for (let j = 0; j < k; j = j + 1) { acc = acc + inner(j) + substr("xyz", j % 3, 1); }
  return acc;
}
let keep = [];
for (let r = 0; r < 12; r = r + 1) { push(keep, [outer(r % 5), "r" + r]); print(keep[r][0]); }
print(len(keep));
print(keep[3]);
)";
  auto run = [&](size_t threshold, uint64_t* collections) {
    VmOptions options;
    options.gc_threshold_bytes = threshold;
    Vm vm(runtime_.get(), options);
    vm.RegisterHost("reenter", [](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
      const Value n = args[0];  // read before re-entering: the stack may move
      return host_vm.CallFunction("deep", {n});
    });
    EXPECT_TRUE(vm.Load(script).ok());
    auto result = vm.Run();
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    *collections = vm.heap().stats().collections;
    return vm.print_output();
  };
  uint64_t stressed_collections = 0;
  uint64_t default_collections = 0;
  const std::vector<std::string> stressed = run(1, &stressed_collections);
  const std::vector<std::string> relaxed = run(JsHeap::kDefaultGcThreshold, &default_collections);
  ASSERT_EQ(stressed.size(), 14u);
  EXPECT_EQ(stressed, relaxed);
  EXPECT_GT(stressed_collections, 100u);
  EXPECT_EQ(default_collections, 0u);
}

// A compiled program's kCallHost indices are only meaningful against the
// host list it was compiled for: loading it into a Vm with other hosts
// would call the wrong functions, so Load refuses it.
TEST_F(VmTest, SharedLoadRefusesAHostNameMismatch) {
  auto compiled = CompileSource("print(a());", {"a", "b"});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const auto program = std::make_shared<const CompiledProgram>(std::move(*compiled));
  const auto host = [](Vm&, std::span<const Value>) -> Result<Value> {
    return Value::Number(7);
  };

  Vm swapped(runtime_.get());
  swapped.RegisterHost("b", host);
  swapped.RegisterHost("a", host);
  EXPECT_EQ(swapped.Load(program).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(swapped.Run().status().code(), StatusCode::kFailedPrecondition);  // nothing loaded

  Vm missing(runtime_.get());
  missing.RegisterHost("a", host);
  EXPECT_EQ(missing.Load(program).code(), StatusCode::kFailedPrecondition);

  Vm matching(runtime_.get());
  matching.RegisterHost("a", host);
  matching.RegisterHost("b", host);
  ASSERT_TRUE(matching.Load(program).ok());
  ASSERT_TRUE(matching.Run().ok());
  EXPECT_EQ(matching.print_output(), std::vector<std::string>{"7"});
  EXPECT_EQ(matching.Load(std::shared_ptr<const CompiledProgram>()).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pkrusafe
