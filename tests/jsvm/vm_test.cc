#include "src/jsvm/vm.h"

#include <gtest/gtest.h>

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
  vm.RegisterHost("host_fn", [&](Vm& host_vm, const std::vector<Value>& args) -> Result<Value> {
    received = args[0].number;
    return host_vm.MakeString("from-host");
  });
  ASSERT_TRUE(vm.Load("print(host_fn(123));").ok());
  ASSERT_TRUE(vm.Run().ok());
  EXPECT_DOUBLE_EQ(received, 123);
  ASSERT_EQ(vm.print_output().size(), 1u);
  EXPECT_EQ(vm.print_output()[0], "from-host");
}

TEST_F(VmTest, HostErrorsPropagate) {
  Vm vm(runtime_.get());
  vm.RegisterHost("fail", [](Vm&, const std::vector<Value>&) -> Result<Value> {
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

// A compiled program's kCallHost indices are only meaningful against the
// host list it was compiled for: loading it into a Vm with other hosts
// would call the wrong functions, so Load refuses it.
TEST_F(VmTest, SharedLoadRefusesAHostNameMismatch) {
  auto compiled = CompileSource("print(a());", {"a", "b"});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const auto program = std::make_shared<const CompiledProgram>(std::move(*compiled));
  const auto host = [](Vm&, const std::vector<Value>&) -> Result<Value> {
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
