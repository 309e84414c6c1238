// Bytecode goldens: the disassembly of each pinned script, plus each
// function's line table, max_stack and constants, byte for byte. Any change to what the
// lexer accepts, how the parser shapes the tree or what the compiler emits
// shows up as a diff against tests/jsvm/golden/. What each script prints and
// how many steps it is charged are pinned too, so a change to the emitted
// code cannot change what a script does or costs.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "src/dom/bindings.h"
#include "src/dom/document.h"
#include "src/jsvm/compiler.h"
#include "src/jsvm/disassembler.h"
#include "src/jsvm/vm.h"
#include "src/support/string_util.h"
#include "tests/golden_file.h"

#ifndef PKRUSAFE_EXAMPLES_SCRIPTS_DIR
#error "build must define PKRUSAFE_EXAMPLES_SCRIPTS_DIR"
#endif

namespace pkrusafe {
namespace {

// The DOM bindings' host names, in DomBindings::HostNames() order.
std::vector<std::string> DomHostNames() {
  return {"dom_create_element", "dom_create_text", "dom_append_child", "dom_remove",
          "dom_root",           "dom_set_id",      "dom_get_by_id",    "dom_set_text",
          "dom_inner_html",     "dom_layout",      "dom_node_count",   "dom_get_text",
          "dom_char_at",        "dom_text_sum",    "dom_text_len"};
}

// Disassemble's listing, then per function its line table, max_stack and
// constant pool (numbers at full precision; the listing rounds them).
std::string Listing(const CompiledProgram& program) {
  std::string out = Disassemble(program);
  for (const CompiledFunction& fn : program.functions) {
    out += "lines " + fn.name + ":";
    for (int line : fn.lines) {
      out += ' ';
      out += std::to_string(line);
    }
    out += "\nmax_stack " + fn.name + ": " + std::to_string(fn.max_stack) + "\n";
    out += "constants " + fn.name + ":";
    for (const BcConstant& constant : fn.constants) {
      if (const double* number = std::get_if<double>(&constant)) {
        out += StrFormat(" %.17g", *number);
      } else {
        out += " \"" + std::get<std::string>(constant) + "\"";
      }
    }
    out += "\n";
  }
  return out;
}

void ExpectGolden(const std::string& source, const std::string& golden) {
  auto program = CompileSource(source, DomHostNames());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  golden::ExpectMatches(Listing(*program), golden);
}

std::string ReadScript(const std::string& name) {
  std::ifstream in(std::string(PKRUSAFE_EXAMPLES_SCRIPTS_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing script " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The three script shapes of the server benchmark's unique-script workload,
// with one draw of their seeded constants.
constexpr char kServeLoop[] =
    "let s = 482913; let i = 0; while (i < 40) { s = s + (i * 37) % 97; i = i + 1; } "
    "print(s);";
constexpr char kServeCall[] =
    "fn step(x) { return (x * 37 + 7) % 1000003; } let s = 482913; "
    "for (let i = 0; i < 40; i = i + 1) { s = step(s); } print(s);";
constexpr char kServeArray[] =
    "let v = []; for (let i = 0; i < 40; i = i + 1) { push(v, i * 37 + 482913); } "
    "let s = 0; for (let i = 0; i < len(v); i = i + 1) { s = s + v[i]; } print(s);";

// A DOM-bindings script (the jslib kernel's shape): host calls, string
// constants with escapes, nested loops, && and ||, else branches, break and
// continue in both loop kinds, a bare block, chained index assignment, a
// bare return and a called function.
constexpr char kDomBindings[] = R"(
let root = dom_root();
let list = dom_create_element("ul");
dom_append_child(root, list);
dom_inner_html(root, "<p id=\"t\">a\tb\\c\n</p>");
let items = [];
for (let i = 0; i < 12; i = i + 1) {
  let li = dom_create_element("li");
  dom_set_id(li, "item" + i);
  let t = dom_create_text("item text " + i);
  dom_append_child(li, t);
  dom_append_child(list, li);
  push(items, t);
}

fn bench(rounds) {
  let acc = 0;
  for (let it = 0; it < rounds; it = it + 1) {
    for (let i = 0; i < len(items); i = i + 1) {
      let text = dom_get_text(items[i]);
      let c = ord(text, 0);
      if (c >= 97 && c <= 122) {
        dom_set_text(items[i], chr(c - 32) + substr(text, 1, len(text) - 1));
      } else if (c == 0 || !(c < 256)) {
        continue;
      } else {
        dom_set_text(items[i], text);
      }
      acc = acc + dom_text_len(items[i]) * -1 + dom_char_at(items[i], 0) / 2;
      if (acc > 1e9) { break; }
    }
  }
  let k = 0;
  while (k < 3) { k = k + 1; if (k == 2) { continue; } acc = acc - -k; }
  { let z = [1., 2.5e-1, "x", "x"]; z[0] = z[1] = items[0]; }
  if (!acc) { return; }
  return acc;
}
let h = dom_get_by_id("item3");
print(bench(3) != null);
print(h == null || dom_node_count() + dom_layout(640) % 7 > 0);
)";

TEST(BytecodeGoldenTest, ExampleFib) { ExpectGolden(ReadScript("fib.ms"), "fib.txt"); }

TEST(BytecodeGoldenTest, ExamplePage) { ExpectGolden(ReadScript("page.ms"), "page.txt"); }

TEST(BytecodeGoldenTest, ExampleSortBench) {
  ExpectGolden(ReadScript("sort_bench.ms"), "sort_bench.txt");
}

TEST(BytecodeGoldenTest, ServeShapeLoop) { ExpectGolden(kServeLoop, "serve_loop.txt"); }

TEST(BytecodeGoldenTest, ServeShapeCall) { ExpectGolden(kServeCall, "serve_call.txt"); }

TEST(BytecodeGoldenTest, ServeShapeArray) { ExpectGolden(kServeArray, "serve_array.txt"); }

TEST(BytecodeGoldenTest, DomBindingsScript) { ExpectGolden(kDomBindings, "dom_bindings.txt"); }

// Each golden script run on a fresh Vm with the DOM bindings: its print()
// lines and steps_executed(), pinned.
TEST(BytecodeGoldenTest, ScriptsPrintAndStepAsPinned) {
  SetCurrentThreadPkru(PkruValue::AllowAll());
  RuntimeConfig config;
  config.backend = BackendKind::kSim;
  config.mode = RuntimeMode::kDisabled;
  auto runtime = PkruSafeRuntime::Create(std::move(config));
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  const struct {
    std::string source;
    std::vector<std::string> prints;
    uint64_t steps;
  } cases[] = {
      {ReadScript("fib.ms"),
       {"fib(0) = 0", "fib(1) = 1", "fib(2) = 1", "fib(3) = 2", "fib(4) = 3", "fib(5) = 5",
        "fib(6) = 8", "fib(7) = 13", "fib(8) = 21", "fib(9) = 34", "fib(10) = 55",
        "fib(11) = 89", "fib(12) = 144", "fib(13) = 233", "fib(14) = 377"},
       32019},
      {ReadScript("page.ms"), {"nodes: 13", "layout height: 96", "text byte sum: 2565"}, 301},
      {ReadScript("sort_bench.ms"), {"min = 149", "max = 65455", "sorted: true"}, 139612},
      {kServeLoop, {"484807"}, 775},
      {kServeCall, {"340784"}, 895},
      {kServeArray, {"19345380"}, 1466},
      {kDomBindings, {"true", "true"}, 3066},
  };
  for (const auto& c : cases) {
    Document document(runtime->get());
    Vm vm(runtime->get());
    DomBindings bindings(&document, &vm);
    const Status loaded = vm.Load(c.source);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    const auto result = vm.Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(vm.print_output(), c.prints) << c.source;
    EXPECT_EQ(vm.steps_executed(), c.steps) << c.source;
  }
}

}  // namespace
}  // namespace pkrusafe
