// The bytecode VM: the untrusted engine's execution core.
//
// The VM plays the role of SpiderMonkey: it runs inside the untrusted
// compartment, allocates every heap object from M_U, and reaches memory the
// embedder hands it only through addresses. Host functions (the embedder's
// bindings) bridge back into the trusted side.
//
// The opt-in vulnerability (VmOptions::enable_vulnerability) exposes the
// __addrof/__peek/__poke builtins — a data-only arbitrary read/write
// primitive equivalent to the CVE-2019-11707-based exploit of §5.4. The
// primitive performs *real* loads and stores, checked against the MPK
// backend exactly like any other untrusted access: with PKRU-Safe enforcing,
// a poke at trusted memory faults; without it, the write lands.
#ifndef SRC_JSVM_VM_H_
#define SRC_JSVM_VM_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/jsvm/bytecode.h"
#include "src/jsvm/compiler.h"
#include "src/jsvm/heap.h"
#include "src/jsvm/value.h"
#include "src/runtime/runtime.h"

namespace pkrusafe {

class Vm;

// x % y as scripts compute it: std::fmod(x, y), bit for bit, with an
// integer remainder in place of the fmod call when both operands are
// integers, x in [0, 2^53) and y in [1, 2^53).
double ModNumbers(double x, double y);

// A host function: implemented by the embedder, callable from scripts.
// `args` views the caller's operand stack, which keeps the arguments rooted
// for the call. It stays valid until the host function re-enters the Vm
// (CallFunction may grow that stack and move it), so read it first.
using HostFn = std::function<Result<Value>(Vm&, std::span<const Value>)>;

struct VmOptions {
  bool enable_vulnerability = false;
  uint64_t max_steps = 2'000'000'000;
  size_t gc_threshold_bytes = JsHeap::kDefaultGcThreshold;
};

class Vm {
 public:
  explicit Vm(PkruSafeRuntime* runtime, VmOptions options = {});

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // Host functions must be registered before Load (they participate in
  // name resolution).
  void RegisterHost(const std::string& name, HostFn fn);

  // Registers a host function that takes its arguments as a vector; it
  // pays a copy of them on every call.
  template <typename F>
    requires(!std::is_invocable_v<F&, Vm&, std::span<const Value>> &&
             std::is_invocable_r_v<Result<Value>, F&, Vm&, const std::vector<Value>&>)
  void RegisterHost(const std::string& name, F fn) {
    RegisterHost(name, HostFn([fn = std::move(fn)](Vm& vm, std::span<const Value> args) mutable {
                   return fn(vm, std::vector<Value>(args.begin(), args.end()));
                 }));
  }

  // Parses + compiles `source` against the registered host functions, then
  // loads the result as below.
  Status Load(std::string_view source);

  // Loads an already compiled program, which may be shared with other Vms:
  // the program is immutable, while interned string constants and globals
  // are this Vm's own (its heap, its M_U objects). Refuses a program
  // compiled against host names other than the registered ones, since its
  // kCallHost indices would then reach the wrong functions. A program that
  // has not passed VerifyProgram is verified here (on a copy) and refused if
  // it fails; a verified one, such as every compiled one, costs nothing.
  Status Load(std::shared_ptr<const CompiledProgram> program);

  // Runs the top-level code.
  Result<Value> Run();

  // Calls a script function by name (used to re-run benchmark kernels
  // without recompiling).
  Result<Value> CallFunction(const std::string& name, const std::vector<Value>& args);

  // --- services for host functions ---
  JsHeap& heap() { return heap_; }
  PkruSafeRuntime& runtime() { return *runtime_; }
  Result<Value> MakeString(std::string_view text);
  std::string ToDisplayString(const Value& value);

  // Lines produced by print().
  const std::vector<std::string>& print_output() const { return print_output_; }
  void ClearPrintOutput() { print_output_.clear(); }

  // Instructions executed so far, each counted against
  // VmOptions::max_steps.
  uint64_t steps_executed() const { return steps_; }

 private:
  struct Frame {
    const CompiledFunction* fn;
    const Value* constants;  // fn's constants, interned in this Vm
    size_t ip;
    size_t base;  // fn's first local in stack_; its operands follow its locals
  };

  // Runs a function to its return. The loop keeps the frame's state in
  // locals and relies on VerifyProgram for what it does not check.
  Result<Value> Execute(uint32_t function_index, std::span<const Value> args);
  // Pushes a frame for the function whose `argc` arguments are the top
  // values below sp_, with room for its locals and max_stack operands.
  void EnterFrame(uint32_t function_index, uint32_t argc);
  // Makes room for `slots` values from sp_ on.
  void ReserveStack(size_t slots);
  Result<Value> RunBuiltin(BuiltinId id, std::span<const Value> args);
  Status RuntimeError(const Frame& frame, const std::string& message) const;
  void VisitRoots(const std::function<void(const Value&)>& visit) const;
  void MaybeCollect();

  PkruSafeRuntime* runtime_;
  VmOptions options_;
  JsHeap heap_;
  std::vector<std::string> host_names_;
  std::vector<HostFn> host_fns_;
  std::shared_ptr<const CompiledProgram> program_;  // null until a Load succeeds

  // Interned constant values per function (parallel to constants pools).
  std::vector<std::vector<Value>> interned_;
  std::vector<Value> globals_;
  // Every frame's locals and operands; [0, sp_) is live and GC-rooted. The
  // members are current only where Execute writes them back: at calls,
  // returns, host calls, collections and errors.
  std::vector<Value> stack_;
  size_t sp_ = 0;
  std::vector<Frame> frames_;
  std::vector<std::string> print_output_;
  uint64_t steps_ = 0;
};

}  // namespace pkrusafe

#endif  // SRC_JSVM_VM_H_
