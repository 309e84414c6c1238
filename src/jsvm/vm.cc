#include "src/jsvm/vm.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>

#include "src/support/string_util.h"

namespace pkrusafe {

Vm::Vm(PkruSafeRuntime* runtime, VmOptions options)
    : runtime_(runtime), options_(options), heap_(runtime, options.gc_threshold_bytes) {}

void Vm::RegisterHost(const std::string& name, HostFn fn) {
  host_names_.push_back(name);
  host_fns_.push_back(std::move(fn));
}

Status Vm::Load(std::string_view source) {
  auto compiled = CompileSource(source, host_names_);
  if (!compiled.ok()) {
    return compiled.status();
  }
  return Load(std::make_shared<const CompiledProgram>(std::move(*compiled)));
}

Status Vm::Load(std::shared_ptr<const CompiledProgram> program) {
  program_ = nullptr;
  if (program == nullptr) {
    return InvalidArgumentError("no program to load");
  }
  if (program->host_names != host_names_) {
    return FailedPreconditionError(
        "program was compiled against other host functions than this Vm registers");
  }
  if (!program->verified()) {
    CompiledProgram copy = *program;
    PS_RETURN_IF_ERROR(VerifyProgram(copy));
    program = std::make_shared<const CompiledProgram>(std::move(copy));
  }

  // Intern constants: numbers stay immediate, strings become heap objects
  // rooted for the program's lifetime.
  interned_.clear();
  interned_.resize(program->functions.size());
  for (size_t f = 0; f < program->functions.size(); ++f) {
    for (const BcConstant& constant : program->functions[f].constants) {
      if (std::holds_alternative<double>(constant)) {
        interned_[f].push_back(Value::Number(std::get<double>(constant)));
      } else {
        StringObject* str = heap_.NewString(std::get<std::string>(constant));
        if (str == nullptr) {
          return ResourceExhaustedError("M_U exhausted interning constants");
        }
        interned_[f].push_back(Value::String(str));
      }
    }
  }
  globals_.assign(program->global_names.size(), Value::Null());
  stack_.clear();
  sp_ = 0;
  frames_.clear();
  program_ = std::move(program);
  return Status::Ok();
}

Result<Value> Vm::Run() {
  if (program_ == nullptr) {
    return FailedPreconditionError("no program loaded");
  }
  return Execute(0, {});
}

Result<Value> Vm::CallFunction(const std::string& name, const std::vector<Value>& args) {
  if (program_ == nullptr) {
    return FailedPreconditionError("no program loaded");
  }
  for (size_t i = 0; i < program_->functions.size(); ++i) {
    if (program_->functions[i].name == name) {
      if (program_->functions[i].arity != args.size()) {
        return InvalidArgumentError(StrFormat("%s expects %u args", name.c_str(),
                                              program_->functions[i].arity));
      }
      return Execute(static_cast<uint32_t>(i), args);
    }
  }
  return NotFoundError("no script function named " + name);
}

Result<Value> Vm::MakeString(std::string_view text) {
  StringObject* str = heap_.NewString(text);
  if (str == nullptr) {
    return ResourceExhaustedError("M_U exhausted");
  }
  return Value::String(str);
}

std::string Vm::ToDisplayString(const Value& value) {
  switch (value.type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return value.boolean ? "true" : "false";
    case ValueType::kNumber: {
      const double n = value.number;
      if (std::isfinite(n) && n == std::floor(n) && std::abs(n) < 1e15) {
        char digits[24];
        char* end = std::to_chars(digits, digits + sizeof(digits), static_cast<long long>(n)).ptr;
        return std::string(digits, end);
      }
      return StrFormat("%g", n);
    }
    case ValueType::kString:
      return std::string(value.AsString()->view());
    case ValueType::kArray: {
      const ArrayObject* array = value.AsArray();
      std::string out = "[";
      for (size_t i = 0; i < array->size; ++i) {
        if (i != 0) {
          out += ", ";
        }
        if (array->slots[i].is_array()) {
          out += "[...]";  // avoid unbounded recursion on nested/cyclic data
        } else {
          out += ToDisplayString(array->slots[i]);
        }
      }
      return out + "]";
    }
  }
  return "?";
}

void Vm::VisitRoots(const std::function<void(const Value&)>& visit) const {
  for (size_t i = 0; i < sp_; ++i) {
    visit(stack_[i]);
  }
  for (const Value& v : globals_) {
    visit(v);
  }
  for (const auto& pool : interned_) {
    for (const Value& v : pool) {
      visit(v);
    }
  }
}

void Vm::MaybeCollect() {
  if (heap_.ShouldCollect()) {
    heap_.Collect([this](const std::function<void(const Value&)>& visit) { VisitRoots(visit); });
  }
}

Status Vm::RuntimeError(const Frame& frame, const std::string& message) const {
  const int line = frame.ip > 0 && frame.ip <= frame.fn->lines.size()
                       ? frame.fn->lines[frame.ip - 1]
                       : 0;
  return InvalidArgumentError(
      StrFormat("%s (in %s, line %d)", message.c_str(), frame.fn->name.c_str(), line));
}

void Vm::ReserveStack(size_t slots) {
  if (sp_ + slots > stack_.size()) {
    stack_.resize(std::max({sp_ + slots, 2 * stack_.size(), size_t{64}}));
  }
}

void Vm::EnterFrame(uint32_t function_index, uint32_t argc) {
  const CompiledFunction& fn = program_->functions[function_index];
  const size_t base = sp_ - argc;
  ReserveStack(fn.num_locals - argc + fn.max_stack);
  std::fill(stack_.begin() + sp_, stack_.begin() + base + fn.num_locals, Value::Null());
  sp_ = base + fn.num_locals;
  frames_.push_back(Frame{&fn, interned_[function_index].data(), 0, base});
}

namespace {

bool ValuesEqual(const Value& a, const Value& b) {
  if (a.type != b.type) {
    return false;
  }
  switch (a.type) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.boolean == b.boolean;
    case ValueType::kNumber:
      return a.number == b.number;
    case ValueType::kString:
      return a.AsString()->view() == b.AsString()->view();
    case ValueType::kArray:
      return a.object == b.object;  // identity
  }
  return false;
}

// Replaces a with fn(a, b); false if a is not a number.
template <typename Fn>
bool ArithWith(Value& a, double b, Fn fn) {
  if (!a.is_number()) {
    return false;
  }
  a.number = fn(a.number, b);
  return true;
}

// Replaces the top two operands a, b with fn(a, b); false if either is not
// a number.
template <typename Fn>
bool ArithTop(Value* sp, Fn fn) {
  return sp[-1].is_number() && ArithWith(sp[-2], sp[-1].number, fn);
}

// Replaces the top two operands a, b with cmp(a, b); false unless they are
// two numbers or two strings.
template <typename Cmp>
bool CompareTop(Value* sp, Cmp cmp) {
  const Value& a = sp[-2];
  const Value& b = sp[-1];
  bool result = false;
  if (a.is_number() && b.is_number()) {
    result = cmp(a.number, b.number);
  } else if (a.is_string() && b.is_string()) {
    result = cmp(a.AsString()->view(), b.AsString()->view());
  } else {
    return false;
  }
  sp[-2] = Value::Bool(result);
  return true;
}

// Replaces a with cmp(a, b); false if a is not a number.
template <typename Cmp>
bool CompareWith(Value& a, double b, Cmp cmp) {
  if (!a.is_number()) {
    return false;
  }
  a = Value::Bool(cmp(a.number, b));
  return true;
}

// A script's number reaches an integer only through these three: casting a
// double outside the target's range (NaN, ±inf, ±1e300) is undefined.

// The truncation of `x` when it lies in the int64 range.
bool TruncToInt64(double x, int64_t* out) {
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (!(x >= -kTwoTo63 && x < kTwoTo63)) {
    return false;
  }
  *out = static_cast<int64_t>(x);
  return true;
}

// The checked index conversion: true, with the truncation of `x`, when that
// truncation is in [0, size). For finite x, -1 < x < size says exactly
// that, and NaN fails it, so the check is one compare pair.
bool ToIndex(double x, size_t size, size_t* index) {
  if (!(x > -1.0 && x < static_cast<double>(static_cast<int64_t>(size)))) {
    return false;
  }
  *index = static_cast<size_t>(static_cast<int64_t>(x));
  return true;
}

// JS ToInt32: truncate and wrap modulo 2^32; NaN and ±inf give 0.
int32_t ToInt32(double x) {
  int64_t wide = 0;
  if (!TruncToInt64(x, &wide)) {
    if (!std::isfinite(x)) {
      return 0;
    }
    // |x| >= 2^63 is an integer, so the remainder is exact and in range.
    wide = static_cast<int64_t>(std::fmod(x, 4294967296.0));
  }
  return static_cast<int32_t>(static_cast<uint32_t>(wide));
}

// An index that failed ToIndex, as an error shows it.
std::string IndexText(double x) {
  int64_t i = 0;
  return TruncToInt64(x, &i) ? std::to_string(i) : StrFormat("%g", x);
}

constexpr char kNonNumbers[] = "arithmetic on non-numbers";
constexpr char kIncomparable[] = "comparison on incompatible types";

}  // namespace

double ModNumbers(double x, double y) {
  // Below 2^53 every integer is a double, so the integer remainder is
  // exact, and fmod returns the same value. The remainder is never
  // negative; copysign gives a zero remainder the dividend's sign, as fmod
  // does for -0. The range checks come before the casts: NaN fails them,
  // and casting an out-of-range double to an integer is undefined.
  constexpr double kTwoTo53 = 9007199254740992.0;
  if (x >= 0 && x < kTwoTo53 && y >= 1 && y < kTwoTo53) {
    const auto dividend = static_cast<uint64_t>(x);
    const auto divisor = static_cast<uint64_t>(y);
    if (static_cast<double>(dividend) == x && static_cast<double>(divisor) == y) {
      return std::copysign(static_cast<double>(dividend % divisor), x);
    }
  }
  return std::fmod(x, y);
}

Result<Value> Vm::Execute(uint32_t function_index, std::span<const Value> args) {
  const size_t entry_depth = frames_.size();
  const size_t entry_sp = sp_;
  ReserveStack(args.size());
  std::copy(args.begin(), args.end(), stack_.begin() + sp_);
  sp_ += args.size();
  EnterFrame(function_index, static_cast<uint32_t>(args.size()));
  MaybeCollect();

  // The running frame's state, in locals. save() writes it back to the
  // members, load() reads it from the (possibly moved) stack and the top
  // frame.
  const uint64_t max_steps = options_.max_steps;
  uint64_t steps = steps_;
  Value* const globals = globals_.data();
  const BcInstr* code = nullptr;
  const BcInstr* pc = nullptr;
  const Value* constants = nullptr;
  Value* locals = nullptr;
  Value* sp = nullptr;
  auto save = [&] {
    frames_.back().ip = static_cast<size_t>(pc - code);
    sp_ = static_cast<size_t>(sp - stack_.data());
    steps_ = steps;
  };
  auto load = [&] {
    const Frame& frame = frames_.back();
    code = frame.fn->code.data();
    pc = code + frame.ip;
    constants = frame.constants;
    locals = stack_.data() + frame.base;
    sp = stack_.data() + sp_;
  };
  // A GC safepoint, taken after each instruction that may allocate.
  auto collect_if_due = [&] {
    if (heap_.ShouldCollect()) {
      sp_ = static_cast<size_t>(sp - stack_.data());
      MaybeCollect();
    }
  };
  auto fail = [&](Status status) -> Result<Value> {
    // Unwind everything this Execute pushed.
    frames_.resize(entry_depth);
    sp_ = entry_sp;
    steps_ = steps;
    return status;
  };
  // String `+`: replaces a with a new string of a's and b's display forms;
  // false if M_U is exhausted.
  auto concat = [&](Value& a, const Value& b) {
    StringObject* str = heap_.NewString(ToDisplayString(a) + ToDisplayString(b));
    if (str == nullptr) {
      return false;
    }
    a = Value::String(str);
    return true;
  };
  // A script error located at the current instruction.
  auto error = [&](const std::string& message) {
    frames_.back().ip = static_cast<size_t>(pc - code);
    return fail(RuntimeError(frames_.back(), message));
  };
  // Charges one instruction's step against the budget; false once it is
  // spent. A superinstruction charges each instruction it stands for at the
  // point where that instruction would have run: its first at the loop's
  // head, the others in its case. So steps_executed() and max_steps mean
  // what they mean for unfused code, down to the error a run ends with.
  auto charge = [&] { return ++steps <= max_steps; };
  auto out_of_steps = [&] { return fail(ResourceExhaustedError("script step budget exceeded")); };
  // The jump_if_false half of a compare-and-branch: charges its step, pops
  // the compare's result and jumps to `target` if it is false.
  auto jump_unless_top = [&](uint32_t target) {
    if (!charge()) {
      return false;
    }
    if (!(--sp)->boolean) {
      pc = code + target;
    }
    return true;
  };
  load();

  while (true) {
    if (!charge()) {
      return out_of_steps();
    }
    const BcInstr instr = *pc++;

    switch (instr.op) {
      case Op::kConst:
        *sp++ = constants[instr.a];
        break;
      case Op::kNull:
        *sp++ = Value::Null();
        break;
      case Op::kTrue:
        *sp++ = Value::Bool(true);
        break;
      case Op::kFalse:
        *sp++ = Value::Bool(false);
        break;
      case Op::kPop:
        --sp;
        break;
      case Op::kDup:
        *sp = sp[-1];
        ++sp;
        break;
      case Op::kLoadLocal:
        *sp++ = locals[instr.a];
        break;
      case Op::kStoreLocal:
        locals[instr.a] = sp[-1];
        break;
      case Op::kLoadGlobal:
        *sp++ = globals[instr.a];
        break;
      case Op::kStoreGlobal:
        globals[instr.a] = sp[-1];
        break;
      case Op::kNeg:
        if (!sp[-1].is_number()) {
          return error("operand of '-' must be a number");
        }
        sp[-1].number = -sp[-1].number;
        break;
      case Op::kNot:
        sp[-1] = Value::Bool(!sp[-1].Truthy());
        break;
      case Op::kAdd: {
        const Value a = sp[-2];
        const Value b = sp[-1];
        if (a.is_number() && b.is_number()) {
          sp[-2].number = a.number + b.number;
          --sp;
        } else if (a.is_string() || b.is_string()) {
          if (!concat(sp[-2], b)) {
            return fail(ResourceExhaustedError("M_U exhausted"));
          }
          --sp;
          collect_if_due();
        } else {
          return error("invalid operands to '+'");
        }
        break;
      }
      case Op::kSub:
        if (!ArithTop(sp, std::minus<>())) {
          return error(kNonNumbers);
        }
        --sp;
        break;
      case Op::kMul:
        if (!ArithTop(sp, std::multiplies<>())) {
          return error(kNonNumbers);
        }
        --sp;
        break;
      case Op::kDiv:  // IEEE semantics: inf/nan allowed
        if (!ArithTop(sp, std::divides<>())) {
          return error(kNonNumbers);
        }
        --sp;
        break;
      case Op::kMod:
        if (!ArithTop(sp, ModNumbers)) {
          return error(kNonNumbers);
        }
        --sp;
        break;
      case Op::kEq:
        sp[-2] = Value::Bool(ValuesEqual(sp[-2], sp[-1]));
        --sp;
        break;
      case Op::kNe:
        sp[-2] = Value::Bool(!ValuesEqual(sp[-2], sp[-1]));
        --sp;
        break;
      case Op::kLt:
        if (!CompareTop(sp, std::less<>())) {
          return error(kIncomparable);
        }
        --sp;
        break;
      case Op::kLe:
        if (!CompareTop(sp, std::less_equal<>())) {
          return error(kIncomparable);
        }
        --sp;
        break;
      case Op::kGt:
        if (!CompareTop(sp, std::greater<>())) {
          return error(kIncomparable);
        }
        --sp;
        break;
      case Op::kGe:
        if (!CompareTop(sp, std::greater_equal<>())) {
          return error(kIncomparable);
        }
        --sp;
        break;
      case Op::kJump:
        pc = code + instr.a;
        break;
      case Op::kJumpIfFalse:
        if (!(--sp)->Truthy()) {
          pc = code + instr.a;
        }
        break;
      case Op::kJumpIfFalseKeep:
        if (!sp[-1].Truthy()) {
          pc = code + instr.a;
        } else {
          --sp;
        }
        break;
      case Op::kJumpIfTrueKeep:
        if (sp[-1].Truthy()) {
          pc = code + instr.a;
        } else {
          --sp;
        }
        break;
      case Op::kCall:
        // The arguments on the stack become the callee's first locals.
        save();
        EnterFrame(instr.a, instr.b);
        load();
        break;
      case Op::kCallHost: {
        // The host may re-enter CallFunction, which runs steps, pushes on the
        // stack (maybe moving it) and may collect: all of it must see this
        // frame's state, arguments included.
        save();
        auto result = host_fns_[instr.a](*this, std::span<const Value>(sp - instr.b, instr.b));
        steps = steps_;
        if (!result.ok()) {
          return fail(result.status());
        }
        load();
        sp -= instr.b;
        *sp++ = *result;
        collect_if_due();
        break;
      }
      case Op::kCallBuiltin: {
        auto result =
            RunBuiltin(static_cast<BuiltinId>(instr.a), std::span<const Value>(sp - instr.b, instr.b));
        if (!result.ok()) {
          // Add source location but keep the original code: a PermissionDenied
          // from an MPK check must stay PermissionDenied.
          frames_.back().ip = static_cast<size_t>(pc - code);
          const Status located = RuntimeError(frames_.back(), result.status().message());
          return fail(Status(result.status().code(), located.message()));
        }
        sp -= instr.b;
        *sp++ = *result;
        collect_if_due();
        break;
      }
      case Op::kReturn: {
        const Value result = sp[-1];
        sp_ = frames_.back().base;
        frames_.pop_back();
        if (frames_.size() == entry_depth) {
          steps_ = steps;
          return result;
        }
        stack_[sp_++] = result;
        load();
        break;
      }
      case Op::kNewArray: {
        ArrayObject* array = heap_.NewArray(instr.a);
        if (array == nullptr || array->capacity < instr.a) {
          return fail(ResourceExhaustedError("M_U exhausted"));
        }
        sp -= instr.a;
        std::copy(sp, sp + instr.a, array->slots);
        array->size = instr.a;
        *sp++ = Value::Array(array);
        collect_if_due();
        break;
      }
      case Op::kIndexGet: {
        const Value base = sp[-2];
        const Value index = sp[-1];
        if (!index.is_number()) {
          return error("index must be a number");
        }
        size_t i = 0;
        if (base.is_array()) {
          const ArrayObject* array = base.AsArray();
          if (!ToIndex(index.number, array->size, &i)) {
            return error(StrFormat("array index %s out of bounds (size %zu)",
                                   IndexText(index.number).c_str(), array->size));
          }
          sp[-2] = array->slots[i];
          --sp;
        } else if (base.is_string()) {
          const StringObject* str = base.AsString();
          if (!ToIndex(index.number, str->length, &i)) {
            return error("string index out of bounds");
          }
          StringObject* ch = heap_.NewString(std::string_view(str->data + i, 1));
          if (ch == nullptr) {
            return fail(ResourceExhaustedError("M_U exhausted"));
          }
          sp[-2] = Value::String(ch);
          --sp;
          collect_if_due();
        } else {
          return error("only arrays and strings are indexable");
        }
        break;
      }
      case Op::kIndexSet: {
        const Value base = sp[-3];
        const Value index = sp[-2];
        const Value value = sp[-1];
        if (!base.is_array()) {
          return error("only arrays support indexed assignment");
        }
        if (!index.is_number()) {
          return error("index must be a number");
        }
        ArrayObject* array = base.AsArray();
        size_t i = 0;
        if (!ToIndex(index.number, array->size, &i)) {
          return error("array index out of bounds in assignment");
        }
        array->slots[i] = value;
        sp[-3] = value;
        sp -= 2;
        break;
      }
      // Superinstructions. VerifyProgram proved that a `b` operand is a
      // number constant.
      case Op::kStoreLocalPop:
        locals[instr.a] = *--sp;
        if (!charge()) {
          return out_of_steps();
        }
        break;
      case Op::kStoreGlobalPop:
        globals[instr.a] = *--sp;
        if (!charge()) {
          return out_of_steps();
        }
        break;
      case Op::kAddConst: {
        if (!charge()) {
          return out_of_steps();
        }
        Value& a = sp[-1];
        if (a.is_number()) {
          a.number += constants[instr.b].number;
        } else if (a.is_string()) {
          if (!concat(a, constants[instr.b])) {
            return fail(ResourceExhaustedError("M_U exhausted"));
          }
          collect_if_due();
        } else {
          return error("invalid operands to '+'");
        }
        break;
      }
      case Op::kSubConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!ArithWith(sp[-1], constants[instr.b].number, std::minus<>())) {
          return error(kNonNumbers);
        }
        break;
      case Op::kMulConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!ArithWith(sp[-1], constants[instr.b].number, std::multiplies<>())) {
          return error(kNonNumbers);
        }
        break;
      case Op::kModConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!ArithWith(sp[-1], constants[instr.b].number, ModNumbers)) {
          return error(kNonNumbers);
        }
        break;
      case Op::kLtConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!CompareWith(sp[-1], constants[instr.b].number, std::less<>())) {
          return error(kIncomparable);
        }
        break;
      case Op::kLeConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!CompareWith(sp[-1], constants[instr.b].number, std::less_equal<>())) {
          return error(kIncomparable);
        }
        break;
      case Op::kGtConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!CompareWith(sp[-1], constants[instr.b].number, std::greater<>())) {
          return error(kIncomparable);
        }
        break;
      case Op::kGeConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!CompareWith(sp[-1], constants[instr.b].number, std::greater_equal<>())) {
          return error(kIncomparable);
        }
        break;
      case Op::kJumpNotLt:
        if (!CompareTop(sp, std::less<>())) {
          return error(kIncomparable);
        }
        --sp;
        if (!jump_unless_top(instr.a)) {
          return out_of_steps();
        }
        break;
      case Op::kJumpNotLe:
        if (!CompareTop(sp, std::less_equal<>())) {
          return error(kIncomparable);
        }
        --sp;
        if (!jump_unless_top(instr.a)) {
          return out_of_steps();
        }
        break;
      case Op::kJumpNotGt:
        if (!CompareTop(sp, std::greater<>())) {
          return error(kIncomparable);
        }
        --sp;
        if (!jump_unless_top(instr.a)) {
          return out_of_steps();
        }
        break;
      case Op::kJumpNotGe:
        if (!CompareTop(sp, std::greater_equal<>())) {
          return error(kIncomparable);
        }
        --sp;
        if (!jump_unless_top(instr.a)) {
          return out_of_steps();
        }
        break;
      case Op::kJumpNotLtConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!CompareWith(sp[-1], constants[instr.b].number, std::less<>())) {
          return error(kIncomparable);
        }
        if (!jump_unless_top(instr.a)) {
          return out_of_steps();
        }
        break;
      case Op::kJumpNotLeConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!CompareWith(sp[-1], constants[instr.b].number, std::less_equal<>())) {
          return error(kIncomparable);
        }
        if (!jump_unless_top(instr.a)) {
          return out_of_steps();
        }
        break;
      case Op::kJumpNotGtConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!CompareWith(sp[-1], constants[instr.b].number, std::greater<>())) {
          return error(kIncomparable);
        }
        if (!jump_unless_top(instr.a)) {
          return out_of_steps();
        }
        break;
      case Op::kJumpNotGeConst:
        if (!charge()) {
          return out_of_steps();
        }
        if (!CompareWith(sp[-1], constants[instr.b].number, std::greater_equal<>())) {
          return error(kIncomparable);
        }
        if (!jump_unless_top(instr.a)) {
          return out_of_steps();
        }
        break;
      default:  // VerifyProgram refuses unknown opcodes
        __builtin_unreachable();
    }
  }
}

Result<Value> Vm::RunBuiltin(BuiltinId id, std::span<const Value> args) {
  auto need_number = [&](size_t i) -> Result<double> {
    if (!args[i].is_number()) {
      return InvalidArgumentError("builtin argument must be a number");
    }
    return args[i].number;
  };

  switch (id) {
    case BuiltinId::kPrint:
      print_output_.push_back(ToDisplayString(args[0]));
      return Value::Null();
    case BuiltinId::kLen:
      if (args[0].is_string()) {
        return Value::Number(static_cast<double>(args[0].AsString()->length));
      }
      if (args[0].is_array()) {
        return Value::Number(static_cast<double>(args[0].AsArray()->size));
      }
      return InvalidArgumentError("len() takes a string or array");
    case BuiltinId::kPush:
      if (!args[0].is_array()) {
        return InvalidArgumentError("push() takes an array");
      }
      if (!heap_.ArrayPush(args[0].AsArray(), args[1])) {
        return ResourceExhaustedError("M_U exhausted");
      }
      return Value::Number(static_cast<double>(args[0].AsArray()->size));
    case BuiltinId::kPop: {
      if (!args[0].is_array()) {
        return InvalidArgumentError("pop() takes an array");
      }
      ArrayObject* array = args[0].AsArray();
      if (array->size == 0) {
        return InvalidArgumentError("pop() from empty array");
      }
      return array->slots[--array->size];
    }
    case BuiltinId::kSqrt: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      return Value::Number(std::sqrt(x));
    }
    case BuiltinId::kSin: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      return Value::Number(std::sin(x));
    }
    case BuiltinId::kCos: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      return Value::Number(std::cos(x));
    }
    case BuiltinId::kFloor: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      return Value::Number(std::floor(x));
    }
    case BuiltinId::kPow: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      PS_ASSIGN_OR_RETURN(double y, need_number(1));
      return Value::Number(std::pow(x, y));
    }
    case BuiltinId::kAbs: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      return Value::Number(std::abs(x));
    }
    case BuiltinId::kMin: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      PS_ASSIGN_OR_RETURN(double y, need_number(1));
      return Value::Number(std::min(x, y));
    }
    case BuiltinId::kMax: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      PS_ASSIGN_OR_RETURN(double y, need_number(1));
      return Value::Number(std::max(x, y));
    }
    case BuiltinId::kSubstr: {
      if (!args[0].is_string()) {
        return InvalidArgumentError("substr() takes a string");
      }
      PS_ASSIGN_OR_RETURN(double start_d, need_number(1));
      PS_ASSIGN_OR_RETURN(double count_d, need_number(2));
      const StringObject* str = args[0].AsString();
      // std::max(0.0, NaN) is 0.0: a NaN start or count reads as 0.
      size_t start = 0;
      if (!ToIndex(std::max(0.0, start_d), str->length + 1, &start)) {
        return InvalidArgumentError("substr() start out of range");
      }
      size_t count = 0;
      if (!ToIndex(std::max(0.0, count_d), str->length - start, &count)) {
        count = str->length - start;
      }
      StringObject* result = heap_.NewString(std::string_view(str->data + start, count));
      if (result == nullptr) {
        return ResourceExhaustedError("M_U exhausted");
      }
      return Value::String(result);
    }
    case BuiltinId::kOrd: {
      if (!args[0].is_string()) {
        return InvalidArgumentError("ord() takes a string");
      }
      PS_ASSIGN_OR_RETURN(double index_d, need_number(1));
      const StringObject* str = args[0].AsString();
      size_t index = 0;
      if (!ToIndex(index_d, str->length, &index)) {
        return InvalidArgumentError("ord() index out of range");
      }
      return Value::Number(static_cast<double>(static_cast<unsigned char>(str->data[index])));
    }
    case BuiltinId::kChr: {
      PS_ASSIGN_OR_RETURN(double code, need_number(0));
      const char c = static_cast<char>(ToInt32(code) & 0xFF);
      StringObject* result = heap_.NewString(std::string_view(&c, 1));
      if (result == nullptr) {
        return ResourceExhaustedError("M_U exhausted");
      }
      return Value::String(result);
    }
    case BuiltinId::kStr: {
      StringObject* result = heap_.NewString(ToDisplayString(args[0]));
      if (result == nullptr) {
        return ResourceExhaustedError("M_U exhausted");
      }
      return Value::String(result);
    }
    case BuiltinId::kBand:
    case BuiltinId::kBor:
    case BuiltinId::kBxor:
    case BuiltinId::kShlB:
    case BuiltinId::kShrB: {
      PS_ASSIGN_OR_RETURN(double x, need_number(0));
      PS_ASSIGN_OR_RETURN(double y, need_number(1));
      const int32_t a32 = ToInt32(x);
      const int32_t b32 = ToInt32(y);
      int32_t result = 0;
      switch (id) {
        case BuiltinId::kBand:
          result = a32 & b32;
          break;
        case BuiltinId::kBor:
          result = a32 | b32;
          break;
        case BuiltinId::kBxor:
          result = a32 ^ b32;
          break;
        case BuiltinId::kShlB:
          result = static_cast<int32_t>(static_cast<uint32_t>(a32) << (b32 & 31));
          break;
        default:
          result = static_cast<int32_t>(static_cast<uint32_t>(a32) >> (b32 & 31));
          break;
      }
      return Value::Number(result);
    }
    case BuiltinId::kAddrOf: {
      if (!options_.enable_vulnerability) {
        return PermissionDeniedError("__addrof is not available in this build");
      }
      if (!args[0].is_object()) {
        return InvalidArgumentError("__addrof takes a heap value");
      }
      return Value::Number(static_cast<double>(reinterpret_cast<uintptr_t>(args[0].object)));
    }
    case BuiltinId::kPeek: {
      if (!options_.enable_vulnerability) {
        return PermissionDeniedError("__peek is not available in this build");
      }
      PS_ASSIGN_OR_RETURN(double addr_d, need_number(0));
      int64_t addr = 0;
      if (!TruncToInt64(addr_d, &addr)) {
        return InvalidArgumentError("__peek address out of range");
      }
      // The exploit's arbitrary read: a real load, subject to MPK.
      PS_RETURN_IF_ERROR(
          runtime_->backend().CheckAccess(static_cast<uintptr_t>(addr), AccessKind::kRead));
      return Value::Number(static_cast<double>(*reinterpret_cast<const int64_t*>(addr)));
    }
    case BuiltinId::kPoke: {
      if (!options_.enable_vulnerability) {
        return PermissionDeniedError("__poke is not available in this build");
      }
      PS_ASSIGN_OR_RETURN(double addr_d, need_number(0));
      PS_ASSIGN_OR_RETURN(double value_d, need_number(1));
      int64_t addr = 0;
      int64_t value = 0;
      if (!TruncToInt64(addr_d, &addr) || !TruncToInt64(value_d, &value)) {
        return InvalidArgumentError("__poke address or value out of range");
      }
      // The exploit's arbitrary write: a real store, subject to MPK.
      PS_RETURN_IF_ERROR(runtime_->backend().CheckAccess(static_cast<uintptr_t>(addr),
                                                        AccessKind::kWrite));
      *reinterpret_cast<int64_t*>(addr) = value;
      return Value::Null();
    }
  }
  return InternalError("unknown builtin");
}

}  // namespace pkrusafe
