#include "src/jsvm/vm.h"

#include <cmath>

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
  locals_.clear();
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
        return StrFormat("%lld", static_cast<long long>(n));
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
  for (const Value& v : stack_) {
    visit(v);
  }
  for (const Value& v : locals_) {
    visit(v);
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

}  // namespace

Result<Value> Vm::Execute(uint32_t function_index, const std::vector<Value>& args) {
  const size_t entry_depth = frames_.size();
  const size_t entry_stack = stack_.size();
  const size_t entry_locals = locals_.size();

  // Set up the frame for the entry function.
  {
    const CompiledFunction& fn = program_->functions[function_index];
    locals_.resize(locals_.size() + fn.num_locals, Value::Null());
    for (size_t i = 0; i < args.size(); ++i) {
      locals_[entry_locals + i] = args[i];
    }
    frames_.push_back(Frame{&fn, 0, entry_locals});
  }

  auto fail = [&](Status status) -> Result<Value> {
    // Unwind everything this Execute pushed.
    frames_.resize(entry_depth);
    stack_.resize(entry_stack);
    locals_.resize(entry_locals);
    return status;
  };

  while (true) {
    Frame& frame = frames_.back();
    if (++steps_ > options_.max_steps) {
      return fail(ResourceExhaustedError("script step budget exceeded"));
    }
    if (frame.ip >= frame.fn->code.size()) {
      return fail(InternalError("fell off the end of " + frame.fn->name));
    }
    MaybeCollect();
    const BcInstr instr = frame.fn->code[frame.ip++];

    switch (instr.op) {
      case Op::kConst: {
        const size_t fn_index = static_cast<size_t>(frame.fn - program_->functions.data());
        stack_.push_back(interned_[fn_index][instr.a]);
        break;
      }
      case Op::kNull:
        stack_.push_back(Value::Null());
        break;
      case Op::kTrue:
        stack_.push_back(Value::Bool(true));
        break;
      case Op::kFalse:
        stack_.push_back(Value::Bool(false));
        break;
      case Op::kPop:
        stack_.pop_back();
        break;
      case Op::kDup:
        stack_.push_back(stack_.back());
        break;
      case Op::kLoadLocal:
        stack_.push_back(locals_[frame.base + instr.a]);
        break;
      case Op::kStoreLocal:
        locals_[frame.base + instr.a] = stack_.back();
        break;
      case Op::kLoadGlobal:
        stack_.push_back(globals_[instr.a]);
        break;
      case Op::kStoreGlobal:
        globals_[instr.a] = stack_.back();
        break;
      case Op::kNeg: {
        Value& top = stack_.back();
        if (!top.is_number()) {
          return fail(RuntimeError(frame, "operand of '-' must be a number"));
        }
        top.number = -top.number;
        break;
      }
      case Op::kNot: {
        Value& top = stack_.back();
        top = Value::Bool(!top.Truthy());
        break;
      }
      case Op::kAdd: {
        Value b = stack_.back();
        stack_.pop_back();
        Value a = stack_.back();
        stack_.pop_back();
        if (a.is_number() && b.is_number()) {
          stack_.push_back(Value::Number(a.number + b.number));
        } else if (a.is_string() || b.is_string()) {
          // Keep operands rooted while the concatenation allocates.
          stack_.push_back(a);
          stack_.push_back(b);
          const std::string text = ToDisplayString(a) + ToDisplayString(b);
          StringObject* str = heap_.NewString(text);
          if (str == nullptr) {
            return fail(ResourceExhaustedError("M_U exhausted"));
          }
          stack_.pop_back();
          stack_.pop_back();
          stack_.push_back(Value::String(str));
        } else {
          return fail(RuntimeError(frame, "invalid operands to '+'"));
        }
        break;
      }
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod: {
        Value b = stack_.back();
        stack_.pop_back();
        Value a = stack_.back();
        stack_.pop_back();
        if (!a.is_number() || !b.is_number()) {
          return fail(RuntimeError(frame, "arithmetic on non-numbers"));
        }
        double result = 0;
        switch (instr.op) {
          case Op::kSub:
            result = a.number - b.number;
            break;
          case Op::kMul:
            result = a.number * b.number;
            break;
          case Op::kDiv:
            result = a.number / b.number;  // IEEE semantics: inf/nan allowed
            break;
          default:
            result = std::fmod(a.number, b.number);
            break;
        }
        stack_.push_back(Value::Number(result));
        break;
      }
      case Op::kEq:
      case Op::kNe: {
        Value b = stack_.back();
        stack_.pop_back();
        Value a = stack_.back();
        stack_.pop_back();
        const bool eq = ValuesEqual(a, b);
        stack_.push_back(Value::Bool(instr.op == Op::kEq ? eq : !eq));
        break;
      }
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        Value b = stack_.back();
        stack_.pop_back();
        Value a = stack_.back();
        stack_.pop_back();
        bool result = false;
        if (a.is_number() && b.is_number()) {
          switch (instr.op) {
            case Op::kLt:
              result = a.number < b.number;
              break;
            case Op::kLe:
              result = a.number <= b.number;
              break;
            case Op::kGt:
              result = a.number > b.number;
              break;
            default:
              result = a.number >= b.number;
              break;
          }
        } else if (a.is_string() && b.is_string()) {
          const auto av = a.AsString()->view();
          const auto bv = b.AsString()->view();
          switch (instr.op) {
            case Op::kLt:
              result = av < bv;
              break;
            case Op::kLe:
              result = av <= bv;
              break;
            case Op::kGt:
              result = av > bv;
              break;
            default:
              result = av >= bv;
              break;
          }
        } else {
          return fail(RuntimeError(frame, "comparison on incompatible types"));
        }
        stack_.push_back(Value::Bool(result));
        break;
      }
      case Op::kJump:
        frame.ip = instr.a;
        break;
      case Op::kJumpIfFalse: {
        const Value cond = stack_.back();
        stack_.pop_back();
        if (!cond.Truthy()) {
          frame.ip = instr.a;
        }
        break;
      }
      case Op::kJumpIfFalseKeep:
        if (!stack_.back().Truthy()) {
          frame.ip = instr.a;
        } else {
          stack_.pop_back();
        }
        break;
      case Op::kJumpIfTrueKeep:
        if (stack_.back().Truthy()) {
          frame.ip = instr.a;
        } else {
          stack_.pop_back();
        }
        break;
      case Op::kCall: {
        const CompiledFunction& callee = program_->functions[instr.a];
        const size_t base = locals_.size();
        locals_.resize(base + callee.num_locals, Value::Null());
        for (uint32_t i = 0; i < instr.b; ++i) {
          locals_[base + instr.b - 1 - i] = stack_.back();
          stack_.pop_back();
        }
        frames_.push_back(Frame{&callee, 0, base});
        break;
      }
      case Op::kCallHost: {
        // Arguments stay on the stack (rooted) until the call returns.
        std::vector<Value> host_args(stack_.end() - instr.b, stack_.end());
        auto result = host_fns_[instr.a](*this, host_args);
        if (!result.ok()) {
          return fail(result.status());
        }
        stack_.resize(stack_.size() - instr.b);
        stack_.push_back(*result);
        break;
      }
      case Op::kCallBuiltin: {
        std::vector<Value> builtin_args(stack_.end() - instr.b, stack_.end());
        auto result = RunBuiltin(static_cast<BuiltinId>(instr.a), builtin_args);
        if (!result.ok()) {
          // Add source location but keep the original code: a PermissionDenied
          // from an MPK check must stay PermissionDenied.
          const Status located = RuntimeError(frame, result.status().message());
          return fail(Status(result.status().code(), located.message()));
        }
        stack_.resize(stack_.size() - instr.b);
        stack_.push_back(*result);
        break;
      }
      case Op::kReturn: {
        const Value result = stack_.back();
        stack_.pop_back();
        locals_.resize(frames_.back().base);
        frames_.pop_back();
        if (frames_.size() == entry_depth) {
          return result;
        }
        stack_.push_back(result);
        break;
      }
      case Op::kNewArray: {
        ArrayObject* array = heap_.NewArray(instr.a);
        if (array == nullptr) {
          return fail(ResourceExhaustedError("M_U exhausted"));
        }
        // Elements are still on the stack, so they survive the allocation.
        for (uint32_t i = 0; i < instr.a; ++i) {
          array->slots[i] = stack_[stack_.size() - instr.a + i];
        }
        array->size = instr.a;
        stack_.resize(stack_.size() - instr.a);
        stack_.push_back(Value::Array(array));
        break;
      }
      case Op::kIndexGet: {
        Value index = stack_.back();
        stack_.pop_back();
        Value base = stack_.back();
        stack_.pop_back();
        if (!index.is_number()) {
          return fail(RuntimeError(frame, "index must be a number"));
        }
        const auto i = static_cast<int64_t>(index.number);
        if (base.is_array()) {
          const ArrayObject* array = base.AsArray();
          if (i < 0 || static_cast<size_t>(i) >= array->size) {
            return fail(RuntimeError(frame, StrFormat("array index %lld out of bounds (size %zu)",
                                                      static_cast<long long>(i), array->size)));
          }
          stack_.push_back(array->slots[i]);
        } else if (base.is_string()) {
          const StringObject* str = base.AsString();
          if (i < 0 || static_cast<size_t>(i) >= str->length) {
            return fail(RuntimeError(frame, "string index out of bounds"));
          }
          stack_.push_back(base);  // keep rooted during allocation
          StringObject* ch = heap_.NewString(std::string_view(str->data + i, 1));
          if (ch == nullptr) {
            return fail(ResourceExhaustedError("M_U exhausted"));
          }
          stack_.pop_back();
          stack_.push_back(Value::String(ch));
        } else {
          return fail(RuntimeError(frame, "only arrays and strings are indexable"));
        }
        break;
      }
      case Op::kIndexSet: {
        Value value = stack_.back();
        stack_.pop_back();
        Value index = stack_.back();
        stack_.pop_back();
        Value base = stack_.back();
        stack_.pop_back();
        if (!base.is_array()) {
          return fail(RuntimeError(frame, "only arrays support indexed assignment"));
        }
        if (!index.is_number()) {
          return fail(RuntimeError(frame, "index must be a number"));
        }
        const auto i = static_cast<int64_t>(index.number);
        ArrayObject* array = base.AsArray();
        if (i < 0 || static_cast<size_t>(i) >= array->size) {
          return fail(RuntimeError(frame, "array index out of bounds in assignment"));
        }
        array->slots[i] = value;
        stack_.push_back(value);
        break;
      }
    }
  }
}

Result<Value> Vm::RunBuiltin(BuiltinId id, std::vector<Value>& args) {
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
      const auto start = static_cast<size_t>(std::max(0.0, start_d));
      if (start > str->length) {
        return InvalidArgumentError("substr() start out of range");
      }
      const auto count = std::min(static_cast<size_t>(std::max(0.0, count_d)),
                                  str->length - start);
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
      const auto index = static_cast<size_t>(index_d);
      if (index >= str->length) {
        return InvalidArgumentError("ord() index out of range");
      }
      return Value::Number(static_cast<double>(static_cast<unsigned char>(str->data[index])));
    }
    case BuiltinId::kChr: {
      PS_ASSIGN_OR_RETURN(double code, need_number(0));
      const char c = static_cast<char>(static_cast<int>(code) & 0xFF);
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
      // JS-style ToInt32 semantics.
      const auto a32 = static_cast<int32_t>(static_cast<int64_t>(x));
      const auto b32 = static_cast<int32_t>(static_cast<int64_t>(y));
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
      const auto addr = static_cast<uintptr_t>(addr_d);
      // The exploit's arbitrary read: a real load, subject to MPK.
      PS_RETURN_IF_ERROR(runtime_->backend().CheckAccess(addr, AccessKind::kRead));
      return Value::Number(static_cast<double>(*reinterpret_cast<const int64_t*>(addr)));
    }
    case BuiltinId::kPoke: {
      if (!options_.enable_vulnerability) {
        return PermissionDeniedError("__poke is not available in this build");
      }
      PS_ASSIGN_OR_RETURN(double addr_d, need_number(0));
      PS_ASSIGN_OR_RETURN(double value_d, need_number(1));
      const auto addr = static_cast<uintptr_t>(addr_d);
      // The exploit's arbitrary write: a real store, subject to MPK.
      PS_RETURN_IF_ERROR(runtime_->backend().CheckAccess(addr, AccessKind::kWrite));
      *reinterpret_cast<int64_t*>(addr) = static_cast<int64_t>(value_d);
      return Value::Null();
    }
  }
  return InternalError("unknown builtin");
}

}  // namespace pkrusafe
