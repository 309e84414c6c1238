#include "src/dom/bindings.h"

#include "src/support/string_util.h"

namespace pkrusafe {

namespace {

// Argument `i` of a host call. Scripts choose the argument count, so a
// binding reads its arguments only through these checked accessors.
Result<double> NumberArg(std::span<const Value> args, size_t i, const char* error) {
  if (i >= args.size() || !args[i].is_number()) {
    return InvalidArgumentError(error);
  }
  return args[i].number;
}

Result<uint32_t> HandleArg(std::span<const Value> args, size_t i) {
  PS_ASSIGN_OR_RETURN(double handle, NumberArg(args, i, "expected a node handle"));
  return static_cast<uint32_t>(handle);
}

Result<std::string> StringArg(Vm& vm, std::span<const Value> args, size_t i) {
  if (i >= args.size() || !args[i].is_string()) {
    return InvalidArgumentError("expected a string");
  }
  return vm.ToDisplayString(args[i]);
}

}  // namespace

std::vector<std::string> DomBindings::HostNames() {
  return {"dom_create_element", "dom_create_text", "dom_append_child", "dom_remove",
          "dom_root",           "dom_set_id",      "dom_get_by_id",    "dom_set_text",
          "dom_inner_html",     "dom_layout",      "dom_node_count",   "dom_get_text",
          "dom_char_at",        "dom_text_sum",    "dom_text_len"};
}

DomBindings::DomBindings(Document* document, Vm* vm)
    : document_(document), runtime_(&vm->runtime()) {
  Register(vm);
}

Result<DomBindings::TextRef> DomBindings::RefFor(uint32_t handle) {
  auto it = text_cache_.find(handle);
  if (it != text_cache_.end()) {
    return it->second;
  }
  // Cache miss: ask the trusted side for the buffer location (an entry-gate
  // crossing), then remember it engine-side.
  TrustedScope scope(runtime_->gates());
  ++trusted_calls_;
  DomNode* node = document_->NodeByHandle(handle);
  if (node == nullptr || node->text == nullptr) {
    return NotFoundError(StrFormat("no text node with handle %u", handle));
  }
  const TextRef ref{node->text, node->text_len};
  text_cache_[handle] = ref;
  return ref;
}

void DomBindings::Register(Vm* vm) {
  // ---- Trusted entry points (each crosses U -> T through an entry gate) ----

  vm->RegisterHost("dom_create_element",
                   [this](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(std::string tag, StringArg(host_vm, args, 0));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     DomNode* node = document_->CreateElement(tag);
                     if (node == nullptr) {
                       return ResourceExhaustedError("trusted pool exhausted");
                     }
                     return Value::Number(node->node_id);
                   });

  vm->RegisterHost("dom_create_text",
                   [this](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(std::string text, StringArg(host_vm, args, 0));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     DomNode* node = document_->CreateTextNode(text);
                     if (node == nullptr) {
                       return ResourceExhaustedError("trusted pool exhausted");
                     }
                     return Value::Number(node->node_id);
                   });

  vm->RegisterHost("dom_append_child",
                   [this](Vm&, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t parent_h, HandleArg(args, 0));
                     PS_ASSIGN_OR_RETURN(uint32_t child_h, HandleArg(args, 1));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     DomNode* parent = document_->NodeByHandle(parent_h);
                     DomNode* child = document_->NodeByHandle(child_h);
                     if (parent == nullptr || child == nullptr) {
                       return NotFoundError("bad node handle");
                     }
                     document_->AppendChild(parent, child);
                     return Value::Null();
                   });

  vm->RegisterHost("dom_remove",
                   [this](Vm&, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t handle, HandleArg(args, 0));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     DomNode* node = document_->NodeByHandle(handle);
                     if (node == nullptr) {
                       return NotFoundError("bad node handle");
                     }
                     document_->RemoveNode(node);
                     // Freed text buffers must not be read through stale refs.
                     text_cache_.clear();
                     return Value::Null();
                   });

  vm->RegisterHost("dom_root", [this](Vm&, std::span<const Value>) -> Result<Value> {
    TrustedScope scope(runtime_->gates());
    ++trusted_calls_;
    return Value::Number(document_->root()->node_id);
  });

  vm->RegisterHost("dom_set_id",
                   [this](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t handle, HandleArg(args, 0));
                     PS_ASSIGN_OR_RETURN(std::string id, StringArg(host_vm, args, 1));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     DomNode* node = document_->NodeByHandle(handle);
                     if (node == nullptr) {
                       return NotFoundError("bad node handle");
                     }
                     document_->SetIdAttribute(node, id);
                     return Value::Null();
                   });

  vm->RegisterHost("dom_get_by_id",
                   [this](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(std::string id, StringArg(host_vm, args, 0));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     DomNode* node = document_->GetElementById(id);
                     return node == nullptr ? Value::Null() : Value::Number(node->node_id);
                   });

  vm->RegisterHost("dom_set_text",
                   [this](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t handle, HandleArg(args, 0));
                     PS_ASSIGN_OR_RETURN(std::string text, StringArg(host_vm, args, 1));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     DomNode* node = document_->NodeByHandle(handle);
                     if (node == nullptr) {
                       return NotFoundError("bad node handle");
                     }
                     if (!document_->SetText(node, text)) {
                       return ResourceExhaustedError("text buffer allocation failed");
                     }
                     // The buffer may have moved: invalidate the engine view.
                     text_cache_.erase(handle);
                     return Value::Null();
                   });

  vm->RegisterHost("dom_inner_html",
                   [this](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t handle, HandleArg(args, 0));
                     PS_ASSIGN_OR_RETURN(std::string html, StringArg(host_vm, args, 1));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     DomNode* node = document_->NodeByHandle(handle);
                     if (node == nullptr) {
                       return NotFoundError("bad node handle");
                     }
                     auto created = document_->ParseHtml(node, html);
                     if (!created.ok()) {
                       return created.status();
                     }
                     return Value::Number(static_cast<double>(*created));
                   });

  vm->RegisterHost("dom_layout",
                   [this](Vm&, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(double width, NumberArg(args, 0, "viewport width must be a number"));
                     TrustedScope scope(runtime_->gates());
                     ++trusted_calls_;
                     return Value::Number(document_->Layout(static_cast<int32_t>(width)));
                   });

  vm->RegisterHost("dom_node_count", [this](Vm&, std::span<const Value>) -> Result<Value> {
    TrustedScope scope(runtime_->gates());
    ++trusted_calls_;
    return Value::Number(static_cast<double>(document_->node_count()));
  });

  vm->RegisterHost("dom_get_text",
                   [this](Vm& host_vm, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t handle, HandleArg(args, 0));
                     std::string copy;
                     {
                       TrustedScope scope(runtime_->gates());
                       ++trusted_calls_;
                       DomNode* node = document_->NodeByHandle(handle);
                       if (node == nullptr || node->text == nullptr) {
                         return NotFoundError("bad text handle");
                       }
                       copy.assign(node->text_view());
                     }
                     // Marshalled copy: built into the engine's M_U heap.
                     return host_vm.MakeString(copy);
                   });

  // ---- Untrusted glue: direct engine reads of document text ----

  vm->RegisterHost("dom_char_at",
                   [this](Vm&, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t handle, HandleArg(args, 0));
                     PS_ASSIGN_OR_RETURN(double index_arg, NumberArg(args, 1, "index must be a number"));
                     PS_ASSIGN_OR_RETURN(TextRef ref, RefFor(handle));
                     const auto index = static_cast<size_t>(index_arg);
                     if (index >= ref.length) {
                       return OutOfRangeError("dom_char_at index out of range");
                     }
                     // U-side access to the buffer: real data flow across the
                     // compartment boundary, checked like a hardware load.
                     ++untrusted_reads_;
                     PS_RETURN_IF_ERROR(runtime_->backend().CheckAccess(
                         reinterpret_cast<uintptr_t>(ref.data + index), AccessKind::kRead));
                     return Value::Number(static_cast<unsigned char>(ref.data[index]));
                   });

  vm->RegisterHost("dom_text_sum",
                   [this](Vm&, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t handle, HandleArg(args, 0));
                     PS_ASSIGN_OR_RETURN(TextRef ref, RefFor(handle));
                     uint64_t sum = 0;
                     for (size_t i = 0; i < ref.length; ++i) {
                       ++untrusted_reads_;
                       PS_RETURN_IF_ERROR(runtime_->backend().CheckAccess(
                           reinterpret_cast<uintptr_t>(ref.data + i), AccessKind::kRead));
                       sum += static_cast<unsigned char>(ref.data[i]);
                     }
                     return Value::Number(static_cast<double>(sum));
                   });

  vm->RegisterHost("dom_text_len",
                   [this](Vm&, std::span<const Value> args) -> Result<Value> {
                     PS_ASSIGN_OR_RETURN(uint32_t handle, HandleArg(args, 0));
                     PS_ASSIGN_OR_RETURN(TextRef ref, RefFor(handle));
                     return Value::Number(static_cast<double>(ref.length));
                   });
}

}  // namespace pkrusafe
