#include "src/dom/document.h"

#include <algorithm>
#include <cctype>
#include <new>

#include "src/support/logging.h"
#include "src/support/string_util.h"

namespace pkrusafe {

Document::Document(PkruSafeRuntime* runtime) : runtime_(runtime) {
  root_ = CreateElement("html");
  PS_CHECK(root_ != nullptr) << "failed to allocate document root";
}

Document::~Document() {
  if (root_ != nullptr) {
    FreeSubtree(root_);
  }
}

DomNode* Document::AllocateNode() {
  void* memory = runtime_->AllocTrusted(kDomNodeSite, sizeof(DomNode));
  if (memory == nullptr) {
    return nullptr;
  }
  auto* node = new (memory) DomNode();
  node->node_id = next_node_id_++;
  by_handle_[node->node_id] = node;
  ++nodes_alive_;
  return node;
}

DomNode* Document::CreateElement(std::string_view tag) {
  DomNode* node = AllocateNode();
  if (node == nullptr) {
    return nullptr;
  }
  node->kind = DomNodeKind::kElement;
  node->set_tag(tag);
  return node;
}

DomNode* Document::CreateTextNode(std::string_view text) {
  DomNode* node = AllocateNode();
  if (node == nullptr) {
    return nullptr;
  }
  node->kind = DomNodeKind::kText;
  node->set_tag("#text");
  if (!SetText(node, text)) {
    return nullptr;
  }
  return node;
}

bool Document::SetText(DomNode* node, std::string_view text) {
  char* buffer = nullptr;
  if (node->text != nullptr) {
    buffer = static_cast<char*>(runtime_->Realloc(node->text, text.size() + 1));
  } else {
    buffer = static_cast<char*>(runtime_->AllocTrusted(kDomTextSite, text.size() + 1));
  }
  if (buffer == nullptr) {
    return false;
  }
  std::memcpy(buffer, text.data(), text.size());
  buffer[text.size()] = '\0';
  node->text = buffer;
  node->text_len = text.size();
  return true;
}

void Document::AppendChild(DomNode* parent, DomNode* child) {
  PS_CHECK(child->parent == nullptr) << "child already attached";
  child->parent = parent;
  if (parent->last_child == nullptr) {
    parent->first_child = child;
    parent->last_child = child;
  } else {
    parent->last_child->next_sibling = child;
    parent->last_child = child;
  }
}

void Document::RemoveNode(DomNode* node) {
  PS_CHECK(node != root_) << "cannot remove the root";
  DomNode* parent = node->parent;
  if (parent != nullptr) {
    DomNode** link = &parent->first_child;
    while (*link != node) {
      link = &(*link)->next_sibling;
    }
    *link = node->next_sibling;
    if (parent->last_child == node) {
      parent->last_child = nullptr;
      for (DomNode* c = parent->first_child; c != nullptr; c = c->next_sibling) {
        parent->last_child = c;
      }
    }
  }
  node->parent = nullptr;
  node->next_sibling = nullptr;
  FreeSubtree(node);
}

void Document::FreeSubtree(DomNode* node) {
  DomNode* child = node->first_child;
  while (child != nullptr) {
    DomNode* next = child->next_sibling;
    FreeSubtree(child);
    child = next;
  }
  if (node->id_attr[0] != '\0') {
    auto it = by_id_.find(std::string(node->id_view()));
    if (it != by_id_.end() && it->second == node) {
      by_id_.erase(it);
    }
  }
  by_handle_.erase(node->node_id);
  if (node->text != nullptr) {
    runtime_->Free(node->text);
  }
  node->~DomNode();
  runtime_->Free(node);
  --nodes_alive_;
}

void Document::SetIdAttribute(DomNode* node, std::string_view id) {
  if (node->id_attr[0] != '\0') {
    by_id_.erase(std::string(node->id_view()));
  }
  node->set_id_attr(id);
  by_id_[std::string(node->id_view())] = node;
}

DomNode* Document::GetElementById(std::string_view id) const {
  auto it = by_id_.find(std::string(id));
  return it == by_id_.end() ? nullptr : it->second;
}

DomNode* Document::NodeByHandle(uint32_t node_id) const {
  auto it = by_handle_.find(node_id);
  return it == by_handle_.end() ? nullptr : it->second;
}

Result<size_t> Document::ParseHtml(DomNode* parent, std::string_view html) {
  size_t pos = 0;
  size_t created = 0;
  std::vector<DomNode*> stack{parent};

  auto fail = [&](const std::string& message) {
    return InvalidArgumentError(StrFormat("html offset %zu: %s", pos, message.c_str()));
  };

  while (pos < html.size()) {
    if (html[pos] == '<') {
      if (pos + 1 < html.size() && html[pos + 1] == '/') {
        const size_t close = html.find('>', pos);
        if (close == std::string_view::npos) {
          return fail("unterminated close tag");
        }
        if (stack.size() == 1) {
          return fail("close tag without matching open tag");
        }
        const std::string_view name = StrStrip(html.substr(pos + 2, close - pos - 2));
        if (name != stack.back()->tag_view()) {
          return fail("mismatched close tag </" + std::string(name) + ">");
        }
        stack.pop_back();
        pos = close + 1;
        continue;
      }
      const size_t close = html.find('>', pos);
      if (close == std::string_view::npos) {
        return fail("unterminated tag");
      }
      std::string_view inside = html.substr(pos + 1, close - pos - 1);
      bool self_closing = false;
      if (!inside.empty() && inside.back() == '/') {
        self_closing = true;
        inside = inside.substr(0, inside.size() - 1);
      }
      // Tag name up to whitespace; optional id="..." attribute.
      size_t name_end = 0;
      while (name_end < inside.size() &&
             std::isspace(static_cast<unsigned char>(inside[name_end])) == 0) {
        ++name_end;
      }
      const std::string_view name = inside.substr(0, name_end);
      if (name.empty()) {
        return fail("empty tag name");
      }
      DomNode* element = CreateElement(name);
      if (element == nullptr) {
        return ResourceExhaustedError("trusted pool exhausted during parse");
      }
      ++created;

      const std::string_view attrs = StrStrip(inside.substr(name_end));
      if (!attrs.empty()) {
        if (!StrStartsWith(attrs, "id=\"") || attrs.back() != '"') {
          return fail("only id=\"...\" attributes are supported");
        }
        SetIdAttribute(element, attrs.substr(4, attrs.size() - 5));
      }
      AppendChild(stack.back(), element);
      if (!self_closing) {
        stack.push_back(element);
      }
      pos = close + 1;
      continue;
    }
    const size_t next_tag = html.find('<', pos);
    const size_t end = next_tag == std::string_view::npos ? html.size() : next_tag;
    const std::string_view raw = html.substr(pos, end - pos);
    if (!StrStrip(raw).empty()) {
      DomNode* text = CreateTextNode(raw);
      if (text == nullptr) {
        return ResourceExhaustedError("trusted pool exhausted during parse");
      }
      ++created;
      AppendChild(stack.back(), text);
    }
    pos = end;
  }
  if (stack.size() != 1) {
    return InvalidArgumentError("unclosed tag <" + std::string(stack.back()->tag_view()) + ">");
  }
  return created;
}

std::string Document::Serialize(const DomNode* node) const {
  if (node->kind == DomNodeKind::kText) {
    return std::string(node->text_view());
  }
  std::string out = "<";
  out += node->tag_view();
  if (node->id_attr[0] != '\0') {
    out += " id=\"" + std::string(node->id_view()) + "\"";
  }
  out += ">";
  for (const DomNode* child = node->first_child; child != nullptr;
       child = child->next_sibling) {
    out += Serialize(child);
  }
  out += "</" + std::string(node->tag_view()) + ">";
  return out;
}

int32_t Document::LayoutNode(DomNode* node, int32_t x, int32_t y, int32_t width) {
  node->x = x;
  node->y = y;
  node->width = width;
  if (node->kind == DomNodeKind::kText) {
    const int32_t chars_per_line = std::max<int32_t>(1, width / 8);
    const auto lines =
        static_cast<int32_t>((node->text_len + chars_per_line - 1) / chars_per_line);
    node->height = std::max<int32_t>(1, lines) * 16;
    return node->height;
  }
  int32_t height = 0;
  for (DomNode* child = node->first_child; child != nullptr; child = child->next_sibling) {
    height += LayoutNode(child, x, y + height, width);
  }
  node->height = height;
  return height;
}

int32_t Document::Layout(int32_t viewport_width) {
  return LayoutNode(root_, 0, 0, viewport_width);
}

size_t Document::TextLength(const DomNode* node) const {
  size_t total = node->kind == DomNodeKind::kText ? node->text_len : 0;
  for (const DomNode* child = node->first_child; child != nullptr;
       child = child->next_sibling) {
    total += TextLength(child);
  }
  return total;
}

}  // namespace pkrusafe
