#include "src/support/json.h"

#include <cctype>
#include <cstdlib>

#include "src/support/string_util.h"

namespace pkrusafe {
namespace json {

const Value* Value::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

uint64_t Value::GetUint(std::string_view key, uint64_t fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsUint() : fallback;
}

int64_t Value::GetInt(std::string_view key, int64_t fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsInt() : fallback;
}

double Value::GetDouble(std::string_view key, double fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsDouble() : fallback;
}

std::string Value::GetString(std::string_view key, std::string fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseOne(bool require_end) {
    SkipWhitespace();
    Value value;
    PS_RETURN_IF_ERROR(ParseValue(&value));
    if (require_end) {
      SkipWhitespace();
      if (pos_ != text_.size()) {
        return Error("trailing characters after JSON value");
      }
    }
    return value;
  }

  size_t position() const { return pos_; }

 private:
  Status Error(const std::string& message) const {
    return InvalidArgumentError(StrFormat("json: %s at offset %zu", message.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Error(StrFormat("expected '%c'", c));
    }
    return Status::Ok();
  }

  bool ConsumeKeyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Status ParseValue(Value* out) {
    if (++depth_ > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    Status status;
    switch (text_[pos_]) {
      case '{':
        status = ParseObject(out);
        break;
      case '[':
        status = ParseArray(out);
        break;
      case '"':
        out->kind_ = Kind::kString;
        status = ParseString(&out->string_);
        break;
      case 't':
      case 'f':
        out->kind_ = Kind::kBool;
        if (ConsumeKeyword("true")) {
          out->bool_ = true;
        } else if (ConsumeKeyword("false")) {
          out->bool_ = false;
        } else {
          status = Error("invalid literal");
        }
        break;
      case 'n':
        status = ConsumeKeyword("null") ? Status::Ok() : Error("invalid literal");
        break;
      default:
        status = ParseNumber(out);
        break;
    }
    --depth_;
    return status;
  }

  Status ParseObject(Value* out) {
    out->kind_ = Kind::kObject;
    PS_RETURN_IF_ERROR(Expect('{'));
    SkipWhitespace();
    if (Consume('}')) {
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      PS_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      PS_RETURN_IF_ERROR(Expect(':'));
      Value member;
      PS_RETURN_IF_ERROR(ParseValue(&member));
      out->object_.emplace(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume('}')) {
        return Status::Ok();
      }
      PS_RETURN_IF_ERROR(Expect(','));
    }
  }

  Status ParseArray(Value* out) {
    out->kind_ = Kind::kArray;
    PS_RETURN_IF_ERROR(Expect('['));
    SkipWhitespace();
    if (Consume(']')) {
      return Status::Ok();
    }
    while (true) {
      Value element;
      PS_RETURN_IF_ERROR(ParseValue(&element));
      out->array_.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) {
        return Status::Ok();
      }
      PS_RETURN_IF_ERROR(Expect(','));
    }
  }

  Status ParseString(std::string* out) {
    PS_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape");
            }
          }
          // The emitters only escape control characters; encode as UTF-8 for
          // anything else so round trips are lossless.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(Value* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_integer = true;
    if (Consume('.')) {
      is_integer = false;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return Error("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    out->kind_ = Kind::kNumber;
    out->double_ = std::strtod(token.c_str(), nullptr);
    if (is_integer) {
      if (token[0] == '-') {
        out->int_ = std::strtoll(token.c_str(), nullptr, 10);
        out->uint_ = static_cast<uint64_t>(out->int_);
      } else {
        out->uint_ = std::strtoull(token.c_str(), nullptr, 10);
        out->int_ = static_cast<int64_t>(out->uint_);
      }
    } else {
      out->int_ = static_cast<int64_t>(out->double_);
      out->uint_ = out->double_ < 0 ? 0 : static_cast<uint64_t>(out->double_);
    }
    return Status::Ok();
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

Result<Value> Parse(std::string_view text) { return Parser(text).ParseOne(/*require_end=*/true); }

Result<Value> ParsePrefix(std::string_view text, size_t* consumed) {
  Parser parser(text);
  auto value = parser.ParseOne(/*require_end=*/false);
  if (consumed != nullptr) {
    *consumed = parser.position();
  }
  return value;
}

namespace {

void AppendEscaped(std::string* out, std::string_view text) {
  // Copies runs of bytes that need no escape in one append each.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(text.data() + run, text.size() - run);
}

}  // namespace

std::string JsonEscape(std::string_view text) {
  std::string escaped;
  escaped.reserve(text.size());
  AppendEscaped(&escaped, text);
  return escaped;
}

void Writer::Separate() {
  if (need_comma_) {
    out_->push_back(',');
  }
  need_comma_ = true;
}

Writer& Writer::Open(char bracket) {
  Separate();
  out_->push_back(bracket);
  need_comma_ = false;
  return *this;
}

Writer& Writer::Close(char bracket) {
  out_->push_back(bracket);
  need_comma_ = true;
  return *this;
}

Writer& Writer::Key(std::string_view key) {
  String(key);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

Writer& Writer::String(std::string_view value) {
  Separate();
  out_->push_back('"');
  AppendEscaped(out_, value);
  out_->push_back('"');
  return *this;
}

Writer& Writer::Number(std::string_view text) {
  Separate();
  out_->append(text);
  return *this;
}

Writer& Writer::LineBreak() {
  if (need_comma_) {
    out_->append(",\n");
    need_comma_ = false;
  }
  return *this;
}

}  // namespace json
}  // namespace pkrusafe
