#include "src/jsvm/lexer.h"

#include <charconv>
#include <cstdlib>
#include <string>

#include "src/support/string_util.h"

namespace pkrusafe {

const char* TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kNumber:
      return "number";
    case TokenType::kString:
      return "string";
    case TokenType::kIdent:
      return "identifier";
    case TokenType::kFn:
      return "fn";
    case TokenType::kLet:
      return "let";
    case TokenType::kReturn:
      return "return";
    case TokenType::kIf:
      return "if";
    case TokenType::kElse:
      return "else";
    case TokenType::kWhile:
      return "while";
    case TokenType::kFor:
      return "for";
    case TokenType::kBreak:
      return "break";
    case TokenType::kContinue:
      return "continue";
    case TokenType::kTrue:
      return "true";
    case TokenType::kFalse:
      return "false";
    case TokenType::kNull:
      return "null";
    case TokenType::kLParen:
      return "(";
    case TokenType::kRParen:
      return ")";
    case TokenType::kLBrace:
      return "{";
    case TokenType::kRBrace:
      return "}";
    case TokenType::kLBracket:
      return "[";
    case TokenType::kRBracket:
      return "]";
    case TokenType::kComma:
      return ",";
    case TokenType::kSemicolon:
      return ";";
    case TokenType::kPlus:
      return "+";
    case TokenType::kMinus:
      return "-";
    case TokenType::kStar:
      return "*";
    case TokenType::kSlash:
      return "/";
    case TokenType::kPercent:
      return "%";
    case TokenType::kBang:
      return "!";
    case TokenType::kAssign:
      return "=";
    case TokenType::kEq:
      return "==";
    case TokenType::kNe:
      return "!=";
    case TokenType::kLt:
      return "<";
    case TokenType::kLe:
      return "<=";
    case TokenType::kGt:
      return ">";
    case TokenType::kGe:
      return ">=";
    case TokenType::kAndAnd:
      return "&&";
    case TokenType::kOrOr:
      return "||";
    case TokenType::kEof:
      return "<eof>";
  }
  return "?";
}

namespace {

TokenType KeywordOrIdent(std::string_view word) {
  switch (word.size()) {
    case 2:
      if (word == "fn") return TokenType::kFn;
      if (word == "if") return TokenType::kIf;
      break;
    case 3:
      if (word == "let") return TokenType::kLet;
      if (word == "for") return TokenType::kFor;
      break;
    case 4:
      if (word == "else") return TokenType::kElse;
      if (word == "true") return TokenType::kTrue;
      if (word == "null") return TokenType::kNull;
      break;
    case 5:
      if (word == "while") return TokenType::kWhile;
      if (word == "break") return TokenType::kBreak;
      if (word == "false") return TokenType::kFalse;
      break;
    case 6:
      if (word == "return") return TokenType::kReturn;
      break;
    case 8:
      if (word == "continue") return TokenType::kContinue;
      break;
    default:
      break;
  }
  return TokenType::kIdent;
}

// The C locale's classes, without a locale lookup per character.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }  // \t \n \v \f \r
bool IsIdentStart(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_'; }
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

}  // namespace

Result<TokenList> Tokenize(std::string_view source) {
  TokenList list;
  std::vector<Token>& tokens = list.tokens;
  tokens.reserve(source.size() / 2 + 2);
  size_t unescaped_used = 0;
  size_t pos = 0;
  int line = 1;

  auto error = [&](const std::string& message) {
    return InvalidArgumentError(StrFormat("line %d: %s", line, message.c_str()));
  };
  auto push = [&](TokenType type) { tokens.push_back(Token{type, line, 0, {}}); };

  while (pos < source.size()) {
    const char c = source[pos];
    if (c == '\n') {
      ++line;
      ++pos;
      continue;
    }
    if (IsSpace(c)) {
      ++pos;
      continue;
    }
    if (c == '/' && pos + 1 < source.size() && source[pos + 1] == '/') {
      while (pos < source.size() && source[pos] != '\n') {
        ++pos;
      }
      continue;
    }
    if (IsDigit(c)) {
      size_t end = pos;
      while (end < source.size() &&
             (IsDigit(source[end]) || source[end] == '.' || source[end] == 'e' ||
              source[end] == 'E' ||
              ((source[end] == '+' || source[end] == '-') && end > pos &&
               (source[end - 1] == 'e' || source[end - 1] == 'E')))) {
        ++end;
      }
      const char* first = source.data() + pos;
      const char* last = source.data() + end;
      double value = 0;
      auto [parse_end, ec] = std::from_chars(first, last, value);
      if (ec == std::errc::result_out_of_range) {
        // Overflow or underflow: strtod's value (HUGE_VAL, or the underflowed
        // result), as the language has always read such literals.
        value = std::strtod(std::string(first, last).c_str(), nullptr);
      }
      if (parse_end != last) {
        return error("malformed number: " + std::string(first, last));
      }
      tokens.push_back(Token{TokenType::kNumber, line, value, {}});
      pos = end;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t end = pos;
      while (end < source.size() && IsIdentChar(source[end])) {
        ++end;
      }
      const std::string_view word = source.substr(pos, end - pos);
      tokens.push_back(Token{KeywordOrIdent(word), line, 0, word});
      pos = end;
      continue;
    }
    if (c == '"') {
      const size_t start = ++pos;
      while (pos < source.size() && source[pos] != '"' && source[pos] != '\\' &&
             source[pos] != '\n') {
        ++pos;
      }
      if (pos < source.size() && source[pos] == '"') {
        tokens.push_back(Token{TokenType::kString, line, 0, source.substr(start, pos - start)});
        ++pos;
        continue;
      }
      // An escape, or an error: unescape into the list's buffer, which holds
      // every literal's text since none is longer than the source.
      if (list.unescaped == nullptr) {
        list.unescaped = std::make_unique<char[]>(source.size());
      }
      char* const text = list.unescaped.get() + unescaped_used;
      size_t length = 0;
      pos = start;
      while (pos < source.size() && source[pos] != '"') {
        char ch = source[pos];
        if (ch == '\\' && pos + 1 < source.size()) {
          ++pos;
          switch (source[pos]) {
            case 'n':
              ch = '\n';
              break;
            case 't':
              ch = '\t';
              break;
            case '\\':
              ch = '\\';
              break;
            case '"':
              ch = '"';
              break;
            default:
              return error("unknown escape sequence");
          }
        } else if (ch == '\n') {
          return error("unterminated string literal");
        }
        text[length++] = ch;
        ++pos;
      }
      if (pos >= source.size()) {
        return error("unterminated string literal");
      }
      ++pos;  // closing quote
      unescaped_used += length;
      tokens.push_back(Token{TokenType::kString, line, 0, std::string_view(text, length)});
      continue;
    }

    auto two = [&](char next) {
      return pos + 1 < source.size() && source[pos + 1] == next;
    };
    switch (c) {
      case '(':
        push(TokenType::kLParen);
        break;
      case ')':
        push(TokenType::kRParen);
        break;
      case '{':
        push(TokenType::kLBrace);
        break;
      case '}':
        push(TokenType::kRBrace);
        break;
      case '[':
        push(TokenType::kLBracket);
        break;
      case ']':
        push(TokenType::kRBracket);
        break;
      case ',':
        push(TokenType::kComma);
        break;
      case ';':
        push(TokenType::kSemicolon);
        break;
      case '+':
        push(TokenType::kPlus);
        break;
      case '-':
        push(TokenType::kMinus);
        break;
      case '*':
        push(TokenType::kStar);
        break;
      case '/':
        push(TokenType::kSlash);
        break;
      case '%':
        push(TokenType::kPercent);
        break;
      case '!':
        if (two('=')) {
          push(TokenType::kNe);
          ++pos;
        } else {
          push(TokenType::kBang);
        }
        break;
      case '=':
        if (two('=')) {
          push(TokenType::kEq);
          ++pos;
        } else {
          push(TokenType::kAssign);
        }
        break;
      case '<':
        if (two('=')) {
          push(TokenType::kLe);
          ++pos;
        } else {
          push(TokenType::kLt);
        }
        break;
      case '>':
        if (two('=')) {
          push(TokenType::kGe);
          ++pos;
        } else {
          push(TokenType::kGt);
        }
        break;
      case '&':
        if (two('&')) {
          push(TokenType::kAndAnd);
          ++pos;
        } else {
          return error("stray '&'");
        }
        break;
      case '|':
        if (two('|')) {
          push(TokenType::kOrOr);
          ++pos;
        } else {
          return error("stray '|'");
        }
        break;
      default:
        return error(StrFormat("unexpected character '%c'", c));
    }
    ++pos;
  }
  push(TokenType::kEof);
  return list;
}

}  // namespace pkrusafe
