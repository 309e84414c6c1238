// Tokens of the MiniScript language — the scripting language executed by the
// untrusted engine (our SpiderMonkey stand-in).
#ifndef SRC_JSVM_TOKEN_H_
#define SRC_JSVM_TOKEN_H_

#include <cstdint>
#include <string_view>

namespace pkrusafe {

enum class TokenType : uint8_t {
  // Literals / identifiers.
  kNumber,
  kString,
  kIdent,
  // Keywords.
  kFn,
  kLet,
  kReturn,
  kIf,
  kElse,
  kWhile,
  kFor,
  kBreak,
  kContinue,
  kTrue,
  kFalse,
  kNull,
  // Punctuation.
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kComma,
  kSemicolon,
  // Operators.
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kPercent,
  kBang,
  kAssign,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAndAnd,
  kOrOr,
  // Control.
  kEof,
};

const char* TokenTypeName(TokenType type);

// A token views its text; it owns nothing (see Tokenize for what it views).
struct Token {
  TokenType type = TokenType::kEof;
  int line = 0;
  double number = 0;      // kNumber payload
  std::string_view text;  // kIdent or keyword spelling, kString contents
};

}  // namespace pkrusafe

#endif  // SRC_JSVM_TOKEN_H_
