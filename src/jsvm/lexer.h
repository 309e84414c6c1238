// Hand-written lexer for MiniScript.
#ifndef SRC_JSVM_LEXER_H_
#define SRC_JSVM_LEXER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/jsvm/token.h"
#include "src/support/status.h"

namespace pkrusafe {

// The tokens of one source text. Identifiers and string literals without
// escapes view into the source, which must outlive the list; a literal with
// escapes views its unescaped text in `unescaped`, which the list owns.
struct TokenList {
  std::vector<Token> tokens;
  std::unique_ptr<char[]> unescaped;  // allocated on the first escape, never grown

  size_t size() const { return tokens.size(); }
  const Token& operator[](size_t i) const { return tokens[i]; }
};

// Tokenizes `source`; the result always ends with a kEof token.
// Comments run from "//" to end of line.
Result<TokenList> Tokenize(std::string_view source);

}  // namespace pkrusafe

#endif  // SRC_JSVM_LEXER_H_
