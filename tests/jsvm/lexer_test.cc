#include "src/jsvm/lexer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace pkrusafe {
namespace {

TEST(LexerTest, TokenizesPunctuationAndOperators) {
  auto tokens = Tokenize("( ) { } [ ] , ; + - * / % ! = == != < <= > >= && ||");
  ASSERT_TRUE(tokens.ok());
  const TokenType expected[] = {
      TokenType::kLParen, TokenType::kRParen, TokenType::kLBrace,  TokenType::kRBrace,
      TokenType::kLBracket, TokenType::kRBracket, TokenType::kComma, TokenType::kSemicolon,
      TokenType::kPlus,   TokenType::kMinus,  TokenType::kStar,    TokenType::kSlash,
      TokenType::kPercent, TokenType::kBang,  TokenType::kAssign,  TokenType::kEq,
      TokenType::kNe,     TokenType::kLt,     TokenType::kLe,      TokenType::kGt,
      TokenType::kGe,     TokenType::kAndAnd, TokenType::kOrOr,    TokenType::kEof,
  };
  ASSERT_EQ(tokens->size(), std::size(expected));
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ((*tokens)[i].type, expected[i]) << "token " << i;
  }
}

TEST(LexerTest, TokenizesNumbers) {
  auto tokens = Tokenize("0 42 3.5 1e3 2.5e-2");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ((*tokens)[0].number, 0);
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 42);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 3.5);
  EXPECT_DOUBLE_EQ((*tokens)[3].number, 1000);
  EXPECT_DOUBLE_EQ((*tokens)[4].number, 0.025);
}

TEST(LexerTest, KeywordsVersusIdentifiers) {
  auto tokens = Tokenize("let letx fn fnx while whilex");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kLet);
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdent);
  EXPECT_EQ((*tokens)[1].text, "letx");
  EXPECT_EQ((*tokens)[2].type, TokenType::kFn);
  EXPECT_EQ((*tokens)[3].type, TokenType::kIdent);
  EXPECT_EQ((*tokens)[4].type, TokenType::kWhile);
  EXPECT_EQ((*tokens)[5].type, TokenType::kIdent);
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = Tokenize(R"("hello" "a\nb" "q\"q" "t\tt")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "hello");
  EXPECT_EQ((*tokens)[1].text, "a\nb");
  EXPECT_EQ((*tokens)[2].text, "q\"q");
  EXPECT_EQ((*tokens)[3].text, "t\tt");
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("1 // comment\n2");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // 1, 2, eof
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 2);
}

TEST(LexerTest, TracksLineNumbers) {
  auto tokens = Tokenize("1\n2\n\n3");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
  EXPECT_EQ((*tokens)[2].line, 4);
}

TEST(LexerTest, RejectsBadInput) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("\"bad\\q\"").ok());
  EXPECT_FALSE(Tokenize("@").ok());
  EXPECT_FALSE(Tokenize("&").ok());
  EXPECT_FALSE(Tokenize("|").ok());
}

TEST(LexerTest, EmptyInputYieldsEof) {
  auto tokens = Tokenize("");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 1u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kEof);
}

// Edge cases pinned so the lexer's number, keyword, whitespace and error
// paths keep their exact behaviour.

TEST(LexerTest, OutOfRangeNumbersSaturate) {
  auto tokens = Tokenize("1e999 1e-999 4e-320");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(std::isinf((*tokens)[0].number));
  EXPECT_GT((*tokens)[0].number, 0);
  EXPECT_EQ((*tokens)[1].number, 0);
  EXPECT_GT((*tokens)[2].number, 0);  // a subnormal, not flushed to zero
  EXPECT_LT((*tokens)[2].number, 1e-300);
}

TEST(LexerTest, TrailingDotAndBareExponentForms) {
  auto tokens = Tokenize("1. 5.e3 2E+3 1e-2 007");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 6u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ((*tokens)[0].number, 1);
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 5000);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 2000);
  EXPECT_DOUBLE_EQ((*tokens)[3].number, 0.01);
  EXPECT_DOUBLE_EQ((*tokens)[4].number, 7);
}

TEST(LexerTest, NumberStopsAtASignWithoutAnExponent) {
  auto tokens = Tokenize("1-2 3x");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 6u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kNumber);
  EXPECT_EQ((*tokens)[1].type, TokenType::kMinus);
  EXPECT_EQ((*tokens)[2].type, TokenType::kNumber);
  EXPECT_EQ((*tokens)[3].type, TokenType::kNumber);
  EXPECT_EQ((*tokens)[4].type, TokenType::kIdent);
  EXPECT_EQ((*tokens)[4].text, "x");
}

TEST(LexerTest, MalformedNumbersAreErrors) {
  const struct {
    const char* source;
    const char* message;
  } cases[] = {
      {"1e", "line 1: malformed number: 1e"},
      {"1e+", "line 1: malformed number: 1e+"},
      {"\n\n2.5e-", "line 3: malformed number: 2.5e-"},
      {"1.2.3", "line 1: malformed number: 1.2.3"},
      {"1e5e5", "line 1: malformed number: 1e5e5"},
      {".5", "line 1: unexpected character '.'"},
  };
  for (const auto& c : cases) {
    auto tokens = Tokenize(c.source);
    ASSERT_FALSE(tokens.ok()) << c.source;
    EXPECT_EQ(tokens.status().message(), c.message) << c.source;
  }
}

TEST(LexerTest, KeywordPrefixesAndSuffixesAreIdentifiers) {
  auto tokens = Tokenize("fnx lets return_ iff els whil nul truex falsey _if For NULL breakc");
  ASSERT_TRUE(tokens.ok());
  const char* expected[] = {"fnx", "lets", "return_", "iff", "els",  "whil", "nul",
                            "truex", "falsey", "_if", "For", "NULL", "breakc"};
  ASSERT_EQ(tokens->size(), std::size(expected) + 1);
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ((*tokens)[i].type, TokenType::kIdent) << expected[i];
    EXPECT_EQ((*tokens)[i].text, expected[i]);
  }
}

TEST(LexerTest, EveryKeywordIsRecognised) {
  auto tokens =
      Tokenize("fn let return if else while for break continue true false null");
  ASSERT_TRUE(tokens.ok());
  const TokenType expected[] = {
      TokenType::kFn,    TokenType::kLet,   TokenType::kReturn,   TokenType::kIf,
      TokenType::kElse,  TokenType::kWhile, TokenType::kFor,      TokenType::kBreak,
      TokenType::kContinue, TokenType::kTrue, TokenType::kFalse,  TokenType::kNull,
      TokenType::kEof,
  };
  ASSERT_EQ(tokens->size(), std::size(expected));
  for (size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ((*tokens)[i].type, expected[i]) << "token " << i;
  }
}

TEST(LexerTest, AsciiWhitespaceIsSkippedAndOnlyNewlineCountsLines) {
  auto tokens = Tokenize("a\r\v\f\t b\r\nc");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
  EXPECT_EQ((*tokens)[1].line, 1);
  EXPECT_EQ((*tokens)[2].text, "c");
  EXPECT_EQ((*tokens)[2].line, 2);
}

TEST(LexerTest, NonAsciiByteIsAnError) {
  auto tokens = Tokenize("let a = 1;\nlet \xc3\xa9 = 2;");
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().message(), "line 2: unexpected character '\xc3'");
}

TEST(LexerTest, ErrorTextCarriesTheLine) {
  const struct {
    const char* source;
    const char* message;
  } cases[] = {
      {"let a = 1;\nlet b = 2;\n  @", "line 3: unexpected character '@'"},
      {"x;\n\"open", "line 2: unterminated string literal"},
      {"\"ab\ncd\"", "line 1: unterminated string literal"},
      {"\n\"a\\q\"", "line 2: unknown escape sequence"},
      {"a & b", "line 1: stray '&'"},
      {"\n\n\na | b", "line 4: stray '|'"},
  };
  for (const auto& c : cases) {
    auto tokens = Tokenize(c.source);
    ASSERT_FALSE(tokens.ok()) << c.source;
    EXPECT_EQ(tokens.status().message(), c.message) << c.source;
  }
}

TEST(LexerTest, StringTextAndLines) {
  auto tokens = Tokenize("\"\" \"plain\"\n\"e\\\\\" x");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kString);
  EXPECT_EQ((*tokens)[0].text, "");
  EXPECT_EQ((*tokens)[1].text, "plain");
  EXPECT_EQ((*tokens)[2].text, "e\\");
  EXPECT_EQ((*tokens)[2].line, 2);
  EXPECT_EQ((*tokens)[3].text, "x");
}

}  // namespace
}  // namespace pkrusafe
