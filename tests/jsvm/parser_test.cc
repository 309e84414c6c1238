// Unit tests for the MiniScript parser: AST shapes and rejection of
// malformed programs.
#include "src/jsvm/parser.h"

#include <gtest/gtest.h>

namespace pkrusafe {
namespace {

Program Parse(const std::string& source) {
  auto program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(*program);
}

TEST(ScriptParserTest, SplitsFunctionsAndTopLevel) {
  Program program = Parse("fn f(a, b) { return a; } let x = 1; x = 2;");
  ASSERT_EQ(program.functions.size(), 1u);
  EXPECT_EQ(program.functions[0].name, "f");
  ASSERT_EQ(program.functions[0].params.size(), 2u);
  EXPECT_EQ(program.functions[0].params[1], "b");
  EXPECT_EQ(program.top_level.size(), 2u);
  EXPECT_EQ(program.top_level[0]->kind, StmtKind::kLet);
  EXPECT_EQ(program.top_level[1]->kind, StmtKind::kExpr);
}

TEST(ScriptParserTest, PrecedenceShapesTheTree) {
  // 1 + 2 * 3 parses as 1 + (2 * 3).
  Program program = Parse("let r = 1 + 2 * 3;");
  const Expr& root = *program.top_level[0]->expr;
  ASSERT_EQ(root.kind, ExprKind::kBinary);
  EXPECT_EQ(root.op, TokenType::kPlus);
  EXPECT_EQ(root.lhs->kind, ExprKind::kNumber);
  ASSERT_EQ(root.rhs->kind, ExprKind::kBinary);
  EXPECT_EQ(root.rhs->op, TokenType::kStar);
}

TEST(ScriptParserTest, ComparisonBindsLooserThanArithmetic) {
  Program program = Parse("let r = 1 + 2 < 3 * 4;");
  const Expr& root = *program.top_level[0]->expr;
  EXPECT_EQ(root.op, TokenType::kLt);
  EXPECT_EQ(root.lhs->op, TokenType::kPlus);
  EXPECT_EQ(root.rhs->op, TokenType::kStar);
}

TEST(ScriptParserTest, LogicalOperatorsNestCorrectly) {
  // a || b && c parses as a || (b && c).
  Program program = Parse("let r = a || b && c;");
  const Expr& root = *program.top_level[0]->expr;
  EXPECT_EQ(root.op, TokenType::kOrOr);
  EXPECT_EQ(root.rhs->op, TokenType::kAndAnd);
}

TEST(ScriptParserTest, AssignmentIsRightAssociative) {
  Program program = Parse("a = b = 1;");
  const Expr& root = *program.top_level[0]->expr;
  ASSERT_EQ(root.kind, ExprKind::kAssign);
  EXPECT_EQ(root.rhs->kind, ExprKind::kAssign);
}

TEST(ScriptParserTest, IndexedAssignmentTarget) {
  Program program = Parse("a[i + 1] = 5;");
  const Expr& root = *program.top_level[0]->expr;
  ASSERT_EQ(root.kind, ExprKind::kAssign);
  ASSERT_EQ(root.lhs->kind, ExprKind::kIndex);
  EXPECT_EQ(root.lhs->lhs->text, "a");
  EXPECT_EQ(root.lhs->rhs->op, TokenType::kPlus);
}

TEST(ScriptParserTest, PostfixChains) {
  Program program = Parse("let r = m[0][1];");
  const Expr& root = *program.top_level[0]->expr;
  ASSERT_EQ(root.kind, ExprKind::kIndex);
  EXPECT_EQ(root.lhs->kind, ExprKind::kIndex);
}

TEST(ScriptParserTest, CallArguments) {
  Program program = Parse("f(1, \"two\", [3]);");
  const Expr& call = *program.top_level[0]->expr;
  ASSERT_EQ(call.kind, ExprKind::kCall);
  EXPECT_EQ(call.text, "f");
  ASSERT_EQ(call.args.size(), 3u);
  EXPECT_EQ(call.args[0]->kind, ExprKind::kNumber);
  EXPECT_EQ(call.args[1]->kind, ExprKind::kString);
  EXPECT_EQ(call.args[2]->kind, ExprKind::kArrayLit);
}

TEST(ScriptParserTest, ElseIfChains) {
  Program program = Parse("if (a) { } else if (b) { } else { c; }");
  const Stmt& outer = *program.top_level[0];
  ASSERT_EQ(outer.kind, StmtKind::kIf);
  ASSERT_EQ(outer.else_body.size(), 1u);
  const Stmt& nested = *outer.else_body[0];
  ASSERT_EQ(nested.kind, StmtKind::kIf);
  EXPECT_EQ(nested.else_body.size(), 1u);
}

TEST(ScriptParserTest, ForLoopParts) {
  Program program = Parse("for (let i = 0; i < 3; i = i + 1) { }");
  const Stmt& loop = *program.top_level[0];
  ASSERT_EQ(loop.kind, StmtKind::kFor);
  ASSERT_NE(loop.init, nullptr);
  EXPECT_EQ(loop.init->kind, StmtKind::kLet);
  ASSERT_NE(loop.expr, nullptr);
  ASSERT_NE(loop.step, nullptr);
}

TEST(ScriptParserTest, ForLoopPartsAreOptional) {
  Program program = Parse("for (;;) { break; }");
  const Stmt& loop = *program.top_level[0];
  EXPECT_EQ(loop.init, nullptr);
  EXPECT_EQ(loop.expr, nullptr);
  EXPECT_EQ(loop.step, nullptr);
}

TEST(ScriptParserTest, RejectsMalformedPrograms) {
  EXPECT_FALSE(ParseProgram("fn () {}").ok());
  EXPECT_FALSE(ParseProgram("fn f(a {}").ok());
  EXPECT_FALSE(ParseProgram("fn f(a) { return a;").ok());
  EXPECT_FALSE(ParseProgram("let = 3;").ok());
  EXPECT_FALSE(ParseProgram("let x 3;").ok());
  EXPECT_FALSE(ParseProgram("if a { }").ok());
  EXPECT_FALSE(ParseProgram("while (1) 2;").ok());
  EXPECT_FALSE(ParseProgram("1 + ;").ok());
  EXPECT_FALSE(ParseProgram("(1 + 2;").ok());
  EXPECT_FALSE(ParseProgram("[1, 2;").ok());
  EXPECT_FALSE(ParseProgram("1 + 2 = 3;").ok());
  EXPECT_FALSE(ParseProgram("f(1)(2);").ok());  // only named calls
  EXPECT_FALSE(ParseProgram("x;").ok() == false);  // plain expression is fine
}

TEST(ScriptParserTest, ErrorsCarryLineNumbers) {
  auto bad = ParseProgram("let a = 1;\nlet b = ;\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(ScriptParserTest, ErrorTextIsExact) {
  const struct {
    const char* source;
    const char* message;
  } cases[] = {
      {"let a = 1;\nlet b = ;\n", "line 2: expected expression (found ';')"},
      {"fn (", "line 1: expected function name (found '(')"},
      {"fn f(1) {}", "line 1: expected parameter name (found 'number')"},
      {"1 + 2 = 3;", "line 1: invalid assignment target (found '=')"},
      {"f(1)(2);", "line 1: only named functions can be called (found '(')"},
      {"{ 1;", "line 1: unterminated block (found '<eof>')"},
      {"let x 3;", "line 1: expected '=' (found 'number')"},
      {"let 3;", "line 1: expected variable name after 'let' (found 'number')"},
      {"\n\nwhile (1) 2;", "line 3: expected '{' (found 'number')"},
      {"x = [1, 2;", "line 1: expected ']' (found ';')"},
      {"for (i = 0 i < 1;) {}", "line 1: expected ';' (found 'identifier')"},
      {"if (a { }", "line 1: expected ')' (found '{')"},
      {"a[1 = 2;", "line 1: invalid assignment target (found '=')"},
      {"- - !;", "line 1: expected expression (found ';')"},
      // The whole text is tokenized first, so a lexical error anywhere wins.
      {"let = ;\n@", "line 2: unexpected character '@'"},
  };
  for (const auto& c : cases) {
    auto program = ParseProgram(c.source);
    ASSERT_FALSE(program.ok()) << c.source;
    EXPECT_EQ(program.status().message(), c.message) << c.source;
  }
}

TEST(ScriptParserTest, NodesCarryTheirTokenLine) {
  Program program = Parse("let r =\n a\n +\n b;");
  const Stmt& let = *program.top_level[0];
  EXPECT_EQ(let.line, 1);
  EXPECT_EQ(let.name, "r");
  const Expr& sum = *let.expr;
  EXPECT_EQ(sum.line, 3);  // a binary node takes its operator's line
  EXPECT_EQ(sum.lhs->line, 2);
  EXPECT_EQ(sum.rhs->line, 4);
  // A null literal takes the line of the token after it.
  Program nulls = Parse("let n =\n null\n ;");
  EXPECT_EQ(nulls.top_level[0]->expr->kind, ExprKind::kNull);
  EXPECT_EQ(nulls.top_level[0]->expr->line, 3);
}

}  // namespace
}  // namespace pkrusafe
