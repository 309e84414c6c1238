#include "src/jsvm/parser.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/jsvm/lexer.h"
#include "src/support/string_util.h"

namespace pkrusafe {

namespace {

// Binding power of each binary operator, loosest first; 0 for any other
// token. Every binary operator is left-associative.
constexpr std::array<uint8_t, static_cast<size_t>(TokenType::kEof) + 1> kBindingPower = [] {
  std::array<uint8_t, static_cast<size_t>(TokenType::kEof) + 1> power{};
  auto set = [&power](TokenType type, uint8_t p) { power[static_cast<size_t>(type)] = p; };
  set(TokenType::kOrOr, 1);
  set(TokenType::kAndAnd, 2);
  set(TokenType::kEq, 3);
  set(TokenType::kNe, 3);
  set(TokenType::kLt, 4);
  set(TokenType::kLe, 4);
  set(TokenType::kGt, 4);
  set(TokenType::kGe, 4);
  set(TokenType::kPlus, 5);
  set(TokenType::kMinus, 5);
  set(TokenType::kStar, 6);
  set(TokenType::kSlash, 6);
  set(TokenType::kPercent, 6);
  return power;
}();

// Builds the tree into program->arena. Child lists are gathered on one
// scratch stack per element type: a list under construction occupies the
// stack above its mark, nested lists are finished (copied into the arena and
// popped) before their parent's next element is pushed.
class ScriptParser {
 public:
  ScriptParser(const TokenList& tokens, Program* program)
      : tokens_(tokens.tokens.data()), program_(program), arena_(program->arena) {}

  Status Run() {
    const size_t mark = stmt_stack_.size();
    while (!Check(TokenType::kEof)) {
      if (Check(TokenType::kFn)) {
        PS_RETURN_IF_ERROR(ParseFunction());
      } else {
        PS_ASSIGN_OR_RETURN(Stmt* stmt, ParseStatement());
        stmt_stack_.push_back(stmt);
      }
    }
    program_->top_level = FinishStmts(mark);
    program_->top_level_node_count = nodes_;
    return Status::Ok();
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenType type) const { return Peek().type == type; }
  bool Match(TokenType type) {
    if (Check(type)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    return InvalidArgumentError(StrFormat("line %d: %s (found '%s')", Peek().line,
                                          message.c_str(), TokenTypeName(Peek().type)));
  }

  Status Expect(TokenType type, const char* what) {
    if (!Match(type)) {
      return Error(StrFormat("expected %s", what));
    }
    return Status::Ok();
  }

  std::span<Stmt* const> FinishStmts(size_t mark) {
    const auto list = arena_.CopyList(
        std::span<Stmt* const>(stmt_stack_.data() + mark, stmt_stack_.size() - mark));
    stmt_stack_.resize(mark);
    return list;
  }

  std::span<Expr* const> FinishExprs(size_t mark) {
    const auto list = arena_.CopyList(
        std::span<Expr* const>(expr_stack_.data() + mark, expr_stack_.size() - mark));
    expr_stack_.resize(mark);
    return list;
  }

  // Parses a function declaration into program_->functions. The nodes of
  // its body are counted apart from the top level's.
  Status ParseFunction() {
    FunctionDecl fn;
    fn.line = Peek().line;
    PS_RETURN_IF_ERROR(Expect(TokenType::kFn, "'fn'"));
    if (!Check(TokenType::kIdent)) {
      return Error("expected function name");
    }
    fn.name = Advance().text;
    PS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    params_.clear();
    if (!Check(TokenType::kRParen)) {
      while (true) {
        if (!Check(TokenType::kIdent)) {
          return Error("expected parameter name");
        }
        params_.push_back(Advance().text);
        if (!Match(TokenType::kComma)) {
          break;
        }
      }
    }
    PS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    fn.params = arena_.CopyList(std::span<const std::string_view>(params_));
    const uint32_t top_level_nodes = std::exchange(nodes_, 0);
    PS_ASSIGN_OR_RETURN(fn.body, ParseBlockBody());
    fn.node_count = std::exchange(nodes_, top_level_nodes);
    program_->functions.push_back(fn);
    return Status::Ok();
  }

  Result<std::span<Stmt* const>> ParseBlockBody() {
    PS_RETURN_IF_ERROR(Expect(TokenType::kLBrace, "'{'"));
    const size_t mark = stmt_stack_.size();
    while (!Check(TokenType::kRBrace)) {
      if (Check(TokenType::kEof)) {
        return Error("unterminated block");
      }
      PS_ASSIGN_OR_RETURN(Stmt* stmt, ParseStatement());
      stmt_stack_.push_back(stmt);
    }
    PS_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "'}'"));
    return FinishStmts(mark);
  }

  Stmt* NewStmt(StmtKind kind) {
    Stmt* stmt = arena_.New<Stmt>();
    stmt->kind = kind;
    stmt->line = Peek().line;
    ++nodes_;
    return stmt;
  }

  Result<Stmt*> ParseStatement() {
    switch (Peek().type) {
      case TokenType::kLet:
        return ParseLet();
      case TokenType::kReturn: {
        Stmt* stmt = NewStmt(StmtKind::kReturn);
        Advance();
        if (!Check(TokenType::kSemicolon)) {
          PS_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
        }
        PS_RETURN_IF_ERROR(Expect(TokenType::kSemicolon, "';'"));
        return stmt;
      }
      case TokenType::kIf:
        return ParseIf();
      case TokenType::kWhile: {
        Stmt* stmt = NewStmt(StmtKind::kWhile);
        Advance();
        PS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        PS_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
        PS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        PS_ASSIGN_OR_RETURN(stmt->body, ParseBlockBody());
        return stmt;
      }
      case TokenType::kFor:
        return ParseFor();
      case TokenType::kBreak:
      case TokenType::kContinue: {
        Stmt* stmt = NewStmt(Check(TokenType::kBreak) ? StmtKind::kBreak : StmtKind::kContinue);
        Advance();
        PS_RETURN_IF_ERROR(Expect(TokenType::kSemicolon, "';'"));
        return stmt;
      }
      case TokenType::kLBrace: {
        Stmt* stmt = NewStmt(StmtKind::kBlock);
        PS_ASSIGN_OR_RETURN(stmt->body, ParseBlockBody());
        return stmt;
      }
      default:
        return ParseExpressionStatement();
    }
  }

  Result<Stmt*> ParseExpressionStatement() {
    Stmt* stmt = NewStmt(StmtKind::kExpr);
    PS_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    PS_RETURN_IF_ERROR(Expect(TokenType::kSemicolon, "';'"));
    return stmt;
  }

  Result<Stmt*> ParseLet() {
    Stmt* stmt = NewStmt(StmtKind::kLet);
    Advance();  // 'let'
    if (!Check(TokenType::kIdent)) {
      return Error("expected variable name after 'let'");
    }
    stmt->name = Advance().text;
    PS_RETURN_IF_ERROR(Expect(TokenType::kAssign, "'='"));
    PS_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    PS_RETURN_IF_ERROR(Expect(TokenType::kSemicolon, "';'"));
    return stmt;
  }

  Result<Stmt*> ParseIf() {
    Stmt* stmt = NewStmt(StmtKind::kIf);
    Advance();  // 'if'
    PS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    PS_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    PS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    PS_ASSIGN_OR_RETURN(stmt->body, ParseBlockBody());
    if (Match(TokenType::kElse)) {
      if (Check(TokenType::kIf)) {
        const size_t mark = stmt_stack_.size();
        PS_ASSIGN_OR_RETURN(Stmt* nested, ParseIf());
        stmt_stack_.push_back(nested);
        stmt->else_body = FinishStmts(mark);
      } else {
        PS_ASSIGN_OR_RETURN(stmt->else_body, ParseBlockBody());
      }
    }
    return stmt;
  }

  Result<Stmt*> ParseFor() {
    Stmt* stmt = NewStmt(StmtKind::kFor);
    Advance();  // 'for'
    PS_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    if (!Match(TokenType::kSemicolon)) {
      if (Check(TokenType::kLet)) {
        PS_ASSIGN_OR_RETURN(stmt->init, ParseLet());
      } else {
        PS_ASSIGN_OR_RETURN(stmt->init, ParseExpressionStatement());
      }
    }
    if (!Check(TokenType::kSemicolon)) {
      PS_ASSIGN_OR_RETURN(stmt->expr, ParseExpression());
    }
    PS_RETURN_IF_ERROR(Expect(TokenType::kSemicolon, "';'"));
    if (!Check(TokenType::kRParen)) {
      PS_ASSIGN_OR_RETURN(stmt->step, ParseExpression());
    }
    PS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    PS_ASSIGN_OR_RETURN(stmt->body, ParseBlockBody());
    return stmt;
  }

  Expr* NewExpr(ExprKind kind) {
    Expr* expr = arena_.New<Expr>();
    expr->kind = kind;
    expr->line = Peek().line;
    ++nodes_;
    return expr;
  }

  // expression := binary ('=' expression)?  — assignment is right-associative.
  Result<Expr*> ParseExpression() {
    PS_ASSIGN_OR_RETURN(Expr* lhs, ParseBinary(1));
    if (!Check(TokenType::kAssign)) {
      return lhs;
    }
    if (lhs->kind != ExprKind::kVariable && lhs->kind != ExprKind::kIndex) {
      return Error("invalid assignment target");
    }
    Expr* assign = NewExpr(ExprKind::kAssign);
    Advance();
    assign->lhs = lhs;
    PS_ASSIGN_OR_RETURN(assign->rhs, ParseExpression());
    return assign;
  }

  // Precedence climbing: operands joined by binary operators whose binding
  // power is at least `min_power` (>= 1, so a non-operator ends the loop).
  Result<Expr*> ParseBinary(uint8_t min_power) {
    PS_ASSIGN_OR_RETURN(Expr* lhs, ParseOperand());
    while (true) {
      const uint8_t power = kBindingPower[static_cast<size_t>(Peek().type)];
      if (power < min_power) {
        return lhs;
      }
      Expr* binary = NewExpr(ExprKind::kBinary);
      binary->op = Advance().type;
      binary->lhs = lhs;
      PS_ASSIGN_OR_RETURN(binary->rhs, ParseBinary(power + 1));
      lhs = binary;
    }
  }

  // operand := ('-' | '!')* primary ('[' expression ']' | '(' args ')')*
  // The prefix operators apply to the whole postfix chain.
  Result<Expr*> ParseOperand() {
    Expr* head = nullptr;
    Expr** hole = &head;
    while (Check(TokenType::kMinus) || Check(TokenType::kBang)) {
      Expr* unary = NewExpr(ExprKind::kUnary);
      unary->op = Advance().type;
      *hole = unary;
      hole = &unary->lhs;
    }
    PS_ASSIGN_OR_RETURN(Expr* expr, ParsePrimary());
    while (true) {
      if (Check(TokenType::kLBracket)) {
        Expr* index = NewExpr(ExprKind::kIndex);
        Advance();
        index->lhs = expr;
        PS_ASSIGN_OR_RETURN(index->rhs, ParseExpression());
        PS_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'"));
        expr = index;
      } else if (Check(TokenType::kLParen)) {
        if (expr->kind != ExprKind::kVariable) {
          return Error("only named functions can be called");
        }
        // The callee's variable node becomes the call, at the '(' line.
        expr->kind = ExprKind::kCall;
        expr->line = Advance().line;
        PS_ASSIGN_OR_RETURN(expr->args, ParseList(TokenType::kRParen, "')'"));
      } else {
        *hole = expr;
        return head;
      }
    }
  }

  Result<Expr*> ParsePrimary() {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kNumber: {
        Expr* expr = NewExpr(ExprKind::kNumber);
        expr->number = Advance().number;
        return expr;
      }
      case TokenType::kString:
      case TokenType::kIdent: {
        Expr* expr =
            NewExpr(token.type == TokenType::kString ? ExprKind::kString : ExprKind::kVariable);
        expr->text = Advance().text;
        return expr;
      }
      case TokenType::kTrue:
      case TokenType::kFalse: {
        Expr* expr = NewExpr(ExprKind::kBool);
        expr->boolean = Advance().type == TokenType::kTrue;
        return expr;
      }
      case TokenType::kNull:
        Advance();
        return NewExpr(ExprKind::kNull);  // at the line of the token after `null`
      case TokenType::kLParen: {
        Advance();
        PS_ASSIGN_OR_RETURN(Expr* expr, ParseExpression());
        PS_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return expr;
      }
      case TokenType::kLBracket: {
        Expr* expr = NewExpr(ExprKind::kArrayLit);
        Advance();
        PS_ASSIGN_OR_RETURN(expr->args, ParseList(TokenType::kRBracket, "']'"));
        return expr;
      }
      default:
        return Error("expected expression");
    }
  }

  // Comma-separated expressions up to `close`, which is consumed; the opening
  // token has been.
  Result<std::span<Expr* const>> ParseList(TokenType close, const char* what) {
    const size_t mark = expr_stack_.size();
    if (!Check(close)) {
      while (true) {
        PS_ASSIGN_OR_RETURN(Expr* element, ParseExpression());
        expr_stack_.push_back(element);
        if (!Match(TokenType::kComma)) {
          break;
        }
      }
    }
    PS_RETURN_IF_ERROR(Expect(close, what));
    return FinishExprs(mark);
  }

  const Token* tokens_;
  size_t pos_ = 0;
  Program* program_;
  AstArena& arena_;
  uint32_t nodes_ = 0;
  std::vector<Stmt*> stmt_stack_;
  std::vector<Expr*> expr_stack_;
  std::vector<std::string_view> params_;
};

}  // namespace

Result<Program> ParseProgram(std::string_view source) {
  Program program;
  // The tree's names view a copy of the source the program owns, so the
  // program outlives `source`. Roughly 24 arena bytes per source byte.
  program.arena.Reserve(std::min<size_t>(source.size() * 24 + 512, size_t{1} << 20));
  const std::string_view text = program.arena.CopyText(source);
  PS_ASSIGN_OR_RETURN(TokenList tokens, Tokenize(text));
  if (tokens.unescaped != nullptr) {
    program.arena.Adopt(std::move(tokens.unescaped));
  }
  PS_RETURN_IF_ERROR(ScriptParser(tokens, &program).Run());
  return program;
}

}  // namespace pkrusafe
