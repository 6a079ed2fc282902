#include "core/Parser.h"

#include <cmath>

using namespace terracpp;
using namespace terracpp::lua;

namespace {

/// Arena-allocating node factory for host AST nodes.
template <typename T> T *makeHost(TerraContext &Ctx, SourceLoc Loc) {
  T *N = Ctx.arena().create<T>();
  N->Loc = Loc;
  return N;
}

} // namespace

Parser::Parser(TerraContext &Ctx, const std::string &Src, uint32_t BufferId,
               DiagnosticEngine &Diags)
    : Ctx(Ctx), Diags(Diags), Lex(Src, BufferId, Diags) {}

//===----------------------------------------------------------------------===//
// Token management
//===----------------------------------------------------------------------===//

const Token &Parser::tok(unsigned N) {
  assert(N < 2 && "lookahead limited to 2 tokens");
  while (NumLookAhead <= N)
    LookAhead[NumLookAhead++] = Lex.next();
  return LookAhead[N];
}

void Parser::consume() {
  tok(0);
  LookAhead[0] = LookAhead[1];
  --NumLookAhead;
}

bool Parser::accept(Tok Kind) {
  if (!check(Kind))
    return false;
  consume();
  return true;
}

bool Parser::expect(Tok Kind, const char *Context) {
  if (accept(Kind))
    return true;
  errorHere(std::string("expected '") + tokenKindName(Kind) + "' " + Context +
            ", found '" +
            (tok().Kind == Tok::Ident ? tok().Text : tokenKindName(tok().Kind)) +
            "'");
  return false;
}

void Parser::errorHere(const std::string &Message) {
  // Report only the first cascade of errors per statement region to keep
  // output readable; the parser has no recovery beyond bailing out.
  if (!HadError)
    Diags.error(tok().Loc, Message);
  HadError = true;
}

//===----------------------------------------------------------------------===//
// Host grammar: blocks and statements
//===----------------------------------------------------------------------===//

const Block *Parser::parseChunk() {
  const Block *B = parseBlock();
  if (!check(Tok::Eof))
    errorHere("expected end of file");
  return HadError ? nullptr : B;
}

bool Parser::blockFollow() {
  switch (tok().Kind) {
  case Tok::Eof:
  case Tok::KwEnd:
  case Tok::KwElse:
  case Tok::KwElseif:
  case Tok::KwUntil:
    return true;
  default:
    return false;
  }
}

const Block *Parser::parseBlock() {
  std::vector<const Stmt *> Stmts;
  tok();
  while (!blockFollow() && !HadError) {
    bool WasReturn = check(Tok::KwReturn);
    const Stmt *S = parseStatement();
    if (S)
      Stmts.push_back(S);
    accept(Tok::Semi);
    tok();
    if (WasReturn)
      break; // return ends a block.
  }
  auto *B = Ctx.arena().create<Block>();
  B->Stmts = Ctx.copyArray(Stmts);
  B->NumStmts = Stmts.size();
  return B;
}

const Stmt *Parser::parseStatement() {
  switch (tok().Kind) {
  case Tok::Semi:
    consume();
    return nullptr;
  case Tok::KwLocal:
    return parseLocal();
  case Tok::KwIf:
    return parseIf();
  case Tok::KwWhile:
    return parseWhile();
  case Tok::KwRepeat:
    return parseRepeat();
  case Tok::KwFor:
    return parseFor();
  case Tok::KwReturn:
    return parseReturn();
  case Tok::KwBreak: {
    auto *S = makeHost<BreakStmtL>(Ctx, tok().Loc);
    consume();
    return S;
  }
  case Tok::KwDo: {
    SourceLoc Loc = tok().Loc;
    consume();
    auto *S = makeHost<DoStmtL>(Ctx, Loc);
    S->Body = parseBlock();
    expect(Tok::KwEnd, "to close 'do' block");
    return S;
  }
  case Tok::KwFunction:
    return parseFunctionStmt(/*IsLocal=*/false);
  case Tok::KwTerra:
    return parseTerraStmtDecl(/*IsLocal=*/false);
  case Tok::KwStruct:
    return parseStructStmt(/*IsLocal=*/false);
  default:
    return parseExprStatement();
  }
}

const Stmt *Parser::parseLocal() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'local'
  if (check(Tok::KwFunction))
    return parseFunctionStmt(/*IsLocal=*/true);
  if (check(Tok::KwTerra))
    return parseTerraStmtDecl(/*IsLocal=*/true);
  if (check(Tok::KwStruct))
    return parseStructStmt(/*IsLocal=*/true);

  std::vector<const std::string *> Names;
  do {
    if (!check(Tok::Ident)) {
      errorHere("expected variable name after 'local'");
      return nullptr;
    }
    Names.push_back(intern(tok().Text));
    consume();
  } while (accept(Tok::Comma));

  std::vector<const Expr *> Inits;
  if (accept(Tok::Assign))
    Inits = parseExprList();

  auto *S = makeHost<LocalStmt>(Ctx, Loc);
  S->Names = Ctx.copyArray(Names);
  S->NumNames = Names.size();
  S->Inits = Ctx.copyArray(Inits);
  S->NumInits = Inits.size();
  return S;
}

const Stmt *Parser::parseIf() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'if'
  std::vector<const Expr *> Conds;
  std::vector<const Block *> Blocks;
  Conds.push_back(parseExpr());
  expect(Tok::KwThen, "after 'if' condition");
  Blocks.push_back(parseBlock());
  while (check(Tok::KwElseif)) {
    consume();
    Conds.push_back(parseExpr());
    expect(Tok::KwThen, "after 'elseif' condition");
    Blocks.push_back(parseBlock());
  }
  const Block *ElseBlock = nullptr;
  if (accept(Tok::KwElse))
    ElseBlock = parseBlock();
  expect(Tok::KwEnd, "to close 'if'");

  auto *S = makeHost<IfStmtL>(Ctx, Loc);
  S->Conds = Ctx.copyArray(Conds);
  S->Blocks = Ctx.copyArray(Blocks);
  S->NumClauses = Conds.size();
  S->ElseBlock = ElseBlock;
  return S;
}

const Stmt *Parser::parseWhile() {
  SourceLoc Loc = tok().Loc;
  consume();
  auto *S = makeHost<WhileStmtL>(Ctx, Loc);
  S->Cond = parseExpr();
  expect(Tok::KwDo, "after 'while' condition");
  S->Body = parseBlock();
  expect(Tok::KwEnd, "to close 'while'");
  return S;
}

const Stmt *Parser::parseRepeat() {
  SourceLoc Loc = tok().Loc;
  consume();
  auto *S = makeHost<RepeatStmtL>(Ctx, Loc);
  S->Body = parseBlock();
  expect(Tok::KwUntil, "to close 'repeat'");
  S->Until = parseExpr();
  return S;
}

const Stmt *Parser::parseFor() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'for'
  if (!check(Tok::Ident)) {
    errorHere("expected loop variable after 'for'");
    return nullptr;
  }
  if (check(Tok::Assign, 1)) {
    // Numeric for.
    auto *S = makeHost<NumericForStmtL>(Ctx, Loc);
    S->Var = intern(tok().Text);
    consume();
    consume(); // '='
    S->Lo = parseExpr();
    expect(Tok::Comma, "in numeric 'for'");
    S->Hi = parseExpr();
    if (accept(Tok::Comma))
      S->Step = parseExpr();
    expect(Tok::KwDo, "after 'for' header");
    S->Body = parseBlock();
    expect(Tok::KwEnd, "to close 'for'");
    return S;
  }
  // Generic for.
  std::vector<const std::string *> Names;
  Names.push_back(intern(tok().Text));
  consume();
  while (accept(Tok::Comma)) {
    if (!check(Tok::Ident)) {
      errorHere("expected name in 'for' list");
      return nullptr;
    }
    Names.push_back(intern(tok().Text));
    consume();
  }
  expect(Tok::KwIn, "in generic 'for'");
  auto *S = makeHost<GenericForStmtL>(Ctx, Loc);
  S->Names = Ctx.copyArray(Names);
  S->NumNames = Names.size();
  S->Iter = parseExpr();
  expect(Tok::KwDo, "after 'for' header");
  S->Body = parseBlock();
  expect(Tok::KwEnd, "to close 'for'");
  return S;
}

const Stmt *Parser::parseReturn() {
  SourceLoc Loc = tok().Loc;
  consume();
  auto *S = makeHost<ReturnStmtL>(Ctx, Loc);
  std::vector<const Expr *> Vals;
  if (!blockFollow() && !check(Tok::Semi))
    Vals = parseExprList();
  S->Vals = Ctx.copyArray(Vals);
  S->NumVals = Vals.size();
  return S;
}

const Stmt *Parser::parseFunctionStmt(bool IsLocal) {
  SourceLoc Loc = tok().Loc;
  consume(); // 'function'
  std::vector<const std::string *> Path;
  bool IsMethod = false;
  if (!check(Tok::Ident)) {
    errorHere("expected function name");
    return nullptr;
  }
  Path.push_back(intern(tok().Text));
  consume();
  while (accept(Tok::Dot)) {
    if (!check(Tok::Ident)) {
      errorHere("expected name after '.'");
      return nullptr;
    }
    Path.push_back(intern(tok().Text));
    consume();
  }
  if (accept(Tok::Colon)) {
    if (!check(Tok::Ident)) {
      errorHere("expected method name after ':'");
      return nullptr;
    }
    Path.push_back(intern(tok().Text));
    consume();
    IsMethod = true;
  }
  if (IsLocal && (Path.size() != 1 || IsMethod)) {
    errorHere("local function name must be a plain identifier");
    return nullptr;
  }
  const FunctionExpr *Fn = parseFunctionBody(Path.back(), IsMethod);
  auto *S = makeHost<FunctionDeclStmt>(Ctx, Loc);
  S->Path = Ctx.copyArray(Path);
  S->PathLen = Path.size();
  S->IsMethod = IsMethod;
  S->IsLocal = IsLocal;
  S->Fn = Fn;
  return S;
}

const FunctionExpr *Parser::parseFunctionBody(const std::string *DebugName,
                                              bool IsMethod) {
  SourceLoc Loc = tok().Loc;
  expect(Tok::LParen, "to begin parameter list");
  std::vector<const std::string *> Params;
  if (IsMethod)
    Params.push_back(intern("self")); // `function t:m(...)` sugar.
  if (!check(Tok::RParen)) {
    do {
      if (!check(Tok::Ident)) {
        errorHere("expected parameter name");
        break;
      }
      Params.push_back(intern(tok().Text));
      consume();
    } while (accept(Tok::Comma));
  }
  expect(Tok::RParen, "to close parameter list");
  const Block *Body = parseBlock();
  expect(Tok::KwEnd, "to close 'function'");

  auto *Fn = makeHost<FunctionExpr>(Ctx, Loc);
  Fn->Params = Ctx.copyArray(Params);
  Fn->NumParams = Params.size();
  Fn->Body = Body;
  Fn->DebugName = DebugName;
  return Fn;
}

const Stmt *Parser::parseTerraStmtDecl(bool IsLocal) {
  SourceLoc Loc = tok().Loc;
  consume(); // 'terra'
  std::vector<const std::string *> Path;
  bool IsMethod = false;
  if (!check(Tok::Ident)) {
    errorHere("expected terra function name");
    return nullptr;
  }
  Path.push_back(intern(tok().Text));
  consume();
  while (accept(Tok::Dot)) {
    if (!check(Tok::Ident)) {
      errorHere("expected name after '.'");
      return nullptr;
    }
    Path.push_back(intern(tok().Text));
    consume();
  }
  if (accept(Tok::Colon)) {
    if (!check(Tok::Ident)) {
      errorHere("expected method name after ':'");
      return nullptr;
    }
    Path.push_back(intern(tok().Text));
    consume();
    IsMethod = true;
  }
  if (IsLocal && (Path.size() != 1 || IsMethod)) {
    errorHere("local terra name must be a plain identifier");
    return nullptr;
  }
  const TerraFuncExpr *Fn = parseTerraFunctionRest(Path.back(), IsMethod);
  auto *S = makeHost<TerraDeclStmt>(Ctx, Loc);
  S->Path = Ctx.copyArray(Path);
  S->PathLen = Path.size();
  S->IsMethod = IsMethod;
  S->IsLocal = IsLocal;
  S->Fn = Fn;
  return S;
}

const Stmt *Parser::parseStructStmt(bool IsLocal) {
  SourceLoc Loc = tok().Loc;
  consume(); // 'struct'
  if (!check(Tok::Ident)) {
    errorHere("expected struct name");
    return nullptr;
  }
  const std::string *Name = intern(tok().Text);
  consume();
  const TerraStructExpr *Decl = parseStructBody(Name);
  auto *S = makeHost<StructDeclStmt>(Ctx, Loc);
  S->Name = Name;
  S->IsLocal = IsLocal;
  S->Decl = Decl;
  return S;
}

const Stmt *Parser::parseExprStatement() {
  SourceLoc Loc = tok().Loc;
  const Expr *First = parseSuffixedExpr();
  if (!First)
    return nullptr;
  if (check(Tok::Assign) || check(Tok::Comma)) {
    std::vector<const Expr *> Targets;
    Targets.push_back(First);
    while (accept(Tok::Comma))
      Targets.push_back(parseSuffixedExpr());
    expect(Tok::Assign, "in assignment");
    std::vector<const Expr *> Vals = parseExprList();
    auto *S = makeHost<AssignStmtL>(Ctx, Loc);
    S->Targets = Ctx.copyArray(Targets);
    S->NumTargets = Targets.size();
    S->Vals = Ctx.copyArray(Vals);
    S->NumVals = Vals.size();
    return S;
  }
  if (First->kind() != Expr::EK_Call && First->kind() != Expr::EK_MethodCall)
    errorHere("syntax error: expression is not a statement");
  auto *S = makeHost<ExprStmtL>(Ctx, Loc);
  S->E = First;
  return S;
}

//===----------------------------------------------------------------------===//
// Host grammar: expressions
//===----------------------------------------------------------------------===//

std::vector<const Expr *> Parser::parseExprList() {
  std::vector<const Expr *> Out;
  Out.push_back(parseExpr());
  while (accept(Tok::Comma))
    Out.push_back(parseExpr());
  return Out;
}

namespace {

struct HostOpInfo {
  LBinOp Op;
  unsigned Prec;
  bool RightAssoc;
};

bool hostBinOp(Tok Kind, HostOpInfo &Info) {
  switch (Kind) {
  case Tok::KwOr:
    Info = {LBinOp::Or, 1, false};
    return true;
  case Tok::KwAnd:
    Info = {LBinOp::And, 2, false};
    return true;
  case Tok::Arrow:
    // Terra function-type constructor `{int} -> int` (host-level operator).
    Info = {LBinOp::Concat /*unused*/, 3, true};
    return true;
  case Tok::Less:
    Info = {LBinOp::Lt, 4, false};
    return true;
  case Tok::LessEq:
    Info = {LBinOp::Le, 4, false};
    return true;
  case Tok::Greater:
    Info = {LBinOp::Gt, 4, false};
    return true;
  case Tok::GreaterEq:
    Info = {LBinOp::Ge, 4, false};
    return true;
  case Tok::EqEq:
    Info = {LBinOp::Eq, 4, false};
    return true;
  case Tok::NotEq:
    Info = {LBinOp::Ne, 4, false};
    return true;
  case Tok::DotDot:
    Info = {LBinOp::Concat, 5, true};
    return true;
  case Tok::Plus:
    Info = {LBinOp::Add, 6, false};
    return true;
  case Tok::Minus:
    Info = {LBinOp::Sub, 6, false};
    return true;
  case Tok::Star:
    Info = {LBinOp::Mul, 7, false};
    return true;
  case Tok::Slash:
    Info = {LBinOp::Div, 7, false};
    return true;
  case Tok::Percent:
    Info = {LBinOp::Mod, 7, false};
    return true;
  case Tok::Caret:
    Info = {LBinOp::Pow, 9, true};
    return true;
  default:
    return false;
  }
}

} // namespace

const Expr *Parser::parseExpr() { return parseBinExpr(0); }

const Expr *Parser::parseBinExpr(unsigned MinPrec) {
  const Expr *LHS = parseUnaryExpr();
  while (true) {
    HostOpInfo Info;
    if (!hostBinOp(tok().Kind, Info) || Info.Prec <= MinPrec)
      return LHS;
    bool IsArrow = check(Tok::Arrow);
    SourceLoc Loc = tok().Loc;
    consume();
    const Expr *RHS =
        parseBinExpr(Info.RightAssoc ? Info.Prec - 1 : Info.Prec);
    if (IsArrow) {
      // `a -> b` builds a Terra function type. Encode as a call to the
      // builtin __arrow so no dedicated node kind is needed.
      auto *Callee = makeHost<IdentExpr>(Ctx, Loc);
      Callee->Name = intern("__arrow");
      std::vector<const Expr *> Args = {LHS, RHS};
      auto *C = makeHost<CallExpr>(Ctx, Loc);
      C->Callee = Callee;
      C->Args = Ctx.copyArray(Args);
      C->NumArgs = 2;
      LHS = C;
      continue;
    }
    auto *B = makeHost<BinOpExprL>(Ctx, Loc);
    B->Op = Info.Op;
    B->LHS = LHS;
    B->RHS = RHS;
    LHS = B;
  }
}

const Expr *Parser::parseUnaryExpr() {
  SourceLoc Loc = tok().Loc;
  if (accept(Tok::KwNot)) {
    auto *U = makeHost<UnOpExprL>(Ctx, Loc);
    U->Op = LUnOp::Not;
    U->Operand = parseBinExpr(7);
    return U;
  }
  if (accept(Tok::Minus)) {
    auto *U = makeHost<UnOpExprL>(Ctx, Loc);
    U->Op = LUnOp::Neg;
    U->Operand = parseBinExpr(7);
    return U;
  }
  if (accept(Tok::Hash)) {
    auto *U = makeHost<UnOpExprL>(Ctx, Loc);
    U->Op = LUnOp::Len;
    U->Operand = parseBinExpr(7);
    return U;
  }
  if (accept(Tok::Amp)) {
    // Type-constructor: &T. Encoded as __pointer(T) builtin call.
    auto *Callee = makeHost<IdentExpr>(Ctx, Loc);
    Callee->Name = intern("__pointer");
    std::vector<const Expr *> Args = {parseBinExpr(7)};
    auto *C = makeHost<CallExpr>(Ctx, Loc);
    C->Callee = Callee;
    C->Args = Ctx.copyArray(Args);
    C->NumArgs = 1;
    return C;
  }
  return parseSuffixedExpr();
}

const Expr *Parser::parseSuffixedExpr() {
  const Expr *E = parsePrimaryExpr();
  if (!E)
    return nullptr;
  while (true) {
    SourceLoc Loc = tok().Loc;
    if (accept(Tok::Dot)) {
      if (!check(Tok::Ident)) {
        errorHere("expected field name after '.'");
        return E;
      }
      auto *S = makeHost<SelectExprL>(Ctx, Loc);
      S->Base = E;
      S->Name = intern(tok().Text);
      consume();
      E = S;
      continue;
    }
    if (check(Tok::LBracket) && !tok().AfterNewline) {
      // A '[' on a fresh line starts an escape statement, not an index.
      consume();
      auto *I = makeHost<IndexExprL>(Ctx, Loc);
      I->Base = E;
      I->Key = parseExpr();
      expect(Tok::RBracket, "to close index");
      E = I;
      continue;
    }
    if (check(Tok::Colon) && check(Tok::Ident, 1)) {
      const std::string *Method = intern(tok(1).Text);
      consume();
      consume();
      std::vector<const Expr *> Args;
      if (accept(Tok::LParen)) {
        if (!check(Tok::RParen))
          Args = parseExprList();
        expect(Tok::RParen, "to close method call arguments");
      } else if (check(Tok::LBrace)) {
        Args.push_back(parseTableCtor());
      } else if (check(Tok::String)) {
        auto *SE = makeHost<StringExpr>(Ctx, tok().Loc);
        SE->Val = intern(tok().Text);
        consume();
        Args.push_back(SE);
      } else {
        errorHere("expected arguments after method name");
        return E;
      }
      auto *M = makeHost<MethodCallExprL>(Ctx, Loc);
      M->Obj = E;
      M->Method = Method;
      M->Args = Ctx.copyArray(Args);
      M->NumArgs = Args.size();
      E = M;
      continue;
    }
    if (check(Tok::LParen)) {
      consume();
      std::vector<const Expr *> Args;
      if (!check(Tok::RParen))
        Args = parseExprList();
      expect(Tok::RParen, "to close call arguments");
      auto *C = makeHost<CallExpr>(Ctx, Loc);
      C->Callee = E;
      C->Args = Ctx.copyArray(Args);
      C->NumArgs = Args.size();
      E = C;
      continue;
    }
    if (check(Tok::LBrace)) {
      // Call-with-table sugar: f{...}.
      std::vector<const Expr *> Args = {parseTableCtor()};
      auto *C = makeHost<CallExpr>(Ctx, Loc);
      C->Callee = E;
      C->Args = Ctx.copyArray(Args);
      C->NumArgs = 1;
      E = C;
      continue;
    }
    if (check(Tok::String)) {
      // Call-with-string sugar: f"...".
      auto *SE = makeHost<StringExpr>(Ctx, tok().Loc);
      SE->Val = intern(tok().Text);
      consume();
      std::vector<const Expr *> Args = {SE};
      auto *C = makeHost<CallExpr>(Ctx, Loc);
      C->Callee = E;
      C->Args = Ctx.copyArray(Args);
      C->NumArgs = 1;
      E = C;
      continue;
    }
    return E;
  }
}

const Expr *Parser::parsePrimaryExpr() {
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case Tok::KwNil: {
    consume();
    return makeHost<NilExpr>(Ctx, Loc);
  }
  case Tok::KwTrue:
  case Tok::KwFalse: {
    auto *B = makeHost<BoolExpr>(Ctx, Loc);
    B->Val = check(Tok::KwTrue);
    consume();
    return B;
  }
  case Tok::Number: {
    auto *N = makeHost<NumberExpr>(Ctx, Loc);
    N->Val = tok().Num;
    consume();
    return N;
  }
  case Tok::String: {
    auto *S = makeHost<StringExpr>(Ctx, Loc);
    S->Val = intern(tok().Text);
    consume();
    return S;
  }
  case Tok::Ident: {
    auto *I = makeHost<IdentExpr>(Ctx, Loc);
    I->Name = intern(tok().Text);
    consume();
    return I;
  }
  case Tok::LParen: {
    consume();
    const Expr *E = parseExpr();
    expect(Tok::RParen, "to close parenthesized expression");
    return E;
  }
  case Tok::LBrace:
    return parseTableCtor();
  case Tok::KwFunction: {
    consume();
    return parseFunctionBody(nullptr);
  }
  case Tok::KwTerra: {
    consume();
    return parseTerraFunctionRest(nullptr, /*IsMethod=*/false);
  }
  case Tok::KwQuote: {
    consume();
    auto *Q = makeHost<TerraQuoteExpr>(Ctx, Loc);
    Q->Stmts = parseTerraBlock();
    expect(Tok::KwEnd, "to close 'quote'");
    return Q;
  }
  case Tok::Backtick: {
    consume();
    auto *Q = makeHost<TerraQuoteExpr>(Ctx, Loc);
    Q->ExprTree = parseTerraExpr();
    return Q;
  }
  case Tok::KwStruct: {
    consume();
    const std::string *Name = nullptr;
    if (check(Tok::Ident)) {
      Name = intern(tok().Text);
      consume();
    }
    return parseStructBody(Name);
  }
  default:
    errorHere("unexpected token in expression");
    consume();
    return nullptr;
  }
}

const Expr *Parser::parseTableCtor() {
  SourceLoc Loc = tok().Loc;
  expect(Tok::LBrace, "to begin table constructor");
  std::vector<TableExpr::Item> Items;
  while (!check(Tok::RBrace) && !HadError) {
    TableExpr::Item Item{nullptr, nullptr, nullptr};
    if (check(Tok::LBracket)) {
      consume();
      Item.KeyExpr = parseExpr();
      expect(Tok::RBracket, "to close table key");
      expect(Tok::Assign, "after table key");
      Item.Val = parseExpr();
    } else if (check(Tok::Ident) && check(Tok::Assign, 1)) {
      Item.KeyName = intern(tok().Text);
      consume();
      consume();
      Item.Val = parseExpr();
    } else {
      Item.Val = parseExpr();
    }
    Items.push_back(Item);
    if (!accept(Tok::Comma) && !accept(Tok::Semi))
      break;
  }
  expect(Tok::RBrace, "to close table constructor");
  auto *T = makeHost<TableExpr>(Ctx, Loc);
  T->Items = Ctx.copyArray(Items);
  T->NumItems = Items.size();
  return T;
}

//===----------------------------------------------------------------------===//
// Terra grammar: function literals, structs, blocks
//===----------------------------------------------------------------------===//

const TerraFuncExpr *Parser::parseTerraFunctionRest(const std::string *Name,
                                                    bool IsMethod) {
  SourceLoc Loc = tok().Loc;
  expect(Tok::LParen, "to begin terra parameter list");
  std::vector<TerraParamDecl> Params;
  if (!check(Tok::RParen)) {
    do {
      TerraParamDecl P;
      if (check(Tok::LBracket)) {
        consume();
        P.NameEscape = parseEscapeBody();
        expect(Tok::RBracket, "to close parameter escape");
        if (accept(Tok::Colon))
          P.TypeExpr = parseExpr();
      } else if (check(Tok::Ident)) {
        P.Name = intern(tok().Text);
        consume();
        expect(Tok::Colon, "after terra parameter name");
        P.TypeExpr = parseExpr();
      } else {
        errorHere("expected parameter in terra function");
        break;
      }
      Params.push_back(P);
    } while (accept(Tok::Comma));
  }
  expect(Tok::RParen, "to close terra parameter list");
  const Expr *RetTy = nullptr;
  if (accept(Tok::Colon))
    RetTy = parseExpr();
  BlockStmt *Body = parseTerraBlock();
  expect(Tok::KwEnd, "to close 'terra'");

  auto *Fn = makeHost<TerraFuncExpr>(Ctx, Loc);
  Fn->Params = Ctx.copyArray(Params);
  Fn->NumParams = Params.size();
  Fn->RetTypeExpr = RetTy;
  Fn->Body = Body;
  Fn->DebugName = Name;
  Fn->IsMethod = IsMethod;
  return Fn;
}

const TerraStructExpr *Parser::parseStructBody(const std::string *Name) {
  SourceLoc Loc = tok().Loc;
  expect(Tok::LBrace, "to begin struct body");
  std::vector<TerraStructExpr::FieldDecl> Fields;
  while (!check(Tok::RBrace) && !HadError) {
    if (!check(Tok::Ident)) {
      errorHere("expected field name in struct");
      break;
    }
    TerraStructExpr::FieldDecl F;
    F.Name = intern(tok().Text);
    consume();
    expect(Tok::Colon, "after struct field name");
    F.TypeExpr = parseExpr();
    Fields.push_back(F);
    if (!accept(Tok::Semi) && !accept(Tok::Comma))
      break;
  }
  expect(Tok::RBrace, "to close struct body");
  auto *S = makeHost<TerraStructExpr>(Ctx, Loc);
  S->DebugName = Name;
  S->Fields = Ctx.copyArray(Fields);
  S->NumFields = Fields.size();
  return S;
}

bool Parser::terraBlockFollow() {
  switch (tok().Kind) {
  case Tok::Eof:
  case Tok::KwEnd:
  case Tok::KwElse:
  case Tok::KwElseif:
  case Tok::KwUntil:
    return true;
  default:
    return false;
  }
}

BlockStmt *Parser::parseTerraBlock() {
  std::vector<TerraStmt *> Stmts;
  tok();
  while (!terraBlockFollow() && !HadError) {
    if (accept(Tok::Semi)) {
      tok();
      continue;
    }
    bool WasReturn = check(Tok::KwReturn);
    TerraStmt *S = parseTerraStatement();
    if (S)
      Stmts.push_back(S);
    accept(Tok::Semi);
    tok();
    if (WasReturn)
      break;
  }
  auto *B = Ctx.make<BlockStmt>();
  B->Stmts = Ctx.copyArray(Stmts);
  B->NumStmts = Stmts.size();
  return B;
}

TerraStmt *Parser::parseTerraStatement() {
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case Tok::KwVar:
    return parseTerraVar();
  case Tok::KwIf:
    return parseTerraIf();
  case Tok::KwWhile:
    return parseTerraWhile();
  case Tok::KwFor:
    return parseTerraFor();
  case Tok::KwReturn: {
    consume();
    auto *S = Ctx.make<ReturnStmt>(Loc);
    if (!terraBlockFollow() && !check(Tok::Semi))
      S->Val = parseTerraExpr();
    return S;
  }
  case Tok::KwBreak: {
    consume();
    return Ctx.make<BreakStmt>(Loc);
  }
  case Tok::KwDo: {
    consume();
    BlockStmt *B = parseTerraBlock();
    expect(Tok::KwEnd, "to close 'do'");
    return B;
  }
  case Tok::LBracket: {
    // Either an escape statement `[e]` or an assignment/expression whose
    // first expression starts with an escape.
    consume();
    const Expr *Host = parseEscapeBody();
    expect(Tok::RBracket, "to close escape");
    // A suffix token on the same line continues an expression/assignment; a
    // new line means this was a standalone escape statement.
    if (tok().AfterNewline && tok().Kind != Tok::Assign &&
        tok().Kind != Tok::Comma) {
      auto *S = Ctx.make<EscapeStmt>(Loc);
      S->Host = Host;
      return S;
    }
    switch (tok().Kind) {
    case Tok::Dot:
    case Tok::LBracket:
    case Tok::LParen:
    case Tok::LBrace:
    case Tok::Colon:
    case Tok::Assign:
    case Tok::Comma: {
      auto *E = Ctx.make<EscapeExpr>(Loc);
      E->Host = Host;
      // The escape is the primary of a larger expression statement or
      // assignment; hand it to the suffix/assignment parser.
      return parseTerraExprOrAssign(E);
    }
    default: {
      auto *S = Ctx.make<EscapeStmt>(Loc);
      S->Host = Host;
      return S;
    }
    }
  }
  default:
    return parseTerraExprOrAssign(nullptr);
  }
}

TerraStmt *Parser::parseTerraVar() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'var'
  std::vector<VarDeclName> Names;
  do {
    VarDeclName N;
    if (check(Tok::LBracket)) {
      consume();
      N.NameEscape = parseEscapeBody();
      expect(Tok::RBracket, "to close name escape");
    } else if (check(Tok::Ident)) {
      N.Name = intern(tok().Text);
      consume();
    } else {
      errorHere("expected variable name after 'var'");
      return nullptr;
    }
    if (accept(Tok::Colon))
      N.Ty = TypeRef::fromExpr(parseExpr());
    Names.push_back(N);
  } while (accept(Tok::Comma));

  std::vector<TerraExpr *> Inits;
  if (accept(Tok::Assign)) {
    Inits.push_back(parseTerraExpr());
    while (accept(Tok::Comma))
      Inits.push_back(parseTerraExpr());
  }
  auto *S = Ctx.make<VarDeclStmt>(Loc);
  S->Names = Ctx.copyArray(Names);
  S->NumNames = Names.size();
  S->Inits = Ctx.copyArray(Inits);
  S->NumInits = Inits.size();
  return S;
}

TerraStmt *Parser::parseTerraIf() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'if'
  std::vector<TerraExpr *> Conds;
  std::vector<BlockStmt *> Blocks;
  Conds.push_back(parseTerraExpr());
  expect(Tok::KwThen, "after 'if' condition");
  Blocks.push_back(parseTerraBlock());
  while (check(Tok::KwElseif)) {
    consume();
    Conds.push_back(parseTerraExpr());
    expect(Tok::KwThen, "after 'elseif' condition");
    Blocks.push_back(parseTerraBlock());
  }
  BlockStmt *ElseBlock = nullptr;
  if (accept(Tok::KwElse))
    ElseBlock = parseTerraBlock();
  expect(Tok::KwEnd, "to close 'if'");
  auto *S = Ctx.make<IfStmt>(Loc);
  S->Conds = Ctx.copyArray(Conds);
  S->Blocks = Ctx.copyArray(Blocks);
  S->NumClauses = Conds.size();
  S->ElseBlock = ElseBlock;
  return S;
}

TerraStmt *Parser::parseTerraWhile() {
  SourceLoc Loc = tok().Loc;
  consume();
  auto *S = Ctx.make<WhileStmt>(Loc);
  S->Cond = parseTerraExpr();
  expect(Tok::KwDo, "after 'while' condition");
  S->Body = parseTerraBlock();
  expect(Tok::KwEnd, "to close 'while'");
  return S;
}

TerraStmt *Parser::parseTerraFor() {
  SourceLoc Loc = tok().Loc;
  consume(); // 'for'
  auto *S = Ctx.make<ForNumStmt>(Loc);
  if (check(Tok::LBracket)) {
    consume();
    S->Var.NameEscape = parseEscapeBody();
    expect(Tok::RBracket, "to close loop-variable escape");
  } else if (check(Tok::Ident)) {
    S->Var.Name = intern(tok().Text);
    consume();
  } else {
    errorHere("expected loop variable after 'for'");
    return nullptr;
  }
  expect(Tok::Assign, "in terra 'for'");
  S->Lo = parseTerraExpr();
  expect(Tok::Comma, "in terra 'for'");
  S->Hi = parseTerraExpr();
  if (accept(Tok::Comma))
    S->Step = parseTerraExpr();
  expect(Tok::KwDo, "after 'for' header");
  S->Body = parseTerraBlock();
  expect(Tok::KwEnd, "to close 'for'");
  return S;
}

/// Parses an expression statement or assignment. If \p First is non-null it
/// is an already-parsed primary (an escape) whose suffixes still need
/// parsing.
TerraStmt *Parser::parseTerraExprOrAssign(TerraExpr *First) {
  SourceLoc Loc = tok().Loc;
  TerraExpr *E;
  if (First) {
    // Parse remaining suffixes for the pre-built primary.
    E = First;
    while (true) {
      SourceLoc SLoc = tok().Loc;
      if (accept(Tok::Dot)) {
        auto *Sel = Ctx.make<SelectExpr>(SLoc);
        Sel->Base = E;
        if (check(Tok::LBracket)) {
          consume();
          Sel->FieldEscape = parseEscapeBody();
          expect(Tok::RBracket, "to close field escape");
        } else if (check(Tok::Ident)) {
          Sel->Field = intern(tok().Text);
          consume();
        } else {
          errorHere("expected field name after '.'");
          return nullptr;
        }
        E = Sel;
        continue;
      }
      if (check(Tok::LBracket) && !tok().AfterNewline) {
        consume();
        auto *I = Ctx.make<IndexExpr>(SLoc);
        I->Base = E;
        I->Idx = parseTerraExpr();
        expect(Tok::RBracket, "to close index");
        E = I;
        continue;
      }
      if (check(Tok::LParen)) {
        consume();
        std::vector<TerraExpr *> Args;
        if (!check(Tok::RParen)) {
          Args.push_back(parseTerraExpr());
          while (accept(Tok::Comma))
            Args.push_back(parseTerraExpr());
        }
        expect(Tok::RParen, "to close call");
        auto *A = Ctx.make<ApplyExpr>(SLoc);
        A->Callee = E;
        A->Args = Ctx.copyArray(Args);
        A->NumArgs = Args.size();
        E = A;
        continue;
      }
      break;
    }
  } else {
    E = parseTerraExpr();
  }
  if (!E)
    return nullptr;
  if (check(Tok::Assign) || check(Tok::Comma)) {
    std::vector<TerraExpr *> LHS;
    LHS.push_back(E);
    while (accept(Tok::Comma))
      LHS.push_back(parseTerraExpr());
    expect(Tok::Assign, "in terra assignment");
    std::vector<TerraExpr *> RHS;
    RHS.push_back(parseTerraExpr());
    while (accept(Tok::Comma))
      RHS.push_back(parseTerraExpr());
    auto *S = Ctx.make<AssignStmt>(Loc);
    S->LHS = Ctx.copyArray(LHS);
    S->NumLHS = LHS.size();
    S->RHS = Ctx.copyArray(RHS);
    S->NumRHS = RHS.size();
    return S;
  }
  auto *S = Ctx.make<ExprStmt>(Loc);
  S->E = E;
  return S;
}

//===----------------------------------------------------------------------===//
// Terra grammar: expressions
//===----------------------------------------------------------------------===//

const Expr *Parser::parseEscapeBody() { return parseExpr(); }

namespace {

struct TerraOpInfo {
  BinOpKind Op;
  unsigned Prec;
};

bool terraBinOp(Tok Kind, TerraOpInfo &Info) {
  switch (Kind) {
  case Tok::KwOr:
    Info = {BinOpKind::Or, 1};
    return true;
  case Tok::KwAnd:
    Info = {BinOpKind::And, 2};
    return true;
  case Tok::Less:
    Info = {BinOpKind::Lt, 3};
    return true;
  case Tok::LessEq:
    Info = {BinOpKind::Le, 3};
    return true;
  case Tok::Greater:
    Info = {BinOpKind::Gt, 3};
    return true;
  case Tok::GreaterEq:
    Info = {BinOpKind::Ge, 3};
    return true;
  case Tok::EqEq:
    Info = {BinOpKind::Eq, 3};
    return true;
  case Tok::NotEq:
    Info = {BinOpKind::Ne, 3};
    return true;
  case Tok::Shl:
    Info = {BinOpKind::Shl, 4};
    return true;
  case Tok::Shr:
    Info = {BinOpKind::Shr, 4};
    return true;
  case Tok::Plus:
    Info = {BinOpKind::Add, 5};
    return true;
  case Tok::Minus:
    Info = {BinOpKind::Sub, 5};
    return true;
  case Tok::Star:
    Info = {BinOpKind::Mul, 6};
    return true;
  case Tok::Slash:
    Info = {BinOpKind::Div, 6};
    return true;
  case Tok::Percent:
    Info = {BinOpKind::Mod, 6};
    return true;
  default:
    return false;
  }
}

} // namespace

TerraExpr *Parser::parseTerraExpr() { return parseTerraBinExpr(0); }

TerraExpr *Parser::parseTerraBinExpr(unsigned MinPrec) {
  TerraExpr *LHS = parseTerraUnaryExpr();
  while (true) {
    TerraOpInfo Info;
    if (!terraBinOp(tok().Kind, Info) || Info.Prec <= MinPrec)
      return LHS;
    SourceLoc Loc = tok().Loc;
    consume();
    TerraExpr *RHS = parseTerraBinExpr(Info.Prec);
    auto *B = Ctx.make<BinOpExpr>(Loc);
    B->Op = Info.Op;
    B->LHS = LHS;
    B->RHS = RHS;
    LHS = B;
  }
}

TerraExpr *Parser::parseTerraUnaryExpr() {
  SourceLoc Loc = tok().Loc;
  UnOpKind Op;
  if (check(Tok::KwNot))
    Op = UnOpKind::Not;
  else if (check(Tok::Minus))
    Op = UnOpKind::Neg;
  else if (check(Tok::Amp))
    Op = UnOpKind::AddrOf;
  else if (check(Tok::At))
    Op = UnOpKind::Deref;
  else
    return parseTerraSuffixedExpr();
  consume();
  auto *U = Ctx.make<UnOpExpr>(Loc);
  U->Op = Op;
  U->Operand = parseTerraBinExpr(6); // Unary binds tighter than * /.
  return U;
}

TerraExpr *Parser::parseTerraSuffixedExpr() {
  TerraExpr *E = parseTerraPrimaryExpr();
  if (!E)
    return nullptr;
  while (true) {
    SourceLoc Loc = tok().Loc;
    if (accept(Tok::Dot)) {
      auto *S = Ctx.make<SelectExpr>(Loc);
      S->Base = E;
      if (check(Tok::LBracket)) {
        consume();
        S->FieldEscape = parseEscapeBody();
        expect(Tok::RBracket, "to close field escape");
      } else if (check(Tok::Ident)) {
        S->Field = intern(tok().Text);
        consume();
      } else {
        errorHere("expected field name after '.'");
        return E;
      }
      E = S;
      continue;
    }
    if (check(Tok::LBracket) && !tok().AfterNewline) {
      consume();
      auto *I = Ctx.make<IndexExpr>(Loc);
      I->Base = E;
      I->Idx = parseTerraExpr();
      expect(Tok::RBracket, "to close index");
      E = I;
      continue;
    }
    if (check(Tok::Colon) && check(Tok::Ident, 1)) {
      const std::string *Method = intern(tok(1).Text);
      consume();
      consume();
      expect(Tok::LParen, "after method name");
      std::vector<TerraExpr *> Args;
      if (!check(Tok::RParen)) {
        Args.push_back(parseTerraExpr());
        while (accept(Tok::Comma))
          Args.push_back(parseTerraExpr());
      }
      expect(Tok::RParen, "to close method call");
      auto *M = Ctx.make<MethodCallExpr>(Loc);
      M->Obj = E;
      M->Method = Method;
      M->Args = Ctx.copyArray(Args);
      M->NumArgs = Args.size();
      E = M;
      continue;
    }
    if (check(Tok::LParen)) {
      consume();
      std::vector<TerraExpr *> Args;
      if (!check(Tok::RParen)) {
        Args.push_back(parseTerraExpr());
        while (accept(Tok::Comma))
          Args.push_back(parseTerraExpr());
      }
      expect(Tok::RParen, "to close call");
      auto *A = Ctx.make<ApplyExpr>(Loc);
      A->Callee = E;
      A->Args = Ctx.copyArray(Args);
      A->NumArgs = Args.size();
      E = A;
      continue;
    }
    if (check(Tok::LBrace)) {
      // Struct constructor: T { inits }.
      consume();
      std::vector<TerraExpr *> Inits;
      std::vector<const std::string *> FieldNames;
      while (!check(Tok::RBrace) && !HadError) {
        if (check(Tok::Ident) && check(Tok::Assign, 1)) {
          FieldNames.push_back(intern(tok().Text));
          consume();
          consume();
        } else {
          FieldNames.push_back(nullptr);
        }
        Inits.push_back(parseTerraExpr());
        if (!accept(Tok::Comma) && !accept(Tok::Semi))
          break;
      }
      expect(Tok::RBrace, "to close constructor");
      auto *C = Ctx.make<ConstructorExpr>(Loc);
      C->TypeCallee = E;
      C->Inits = Ctx.copyArray(Inits);
      C->FieldNames = Ctx.copyArray(FieldNames);
      C->NumInits = Inits.size();
      E = C;
      continue;
    }
    return E;
  }
}

TerraExpr *Parser::parseTerraPrimaryExpr() {
  SourceLoc Loc = tok().Loc;
  switch (tok().Kind) {
  case Tok::Number: {
    auto *L = Ctx.make<LitExpr>(Loc);
    const Token &T = tok();
    if (T.Suffix == NumSuffix::F) {
      L->LK = LitExpr::LK_Float;
      L->FloatVal = T.Num;
      L->IntVal = 32; // Width tag: float32 (resolved by specializer).
    } else if (T.Suffix == NumSuffix::LL) {
      L->LK = LitExpr::LK_Int;
      L->IntVal = T.IsInt ? static_cast<int64_t>(T.Bits)
                          : static_cast<int64_t>(T.Num);
      L->FloatVal = 64;
    } else if (T.Suffix == NumSuffix::ULL) {
      L->LK = LitExpr::LK_Int;
      L->IntVal = T.IsInt ? static_cast<int64_t>(T.Bits)
                          : static_cast<int64_t>(T.Num);
      L->FloatVal = -64; // Negative width tag: unsigned 64.
    } else if (T.IsInt) {
      L->LK = LitExpr::LK_Int;
      L->IntVal = static_cast<int64_t>(T.Bits);
      L->FloatVal = 0; // Default int.
    } else {
      L->LK = LitExpr::LK_Float;
      L->FloatVal = T.Num;
      L->IntVal = 64; // float64.
    }
    consume();
    return L;
  }
  case Tok::String: {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_String;
    L->StrVal = intern(tok().Text);
    consume();
    return L;
  }
  case Tok::KwTrue:
  case Tok::KwFalse: {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Bool;
    L->BoolVal = check(Tok::KwTrue);
    consume();
    return L;
  }
  case Tok::KwNil: {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Pointer;
    L->PtrVal = nullptr;
    consume();
    return L;
  }
  case Tok::Ident: {
    auto *V = Ctx.make<VarExpr>(Loc);
    V->Name = intern(tok().Text);
    consume();
    return V;
  }
  case Tok::LParen: {
    consume();
    TerraExpr *E = parseTerraExpr();
    expect(Tok::RParen, "to close parenthesized expression");
    return E;
  }
  case Tok::LBracket: {
    consume();
    auto *E = Ctx.make<EscapeExpr>(Loc);
    E->Host = parseEscapeBody();
    expect(Tok::RBracket, "to close escape");
    return E;
  }
  default:
    errorHere("unexpected token in terra expression");
    consume();
    return nullptr;
  }
}
