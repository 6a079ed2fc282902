//===- Lexer.h - Tokenizer for the combined Lua/Terra language --*- C++ -*-===//
//
// One lexer serves both languages; the parser decides which grammar a token
// stream region belongs to. Terra-only reserved words (`terra`, `quote`,
// `struct`, `var`) are reserved globally, as in the real implementation.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_LEXER_H
#define TERRACPP_CORE_LEXER_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <string>

namespace terracpp {

enum class Tok : uint8_t {
  Eof,
  Error,
  Ident,
  Number,
  String,
  // Keywords.
  KwAnd,
  KwBreak,
  KwDo,
  KwElse,
  KwElseif,
  KwEnd,
  KwFalse,
  KwFor,
  KwFunction,
  KwIf,
  KwIn,
  KwLocal,
  KwNil,
  KwNot,
  KwOr,
  KwRepeat,
  KwReturn,
  KwThen,
  KwTrue,
  KwUntil,
  KwWhile,
  KwTerra,
  KwQuote,
  KwStruct,
  KwVar,
  // Punctuation / operators.
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Caret,
  Hash,
  EqEq,
  NotEq, // ~=
  LessEq,
  GreaterEq,
  Less,
  Greater,
  Shl, // <<
  Shr, // >>
  Assign,
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semi,
  Colon,
  Comma,
  Dot,
  DotDot,
  Ellipsis,
  Amp,      // &
  At,       // @
  Backtick, // `
  Arrow,    // ->
};

/// Suffix attached to a numeric literal, Terra-style.
enum class NumSuffix : uint8_t { None, F, LL, ULL };

struct Token {
  Tok Kind = Tok::Eof;
  /// True when at least one newline separates this token from the previous
  /// one. Used to disambiguate `a[i]` indexing from a `[e]` escape starting
  /// a new statement (and Lua's ambiguous-call case).
  bool AfterNewline = false;
  SourceLoc Loc;
  std::string Text;   ///< Identifier name or decoded string contents.
  double Num = 0;     ///< Numeric value.
  uint64_t Bits = 0;  ///< Exact value of an integer literal (IsInt).
  bool IsInt = false; ///< Literal had no '.', exponent, or hex float.
  NumSuffix Suffix = NumSuffix::None;
};

const char *tokenKindName(Tok Kind);

class Lexer {
public:
  Lexer(const std::string &Src, uint32_t BufferId, DiagnosticEngine &Diags);

  /// Lexes and returns the next token.
  Token next();

private:
  SourceLoc here() const;
  char cur() const { return Pos < Src.size() ? Src[Pos] : '\0'; }
  char peek(size_t N = 1) const {
    return Pos + N < Src.size() ? Src[Pos + N] : '\0';
  }
  void advance();
  void skipTrivia();
  bool skipLongBracket(); ///< --[[ ... ]] style comments/strings.
  Token lexOne();
  Token lexNumber();
  Token lexString(char Quote);
  Token lexIdent();
  Token makeSimple(Tok Kind, unsigned Len);

  const std::string &Src;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
  uint32_t BufferId;
  bool SawNewline = false;
  DiagnosticEngine &Diags;
};

} // namespace terracpp

#endif // TERRACPP_CORE_LEXER_H
