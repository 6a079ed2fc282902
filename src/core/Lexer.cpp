#include "core/Lexer.h"

#include <cctype>
#include <cstdlib>
#include <unordered_map>

using namespace terracpp;

const char *terracpp::tokenKindName(Tok Kind) {
  switch (Kind) {
  case Tok::Eof:
    return "<eof>";
  case Tok::Error:
    return "<error>";
  case Tok::Ident:
    return "identifier";
  case Tok::Number:
    return "number";
  case Tok::String:
    return "string";
  case Tok::KwAnd:
    return "and";
  case Tok::KwBreak:
    return "break";
  case Tok::KwDo:
    return "do";
  case Tok::KwElse:
    return "else";
  case Tok::KwElseif:
    return "elseif";
  case Tok::KwEnd:
    return "end";
  case Tok::KwFalse:
    return "false";
  case Tok::KwFor:
    return "for";
  case Tok::KwFunction:
    return "function";
  case Tok::KwIf:
    return "if";
  case Tok::KwIn:
    return "in";
  case Tok::KwLocal:
    return "local";
  case Tok::KwNil:
    return "nil";
  case Tok::KwNot:
    return "not";
  case Tok::KwOr:
    return "or";
  case Tok::KwRepeat:
    return "repeat";
  case Tok::KwReturn:
    return "return";
  case Tok::KwThen:
    return "then";
  case Tok::KwTrue:
    return "true";
  case Tok::KwUntil:
    return "until";
  case Tok::KwWhile:
    return "while";
  case Tok::KwTerra:
    return "terra";
  case Tok::KwQuote:
    return "quote";
  case Tok::KwStruct:
    return "struct";
  case Tok::KwVar:
    return "var";
  case Tok::Plus:
    return "+";
  case Tok::Minus:
    return "-";
  case Tok::Star:
    return "*";
  case Tok::Slash:
    return "/";
  case Tok::Percent:
    return "%";
  case Tok::Caret:
    return "^";
  case Tok::Hash:
    return "#";
  case Tok::EqEq:
    return "==";
  case Tok::NotEq:
    return "~=";
  case Tok::LessEq:
    return "<=";
  case Tok::GreaterEq:
    return ">=";
  case Tok::Less:
    return "<";
  case Tok::Greater:
    return ">";
  case Tok::Shl:
    return "<<";
  case Tok::Shr:
    return ">>";
  case Tok::Assign:
    return "=";
  case Tok::LParen:
    return "(";
  case Tok::RParen:
    return ")";
  case Tok::LBrace:
    return "{";
  case Tok::RBrace:
    return "}";
  case Tok::LBracket:
    return "[";
  case Tok::RBracket:
    return "]";
  case Tok::Semi:
    return ";";
  case Tok::Colon:
    return ":";
  case Tok::Comma:
    return ",";
  case Tok::Dot:
    return ".";
  case Tok::DotDot:
    return "..";
  case Tok::Ellipsis:
    return "...";
  case Tok::Amp:
    return "&";
  case Tok::At:
    return "@";
  case Tok::Backtick:
    return "`";
  case Tok::Arrow:
    return "->";
  }
  return "?";
}

Lexer::Lexer(const std::string &Src, uint32_t BufferId, DiagnosticEngine &Diags)
    : Src(Src), BufferId(BufferId), Diags(Diags) {}

SourceLoc Lexer::here() const { return {BufferId, Line, Col}; }

void Lexer::advance() {
  if (Pos >= Src.size())
    return;
  if (Src[Pos] == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  ++Pos;
}

bool Lexer::skipLongBracket() {
  // At '[': check for [=*[ ... ]=*].
  size_t Save = Pos;
  uint32_t SaveLine = Line, SaveCol = Col;
  advance(); // '['
  unsigned Level = 0;
  while (cur() == '=') {
    ++Level;
    advance();
  }
  if (cur() != '[') {
    Pos = Save;
    Line = SaveLine;
    Col = SaveCol;
    return false;
  }
  advance();
  // Scan for matching close.
  while (Pos < Src.size()) {
    if (cur() == ']') {
      size_t P = Pos + 1;
      unsigned L = 0;
      while (P < Src.size() && Src[P] == '=') {
        ++L;
        ++P;
      }
      if (L == Level && P < Src.size() && Src[P] == ']') {
        while (Pos <= P)
          advance();
        return true;
      }
    }
    advance();
  }
  Diags.error(here(), "unterminated long comment");
  return true;
}

void Lexer::skipTrivia() {
  while (true) {
    char C = cur();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      if (C == '\n')
        SawNewline = true;
      advance();
      continue;
    }
    if (C == '-' && peek() == '-') {
      advance();
      advance();
      if (cur() == '[' && skipLongBracket())
        continue;
      while (cur() != '\n' && cur() != '\0')
        advance();
      continue;
    }
    break;
  }
}

Token Lexer::makeSimple(Tok Kind, unsigned Len) {
  Token T;
  T.Kind = Kind;
  T.Loc = here();
  for (unsigned I = 0; I != Len; ++I)
    advance();
  return T;
}

Token Lexer::lexNumber() {
  Token T;
  T.Kind = Tok::Number;
  T.Loc = here();
  size_t Start = Pos;
  bool IsInt = true;
  if (cur() == '0' && (peek() == 'x' || peek() == 'X')) {
    advance();
    advance();
    while (isxdigit(static_cast<unsigned char>(cur())))
      advance();
    T.Bits = strtoull(Src.substr(Start, Pos - Start).c_str(), nullptr, 16);
    T.Num = static_cast<double>(T.Bits);
  } else {
    while (isdigit(static_cast<unsigned char>(cur())))
      advance();
    if (cur() == '.' && peek() != '.') { // Don't eat '..' concat.
      IsInt = false;
      advance();
      while (isdigit(static_cast<unsigned char>(cur())))
        advance();
    }
    if (cur() == 'e' || cur() == 'E') {
      IsInt = false;
      advance();
      if (cur() == '+' || cur() == '-')
        advance();
      while (isdigit(static_cast<unsigned char>(cur())))
        advance();
    }
    T.Num = strtod(Src.substr(Start, Pos - Start).c_str(), nullptr);
    if (IsInt) // Past 2^53 a double drops low bits; int64 literals keep them.
      T.Bits = strtoull(Src.substr(Start, Pos - Start).c_str(), nullptr, 10);
  }
  T.IsInt = IsInt;
  // Terra-style suffixes: f (float), LL (int64), ULL (uint64).
  if (cur() == 'f') {
    advance();
    T.Suffix = NumSuffix::F;
    T.IsInt = false;
  } else if (cur() == 'L' && peek() == 'L') {
    advance();
    advance();
    T.Suffix = NumSuffix::LL;
  } else if (cur() == 'U' && peek() == 'L' && peek(2) == 'L') {
    advance();
    advance();
    advance();
    T.Suffix = NumSuffix::ULL;
  }
  return T;
}

Token Lexer::lexString(char Quote) {
  Token T;
  T.Kind = Tok::String;
  T.Loc = here();
  advance(); // Opening quote.
  std::string Out;
  while (cur() != Quote) {
    char C = cur();
    if (C == '\0' || C == '\n') {
      Diags.error(T.Loc, "unterminated string literal");
      T.Kind = Tok::Error;
      return T;
    }
    if (C == '\\') {
      advance();
      char E = cur();
      switch (E) {
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case '0':
        Out += '\0';
        break;
      case '\\':
        Out += '\\';
        break;
      case '\'':
        Out += '\'';
        break;
      case '"':
        Out += '"';
        break;
      default:
        Diags.error(here(), std::string("unknown escape sequence '\\") + E +
                                "' in string");
        break;
      }
      advance();
      continue;
    }
    Out += C;
    advance();
  }
  advance(); // Closing quote.
  T.Text = std::move(Out);
  return T;
}

Token Lexer::lexIdent() {
  Token T;
  T.Loc = here();
  size_t Start = Pos;
  while (isalnum(static_cast<unsigned char>(cur())) || cur() == '_')
    advance();
  T.Text = Src.substr(Start, Pos - Start);
  static const std::unordered_map<std::string, Tok> Keywords = {
      {"and", Tok::KwAnd},       {"break", Tok::KwBreak},
      {"do", Tok::KwDo},         {"else", Tok::KwElse},
      {"elseif", Tok::KwElseif}, {"end", Tok::KwEnd},
      {"false", Tok::KwFalse},   {"for", Tok::KwFor},
      {"function", Tok::KwFunction},
      {"if", Tok::KwIf},         {"in", Tok::KwIn},
      {"local", Tok::KwLocal},   {"nil", Tok::KwNil},
      {"not", Tok::KwNot},       {"or", Tok::KwOr},
      {"repeat", Tok::KwRepeat}, {"return", Tok::KwReturn},
      {"then", Tok::KwThen},     {"true", Tok::KwTrue},
      {"until", Tok::KwUntil},   {"while", Tok::KwWhile},
      {"terra", Tok::KwTerra},   {"quote", Tok::KwQuote},
      {"struct", Tok::KwStruct}, {"var", Tok::KwVar},
  };
  auto It = Keywords.find(T.Text);
  T.Kind = It != Keywords.end() ? It->second : Tok::Ident;
  return T;
}

Token Lexer::next() {
  SawNewline = false;
  skipTrivia();
  Token Result = lexOne();
  Result.AfterNewline = SawNewline;
  return Result;
}

Token Lexer::lexOne() {
  char C = cur();
  if (C == '\0') {
    Token T;
    T.Kind = Tok::Eof;
    T.Loc = here();
    return T;
  }
  if (isdigit(static_cast<unsigned char>(C)) ||
      (C == '.' && isdigit(static_cast<unsigned char>(peek()))))
    return lexNumber();
  if (isalpha(static_cast<unsigned char>(C)) || C == '_')
    return lexIdent();
  if (C == '"' || C == '\'')
    return lexString(C);

  switch (C) {
  case '+':
    return makeSimple(Tok::Plus, 1);
  case '-':
    if (peek() == '>')
      return makeSimple(Tok::Arrow, 2);
    return makeSimple(Tok::Minus, 1);
  case '*':
    return makeSimple(Tok::Star, 1);
  case '/':
    return makeSimple(Tok::Slash, 1);
  case '%':
    return makeSimple(Tok::Percent, 1);
  case '^':
    return makeSimple(Tok::Caret, 1);
  case '#':
    return makeSimple(Tok::Hash, 1);
  case '=':
    if (peek() == '=')
      return makeSimple(Tok::EqEq, 2);
    return makeSimple(Tok::Assign, 1);
  case '~':
    if (peek() == '=')
      return makeSimple(Tok::NotEq, 2);
    break;
  case '<':
    if (peek() == '=')
      return makeSimple(Tok::LessEq, 2);
    if (peek() == '<')
      return makeSimple(Tok::Shl, 2);
    return makeSimple(Tok::Less, 1);
  case '>':
    if (peek() == '=')
      return makeSimple(Tok::GreaterEq, 2);
    if (peek() == '>')
      return makeSimple(Tok::Shr, 2);
    return makeSimple(Tok::Greater, 1);
  case '(':
    return makeSimple(Tok::LParen, 1);
  case ')':
    return makeSimple(Tok::RParen, 1);
  case '{':
    return makeSimple(Tok::LBrace, 1);
  case '}':
    return makeSimple(Tok::RBrace, 1);
  case '[':
    return makeSimple(Tok::LBracket, 1);
  case ']':
    return makeSimple(Tok::RBracket, 1);
  case ';':
    return makeSimple(Tok::Semi, 1);
  case ':':
    return makeSimple(Tok::Colon, 1);
  case ',':
    return makeSimple(Tok::Comma, 1);
  case '.':
    if (peek() == '.' && peek(2) == '.')
      return makeSimple(Tok::Ellipsis, 3);
    if (peek() == '.')
      return makeSimple(Tok::DotDot, 2);
    return makeSimple(Tok::Dot, 1);
  case '&':
    return makeSimple(Tok::Amp, 1);
  case '@':
    return makeSimple(Tok::At, 1);
  case '`':
    return makeSimple(Tok::Backtick, 1);
  default:
    break;
  }
  Diags.error(here(), std::string("unexpected character '") + C + "'");
  Token T = makeSimple(Tok::Error, 1);
  return T;
}
