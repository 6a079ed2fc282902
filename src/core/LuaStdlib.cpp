#include "core/LuaStdlib.h"

#include "core/Libc.h"
#include "core/LuaInterp.h"
#include "core/TerraCompiler.h"
#include "core/TerraType.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace terracpp;
using namespace terracpp::lua;

namespace {

void defineGlobal(Interp &I, const char *Name, Value V) {
  I.globalEnv()->define(I.terraCtx().intern(Name), std::move(V));
}

Value builtin(const char *Name, BuiltinImpl Impl) {
  return Value::builtin(Name, std::move(Impl));
}

bool argError(Interp &I, SourceLoc Loc, const char *Fn, const char *What) {
  return I.fail(Loc, std::string("bad argument to '") + Fn + "': " + What);
}

//===----------------------------------------------------------------------===//
// Core library
//===----------------------------------------------------------------------===//

void installCore(Interp &I) {
  defineGlobal(I, "print",
               builtin("print", [](Interp &In, std::vector<Value> &Args,
                                   std::vector<Value> &, SourceLoc) {
                 std::string Line;
                 for (size_t K = 0; K != Args.size(); ++K) {
                   if (K)
                     Line += "\t";
                   Line += toDisplayString(Args[K]);
                 }
                 printf("%s\n", Line.c_str());
                 return true;
               }));
  defineGlobal(I, "type",
               builtin("type", [](Interp &In, std::vector<Value> &Args,
                                  std::vector<Value> &Res, SourceLoc L) {
                 if (Args.empty())
                   return argError(In, L, "type", "expected a value");
                 Res.push_back(Value::string(Args[0].typeName()));
                 return true;
               }));
  defineGlobal(I, "tostring",
               builtin("tostring", [](Interp &In, std::vector<Value> &Args,
                                      std::vector<Value> &Res, SourceLoc L) {
                 if (Args.empty())
                   return argError(In, L, "tostring", "expected a value");
                 if (Args[0].isTable()) {
                   if (std::shared_ptr<Table> Meta = Args[0].asTable()->meta()) {
                     Value H = Meta->getStr("__tostring");
                     if (!H.isNil())
                       return In.call(H, {Args[0]}, Res, L);
                   }
                 }
                 Res.push_back(Value::string(toDisplayString(Args[0])));
                 return true;
               }));
  defineGlobal(I, "tonumber",
               builtin("tonumber", [](Interp &, std::vector<Value> &Args,
                                      std::vector<Value> &Res, SourceLoc) {
                 if (!Args.empty() && Args[0].isNumber()) {
                   Res.push_back(Args[0]);
                   return true;
                 }
                 if (!Args.empty() && Args[0].isString()) {
                   char *End = nullptr;
                   double V = strtod(Args[0].asString().c_str(), &End);
                   if (End && *End == '\0') {
                     Res.push_back(Value::number(V));
                     return true;
                   }
                 }
                 Res.push_back(Value::nil());
                 return true;
               }));
  defineGlobal(I, "error",
               builtin("error", [](Interp &In, std::vector<Value> &Args,
                                   std::vector<Value> &, SourceLoc L) {
                 std::string Msg = Args.empty() ? "error"
                                                : toDisplayString(Args[0]);
                 In.fail(L, Msg);
                 return false;
               }));
  defineGlobal(I, "assert",
               builtin("assert", [](Interp &In, std::vector<Value> &Args,
                                    std::vector<Value> &Res, SourceLoc L) {
                 if (Args.empty() || !Args[0].isTruthy()) {
                   std::string Msg = Args.size() > 1
                                         ? toDisplayString(Args[1])
                                         : "assertion failed!";
                   In.fail(L, Msg);
                   return false;
                 }
                 Res = Args;
                 return true;
               }));
  defineGlobal(I, "pairs",
               builtin("pairs", [](Interp &In, std::vector<Value> &Args,
                                   std::vector<Value> &Res, SourceLoc L) {
                 if (Args.empty() || !Args[0].isTable())
                   return argError(In, L, "pairs", "expected a table");
                 auto Snapshot = std::make_shared<
                     std::vector<std::pair<Value, Value>>>(
                     Args[0].asTable()->entries());
                 auto Pos = std::make_shared<size_t>(0);
                 Res.push_back(builtin(
                     "pairs.iter",
                     [Snapshot, Pos](Interp &, std::vector<Value> &,
                                     std::vector<Value> &R2, SourceLoc) {
                       if (*Pos >= Snapshot->size()) {
                         R2.push_back(Value::nil());
                         return true;
                       }
                       R2.push_back((*Snapshot)[*Pos].first);
                       R2.push_back((*Snapshot)[*Pos].second);
                       ++*Pos;
                       return true;
                     }));
                 Res.push_back(Args[0]);
                 Res.push_back(Value::nil());
                 return true;
               }));
  defineGlobal(I, "ipairs",
               builtin("ipairs", [](Interp &In, std::vector<Value> &Args,
                                    std::vector<Value> &Res, SourceLoc L) {
                 if (Args.empty() || !Args[0].isTable())
                   return argError(In, L, "ipairs", "expected a table");
                 auto Tbl = Args[0].tablePtr();
                 auto Pos = std::make_shared<int64_t>(0);
                 Res.push_back(builtin(
                     "ipairs.iter",
                     [Tbl, Pos](Interp &, std::vector<Value> &,
                                std::vector<Value> &R2, SourceLoc) {
                       ++*Pos;
                       Value V = Tbl->getInt(*Pos);
                       if (V.isNil()) {
                         R2.push_back(Value::nil());
                         return true;
                       }
                       R2.push_back(Value::number(
                           static_cast<double>(*Pos)));
                       R2.push_back(V);
                       return true;
                     }));
                 Res.push_back(Args[0]);
                 Res.push_back(Value::nil());
                 return true;
               }));
  defineGlobal(I, "unpack",
               builtin("unpack", [](Interp &In, std::vector<Value> &Args,
                                    std::vector<Value> &Res, SourceLoc L) {
                 if (Args.empty() || !Args[0].isTable())
                   return argError(In, L, "unpack", "expected a table");
                 Table *T = Args[0].asTable();
                 int64_t N = T->arrayLength();
                 for (int64_t K = 1; K <= N; ++K)
                   Res.push_back(T->getInt(K));
                 return true;
               }));
  defineGlobal(I, "setmetatable",
               builtin("setmetatable", [](Interp &In, std::vector<Value> &Args,
                                          std::vector<Value> &Res,
                                          SourceLoc L) {
                 if (Args.size() < 2 || !Args[0].isTable())
                   return argError(In, L, "setmetatable", "expected a table");
                 if (Args[1].isNil())
                   Args[0].asTable()->setMeta(nullptr);
                 else if (Args[1].isTable())
                   Args[0].asTable()->setMeta(Args[1].tablePtr());
                 else
                   return argError(In, L, "setmetatable",
                                   "metatable must be a table or nil");
                 Res.push_back(Args[0]);
                 return true;
               }));
  defineGlobal(I, "getmetatable",
               builtin("getmetatable", [](Interp &In, std::vector<Value> &Args,
                                          std::vector<Value> &Res,
                                          SourceLoc L) {
                 if (Args.empty() || !Args[0].isTable())
                   return argError(In, L, "getmetatable", "expected a table");
                 std::shared_ptr<Table> M = Args[0].asTable()->meta();
                 Res.push_back(M ? Value::table(M) : Value::nil());
                 return true;
               }));
}

//===----------------------------------------------------------------------===//
// math / string / table / os / io
//===----------------------------------------------------------------------===//

Value numFn1(const char *Name, double (*Fn)(double)) {
  return builtin(Name, [Name, Fn](Interp &In, std::vector<Value> &Args,
                                  std::vector<Value> &Res, SourceLoc L) {
    if (Args.empty() || !Args[0].isNumber())
      return argError(In, L, Name, "expected a number");
    Res.push_back(Value::number(Fn(Args[0].asNumber())));
    return true;
  });
}

void installMath(Interp &I) {
  auto M = std::make_shared<Table>();
  M->setStr("floor", numFn1("floor", [](double X) { return std::floor(X); }));
  M->setStr("ceil", numFn1("ceil", [](double X) { return std::ceil(X); }));
  M->setStr("sqrt", numFn1("sqrt", [](double X) { return std::sqrt(X); }));
  M->setStr("abs", numFn1("abs", [](double X) { return std::fabs(X); }));
  M->setStr("exp", numFn1("exp", [](double X) { return std::exp(X); }));
  M->setStr("log", numFn1("log", [](double X) { return std::log(X); }));
  M->setStr("sin", numFn1("sin", [](double X) { return std::sin(X); }));
  M->setStr("cos", numFn1("cos", [](double X) { return std::cos(X); }));
  M->setStr("huge", Value::number(HUGE_VAL));
  M->setStr("pi", Value::number(M_PI));
  M->setStr("max", builtin("max", [](Interp &In, std::vector<Value> &Args,
                                     std::vector<Value> &Res, SourceLoc L) {
              if (Args.empty())
                return argError(In, L, "max", "expected numbers");
              double Best = -HUGE_VAL;
              for (const Value &V : Args) {
                if (!V.isNumber())
                  return argError(In, L, "max", "expected numbers");
                Best = std::max(Best, V.asNumber());
              }
              Res.push_back(Value::number(Best));
              return true;
            }));
  M->setStr("min", builtin("min", [](Interp &In, std::vector<Value> &Args,
                                     std::vector<Value> &Res, SourceLoc L) {
              if (Args.empty())
                return argError(In, L, "min", "expected numbers");
              double Best = HUGE_VAL;
              for (const Value &V : Args) {
                if (!V.isNumber())
                  return argError(In, L, "min", "expected numbers");
                Best = std::min(Best, V.asNumber());
              }
              Res.push_back(Value::number(Best));
              return true;
            }));
  M->setStr("pow", builtin("pow", [](Interp &In, std::vector<Value> &Args,
                                     std::vector<Value> &Res, SourceLoc L) {
              if (Args.size() < 2 || !Args[0].isNumber() || !Args[1].isNumber())
                return argError(In, L, "pow", "expected two numbers");
              Res.push_back(
                  Value::number(std::pow(Args[0].asNumber(),
                                         Args[1].asNumber())));
              return true;
            }));
  M->setStr("fmod", builtin("fmod", [](Interp &In, std::vector<Value> &Args,
                                       std::vector<Value> &Res, SourceLoc L) {
              if (Args.size() < 2 || !Args[0].isNumber() || !Args[1].isNumber())
                return argError(In, L, "fmod", "expected two numbers");
              Res.push_back(
                  Value::number(std::fmod(Args[0].asNumber(),
                                          Args[1].asNumber())));
              return true;
            }));
  // Deterministic LCG so benchmarks and tests are reproducible.
  auto Seed = std::make_shared<uint64_t>(0x2545F4914F6CDD1Dull);
  M->setStr("randomseed",
            builtin("randomseed", [Seed](Interp &, std::vector<Value> &Args,
                                         std::vector<Value> &, SourceLoc) {
              if (!Args.empty() && Args[0].isNumber())
                *Seed = static_cast<uint64_t>(Args[0].asNumber()) * 2654435761u +
                        1;
              return true;
            }));
  M->setStr("random",
            builtin("random", [Seed](Interp &In, std::vector<Value> &Args,
                                     std::vector<Value> &Res, SourceLoc L) {
              *Seed = *Seed * 6364136223846793005ull + 1442695040888963407ull;
              double U = static_cast<double>((*Seed >> 11) & ((1ull << 53) - 1)) /
                         static_cast<double>(1ull << 53);
              if (Args.empty()) {
                Res.push_back(Value::number(U));
                return true;
              }
              if (Args.size() == 1 && Args[0].isNumber()) {
                double N = Args[0].asNumber();
                Res.push_back(Value::number(1 + std::floor(U * N)));
                return true;
              }
              if (Args.size() >= 2 && Args[0].isNumber() && Args[1].isNumber()) {
                double Lo = Args[0].asNumber(), Hi = Args[1].asNumber();
                Res.push_back(Value::number(Lo + std::floor(U * (Hi - Lo + 1))));
                return true;
              }
              return argError(In, L, "random", "expected numeric bounds");
            }));
  defineGlobal(I, "math", Value::table(M));
}

void installString(Interp &I) {
  auto S = std::make_shared<Table>();
  S->setStr("len", builtin("len", [](Interp &In, std::vector<Value> &Args,
                                     std::vector<Value> &Res, SourceLoc L) {
              if (Args.empty() || !Args[0].isString())
                return argError(In, L, "len", "expected a string");
              Res.push_back(Value::number(
                  static_cast<double>(Args[0].asString().size())));
              return true;
            }));
  S->setStr("rep", builtin("rep", [](Interp &In, std::vector<Value> &Args,
                                     std::vector<Value> &Res, SourceLoc L) {
              if (Args.size() < 2 || !Args[0].isString() || !Args[1].isNumber())
                return argError(In, L, "rep", "expected string, count");
              std::string Out;
              for (int K = 0; K < Args[1].asNumber(); ++K)
                Out += Args[0].asString();
              Res.push_back(Value::string(Out));
              return true;
            }));
  S->setStr("sub", builtin("sub", [](Interp &In, std::vector<Value> &Args,
                                     std::vector<Value> &Res, SourceLoc L) {
              if (Args.empty() || !Args[0].isString())
                return argError(In, L, "sub", "expected a string");
              const std::string &Str = Args[0].asString();
              int64_t Lo = Args.size() > 1 && Args[1].isNumber()
                               ? static_cast<int64_t>(Args[1].asNumber())
                               : 1;
              int64_t Hi = Args.size() > 2 && Args[2].isNumber()
                               ? static_cast<int64_t>(Args[2].asNumber())
                               : -1;
              int64_t N = static_cast<int64_t>(Str.size());
              if (Lo < 0)
                Lo = std::max<int64_t>(N + Lo + 1, 1);
              if (Lo < 1)
                Lo = 1;
              if (Hi < 0)
                Hi = N + Hi + 1;
              if (Hi > N)
                Hi = N;
              Res.push_back(Value::string(
                  Lo > Hi ? "" : Str.substr(Lo - 1, Hi - Lo + 1)));
              return true;
            }));
  S->setStr("upper", builtin("upper", [](Interp &In, std::vector<Value> &Args,
                                         std::vector<Value> &Res, SourceLoc L) {
              if (Args.empty() || !Args[0].isString())
                return argError(In, L, "upper", "expected a string");
              std::string Out = Args[0].asString();
              for (char &C : Out)
                C = toupper(static_cast<unsigned char>(C));
              Res.push_back(Value::string(Out));
              return true;
            }));
  S->setStr("format",
            builtin("format", [](Interp &In, std::vector<Value> &Args,
                                 std::vector<Value> &Res, SourceLoc L) {
              if (Args.empty() || !Args[0].isString())
                return argError(In, L, "format", "expected a format string");
              const std::string &Fmt = Args[0].asString();
              std::string Out;
              size_t ArgI = 1;
              for (size_t K = 0; K < Fmt.size(); ++K) {
                if (Fmt[K] != '%') {
                  Out += Fmt[K];
                  continue;
                }
                size_t Start = K++;
                if (K < Fmt.size() && Fmt[K] == '%') {
                  Out += '%';
                  continue;
                }
                while (K < Fmt.size() &&
                       !strchr("diufgexXsc", Fmt[K]))
                  ++K;
                if (K >= Fmt.size())
                  break;
                std::string Spec = Fmt.substr(Start, K - Start + 1);
                char Buf[256];
                if (ArgI >= Args.size())
                  return argError(In, L, "format", "missing argument");
                const Value &A = Args[ArgI++];
                switch (Fmt[K]) {
                case 'd':
                case 'i':
                case 'u':
                case 'x':
                case 'X': {
                  if (!A.isNumber())
                    return argError(In, L, "format", "expected a number");
                  std::string S2 = Spec.substr(0, Spec.size() - 1) + "lld";
                  if (Fmt[K] == 'x' || Fmt[K] == 'X')
                    S2 = Spec.substr(0, Spec.size() - 1) +
                         (Fmt[K] == 'x' ? "llx" : "llX");
                  snprintf(Buf, sizeof(Buf), S2.c_str(),
                           static_cast<long long>(A.asNumber()));
                  Out += Buf;
                  break;
                }
                case 'f':
                case 'g':
                case 'e': {
                  if (!A.isNumber())
                    return argError(In, L, "format", "expected a number");
                  snprintf(Buf, sizeof(Buf), Spec.c_str(), A.asNumber());
                  Out += Buf;
                  break;
                }
                case 's':
                  Out += toDisplayString(A);
                  break;
                case 'c':
                  if (A.isNumber())
                    Out += static_cast<char>(A.asNumber());
                  break;
                }
              }
              Res.push_back(Value::string(Out));
              return true;
            }));
  defineGlobal(I, "string", Value::table(S));
}

void installTableLib(Interp &I) {
  auto T = std::make_shared<Table>();
  T->setStr("insert",
            builtin("insert", [](Interp &In, std::vector<Value> &Args,
                                 std::vector<Value> &, SourceLoc L) {
              if (Args.empty() || !Args[0].isTable())
                return argError(In, L, "insert", "expected a table");
              Table *Tbl = Args[0].asTable();
              if (Args.size() == 2) {
                Tbl->append(Args[1]);
                return true;
              }
              if (Args.size() >= 3 && Args[1].isNumber()) {
                int64_t Pos = static_cast<int64_t>(Args[1].asNumber());
                int64_t N = Tbl->arrayLength();
                for (int64_t K = N; K >= Pos; --K)
                  Tbl->setInt(K + 1, Tbl->getInt(K));
                Tbl->setInt(Pos, Args[2]);
                return true;
              }
              return argError(In, L, "insert", "invalid arguments");
            }));
  T->setStr("remove",
            builtin("remove", [](Interp &In, std::vector<Value> &Args,
                                 std::vector<Value> &Res, SourceLoc L) {
              if (Args.empty() || !Args[0].isTable())
                return argError(In, L, "remove", "expected a table");
              Table *Tbl = Args[0].asTable();
              int64_t N = Tbl->arrayLength();
              if (N == 0) {
                Res.push_back(Value::nil());
                return true;
              }
              int64_t Pos = Args.size() > 1 && Args[1].isNumber()
                                ? static_cast<int64_t>(Args[1].asNumber())
                                : N;
              Value Removed = Tbl->getInt(Pos);
              for (int64_t K = Pos; K < N; ++K)
                Tbl->setInt(K, Tbl->getInt(K + 1));
              Tbl->setInt(N, Value::nil());
              Res.push_back(Removed);
              return true;
            }));
  T->setStr("concat",
            builtin("concat", [](Interp &In, std::vector<Value> &Args,
                                 std::vector<Value> &Res, SourceLoc L) {
              if (Args.empty() || !Args[0].isTable())
                return argError(In, L, "concat", "expected a table");
              std::string Sep = Args.size() > 1 && Args[1].isString()
                                    ? Args[1].asString()
                                    : "";
              Table *Tbl = Args[0].asTable();
              int64_t N = Tbl->arrayLength();
              std::string Out;
              for (int64_t K = 1; K <= N; ++K) {
                if (K > 1)
                  Out += Sep;
                Out += toDisplayString(Tbl->getInt(K));
              }
              Res.push_back(Value::string(Out));
              return true;
            }));
  T->setStr("sort",
            builtin("sort", [](Interp &In, std::vector<Value> &Args,
                               std::vector<Value> &, SourceLoc L) {
              if (Args.empty() || !Args[0].isTable())
                return argError(In, L, "sort", "expected a table");
              Table *Tbl = Args[0].asTable();
              int64_t N = Tbl->arrayLength();
              std::vector<Value> Items;
              for (int64_t K = 1; K <= N; ++K)
                Items.push_back(Tbl->getInt(K));
              bool OK = true;
              std::stable_sort(Items.begin(), Items.end(),
                               [&](const Value &A, const Value &B) {
                                 if (A.isNumber() && B.isNumber())
                                   return A.asNumber() < B.asNumber();
                                 if (A.isString() && B.isString())
                                   return A.asString() < B.asString();
                                 OK = false;
                                 return false;
                               });
              if (!OK)
                return argError(In, L, "sort", "unsortable values");
              for (int64_t K = 1; K <= N; ++K)
                Tbl->setInt(K, Items[K - 1]);
              return true;
            }));
  defineGlobal(I, "table", Value::table(T));
}

void installOsIo(Interp &I) {
  auto Os = std::make_shared<Table>();
  Os->setStr("clock", builtin("clock", [](Interp &, std::vector<Value> &,
                                          std::vector<Value> &Res, SourceLoc) {
                static Timer T;
                Res.push_back(Value::number(T.seconds()));
                return true;
              }));
  defineGlobal(I, "os", Value::table(Os));

  auto Io = std::make_shared<Table>();
  Io->setStr("write", builtin("write", [](Interp &, std::vector<Value> &Args,
                                          std::vector<Value> &, SourceLoc) {
                for (const Value &V : Args)
                  fputs(toDisplayString(V).c_str(), stdout);
                return true;
              }));
  defineGlobal(I, "io", Value::table(Io));
}

//===----------------------------------------------------------------------===//
// Terra surface: types, symbol, global, vector, ->, &
//===----------------------------------------------------------------------===//

void installTerraTypes(Interp &I, TerraCompiler &Comp) {
  TypeContext &TC = I.terraCtx().types();
  defineGlobal(I, "bool", Value::type(TC.boolType()));
  defineGlobal(I, "int8", Value::type(TC.int8()));
  defineGlobal(I, "int16", Value::type(TC.int16()));
  defineGlobal(I, "int32", Value::type(TC.int32()));
  defineGlobal(I, "int64", Value::type(TC.int64()));
  defineGlobal(I, "uint8", Value::type(TC.uint8()));
  defineGlobal(I, "uint16", Value::type(TC.uint16()));
  defineGlobal(I, "uint32", Value::type(TC.uint32()));
  defineGlobal(I, "uint64", Value::type(TC.uint64()));
  defineGlobal(I, "int", Value::type(TC.int32()));
  defineGlobal(I, "uint", Value::type(TC.uint32()));
  defineGlobal(I, "long", Value::type(TC.int64()));
  defineGlobal(I, "float", Value::type(TC.float32()));
  defineGlobal(I, "double", Value::type(TC.float64()));
  defineGlobal(I, "rawstring", Value::type(TC.rawstring()));
  defineGlobal(I, "opaque", Value::type(TC.uint8()));

  defineGlobal(I, "vector",
               builtin("vector", [](Interp &In, std::vector<Value> &Args,
                                    std::vector<Value> &Res, SourceLoc L) {
                 if (Args.size() != 2 || !Args[0].isType() ||
                     !Args[1].isNumber())
                   return argError(In, L, "vector", "expected (type, length)");
                 Type *E = Args[0].asType();
                 auto N = static_cast<uint64_t>(Args[1].asNumber());
                 if (!E->isArithmetic() && !E->isBool())
                   return argError(In, L, "vector",
                                   "element must be an arithmetic type");
                 if (N == 0 || (N & (N - 1)) != 0)
                   return argError(In, L, "vector",
                                   "length must be a power of two");
                 Res.push_back(Value::type(In.terraCtx().types().vector(E, N)));
                 return true;
               }));

  defineGlobal(I, "__pointer",
               builtin("__pointer", [](Interp &In, std::vector<Value> &Args,
                                       std::vector<Value> &Res, SourceLoc L) {
                 if (Args.size() != 1)
                   return argError(In, L, "&", "expected a type");
                 Type *T = Args[0].isType() ? Args[0].asType()
                                            : In.valueAsType(Args[0]);
                 if (!T)
                   return argError(In, L, "&", "operand is not a terra type");
                 Res.push_back(Value::type(In.terraCtx().types().pointer(T)));
                 return true;
               }));

  defineGlobal(
      I, "__arrow",
      builtin("__arrow", [](Interp &In, std::vector<Value> &Args,
                            std::vector<Value> &Res, SourceLoc L) {
        if (Args.size() != 2)
          return argError(In, L, "->", "expected parameter and return types");
        std::vector<Type *> Params;
        if (Args[0].isType()) {
          Params.push_back(Args[0].asType());
        } else if (Args[0].isTable()) {
          Table *T = Args[0].asTable();
          int64_t N = T->arrayLength();
          for (int64_t K = 1; K <= N; ++K) {
            Value V = T->getInt(K);
            if (!V.isType())
              return argError(In, L, "->", "parameter list contains a "
                                           "non-type");
            Params.push_back(V.asType());
          }
        } else {
          return argError(In, L, "->", "invalid parameter list");
        }
        Type *R = In.valueAsType(Args[1]);
        if (!R)
          return argError(In, L, "->", "invalid return type");
        Res.push_back(Value::type(
            In.terraCtx().types().function(std::move(Params), R)));
        return true;
      }));

  defineGlobal(I, "symbol",
               builtin("symbol", [](Interp &In, std::vector<Value> &Args,
                                    std::vector<Value> &Res, SourceLoc L) {
                 Type *T = nullptr;
                 const std::string *Name = nullptr;
                 for (const Value &A : Args) {
                   if (A.isType())
                     T = A.asType();
                   else if (A.isString())
                     Name = In.terraCtx().intern(A.asString());
                   else
                     return argError(In, L, "symbol",
                                     "expected optional type and name");
                 }
                 if (!Name)
                   Name = In.terraCtx().intern("sym");
                 Res.push_back(
                     Value::symbol(In.terraCtx().freshSymbol(Name, T)));
                 return true;
               }));

  TerraCompiler *CompP = &Comp;
  defineGlobal(I, "global",
               builtin("global", [CompP](Interp &In, std::vector<Value> &Args,
                                         std::vector<Value> &Res,
                                         SourceLoc L) {
                 if (Args.empty() || !Args[0].isType())
                   return argError(In, L, "global", "expected (type [, init])");
                 Type *T = Args[0].asType();
                 if (auto *ST = dyn_cast<StructType>(T))
                   if (!CompP->typechecker().completeStruct(ST, L))
                     return false;
                 TerraGlobal *G =
                     In.terraCtx().createGlobal("global", T);
                 if (Args.size() > 1 &&
                     !CompP->marshalValue(Args[1], T, G->Storage, L))
                   return false;
                 Res.push_back(Value::global(G));
                 return true;
               }));

  // Terra intrinsics surfaced as host builtins; the specializer intercepts
  // them in call position inside terra code. Called from host code, sizeof
  // returns the byte size; prefetch is an error.
  defineGlobal(I, "sizeof",
               builtin("sizeof", [CompP](Interp &In, std::vector<Value> &Args,
                                         std::vector<Value> &Res,
                                         SourceLoc L) {
                 if (Args.size() != 1 || !Args[0].isType())
                   return argError(In, L, "sizeof", "expected a terra type");
                 Type *T = Args[0].asType();
                 if (auto *ST = dyn_cast<StructType>(T))
                   if (!CompP->typechecker().completeStruct(ST, L))
                     return false;
                 Res.push_back(Value::number(static_cast<double>(T->size())));
                 return true;
               }));
  defineGlobal(I, "prefetch",
               builtin("prefetch", [](Interp &In, std::vector<Value> &,
                                      std::vector<Value> &, SourceLoc L) {
                 return In.fail(L, "prefetch is only usable inside terra "
                                   "code");
               }));
}

//===----------------------------------------------------------------------===//
// terralib
//===----------------------------------------------------------------------===//

void installTerralib(Interp &I, TerraCompiler &Comp) {
  auto TL = std::make_shared<Table>();
  TerraCompiler *CompP = &Comp;

  TL->setStr(
      "includec",
      builtin("includec", [CompP](Interp &In, std::vector<Value> &Args,
                                  std::vector<Value> &Res, SourceLoc L) {
        if (Args.empty() || !Args[0].isString())
          return argError(In, L, "includec", "expected a header name");
        const std::string &Header = Args[0].asString();
        auto Out = std::make_shared<Table>();
        bool Known = false;
        for (const libc::Function &C : libc::table()) {
          if (Header != C.Header)
            continue;
          Out->setStr(C.Name, Value::terraFn(CompP->createExtern(C)));
          Known = true;
        }
        if (!Known)
          return In.fail(L, "includec: header '" + Header +
                                "' is not in the offline registry "
                                "(available: " +
                                libc::headerList() + ")");
        Res.push_back(Value::table(std::move(Out)));
        return true;
      }));

  TL->setStr(
      "cast",
      builtin("cast", [CompP](Interp &In, std::vector<Value> &Args,
                              std::vector<Value> &Res, SourceLoc L) {
        if (Args.size() != 2 || !Args[0].isType())
          return argError(In, L, "terralib.cast", "expected (type, value)");
        auto *FnTy = dyn_cast<FunctionType>(Args[0].asType());
        if (FnTy && Args[1].isClosure()) {
          // Wrap a Lua function as a Terra function (paper §4.2).
          TerraFunction *F = CompP->wrapHostClosure(
              Args[1].closurePtr(), FnTy,
              Args[1].asClosure()->Name.empty() ? "luafn"
                                                : Args[1].asClosure()->Name);
          Res.push_back(Value::terraFn(F));
          return true;
        }
        // Value cast: marshal through the FFI into a typed cdata.
        Type *T = Args[0].asType();
        auto CD = std::make_shared<CData>();
        CD->Ty = T;
        CD->Bytes.assign(T->size(), 0);
        if (!CompP->marshalValue(Args[1], T, CD->Bytes.data(), L))
          return false;
        Res.push_back(Value::cdata(std::move(CD)));
        return true;
      }));

  TL->setStr("new",
             builtin("new", [CompP](Interp &In, std::vector<Value> &Args,
                                    std::vector<Value> &Res, SourceLoc L) {
               if (Args.empty() || !Args[0].isType())
                 return argError(In, L, "terralib.new",
                                 "expected (type [, init])");
               Type *T = Args[0].asType();
               if (auto *ST = dyn_cast<StructType>(T))
                 if (!CompP->typechecker().completeStruct(ST, L))
                   return false;
               auto CD = std::make_shared<CData>();
               CD->Ty = T;
               CD->Bytes.assign(T->size(), 0);
               if (Args.size() > 1 &&
                   !CompP->marshalValue(Args[1], T, CD->Bytes.data(), L))
                 return false;
               Res.push_back(Value::cdata(std::move(CD)));
               return true;
             }));

  TL->setStr("typeof",
             builtin("typeof", [](Interp &In, std::vector<Value> &Args,
                                  std::vector<Value> &Res, SourceLoc L) {
               if (Args.empty() || !Args[0].isCData())
                 return argError(In, L, "terralib.typeof",
                                 "expected a cdata value");
               Res.push_back(Value::type(Args[0].asCData()->Ty));
               return true;
             }));

  TL->setStr(
      "saveobj",
      builtin("saveobj", [CompP](Interp &In, std::vector<Value> &Args,
                                 std::vector<Value> &, SourceLoc L) {
        if (Args.size() < 2 || !Args[0].isString() || !Args[1].isTable())
          return argError(In, L, "terralib.saveobj",
                          "expected (path, { name = terrafn, ... })");
        std::vector<std::pair<std::string, TerraFunction *>> Exports;
        for (const auto &KV : Args[1].asTable()->entries()) {
          if (!KV.first.isString() || !KV.second.isTerraFn())
            return argError(In, L, "terralib.saveobj",
                            "export table must map names to terra functions");
          Exports.emplace_back(KV.first.asString(), KV.second.asTerraFn());
        }
        return CompP->saveObject(Args[0].asString(), Exports);
      }));

  TL->setStr("compile",
             builtin("compile", [CompP](Interp &In, std::vector<Value> &Args,
                                        std::vector<Value> &, SourceLoc L) {
               if (Args.empty() || !Args[0].isTerraFn())
                 return argError(In, L, "terralib.compile",
                                 "expected a terra function");
               return CompP->ensureCompiled(Args[0].asTerraFn());
             }));

  TL->setStr("declare",
             builtin("declare", [](Interp &In, std::vector<Value> &Args,
                                   std::vector<Value> &Res, SourceLoc) {
               // The paper's tdecl: an undefined function that a later
               // `terra name(...) ... end` fills in (mutual recursion).
               std::string Name = !Args.empty() && Args[0].isString()
                                      ? Args[0].asString()
                                      : "decl";
               Res.push_back(Value::terraFn(
                   In.terraCtx().createFunction(std::move(Name))));
               return true;
             }));

  TL->setStr("newlist",
             builtin("newlist", [](Interp &, std::vector<Value> &Args,
                                   std::vector<Value> &Res, SourceLoc) {
               Value T = Value::newTable();
               for (size_t K = 0; K != Args.size(); ++K)
                 T.asTable()->setInt(static_cast<int64_t>(K + 1), Args[K]);
               Res.push_back(T);
               return true;
             }));

  TL->setStr("offsetof",
             builtin("offsetof", [CompP](Interp &In, std::vector<Value> &Args,
                                         std::vector<Value> &Res,
                                         SourceLoc L) {
               if (Args.size() != 2 || !Args[0].isType() ||
                   !Args[1].isString())
                 return argError(In, L, "terralib.offsetof",
                                 "expected (structtype, fieldname)");
               auto *ST = dyn_cast<StructType>(Args[0].asType());
               if (!ST)
                 return argError(In, L, "terralib.offsetof",
                                 "expected a struct type");
               if (!CompP->typechecker().completeStruct(ST, L))
                 return false;
               int Idx = ST->fieldIndex(Args[1].asString());
               if (Idx < 0)
                 return In.fail(L, "no field '" + Args[1].asString() +
                                       "' in struct " + ST->name());
               Res.push_back(Value::number(
                   static_cast<double>(ST->fields()[Idx].Offset)));
               return true;
             }));

  defineGlobal(I, "terralib", Value::table(TL));
}

} // namespace

void terracpp::installStdlib(Interp &I, TerraCompiler &Comp) {
  installCore(I);
  installMath(I);
  installString(I);
  installTableLib(I);
  installOsIo(I);
  installTerraTypes(I, Comp);
  installTerralib(I, Comp);
}
