//===- test_inline.cpp - Inlining and constant divisors on bytecode -------===//
//
// Covers the two call- and arithmetic-cost optimizations of the bytecode
// compiler (DESIGN.md §10, §11), each against native code or literal
// values on every engine (native, tiered, baseline JIT, VM):
//   * signed `/` and `%` by a constant 2 <= |d| < 2^62 compile to
//     DivIK/ModIK (shifts or a multiply-high sequence in the baseline JIT);
//     a table of edge and seeded dividends in int8/16/32/64 must agree bit
//     for bit;
//   * small direct callees are inlined: traps keep the callee's source
//     location, recursive and tiered callees stay calls, and struct
//     returns, repeated instances, multiple returns and address-taken
//     parameters keep their meaning;
//   * the scalar kernels' hot functions lose their calls and divisions.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "core/Engine.h"
#include "core/TerraBytecode.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace terracpp;
using lua::Value;

namespace {

struct EngineConfig {
  const char *Name;
  BackendKind Backend;
  const char *Interp; ///< TERRACPP_INTERP for the run.
};

const EngineConfig Engines[] = {
    {"native", BackendKind::Native, "baseline"},
    {"tiered", BackendKind::Tiered, "baseline"},
    {"baseline", BackendKind::Interp, "baseline"},
    {"vm", BackendKind::Interp, "vm"},
};

bool haveCC() { return Engine::defaultBackend() != BackendKind::Interp; }

/// The disassembly of \p Name's bytecode, compiled on the interp backend.
std::string disassembly(Engine &E, const char *Name) {
  TerraFunction *F = E.terraFunction(Name);
  if (!F || !E.compiler().ensureCompiled(F) || !F->Bytecode)
    return "<no bytecode for " + std::string(Name) + ">";
  return bytecode::disassemble(*F->Bytecode);
}

/// Whether the disassembly holds opcode \p Op exactly (DivI, not DivIK).
bool hasOp(const std::string &Dis, const std::string &Op) {
  return Dis.find("\t" + Op + "\t") != std::string::npos;
}

//===----------------------------------------------------------------------===//
// Constant divisors
//===----------------------------------------------------------------------===//

struct IntKind {
  const char *Name;
  int Bits;
};

const IntKind Kinds[] = {{"int8", 8}, {"int16", 16}, {"int32", 32},
                         {"int64", 64}};

/// A literal of type \p T holding \p V, exact at any width.
std::string lit(const char *T, int64_t V) {
  if (V == INT64_MIN)
    return "[" + std::string(T) + "](-9223372036854775807LL - 1)";
  return "[" + std::string(T) + "](" + std::to_string(V) + "LL)";
}

/// One Terra function per integer kind. Its dividends sit in an array, so
/// no division folds at compile time; for divisor number j and dividend
/// number i it checks `x / d` and `x % d` against the values C computes
/// and returns j * 1000 + i at the first mismatch, else -1.
std::string divisionTable(std::vector<std::vector<int64_t>> &Dividends,
                          std::vector<std::vector<int64_t>> &Divisors) {
  const int64_t Base[] = {2,    -2,   3,          -3,
                          7,    64,   -64,        1000,
                          4096, INT32_MAX, int64_t(1) << 60,
                          (int64_t(1) << 62) - 1, -((int64_t(1) << 62) - 1)};
  uint64_t Rng = 0x9E3779B97F4A7C15ull;
  std::ostringstream OS;
  for (const IntKind &K : Kinds) {
    int64_t Max = K.Bits == 64 ? INT64_MAX : (int64_t(1) << (K.Bits - 1)) - 1;
    int64_t Min = -Max - 1;
    auto Fits = [&](int64_t V) { return V >= Min && V <= Max; };
    std::vector<int64_t> Ds;
    for (int64_t D : Base)
      if (Fits(D))
        Ds.push_back(D);
    if (K.Bits < 64)
      Ds.push_back(Min); // |d| = 2^(bits-1): the kind's own minimum.
    std::vector<int64_t> Xs = {0,       1,       -1,      Min,    Min + 1,
                               Min + 2, Max,     Max - 1, Max - 2};
    for (int64_t D : Ds)
      for (int64_t X : {D - 1, D, D + 1, -D - 1, -D, -D + 1})
        if (D != Min && Fits(X))
          Xs.push_back(X);
    for (int I = 0; I != 24; ++I) {
      Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
      uint64_t R = Rng >> (64 - K.Bits);
      Xs.push_back(K.Bits == 64 ? static_cast<int64_t>(R)
                                : static_cast<int64_t>(R) + Min);
    }
    OS << "terra check_" << K.Name << "(): int\n"
       << "  var xs: " << K.Name << "[" << Xs.size() << "]\n"
       << "  var qs: " << K.Name << "[" << Xs.size() << "]\n"
       << "  var rs: " << K.Name << "[" << Xs.size() << "]\n";
    for (size_t I = 0; I != Xs.size(); ++I)
      OS << "  xs[" << I << "] = " << lit(K.Name, Xs[I]) << "\n";
    for (size_t J = 0; J != Ds.size(); ++J) {
      for (size_t I = 0; I != Xs.size(); ++I)
        OS << "  qs[" << I << "] = " << lit(K.Name, Xs[I] / Ds[J]) << " rs["
           << I << "] = " << lit(K.Name, Xs[I] % Ds[J]) << "\n";
      std::string D = lit(K.Name, Ds[J]);
      OS << "  for i = 0, " << Xs.size() << " do\n"
         << "    if xs[i] / " << D << " ~= qs[i] or xs[i] % " << D
         << " ~= rs[i] then return " << J * 1000 << " + i end\n"
         << "  end\n";
    }
    OS << "  return -1\n"
       << "end\n";
    Dividends.push_back(Xs);
    Divisors.push_back(Ds);
  }
  return OS.str();
}

TEST(ConstDiv, TableAgreesOnEveryEngine) {
  std::vector<std::vector<int64_t>> Xs, Ds;
  std::string Src = divisionTable(Xs, Ds);
  for (const EngineConfig &C : Engines) {
    if (C.Backend == BackendKind::Native && !haveCC())
      continue;
    ScopedEnv Force("TERRACPP_INTERP", C.Interp);
    Engine E(C.Backend);
    ASSERT_TRUE(E.run(Src, "divide")) << E.errors();
    for (size_t K = 0; K != std::size(Kinds); ++K) {
      std::string Fn = std::string("check_") + Kinds[K].Name;
      std::vector<Value> R;
      ASSERT_TRUE(E.call(E.global(Fn), {}, R)) << C.Name << " " << Fn << "\n"
                                               << E.errors();
      int Bad = static_cast<int>(R[0].asNumber());
      if (Bad >= 0)
        ADD_FAILURE() << C.Name << " " << Kinds[K].Name << ": x = "
                      << Xs[K][Bad % 1000] << ", d = " << Ds[K][Bad / 1000];
      if (C.Backend != BackendKind::Native) {
        // The constant divisions took the new path, guard-free.
        std::string Dis = disassembly(E, Fn.c_str());
        EXPECT_TRUE(hasOp(Dis, "DivIK") && hasOp(Dis, "ModIK")) << Dis;
        EXPECT_FALSE(hasOp(Dis, "DivI") || hasOp(Dis, "ModI")) << Dis;
      }
    }
  }
}

TEST(ConstDiv, ZeroAndMinusOneKeepTheirPaths) {
  // d = 0 still traps; d = -1 still divides (and is not DivIK); a cast
  // folds before the divisor is classified: [int8](300) is 44.
  const char *Src = "terra f(x: int): int return x / [int](0) end\n"
                    "terra g(x: int): int return x / -1 + x % -1 end\n"
                    "terra h(x: int8): int8 return x / [int8](300) end\n";
  for (const EngineConfig &C : Engines) {
    if (C.Backend == BackendKind::Native)
      continue; // Native code SIGFPEs on the zero divisor (C semantics).
    ScopedEnv Force("TERRACPP_INTERP", C.Interp);
    Engine E(C.Backend);
    ASSERT_TRUE(E.run(Src, "zero.t")) << E.errors();
    std::vector<Value> R;
    EXPECT_FALSE(E.call(E.global("f"), {Value::number(5)}, R)) << C.Name;
    EXPECT_NE(E.errors().find("zero.t:1:31: error: terra interpreter: "
                              "integer division by zero"),
              std::string::npos)
        << C.Name << "\n"
        << E.errors();
    R.clear();
    ASSERT_TRUE(E.call(E.global("g"), {Value::number(7)}, R)) << E.errors();
    EXPECT_EQ(R[0].asNumber(), -7) << C.Name;
    R.clear();
    ASSERT_TRUE(E.call(E.global("h"), {Value::number(100)}, R)) << E.errors();
    EXPECT_EQ(R[0].asNumber(), 2) << C.Name;
    if (C.Backend == BackendKind::Interp) {
      EXPECT_FALSE(hasOp(disassembly(E, "g"), "DivIK"));
      EXPECT_TRUE(hasOp(disassembly(E, "h"), "DivIK"));
    }
  }
}

TEST(ConstDiv, FoldedLiteralsKeepTheirTypeAndDigits) {
  // The midend folds divisions of literals before the bytecode compiler
  // classifies divisors: a folded cast wraps to its type ([int8](300) is
  // 44), and an LL literal keeps the digits a double would round away.
  const char *Src =
      "terra e(): int return 4611686018427387903LL % 1000 end\n"
      "terra g(): int8 return [int8](300) / [int8](3) end\n"
      "terra h(): int64 return [int64]([int8](300)) end\n"
      "terra f(x: int64): int64\n"
      "  return (x + 4611686018427387903LL) / 4611686018427387903LL\n"
      "end\n";
  for (const EngineConfig &C : Engines) {
    if (C.Backend == BackendKind::Native && !haveCC())
      continue;
    ScopedEnv Force("TERRACPP_INTERP", C.Interp);
    Engine E(C.Backend);
    ASSERT_TRUE(E.run(Src, "fold")) << E.errors();
    const std::pair<const char *, double> Want[] = {
        {"e", 903}, {"g", 14}, {"h", 44}};
    for (const auto &[Fn, V] : Want) {
      std::vector<Value> R;
      ASSERT_TRUE(E.call(E.global(Fn), {}, R)) << E.errors();
      EXPECT_EQ(R[0].asNumber(), V) << C.Name << " " << Fn;
    }
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(0)}, R)) << E.errors();
    EXPECT_EQ(R[0].asNumber(), 1) << C.Name;
  }
}

//===----------------------------------------------------------------------===//
// Inlining
//===----------------------------------------------------------------------===//

struct Case {
  const char *Name;
  const char *Src; ///< Defines terra `f`; `f` calls a small callee.
  double Arg;
  double Expected;
};

const Case Cases[] = {
    {"struct_return",
     "struct P { x: int; y: int }\n"
     "terra mk(a: int): P return P { a, a + 1 } end\n"
     "terra f(n: int): int\n"
     "  var p = mk(n)\n"
     "  p = mk(p.y)\n"
     "  return p.x * 10 + p.y\n"
     "end",
     4, 56},
    {"two_instances",
     "terra sq(a: int): int var t = a * a return t end\n"
     "terra f(n: int): int return sq(n) + sq(n + 1) * 100 end",
     3, 1609},
    {"multiple_returns",
     "terra sgn(x: int): int\n"
     "  if x < 0 then return -1 elseif x == 0 then return 0 end\n"
     "  for i = 0, 10 do if i * i > x then return i end end\n"
     "  return 100\n"
     "end\n"
     "terra f(n: int): int\n"
     "  return sgn(n - 20) * 1000 + sgn(0) * 100 + sgn(n) + sgn(500)\n"
     "end",
     9, -896},
    {"address_taken_param",
     "terra bump(a: int): int\n"
     "  var p = &a\n"
     "  @p = @p + 1\n"
     "  return a * 2\n"
     "end\n"
     "terra f(n: int): int var k = n return bump(k) + k end",
     5, 17},
    {"assigned_param_and_nesting",
     "terra inc(a: int): int a = a + 1 return a end\n"
     "terra twice(a: int): int return inc(inc(a)) end\n"
     "terra f(n: int): int var a = n return twice(a) * 10 + a end",
     5, 75},
    {"void_early_return",
     "terra g(p: &int)\n"
     "  @p = @p + 1\n"
     "  if @p > 3 then return end\n"
     "end\n"
     "terra f(n: int): int\n"
     "  var s = 0\n"
     "  for i = 0, n do var x = i g(&x) s = s * 10 + x end\n"
     "  return s\n"
     "end",
     5, 12345},
    {"void_callee_through_pointer",
     "terra put(p: &int, v: int) @p = v end\n"
     "terra f(n: int): int var x = 0 put(&x, n * 3) return x end",
     7, 21},
    // The caller's loop and the inlined callee's loop share one symbol:
    // the callee's binding shadows the caller's, which the caller's loop
    // reads again after its body.
    {"shared_symbol_loop",
     "local i = symbol(int)\n"
     "terra g(n: int): int\n"
     "  var s = 0\n"
     "  for [i] = 0, n do s = s + [i] end\n"
     "  return s\n"
     "end\n"
     "terra f(n: int): int\n"
     "  var t = 0\n"
     "  for [i] = 0, n do t = t + g([i]) end\n"
     "  return t\n"
     "end",
     6, 20},
};

/// Whether `f` (compiled to bytecode on \p E) still holds a Call.
bool callsRemain(Engine &E) { return hasOp(disassembly(E, "f"), "Call"); }

TEST(Inline, CallersAgreeOnEveryEngine) {
  for (const Case &P : Cases)
    for (const EngineConfig &C : Engines) {
      if (C.Backend == BackendKind::Native && !haveCC())
        continue;
      ScopedEnv Force("TERRACPP_INTERP", C.Interp);
      Engine E(C.Backend);
      ASSERT_TRUE(E.run(P.Src, P.Name)) << E.errors();
      std::vector<Value> R;
      ASSERT_TRUE(E.call(E.global("f"), {Value::number(P.Arg)}, R))
          << P.Name << " " << C.Name << "\n"
          << E.errors();
      EXPECT_EQ(R[0].asNumber(), P.Expected) << P.Name << " " << C.Name;
      if (C.Backend == BackendKind::Interp)
        EXPECT_FALSE(callsRemain(E)) << P.Name << "\n"
                                     << disassembly(E, "f");
    }
}

TEST(Inline, TrapInInlinedCalleeKeepsItsLocation) {
  // The division sits on line 2, in the callee; the caller is on line 5.
  const char *Src = "terra quot(a: int, b: int): int\n"
                    "  return a / b\n"
                    "end\n"
                    "terra f(n: int): int\n"
                    "  return quot(100, n) + 1\n"
                    "end\n";
  for (const char *Interp : {"vm", "baseline"}) {
    ScopedEnv Force("TERRACPP_INTERP", Interp);
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(Src, "inl.t")) << E.errors();
    EXPECT_FALSE(callsRemain(E)) << disassembly(E, "f");
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(4)}, R)) << E.errors();
    EXPECT_EQ(R[0].asNumber(), 26);
    R.clear();
    EXPECT_FALSE(E.call(E.global("f"), {Value::number(0)}, R)) << Interp;
    std::string Errs = E.errors();
    EXPECT_EQ(Errs.substr(0, Errs.find('\n')),
              "inl.t:2:12: error: terra interpreter: integer division by zero")
        << Interp;
  }
}

TEST(Inline, RecursiveCalleeStaysACall) {
  const char *Src = "terra rec(n: int): int\n"
                    "  if n == 0 then return 0 end\n"
                    "  return rec(n - 1) + 1\n"
                    "end\n"
                    "terra f(n: int): int return rec(n) end\n";
  for (const char *Interp : {"vm", "baseline"}) {
    ScopedEnv Force("TERRACPP_INTERP", Interp);
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(Src, "rec.t")) << E.errors();
    EXPECT_TRUE(callsRemain(E)) << disassembly(E, "f");
    EXPECT_TRUE(hasOp(disassembly(E, "rec"), "Call"));
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(100)}, R)) << E.errors();
    EXPECT_EQ(R[0].asNumber(), 100);
    R.clear();
    EXPECT_FALSE(E.call(E.global("f"), {Value::number(100000)}, R));
    std::string Errs = E.errors();
    EXPECT_EQ(Errs.substr(0, Errs.find('\n')),
              "error: terra interpreter: terra call stack overflow in "
              "interpreter")
        << Interp;
  }
}

TEST(Inline, TieredCalleeStaysACall) {
  // The tiered backend counts every call toward promotion, so its bytecode
  // keeps them.
  ScopedEnv Force("TERRACPP_INTERP", "baseline");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra sq(a: int): int return a * a end\n"
                    "terra f(n: int): int return sq(n) + 1 end\n",
                    "tier.t"))
      << E.errors();
  std::vector<Value> R;
  ASSERT_TRUE(E.call(E.global("f"), {Value::number(6)}, R)) << E.errors();
  EXPECT_EQ(R[0].asNumber(), 37);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(F->Bytecode, nullptr);
  EXPECT_TRUE(hasOp(bytecode::disassemble(*F->Bytecode), "Call"));
}

//===----------------------------------------------------------------------===//
// The scalar kernels' hot functions
//===----------------------------------------------------------------------===//

TEST(Inline, KernelHotPathsLoseCallsAndDivisions) {
  // The fixed-point mandelbrot's escape loop (24 unrolled steps calling
  // two methods) and the LCG loop (three constant moduli).
  const char *Src =
      "struct Cx { re: int64; im: int64 }\n"
      "terra Cx:step(c: Cx): Cx\n"
      "  return Cx { (self.re * self.re - self.im * self.im) / 4096 + c.re,\n"
      "              (2 * self.re * self.im) / 4096 + c.im }\n"
      "end\n"
      "terra Cx:mag2(): int64\n"
      "  return (self.re * self.re + self.im * self.im) / 4096\n"
      "end\n"
      "local function unrolled(z, c, count)\n"
      "  local stmts = terralib.newlist()\n"
      "  for i = 1, 24 do\n"
      "    stmts:insert(quote\n"
      "      if [count] >= 0 then\n"
      "        [z] = [z]:step([c])\n"
      "        if [z]:mag2() > 16384 then [count] = -([count] + 1)\n"
      "        else [count] = [count] + 1 end\n"
      "      end\n"
      "    end)\n"
      "  end\n"
      "  return stmts\n"
      "end\n"
      "terra escape(cre: int64, cim: int64): int64\n"
      "  var c = Cx { cre, cim }\n"
      "  var z = Cx { 0, 0 }\n"
      "  var count: int64 = 0\n"
      "  [unrolled(z, c, count)]\n"
      "  if count < 0 then return -count - 1 end\n"
      "  return 24\n"
      "end\n"
      "terra lcg(x: int): double\n"
      "  var acc = 0.0\n"
      "  var k: int64 = x\n"
      "  for i = 0, 1000 do\n"
      "    k = (k * 1103515245 + 12345) % 2147483647\n"
      "    if k % 3 == 0 then acc = acc + i * 0.5\n"
      "    else acc = acc - k % 7 end\n"
      "  end\n"
      "  return acc\n"
      "end\n";
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run(Src, "kernels")) << E.errors();
  std::string Escape = disassembly(E, "escape");
  EXPECT_FALSE(hasOp(Escape, "Call")) << Escape;
  std::string Lcg = disassembly(E, "lcg");
  EXPECT_FALSE(hasOp(Lcg, "DivI") || hasOp(Lcg, "ModI")) << Lcg;
  EXPECT_TRUE(hasOp(Lcg, "ModIK")) << Lcg;
  // Results match native code, or literal values without a C compiler.
  struct Call {
    const char *Fn;
    std::vector<Value> Args;
    double Want;
  };
  const Call Calls[] = {
      {"escape", {Value::number(-2048), Value::number(1024)}, 24},
      {"escape", {Value::number(3000), Value::number(-2000)}, 2},
      {"lcg", {Value::number(12345)}, 75168},
  };
  std::unique_ptr<Engine> N;
  if (haveCC()) {
    N = std::make_unique<Engine>(BackendKind::Native);
    ASSERT_TRUE(N->run(Src, "kernels")) << N->errors();
  }
  for (const Call &C : Calls) {
    std::vector<Value> Got, Want;
    ASSERT_TRUE(E.call(E.global(C.Fn), C.Args, Got)) << E.errors();
    EXPECT_EQ(Got[0].asNumber(), C.Want) << C.Fn;
    if (N) {
      ASSERT_TRUE(N->call(N->global(C.Fn), C.Args, Want)) << N->errors();
      EXPECT_EQ(Got[0].asNumber(), Want[0].asNumber()) << C.Fn;
    }
  }
}

} // namespace
