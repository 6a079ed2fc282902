//===- test_backends.cpp - Cross-engine differential tests ----------------===//
//
// Runs a corpus of programs on all three execution engines — the native C
// backend (the LLVM substitute), and the baseline x86-64 JIT and the tier-0
// register-bytecode VM (both over the bytecode; see DESIGN.md §10-11) — and
// requires each to return the entry's literal expected value bit for bit,
// or the entry's literal trap diagnostic. This is the main defense against
// codegen bugs: native code and the bytecode share only the typed AST. The
// corpus covers the paper's vector(T,N) code, which the bytecode compiler
// lowers to lanes, Terra's array value semantics, and calls past the
// bytecode's former 32-argument limit.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/StagingAPI.h"
#include "core/TerraType.h"
#include "orion/OrionHosted.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>

using namespace terracpp;
using lua::Value;

namespace {

struct Program {
  const char *Name;
  const char *Src;    ///< Defines terra `f`.
  double Arg;
  double Expected;
  /// When set, the call must fail with this diagnostic (its first line,
  /// location included) instead. Native code has no trap guards (a zero
  /// divisor raises SIGFPE), so such entries run on the interpreter tiers
  /// only.
  const char *Trap = nullptr;
};

const Program Corpus[] = {
    {"arith", "terra f(x: double): double return (x + 1) * 3 - 0.5 end", 2,
     8.5},
    {"intdiv", "terra f(x: int): int return (x * 7 + 3) / 2 % 5 end", 9, 3},
    {"loops",
     "terra f(n: int): int\n"
     "  var s = 0\n"
     "  for i = 0, n do\n"
     "    var j = 0\n"
     "    while j < i do s = s + 1 j = j + 1 end\n"
     "  end\n"
     "  return s\n"
     "end",
     10, 45},
    {"negative_step",
     "terra f(n: int): int\n"
     "  var s = 0\n"
     "  for i = n, 0, -1 do s = s + i end\n"
     "  return s\n"
     "end",
     10, 55},
    {"pointers",
     "std = terralib.includec('stdlib.h')\n"
     "terra f(n: int): int\n"
     "  var p = [&int](std.malloc(n * 4))\n"
     "  for i = 0, n do p[i] = i end\n"
     "  var q = p + n - 1\n"
     "  var last = @q\n"
     "  std.free([&opaque](p))\n"
     "  return last\n"
     "end",
     8, 7},
    {"structs",
     "struct V { x : double; y : double }\n"
     "terra dot(a: V, b: V): double return a.x * b.x + a.y * b.y end\n"
     "terra f(k: double): double\n"
     "  var a = V { k, 2.0 }\n"
     "  var b = V { 3.0, 4.0 }\n"
     "  return dot(a, b)\n"
     "end",
     5, 23},
    {"nested_struct",
     "struct Inner { v : int }\n"
     "struct Outer { a : Inner; b : Inner }\n"
     "terra f(k: int): int\n"
     "  var o = Outer { Inner { k }, Inner { k * 2 } }\n"
     "  o.a.v = o.a.v + 1\n"
     "  return o.a.v + o.b.v\n"
     "end",
     10, 31},
    {"arrays",
     "terra f(n: int): int\n"
     "  var a: int[16]\n"
     "  for i = 0, 16 do a[i] = i * i end\n"
     "  var s = 0\n"
     "  for i = 0, n do s = s + a[i] end\n"
     "  return s\n"
     "end",
     5, 30},
    {"vectors",
     "terra f(k: double): double\n"
     "  var v: vector(double, 4) = k\n"
     "  var w: vector(double, 4) = 2.0\n"
     "  var u = v * w + v\n"
     "  return u[0] + u[1] + u[2] + u[3]\n"
     "end",
     1.5, 18},
    {"recursion",
     "terra f(n: int): int\n"
     "  if n < 2 then return n end\n"
     "  return f(n - 1) + f(n - 2)\n"
     "end",
     12, 144},
    {"mutual",
     "odd = terralib.declare('odd')\n"
     "terra even(n: int): bool\n"
     "  if n == 0 then return true end\n"
     "  return odd(n - 1)\n"
     "end\n"
     "terra odd(n: int): bool\n"
     "  if n == 0 then return false end\n"
     "  return even(n - 1)\n"
     "end\n"
     "terra f(n: int): int\n"
     "  if even(n) then return 1 else return 0 end\n"
     "end",
     10, 1},
    {"globals",
     "acc = global(double, 1.5)\n"
     "terra f(k: double): double\n"
     "  acc = acc + k\n"
     "  return acc\n"
     "end",
     2.5, 4.0},
    {"staged",
     "local weights = { 1, 2, 3, 4 }\n"
     "terra f(x: int): int\n"
     "  var s = 0\n"
     "  [ (function()\n"
     "      local stmts = terralib.newlist()\n"
     "      for i, w in ipairs(weights) do\n"
     "        stmts:insert(quote s = s + x * w end)\n"
     "      end\n"
     "      return stmts\n"
     "    end)() ]\n"
     "  return s\n"
     "end",
     3, 30},
    {"casts",
     "terra f(x: double): double\n"
     "  var a = [int8](x)\n"
     "  var b = [uint8](x)\n"
     "  var c = bool(1)\n"
     "  var d = int(c)\n"
     "  return a + b + d\n"
     "end",
     200, (200 - 256) + 200 + 1},
    {"funcptr",
     "terra add1(x: int): int return x + 1 end\n"
     "terra mul2(x: int): int return x * 2 end\n"
     "terra f(n: int): int\n"
     "  var fp: int -> int = add1\n"
     "  if n > 5 then fp = mul2 end\n"
     "  return fp(n)\n"
     "end",
     7, 14},
    {"shortcircuit",
     "terra f(n: int): int\n"
     "  var p: &int = nil\n"
     "  if p ~= nil and @p > 0 then return 1 end\n"
     "  return 2\n"
     "end",
     0, 2},
    // Wrapping int8 lanes, a lane store, a lane negation and an int8 mask
    // indexed at runtime (3 * 100 wraps to 44).
    {"vec_int8x8",
     "terra f(k: int): double\n"
     "  var v: vector(int8, 8) = [int8](k)\n"
     "  var c: vector(int8, 8) = [int8](100)\n"
     "  var w = v * c\n"
     "  w[6] = -w[6]\n"
     "  var lt = w < [int8](0)\n"
     "  var s = 0\n"
     "  for i = 0, 8 do if lt[i] then s = s + i end end\n"
     "  return w[0] * 2 + w[6] + s * 1000\n"
     "end",
     3, 6044},
    // int32 lanes read and written at a runtime index, then / and %.
    {"vec_int32x4",
     "terra f(k: int): double\n"
     "  var v: vector(int32, 4) = k\n"
     "  v[1] = v[1] + 1\n"
     "  var i = 0\n"
     "  while i < 4 do v[i] = v[i] * (i + 1) i = i + 1 end\n"
     "  var q = v / 2 + v % 3\n"
     "  return q[0] + q[1] + q[2] + q[3]\n"
     "end",
     7, 38},
    // int64 lanes past 32 bits, negation and a scalar broadcast.
    {"vec_int64x2",
     "terra f(k: int): double\n"
     "  var a: vector(int64, 2) = k\n"
     "  a[1] = -a[1] * 3\n"
     "  var b = -a + [int64](1000000000000)\n"
     "  return [double](b[1] - b[0]) * 100 + [double](a[1])\n"
     "end",
     9, 3573},
    // float lanes round in float; lane casts to double and to int32.
    {"vec_float8",
     "terra f(x: double): double\n"
     "  var v: vector(float, 8) = [float](x)\n"
     "  var h: vector(float, 8) = [float](0.25)\n"
     "  var w = v * h - h\n"
     "  var d = [vector(double, 8)](w)\n"
     "  var n = [vector(int32, 8)](v * [float](10))\n"
     "  return d[0] + d[7] * 2 + n[3] * 100\n"
     "end",
     1.1,
     3.0 * (static_cast<double>(static_cast<float>(1.1)) * 0.25 - 0.25) +
         1100},
    // Comparisons give bool lanes; `not` flips them lane by lane.
    {"vec_double_cmp",
     "terra f(x: double): double\n"
     "  var a: vector(double, 4) = x\n"
     "  a[0] = 0.5\n"
     "  a[3] = 4.0\n"
     "  var b: vector(double, 4) = 2.0\n"
     "  var lt = a < b\n"
     "  var ne = not (a == b)\n"
     "  var r = 0.0\n"
     "  if lt[0] then r = r + 1 end\n"
     "  if lt[1] then r = r + 10 end\n"
     "  if ne[0] then r = r + 100 end\n"
     "  if ne[1] then r = r + 1000 end\n"
     "  if ne[3] then r = r + 10000 end\n"
     "  var ge = a >= 1.0\n"
     "  var i = 0\n"
     "  while i < 4 do if ge[i] then r = r + 0.5 end i = i + 1 end\n"
     "  return r\n"
     "end",
     2, 10102.5},
    // A vector parameter and return; loads and stores through &vector.
    {"vec_param_ret",
     "terra scale(v: vector(double, 2), s: double): vector(double, 2)\n"
     "  return v * s + 1.0\n"
     "end\n"
     "terra f(x: double): double\n"
     "  var buf: double[4]\n"
     "  buf[0], buf[1], buf[2], buf[3] = x, 2.0, 0.0, 0.0\n"
     "  var p = [&vector(double, 2)](&buf[0])\n"
     "  var r = scale(@p, 3.0)\n"
     "  var q = [&vector(double, 2)](&buf[2])\n"
     "  @q = r\n"
     "  return buf[2] * 10 + buf[3]\n"
     "end",
     1.5, 62},
    // Lane registers that alias: a broadcast of a vector's own lane, a
    // parallel swap of two vectors, and a broadcast of another's lane.
    {"vec_lane_aliasing",
     "terra f(x: double): double\n"
     "  var v: vector(double, 4) = x\n"
     "  v[1], v[2], v[3] = 2.0, 3.0, 4.0\n"
     "  v = v * v[0]\n"
     "  var w: vector(double, 4) = 1.0\n"
     "  v, w = w, v\n"
     "  w = w + v[3]\n"
     "  v = w[2]\n"
     "  return v[0] + w[0] * 10 + w[3] * 100\n"
     "end",
     5, 2376},
    // One lane of a vector division has a zero divisor.
    {"vec_div_zero",
     "terra f(k: int): double\n"
     "  var a: vector(int32, 4) = 12\n"
     "  var b: vector(int32, 4) = k\n"
     "  b[2] = 0\n"
     "  var q = a / b\n"
     "  return q[0]\n"
     "end",
     4, 0,
     "vec_div_zero:5:13: error: terra interpreter: integer division by zero"},
    // Float loop variables count on int64 truncations and read back the
    // variable each iteration (t = 2.5 continues from 2 + 1).
    {"for_float_up",
     "terra f(x: double): double\n"
     "  var s = 0.0\n"
     "  for t = 0.0, x do\n"
     "    s = s + t\n"
     "    if t == 1.0 then t = 2.5 end\n"
     "  end\n"
     "  return s\n"
     "end",
     4, 4},
    {"for_float_down",
     "terra f(x: double): double\n"
     "  var u: float = 0\n"
     "  for t = [float](x), [float](0), [float](-1) do u = u + t * 2 end\n"
     "  return u\n"
     "end",
     5, 30},
    {"for_float_zero_step",
     "terra f(x: double): double\n"
     "  var s = 0.0\n"
     "  for t = 0.0, x, 0.0 do s = s + 1 end\n"
     "  return s\n"
     "end",
     4, 0,
     "for_float_zero_step:3:3: error: terra interpreter: 'for' step is zero"},
    // A field of an rvalue struct (a call result).
    {"rvalue_field",
     "struct P { x : int; y : int }\n"
     "terra mk(a: int): P return P { a, a * 2 } end\n"
     "terra f(a: int): int return mk(a).y end",
     5, 10},
    // Arrays are values: returned by value, copied on assignment and
    // initialization, and passed by value.
    {"array_return",
     "terra arr(a: int): int[3]\n"
     "  var r: int[3]\n"
     "  r[0], r[1], r[2] = a, a + 1, a + 2\n"
     "  return r\n"
     "end\n"
     "terra f(a: int): int return arr(a)[2] * 10 + arr(a + 1)[0] end",
     4, 65},
    {"array_copy",
     "terra f(a: int): int\n"
     "  var x: int[3]\n"
     "  x[0], x[1], x[2] = a, a * 2, a * 3\n"
     "  var y: int[3]\n"
     "  y = x\n"
     "  var z = x\n"
     "  x[1] = 100\n"
     "  return y[1] * 100 + z[1] * 10 + x[1] + z[2]\n"
     "end",
     2, 546},
    {"array_param_by_value",
     "terra g(x: int[3]): int\n"
     "  x[0] = 100\n"
     "  return x[0] + x[1]\n"
     "end\n"
     "terra f(a: int): int\n"
     "  var x: int[3]\n"
     "  x[0], x[1], x[2] = a, a + 1, a + 2\n"
     "  var r = g(x)\n"
     "  return x[0] + x[1] + r - 100\n"
     "end",
     3, 11},
    // A 40-argument call to a 40-parameter function (past the bytecode's
    // former 32-argument limit).
    {"call_40_args",
     "local ps = terralib.newlist()\n"
     "for i = 1, 40 do ps:insert(symbol(int, 'p' .. i)) end\n"
     "local sum = `0\n"
     "for i, p in ipairs(ps) do sum = `[sum] + [p] * i end\n"
     "terra g([ps]): int return [sum] end\n"
     "local args = terralib.newlist()\n"
     "local a = symbol(int, 'a')\n"
     "for i = 1, 40 do args:insert(`a + i) end\n"
     "terra f([a]): int return g([args]) end",
     1, 22960},
};

/// The three execution engines under differential test. VM and Baseline
/// both construct the Interp backend; TERRACPP_INTERP picks which
/// interpreter runs the code. The values are part of each instance's
/// printed parameter, so they stay fixed (2 was the tree-walker).
enum class Exec { Native = 0, VM = 1, Baseline = 3 };

/// Test-name prefix, and the TERRACPP_INTERP value of the interpreters.
const char *modeName(Exec Mode) {
  switch (Mode) {
  case Exec::Native:
    return "native";
  case Exec::VM:
    return "vm";
  case Exec::Baseline:
    return "baseline";
  }
  return "?";
}

/// The first compiled Terra function (by global name) that has no bytecode,
/// or "" when all of them run on bytecode.
std::string functionWithoutBytecode(Engine &E) {
  for (const std::string &Name : E.terraFunctionNames()) {
    TerraFunction *F = E.terraFunction(Name);
    if (F && F->Entry && !F->IsExtern && !F->HostClosure && !F->Bytecode)
      return Name;
  }
  return "";
}

/// Calls f(Arg) on a fresh engine; returns the engine's diagnostics when
/// the call fails (empty on success). On the interpreter tiers \p
/// NoBytecode, when given, receives functionWithoutBytecode().
std::string runProgram(const Program &P, Exec Mode, double &Result,
                       std::string *NoBytecode = nullptr) {
  std::optional<ScopedEnv> Force;
  if (Mode != Exec::Native)
    Force.emplace("TERRACPP_INTERP", modeName(Mode));
  Engine E(Mode == Exec::Native ? BackendKind::Native : BackendKind::Interp);
  if (!E.run(P.Src, P.Name))
    return "run failed: " + E.errors();
  std::vector<Value> Results;
  if (!E.call(E.global("f"), {Value::number(P.Arg)}, Results))
    return E.errors().empty() ? "call failed" : E.errors();
  Result = Results.empty() ? 0.0 : Results[0].asNumber();
  if (NoBytecode && Mode != Exec::Native)
    *NoBytecode = functionWithoutBytecode(E);
  return "";
}

class BackendDiffTest
    : public ::testing::TestWithParam<std::tuple<Exec, size_t>> {};

TEST_P(BackendDiffTest, SameResult) {
  auto [Mode, Idx] = GetParam();
  if (Mode == Exec::Native &&
      Engine::defaultBackend() == BackendKind::Interp)
    GTEST_SKIP();
  const Program &P = Corpus[Idx];
  double Got = 0;
  std::string NoBytecode;
  std::string Err = runProgram(P, Mode, Got, &NoBytecode);
  if (!P.Trap) {
    ASSERT_EQ(Err, "") << P.Name;
    EXPECT_EQ(Got, P.Expected) << P.Name;
    EXPECT_EQ(NoBytecode, "") << P.Name;
    return;
  }
  // The trap diagnostic, location included, is pinned literally, and the
  // VM and the baseline JIT report the whole of it identically.
  EXPECT_EQ(Err.substr(0, Err.find('\n')), P.Trap) << P.Name;
  double Ignored;
  Exec Other = Mode == Exec::VM ? Exec::Baseline : Exec::VM;
  EXPECT_EQ(Err, runProgram(P, Other, Ignored)) << P.Name;
}

std::vector<std::tuple<Exec, size_t>> diffCases() {
  std::vector<std::tuple<Exec, size_t>> Cases;
  for (Exec Mode : {Exec::Native, Exec::VM, Exec::Baseline})
    for (size_t I = 0; I != std::size(Corpus); ++I)
      if (Mode != Exec::Native || !Corpus[I].Trap)
        Cases.emplace_back(Mode, I);
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BackendDiffTest, ::testing::ValuesIn(diffCases()),
    [](const ::testing::TestParamInfo<BackendDiffTest::ParamType> &Info) {
      Exec Mode = std::get<0>(Info.param);
      return std::string(modeName(Mode)) + "_" +
             Corpus[std::get<1>(Info.param)].Name;
    });

// Every function the corpus and the example scripts compile runs on
// bytecode: there is no other interpreter to fall back to.
TEST(Backends, InterpRunsCorpusAndScriptsWithoutTreeFallbacks) {
  ScopedEnv Pin("TERRACPP_INTERP", "baseline");
  for (const Program &P : Corpus) {
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(P.Src, P.Name)) << E.errors();
    std::vector<Value> Results;
    EXPECT_EQ(E.call(E.global("f"), {Value::number(P.Arg)}, Results),
              P.Trap == nullptr)
        << P.Name << ": " << E.errors();
    EXPECT_EQ(functionWithoutBytecode(E), "") << P.Name;
  }
  namespace fs = std::filesystem;
  unsigned Scripts = 0;
  for (const auto &Entry : fs::directory_iterator(
           fs::path(TERRACPP_SOURCE_DIR) / "examples" / "scripts")) {
    if (Entry.path().extension() != ".t")
      continue;
    ++Scripts;
    Engine E(BackendKind::Interp);
    orion::installHostedOrion(E);
    ASSERT_TRUE(E.runFile(Entry.path().string())) << E.errors();
    EXPECT_EQ(functionWithoutBytecode(E), "") << Entry.path();
  }
  EXPECT_GE(Scripts, 3u);
}

// Builder-level min/max must agree across engines (scalar + vector lanes;
// min/max have no source syntax, so the corpus cannot cover them).
TEST(Backends, MinMaxIntrinsics) {
  for (Exec Mode : {Exec::Native, Exec::VM, Exec::Baseline}) {
    if (Mode == Exec::Native &&
        Engine::defaultBackend() == BackendKind::Interp)
      continue;
    std::optional<ScopedEnv> Force;
    if (Mode != Exec::Native)
      Force.emplace("TERRACPP_INTERP", modeName(Mode));
    Engine E(Mode == Exec::Native ? BackendKind::Native : BackendKind::Interp);
    stage::Builder B(E.context());
    TypeContext &TC = E.context().types();
    Type *F64 = TC.float64();
    TerraSymbol *X = B.sym(F64, "x");
    TerraSymbol *Y = B.sym(F64, "y");
    // min(x,y)*100 + max(x,y) + vector-lane checks over double, int64 and
    // float lanes.
    Type *V4 = TC.vector(F64, 4);
    Type *I2 = TC.vector(TC.int64(), 2);
    Type *F8 = TC.vector(TC.float32(), 8);
    TerraSymbol *Va = B.sym(V4, "va");
    TerraSymbol *Vb = B.sym(V4, "vb");
    std::vector<TerraStmt *> Body;
    Body.push_back(B.varDecl(Va, B.cast(V4, B.var(X))));
    Body.push_back(B.varDecl(Vb, B.cast(V4, B.var(Y))));
    TerraSymbol *Vm = B.sym(V4, "vm");
    Body.push_back(B.varDecl(Vm, B.maxExpr(B.var(Va), B.var(Vb))));
    TerraSymbol *Ia = B.sym(I2, "ia");
    Body.push_back(B.varDecl(Ia, B.cast(I2, B.var(X))));
    TerraSymbol *Im = B.sym(I2, "im");
    Body.push_back(B.varDecl(
        Im, B.minExpr(B.neg(B.var(Ia)), B.cast(I2, B.var(Y)))));
    TerraSymbol *Fm = B.sym(F8, "fm");
    Body.push_back(B.varDecl(
        Fm, B.maxExpr(B.cast(F8, B.var(X)), B.cast(F8, B.var(Y)))));
    Body.push_back(B.ret(B.add(
        B.add(B.mul(B.minExpr(B.var(X), B.var(Y)), B.litFloat(100)),
              B.add(B.maxExpr(B.var(X), B.var(Y)), B.index(B.var(Vm), 2))),
        B.add(B.cast(F64, B.index(B.var(Im), 1)),
              B.cast(F64, B.index(B.var(Fm), 7))))));
    TerraFunction *F =
        B.function("mm", {X, Y}, F64, B.block(std::move(Body)));
    std::vector<Value> Args = {Value::number(3), Value::number(7)};
    std::vector<Value> R;
    ASSERT_TRUE(E.compiler().callFromHost(F, Args, R, SourceLoc()))
        << E.errors();
    // min=3, max=7, vm[2]=7, im[1]=min(-3,7)=-3, fm[7]=7:
    // 300 + 7 + 7 - 3 + 7 = 318.
    EXPECT_EQ(R[0].asNumber(), 318.0) << modeName(Mode);
  }
}

// The short-circuit program relies on `and` evaluating lazily; make sure
// both backends agree it does NOT dereference the null pointer. (Covered by
// the corpus entry; this re-checks with the interpreter explicitly since a
// crash there would abort the process.)
TEST(Backends, ShortCircuitAvoidsNullDeref) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run(Corpus[15].Src)) << E.errors();
  std::vector<Value> Results;
  ASSERT_TRUE(E.call(E.global("f"), {Value::number(0)}, Results))
      << E.errors();
  EXPECT_EQ(Results[0].asNumber(), 2);
}

} // namespace
