//===- test_baseline.cpp - Baseline x86-64 JIT (tier 0.5) tests -----------===//
//
// Covers the direct-emission baseline JIT (DESIGN.md §11):
//   * bytecode-eligible programs actually run through emitted machine code
//     (telemetry proves it — not a silent VM fallback);
//   * results match the tree-walking evaluator bit for bit across the same
//     corpus the VM parity battery uses;
//   * traps (division by zero, null deref) produce the same diagnostic text
//     and source location as the interpreter tiers;
//   * programs the emitter bails on (oversized frames) fall back to the VM
//     with identical semantics and count a bailout;
//   * published code pages are never writable and executable at once (W^X);
//   * the TERRACPP_INTERP / threshold env knobs reject garbage.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "analysis/Analysis.h"
#include "core/Engine.h"
#include "core/StagingAPI.h"
#include "core/TerraBaselineJIT.h"
#include "core/TerraType.h"
#include "support/EnvParse.h"
#include "support/Log.h"
#include "support/Subprocess.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace terracpp;
using lua::Value;

namespace {

double callF(Engine &E, double Arg) {
  std::vector<Value> R;
  EXPECT_TRUE(E.call(E.global("f"), {Value::number(Arg)}, R)) << E.errors();
  return R.empty() ? 0.0 : R[0].asNumber();
}

uint64_t baselineFunctions(Engine &E) {
  return E.compiler().jit().metrics().counter("jit.baseline_functions").value();
}

/// Differential corpus: same shape as the VM parity battery, plus cases
/// aimed at the emitter specifically (float compares, unsigned division,
/// conversion edge cases, call-heavy code).
struct Program {
  const char *Name;
  const char *Src; ///< Defines terra `f`.
  double Arg;
};

const Program Corpus[] = {
    {"unsigned_wrap",
     "terra f(n: int): double\n"
     "  var x: uint8 = 250\n"
     "  x = x + [uint8](n)\n"
     "  return x\n"
     "end",
     10},
    {"float_precision",
     "terra f(k: double): double\n"
     "  var a: float = k\n"
     "  var b: float = 3.1\n"
     "  return a * b\n"
     "end",
     1.7},
    {"struct_byval",
     "struct P { x : int; y : int }\n"
     "terra shift(p: P, d: int): P return P { p.x + d, p.y - d } end\n"
     "terra f(n: int): int\n"
     "  var p = P { n, n * 2 }\n"
     "  p = shift(p, 3)\n"
     "  return p.x * 100 + p.y\n"
     "end",
     4},
    {"recursion_deep",
     "terra f(n: int): int\n"
     "  if n == 0 then return 0 end\n"
     "  return f(n - 1) + n\n"
     "end",
     100},
    {"nested_loops",
     "terra f(n: int): int\n"
     "  var s = 0\n"
     "  for i = 0, n do\n"
     "    for j = i, n do\n"
     "      if (i + j) % 3 == 0 then s = s + 1 end\n"
     "    end\n"
     "  end\n"
     "  return s\n"
     "end",
     25},
    {"pointer_walk",
     "terra f(n: int): int\n"
     "  var a: int[32]\n"
     "  for i = 0, 32 do a[i] = i * 3 end\n"
     "  var p = &a[0]\n"
     "  var s = 0\n"
     "  while p ~= &a[0] + n do s = s + @p p = p + 1 end\n"
     "  return s\n"
     "end",
     20},
    {"float_compare_chain",
     "terra f(k: double): double\n"
     "  var s: double = 0\n"
     "  var x: double = k\n"
     "  for i = 0, 50 do\n"
     "    if x < 3.5 then s = s + 1 end\n"
     "    if x >= 2.0 then s = s + 10 end\n"
     "    x = x * 1.03 - 0.01\n"
     "  end\n"
     "  return s + x\n"
     "end",
     2.25},
    {"unsigned_divmod",
     "terra f(n: int): double\n"
     "  var a: uint64 = [uint64](n) * 2654435761ULL\n"
     "  var b: uint32 = [uint32](n) + 7\n"
     "  return [double](a % 1000003ULL) + [double](a / 97ULL % 4096ULL)\n"
     "       + [double]([uint32](a) / b)\n"
     "end",
     123456},
    {"conversion_matrix",
     "terra f(k: double): double\n"
     "  var s: double = 0\n"
     "  s = s + [int8](k * 11)\n"
     "  s = s + [uint8](k * 13)\n"
     "  s = s + [int16](k * 1001)\n"
     "  s = s + [uint16](k * 1003)\n"
     "  s = s + [int32](k * 100001)\n"
     "  s = s + [uint32](k * 100003)\n"
     "  s = s + [double]([int64](k * 1e9))\n"
     "  s = s + [float](k) * 0.5\n"
     "  return s\n"
     "end",
     9.75},
    {"min_max_mixed",
     "terra f(k: double): double\n"
     "  var a: double = k\n"
     "  var b: double = 10 - k\n"
     "  var lo: int = 3\n"
     "  var hi: int = [int](k)\n"
     "  var m1: double = b if a < b then m1 = a end\n"
     "  var m2: int = hi if lo > hi then m2 = lo end\n"
     "  return m1 + m2\n"
     "end",
     6.5},
    {"call_chain",
     "terra leaf(x: int, y: int): int return x * y + 1 end\n"
     "terra mid(x: int): int return leaf(x, x + 1) + leaf(x - 1, 2) end\n"
     "terra f(n: int): int\n"
     "  var s = 0\n"
     "  for i = 0, n do s = s + mid(i) end\n"
     "  return s\n"
     "end",
     40},
    {"while_with_break",
     "terra f(n: int): int\n"
     "  var s = 0\n"
     "  var i = 0\n"
     "  while true do\n"
     "    if i >= n then break end\n"
     "    s = s + i * 2\n"
     "    i = i + 1\n"
     "  end\n"
     "  return s\n"
     "end",
     33},
};

class BaselineParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BaselineParityTest, MatchesTreeWalker) {
  if (!BaselineJIT::supported())
    GTEST_SKIP() << "baseline JIT not supported on this architecture";
  const Program &P = Corpus[GetParam()];
  double Tree, Base;
  {
    ScopedEnv Force("TERRACPP_INTERP", "tree");
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(P.Src, P.Name)) << E.errors();
    Tree = callF(E, P.Arg);
  }
  {
    // Default interp mode: the baseline JIT fronts the bytecode VM.
    ScopedEnv Pin("TERRACPP_INTERP", "baseline");
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(P.Src, P.Name)) << E.errors();
    Base = callF(E, P.Arg);
    // Machine code was actually emitted and used — not a VM fallback.
    EXPECT_GE(baselineFunctions(E), 1u) << P.Name;
  }
  EXPECT_DOUBLE_EQ(Tree, Base) << P.Name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, BaselineParityTest,
                         ::testing::Range<size_t>(0, std::size(Corpus)),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return Corpus[Info.param].Name;
                         });

TEST(Baseline, TrapMessagesAndLocationsMatchInterpreter) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  // Line 2 divides; the diagnostic must carry the same text and source
  // position whether the trap fires in emitted code or the tree-walker.
  const char *Src = "terra f(n: int): int\n"
                    "  return 10 / n\n"
                    "end";
  std::string Errs[2];
  auto RunCase = [&](int Idx, bool Baseline) {
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(Src, "trap.t")) << E.errors();
    std::vector<Value> R;
    EXPECT_TRUE(E.call(E.global("f"), {Value::number(5)}, R));
    EXPECT_EQ(R[0].asNumber(), 2);
    R.clear();
    EXPECT_FALSE(E.call(E.global("f"), {Value::number(0)}, R));
    Errs[Idx] = E.errors();
    EXPECT_NE(Errs[Idx].find("division by zero"), std::string::npos)
        << Errs[Idx];
    if (Baseline)
      EXPECT_GE(baselineFunctions(E), 1u)
          << "trap test never reached emitted code";
  };
  {
    ScopedEnv Force("TERRACPP_INTERP", "tree");
    RunCase(0, false);
  }
  {
    ScopedEnv Pin("TERRACPP_INTERP", "baseline");
    RunCase(1, true);
  }
  // Same source location: both diagnostics name the file and line.
  EXPECT_NE(Errs[1].find("trap.t"), std::string::npos) << Errs[1];
  EXPECT_NE(Errs[1].find(":2"), std::string::npos) << Errs[1];
}

TEST(Baseline, NullDerefTrapsCleanly) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  ScopedEnv Pin("TERRACPP_INTERP", "baseline");
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int\n"
                    "  var p: &int = nil\n"
                    "  return @p + n\n"
                    "end",
                    "null.t"))
      << E.errors();
  std::vector<Value> R;
  EXPECT_FALSE(E.call(E.global("f"), {Value::number(1)}, R));
  EXPECT_NE(E.errors().find("null pointer dereference"), std::string::npos)
      << E.errors();
  EXPECT_NE(E.errors().find("null.t:3"), std::string::npos) << E.errors();
}

TEST(Baseline, BuilderMinMaxIntrinsicsMatchTreeWalker) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  // Scalar min/max come from the staging builder (no surface syntax); the
  // emitter's minsd/maxsd operand order must reproduce the VM's
  // select-style semantics exactly.
  auto Run = [](bool Tree) {
    ScopedEnv Force("TERRACPP_INTERP", Tree ? "tree" : "baseline");
    Engine E(BackendKind::Interp);
    stage::Builder B(E.context());
    TypeContext &TC = E.context().types();
    Type *F64 = TC.float64();
    TerraSymbol *X = B.sym(F64, "x");
    TerraSymbol *Y = B.sym(F64, "y");
    std::vector<TerraStmt *> Body;
    Body.push_back(B.ret(
        B.add(B.mul(B.minExpr(B.var(X), B.var(Y)), B.litFloat(100)),
              B.maxExpr(B.var(X), B.var(Y)))));
    TerraFunction *F =
        B.function("mm", {X, Y}, F64, B.block(std::move(Body)));
    std::vector<Value> Args = {Value::number(3), Value::number(7)};
    std::vector<Value> R;
    EXPECT_TRUE(E.compiler().callFromHost(F, Args, R, SourceLoc()))
        << E.errors();
    return R.empty() ? 0.0 : R[0].asNumber();
  };
  double Tree = Run(true);
  double Base = Run(false);
  EXPECT_DOUBLE_EQ(Tree, 307.0);
  EXPECT_DOUBLE_EQ(Base, Tree);
}

TEST(Baseline, DeepRecursionOverflowsGracefully) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  // Unbounded guest recursion stays on the native stack in baseline code
  // (the baseline-to-baseline fast path never returns to the VM), so the
  // shared depth budget must stop it with the interpreter's diagnostic —
  // not a host-process SIGSEGV.
  ScopedEnv Pin("TERRACPP_INTERP", "baseline");
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int\n"
                    "  if n == 0 then return 0 end\n"
                    "  return f(n - 1) + n\n"
                    "end",
                    "deep.t"))
      << E.errors();
  // Within budget: correct result, served by emitted code.
  std::vector<Value> R;
  EXPECT_TRUE(E.call(E.global("f"), {Value::number(100)}, R)) << E.errors();
  ASSERT_FALSE(R.empty());
  EXPECT_EQ(R[0].asNumber(), 5050);
  EXPECT_GE(baselineFunctions(E), 1u);
  // Past budget: graceful failure with the tier-invariant diagnostic.
  R.clear();
  EXPECT_FALSE(E.call(E.global("f"), {Value::number(100000)}, R));
  EXPECT_NE(E.errors().find("call stack overflow"), std::string::npos)
      << E.errors();
  // The engine is still usable afterwards (depth counter fully unwound).
  R.clear();
  EXPECT_TRUE(E.call(E.global("f"), {Value::number(10)}, R)) << E.errors();
  ASSERT_FALSE(R.empty());
  EXPECT_EQ(R[0].asNumber(), 55);
}

TEST(Baseline, MediumFrameBailsOutBelowStackGuardGap) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  // 40000 doubles = 320 KB of frame: legal for the VM (heap buffer) but
  // over the emitter's 256 KB native-stack cap, which keeps the prologue's
  // single unprobed `sub rsp` inside the kernel's stack guard gap. The
  // function must bail to the VM and still be correct.
  ScopedEnv Pin("TERRACPP_INTERP", "baseline");
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): double\n"
                    "  var a: double[40000]\n"
                    "  for i = 0, 1000 do a[i] = i * 0.5 end\n"
                    "  var s: double = 0\n"
                    "  for i = 0, n do s = s + a[i] end\n"
                    "  return s\n"
                    "end",
                    "medium.t"))
      << E.errors();
  EXPECT_DOUBLE_EQ(callF(E, 1000), 249750.0);
  EXPECT_GE(
      E.compiler().jit().metrics().counter("jit.baseline_bailouts").value(),
      1u);
}

TEST(Baseline, OversizedFrameBailsOutToVMWithIdenticalResults) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  // 200000 doubles = 1.6 MB of frame: far over the emitter's 256 KB
  // native-stack cap, so this function must run on the VM — and still be
  // correct.
  const char *Src = "terra f(n: int): double\n"
                    "  var a: double[200000]\n"
                    "  for i = 0, 1000 do a[i] = i * 0.5 end\n"
                    "  var s: double = 0\n"
                    "  for i = 0, n do s = s + a[i] end\n"
                    "  return s\n"
                    "end";
  double Tree;
  {
    ScopedEnv Force("TERRACPP_INTERP", "tree");
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run(Src, "big.t")) << E.errors();
    Tree = callF(E, 1000);
  }
  ScopedEnv Pin("TERRACPP_INTERP", "baseline");
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run(Src, "big.t")) << E.errors();
  EXPECT_DOUBLE_EQ(callF(E, 1000), Tree);
  EXPECT_GE(
      E.compiler().jit().metrics().counter("jit.baseline_bailouts").value(),
      1u);
  // The bailout is remembered: repeated calls do not re-attempt emission.
  uint64_t Bailouts =
      E.compiler().jit().metrics().counter("jit.baseline_bailouts").value();
  EXPECT_DOUBLE_EQ(callF(E, 1000), Tree);
  EXPECT_EQ(
      E.compiler().jit().metrics().counter("jit.baseline_bailouts").value(),
      Bailouts);
}

TEST(Baseline, DisabledByEnvKnob) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  ScopedEnv Off("TERRACPP_INTERP", "vm");
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int return n + 1 end")) << E.errors();
  EXPECT_EQ(callF(E, 41), 42);
  EXPECT_EQ(E.compiler().baseline(), nullptr);
  EXPECT_EQ(baselineFunctions(E), 0u);
}

#if defined(__linux__)
TEST(Baseline, CodePagesAreNeverWritableAndExecutable) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  ScopedEnv Pin("TERRACPP_INTERP", "baseline");
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int\n"
                    "  var s = 0\n"
                    "  for i = 0, n do s = s + i end\n"
                    "  return s\n"
                    "end"))
      << E.errors();
  EXPECT_EQ(callF(E, 100), 4950);
  ASSERT_GE(baselineFunctions(E), 1u);
  // With emitted code live, no mapping in this process may be W+X.
  std::ifstream Maps("/proc/self/maps");
  ASSERT_TRUE(Maps.is_open());
  std::string Line;
  while (std::getline(Maps, Line)) {
    std::istringstream LS(Line);
    std::string Range, Perms;
    LS >> Range >> Perms;
    EXPECT_FALSE(Perms.size() >= 3 && Perms[1] == 'w' && Perms[2] == 'x')
        << "W+X mapping: " << Line;
  }
}
#endif

//===----------------------------------------------------------------------===//
// Env-knob validation (EnvParse)
//===----------------------------------------------------------------------===//

TEST(EnvParse, UIntRejectsGarbageAndKeepsDefault) {
  ScopedEnv V("TERRACPP_TEST_UINT", "12x");
  EXPECT_EQ(envcfg::parseUInt("TERRACPP_TEST_UINT", 7), 7u);
  ScopedEnv V2("TERRACPP_TEST_UINT2", "-3");
  EXPECT_EQ(envcfg::parseUInt("TERRACPP_TEST_UINT2", 7), 7u);
  ScopedEnv V3("TERRACPP_TEST_UINT3", "99999999999999999999999");
  EXPECT_EQ(envcfg::parseUInt("TERRACPP_TEST_UINT3", 7), 7u);
  ScopedEnv V4("TERRACPP_TEST_UINT4", "42");
  EXPECT_EQ(envcfg::parseUInt("TERRACPP_TEST_UINT4", 7), 42u);
}

TEST(EnvParse, UIntEnforcesRange) {
  ScopedEnv V("TERRACPP_TEST_RANGE", "500");
  EXPECT_EQ(envcfg::parseUInt("TERRACPP_TEST_RANGE", 4, 1, 256), 4u);
  ScopedEnv V2("TERRACPP_TEST_RANGE2", "0");
  EXPECT_EQ(envcfg::parseUInt("TERRACPP_TEST_RANGE2", 4, 1, 256), 4u);
  ScopedEnv V3("TERRACPP_TEST_RANGE3", "256");
  EXPECT_EQ(envcfg::parseUInt("TERRACPP_TEST_RANGE3", 4, 1, 256), 256u);
}

TEST(EnvParse, PositiveRealAcceptsFractionsRejectsGarbage) {
  ScopedEnv V("TERRACPP_TEST_REAL", "0.001");
  EXPECT_DOUBLE_EQ(envcfg::parsePositiveReal("TERRACPP_TEST_REAL", 5, 100),
                   0.001);
  ScopedEnv V2("TERRACPP_TEST_REAL2", "2.5e1");
  EXPECT_DOUBLE_EQ(envcfg::parsePositiveReal("TERRACPP_TEST_REAL2", 5, 100),
                   25.0);
  for (const char *Bad : {"abc", ".", "-1", "0", "1.5MB", "inf", " 1",
                          "1e400", "500"}) {
    ScopedEnv V3("TERRACPP_TEST_REAL3", Bad);
    EXPECT_DOUBLE_EQ(envcfg::parsePositiveReal("TERRACPP_TEST_REAL3", 5, 100),
                     5.0)
        << Bad;
  }
}

TEST(EnvParse, BoolAcceptsCommonSpellingsRejectsGarbage) {
  ScopedEnv V("TERRACPP_TEST_BOOL", "on");
  EXPECT_TRUE(envcfg::parseBool("TERRACPP_TEST_BOOL", false));
  ScopedEnv V2("TERRACPP_TEST_BOOL2", "FALSE");
  EXPECT_FALSE(envcfg::parseBool("TERRACPP_TEST_BOOL2", true));
  ScopedEnv V3("TERRACPP_TEST_BOOL3", "maybe");
  EXPECT_TRUE(envcfg::parseBool("TERRACPP_TEST_BOOL3", true));
  EXPECT_FALSE(envcfg::parseBool("TERRACPP_TEST_BOOL3", false));
  // The product's on/off knobs take the same spellings.
  {
    ScopedEnv Json("TERRAD_LOG_JSON", "false");
    logging::setJsonOutput(true);
    logging::configureFromEnv();
    EXPECT_FALSE(logging::jsonOutput());
  }
  {
    ScopedEnv Lints("TERRACPP_ANALYZE", "no");
    EXPECT_FALSE(analysis::AnalyzeOptions::lintsEnabledFromEnv());
  }
  {
    ScopedEnv Cache("TERRACPP_CACHE", "false");
    Engine E(BackendKind::Interp);
    EXPECT_EQ(E.compiler().jit().cacheDir(), "");
  }
}

/// Occurrences of \p Needle in \p Text.
size_t countOf(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Text.find(Needle); P != std::string::npos;
       P = Text.find(Needle, P + 1))
    ++N;
  return N;
}

TEST(EnvParse, ChoiceAcceptsListedValuesRejectsGarbage) {
  ScopedEnv V("TERRACPP_TEST_CHOICE", "Beta");
  EXPECT_EQ(envcfg::parseChoice("TERRACPP_TEST_CHOICE", {"alpha", "beta"}, 0),
            1u);
  ScopedEnv V2("TERRACPP_TEST_CHOICE2", "gamma");
  EXPECT_EQ(envcfg::parseChoice("TERRACPP_TEST_CHOICE2", {"alpha", "beta"}, 1),
            1u);
  ScopedUnsetEnv V3("TERRACPP_TEST_CHOICE3");
  EXPECT_EQ(envcfg::parseChoice("TERRACPP_TEST_CHOICE3", {"alpha", "beta"}, 1),
            1u);
  // A misspelled log level keeps the current level, with one warning.
  logging::Level Saved = logging::level();
  logging::setLevel(logging::Level::Info);
  {
    ScopedEnv Level("TERRAD_LOG_LEVEL", "garbage");
    testing::internal::CaptureStderr();
    logging::configureFromEnv();
    logging::configureFromEnv();
    EXPECT_EQ(countOf(testing::internal::GetCapturedStderr(),
                      "TERRAD_LOG_LEVEL"),
              1u);
    EXPECT_EQ(logging::level(), logging::Level::Info);
  }
  {
    ScopedEnv Level("TERRAD_LOG_LEVEL", "ERROR");
    logging::configureFromEnv();
    EXPECT_EQ(logging::level(), logging::Level::Error);
  }
  logging::setLevel(Saved);
}

TEST(EnvParse, ExecutionPolicyResolvesEveryValue) {
  const std::pair<const char *, BackendKind> Backends[] = {
      {"native", BackendKind::Native},
      {"tiered", BackendKind::Tiered},
      {"interp", BackendKind::Interp},
      {"Tiered", BackendKind::Tiered}};
  const std::pair<const char *, InterpKind> Interps[] = {
      {"baseline", InterpKind::Baseline},
      {"vm", InterpKind::VM},
      {"tree", InterpKind::Tree},
      {"VM", InterpKind::VM}};
  for (const auto &B : Backends)
    for (const auto &In : Interps) {
      ScopedEnv EB("TERRACPP_BACKEND", B.first);
      ScopedEnv EI("TERRACPP_INTERP", In.first);
      EXPECT_EQ(Engine::defaultBackend(), B.second) << B.first;
      EXPECT_EQ(Engine::defaultInterp(), In.second) << In.first;
      // An explicit argument ignores TERRACPP_BACKEND; the interpreter
      // always comes from TERRACPP_INTERP.
      Engine E(BackendKind::Interp);
      EXPECT_EQ(E.compiler().backend(), BackendKind::Interp) << B.first;
      EXPECT_EQ(E.compiler().interpKind(), In.second) << In.first;
      EXPECT_EQ(E.compiler().baseline() != nullptr,
                In.second == InterpKind::Baseline && BaselineJIT::supported())
          << In.first;
    }
  // Unset: the cc probe picks the backend, and the baseline JIT interprets.
  ScopedUnsetEnv NoBackend("TERRACPP_BACKEND");
  ScopedUnsetEnv NoInterp("TERRACPP_INTERP");
  BackendKind Probe =
      findOnPath("cc").empty() ? BackendKind::Interp : BackendKind::Native;
  EXPECT_EQ(Engine::defaultBackend(), Probe);
  EXPECT_EQ(Engine::defaultInterp(), InterpKind::Baseline);
  {
    Engine E;
    EXPECT_EQ(E.compiler().backend(), Probe);
  }
  // Garbage: the same default, and one warning however often it is read.
  ScopedEnv Bad("TERRACPP_BACKEND", "bananas");
  testing::internal::CaptureStderr();
  EXPECT_EQ(Engine::defaultBackend(), Probe);
  EXPECT_EQ(Engine::defaultBackend(), Probe);
  EXPECT_EQ(countOf(testing::internal::GetCapturedStderr(),
                    "TERRACPP_BACKEND"),
            1u);
}

//===----------------------------------------------------------------------===//
// Optimization feedback: guards elided by interval analysis never reach the
// baseline emitter's output.
//===----------------------------------------------------------------------===//

/// Number of `test rax,rax; jz rel32` sequences (48 85 C0 0F 84) in the
/// baseline code emitted for `f` — the exact byte pattern of a TrapIfZero
/// guard. \p Src must define terra `f`; f(Arg) must equal Want.
size_t zeroGuardCount(const std::string &Src, double Arg, double Want) {
  Engine E(BackendKind::Interp);
  E.compiler().setAnalyzeLints(true);
  EXPECT_TRUE(E.run(Src)) << E.errors();
  EXPECT_EQ(callF(E, Arg), Want);
  TerraFunction *F = E.terraFunction("f");
  EXPECT_NE(F, nullptr);
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(BaselineJIT::emitBytesForTest(F, Bytes));
  static const uint8_t Pat[] = {0x48, 0x85, 0xC0, 0x0F, 0x84};
  size_t N = 0;
  for (size_t I = 0; I + sizeof(Pat) <= Bytes.size(); ++I)
    if (std::equal(Pat, Pat + sizeof(Pat), Bytes.begin() + I))
      ++N;
  return N;
}

TEST(Baseline, ElidedDivGuardIsAbsentFromEmittedBytes) {
  if (!BaselineJIT::supported())
    GTEST_SKIP() << "baseline JIT not supported on this architecture";
  // Unproven divisor: exactly one zero guard in the emitted code. Proven
  // divisor (x % 9 + 11 is in [3, 19]): the guard bytes do not exist —
  // straight-line division with no test/jz pair anywhere.
  EXPECT_EQ(zeroGuardCount("terra f(x: int): int return 1000 / x end", 8, 125),
            1u);
  EXPECT_EQ(zeroGuardCount("terra f(x: int): int\n"
                           "  var d = x % 9 + 11\n"
                           "  return 1000 / d\n"
                           "end",
                           8, 52),
            0u);
}

TEST(Baseline, ShiftGuardTrapsInBaselineCode) {
  if (!BaselineJIT::supported())
    GTEST_SKIP() << "baseline JIT not supported on this architecture";
  // An unproven shift keeps its TrapIfShiftGE, and the baseline's trap
  // path reports the same diagnostic as the VM's.
  ScopedEnv Pin("TERRACPP_INTERP", "baseline");
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int return 1 << n end")) << E.errors();
  EXPECT_EQ(callF(E, 6), 64);
  EXPECT_GE(baselineFunctions(E), 1u);
  std::vector<Value> R;
  EXPECT_FALSE(E.call(E.global("f"), {Value::number(99)}, R));
  EXPECT_NE(E.errors().find("shift amount out of range"), std::string::npos)
      << E.errors();
}

TEST(EnvParse, BaselineKnobSurvivesGarbage) {
  if (!BaselineJIT::supported())
    GTEST_SKIP();
  // An invalid value falls back to the default (baseline) with one
  // warning, rather than silently disabling the tier.
  ScopedEnv Bad("TERRACPP_INTERP", "bananas");
  testing::internal::CaptureStderr();
  EXPECT_EQ(Engine::defaultInterp(), InterpKind::Baseline);
  EXPECT_EQ(Engine::defaultInterp(), InterpKind::Baseline);
  EXPECT_EQ(
      countOf(testing::internal::GetCapturedStderr(), "TERRACPP_INTERP"), 1u);
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int return n * 2 end")) << E.errors();
  EXPECT_EQ(callF(E, 21), 42);
  EXPECT_NE(E.compiler().baseline(), nullptr);
}

} // namespace
