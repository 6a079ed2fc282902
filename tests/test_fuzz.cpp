//===- test_fuzz.cpp - Randomized differential backend testing ------------===//
//
// Property: for any well-typed Terra program, every execution engine — the
// native C backend, the tiered dispatcher, the baseline JIT and the tier-0
// register-bytecode VM — computes the bit-identical result. This suite
// generates random (seeded, reproducible) programs — double arithmetic,
// comparisons, branches, bounded loops, assignments, and vector(double, 4)
// lanes (broadcasts, lane ops, lane loads and stores at constant and
// runtime indices, comparison masks) — runs them on all four engines, and
// compares them against native code, or against the VM when there is no C
// compiler. Doubles are used for arithmetic so no C undefined behavior
// (signed overflow) can make "disagreement" ambiguous.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "core/Engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

using namespace terracpp;
using lua::Value;

namespace {

/// Deterministic generator (SplitMix64).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 2654435761u + 1) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  int range(int N) { return static_cast<int>(next() % N); }
  uint64_t State = 0;
  double small() {
    // Small doubles with exact binary representations keep both backends'
    // arithmetic bit-identical.
    static const double Pool[] = {0.0, 1.0,  2.0, 0.5,  -1.0,
                                  3.0, -0.25, 4.0, -2.0, 0.125};
    return Pool[range(10)];
  }
};

class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    std::ostringstream OS;
    OS << "terra f(x: double): double\n";
    OS << "  var a0: double = x\n"
       << "  var a1: double = x * 0.5\n"
       << "  var a2: double = 1.0\n"
       << "  var a3: double = -2.0\n"
       << "  var v0: vector(double, 4) = x\n"
       << "  var v1: vector(double, 4) = 0.5\n"
       << "  v1[2] = -1.0\n";
    int NumStmts = 3 + R.range(6);
    for (int I = 0; I != NumStmts; ++I)
      OS << stmt(2, 1);
    OS << "  return a0 + a1 * 2.0 + a2 - a3 + v0[0] + v0[3] * 0.5 - v1[1] + "
          "v1[2]\n";
    OS << "end\n";
    return OS.str();
  }

private:
  std::string var() { return "a" + std::to_string(R.range(4)); }
  std::string vvar() { return "v" + std::to_string(R.range(2)); }
  std::string lane() { return "[" + std::to_string(R.range(4)) + "]"; }

  /// vector(double, 4) expressions: lane-wise ops over the vector locals
  /// and broadcasts of scalar expressions.
  std::string vexpr(int Depth) {
    if (Depth <= 0 || R.range(3) == 0) {
      switch (R.range(3)) {
      case 0:
        return vvar();
      case 1:
        return "[vector(double, 4)](" + expr(0) + ")";
      default:
        return "(-" + vvar() + ")";
      }
    }
    static const char *Ops[] = {" + ", " - ", " * "};
    return "(" + vexpr(Depth - 1) + Ops[R.range(3)] + vexpr(Depth - 1) + ")";
  }

  std::string expr(int Depth) {
    if (Depth <= 0 || R.range(3) == 0) {
      switch (R.range(3)) {
      case 0:
        return var();
      case 1:
        return "x";
      default: {
        std::ostringstream OS;
        OS << R.small();
        std::string S = OS.str();
        if (S.find('.') == std::string::npos)
          S += ".0";
        return S;
      }
      }
    }
    static const char *Ops[] = {" + ", " - ", " * "};
    return "(" + expr(Depth - 1) + Ops[R.range(3)] + expr(Depth - 1) + ")";
  }

  std::string cond(int Depth) {
    static const char *Cmp[] = {" < ", " <= ", " > ", " >= ", " == ", " ~= "};
    return expr(Depth) + Cmp[R.range(6)] + expr(Depth);
  }

  std::string stmt(int Depth, int Indent) {
    std::string Pad(Indent * 2, ' ');
    switch (R.range(9)) {
    case 0:
    case 1:
      return Pad + var() + " = " + expr(Depth) + "\n";
    case 2: {
      std::string S = Pad + "if " + cond(Depth) + " then\n";
      S += stmt(Depth - 1, Indent + 1);
      if (R.range(2)) {
        S += Pad + "else\n";
        S += stmt(Depth - 1, Indent + 1);
      }
      S += Pad + "end\n";
      return S;
    }
    case 3: {
      int N = 1 + R.range(4);
      std::string S = Pad + "for k" + std::to_string(Counter++) +
                      " = 0, " + std::to_string(N) + " do\n";
      S += stmt(Depth - 1, Indent + 1);
      S += Pad + "end\n";
      return S;
    }
    case 4:
      // Bounded damping keeps values finite across loops.
      return Pad + var() + " = " + var() + " * 0.5 + " + expr(Depth - 1) +
             "\n";
    case 5: {
      std::string V = vvar();
      return Pad + V + " = " + V + " * 0.5 + " + vexpr(Depth - 1) + "\n";
    }
    case 6:
      if (R.range(2))
        return Pad + vvar() + lane() + " = " + expr(Depth) + "\n";
      return Pad + var() + " = " + var() + " * 0.5 + " + vvar() + lane() +
             "\n";
    case 7: {
      // A comparison mask, read one lane at a time.
      static const char *Cmp[] = {" < ", " <= ", " > ", " >= ", " == ",
                                  " ~= "};
      std::string M = "m" + std::to_string(Counter++);
      std::string S = Pad + "var " + M + " = " + vexpr(Depth - 1) +
                      Cmp[R.range(6)] + vexpr(Depth - 1) + "\n";
      S += Pad + "if " + M + lane() + " then\n";
      S += stmt(Depth - 1, Indent + 1);
      S += Pad + "end\n";
      return S;
    }
    default: {
      // Runtime lane indices keep that vector in the frame.
      std::string K = "k" + std::to_string(Counter++);
      std::string V = vvar();
      return Pad + "for " + K + " = 0, 4 do " + V + "[" + K + "] = " + V +
             "[" + K + "] * 0.5 + " + expr(Depth - 1) + " end\n";
    }
    }
  }

  Rng R;
  int Counter = 0;
};

class FuzzDiffTest : public ::testing::TestWithParam<uint64_t> {};

/// The four execution engines under differential test, each pinned by the
/// Engine's backend argument plus TERRACPP_INTERP, so every configuration
/// of the outer environment fuzzes all of them. Tiered makes one call per
/// program, which its baseline tier serves through the tiered dispatcher.
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
constexpr int NumEngines = static_cast<int>(std::size(Engines));
enum { Native, Tiered, Baseline, VM };

/// Bit-identical results across every engine that ran, against native code
/// when a C compiler ran it, else against the VM.
void expectAgreement(const double (&Results)[NumEngines],
                     const bool (&Have)[NumEngines], uint64_t Seed,
                     const std::string &Src) {
  ASSERT_TRUE(Have[Tiered] && Have[Baseline] && Have[VM]);
  int Ref = Have[Native] ? Native : VM;
  for (int I = 0; I != NumEngines; ++I)
    if (I != Ref && Have[I])
      EXPECT_EQ(Results[I], Results[Ref])
          << Engines[I].Name << " vs " << Engines[Ref].Name << ", seed "
          << Seed << "\n"
          << Src;
}

TEST_P(FuzzDiffTest, BackendsAgree) {
  bool HaveCC = Engine::defaultBackend() != BackendKind::Interp;
  uint64_t Seed = GetParam();
  ProgramGen G(Seed);
  std::string Src = G.generate();

  double Results[NumEngines] = {0};
  bool Have[NumEngines] = {false};
  for (int I = 0; I != NumEngines; ++I) {
    const EngineConfig &C = Engines[I];
    if (C.Backend == BackendKind::Native && !HaveCC)
      continue; // No C compiler: the interpreter tiers still differential.
    ScopedEnv Force("TERRACPP_INTERP", C.Interp);
    Engine E(C.Backend);
    ASSERT_TRUE(E.run(Src, "fuzz")) << "seed " << Seed << "\n"
                                    << Src << "\n"
                                    << E.errors();
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(1.5)}, R))
        << "seed " << Seed << " engine " << C.Name << "\n"
        << Src << "\n"
        << E.errors();
    ASSERT_TRUE(R[0].isNumber());
    Results[I] = R[0].asNumber();
    Have[I] = true;
    // Every generated construct, vectors included, runs on bytecode.
    if (C.Backend != BackendKind::Native)
      EXPECT_NE(E.terraFunction("f")->Bytecode, nullptr) << C.Name << "\n"
                                                         << Src;
  }
  ASSERT_FALSE(std::isnan(Results[VM])) << Src;
  expectAgreement(Results, Have, Seed, Src);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDiffTest,
                         ::testing::Range<uint64_t>(1, 33));

//===----------------------------------------------------------------------===//
// Integer programs with constant-range divisors and shift amounts. The
// interval analysis proves most divisors nonzero / shift amounts in range
// and elides the corresponding trap guards, so this battery checks that
// guard elimination never changes a result: all engines must stay
// bit-identical on division/modulo/shift-heavy integer code.
//===----------------------------------------------------------------------===//

class IntProgramGen {
public:
  explicit IntProgramGen(uint64_t Seed) : R(Seed) {}

  std::string generate() {
    std::ostringstream OS;
    OS << "terra f(x: int64): int64\n";
    OS << "  var b0: int64 = x\n"
       << "  var b1: int64 = x * 3 + 7\n"
       << "  var b2: int64 = 1000 - x\n"
       << "  var b3: int64 = 12345\n";
    int NumStmts = 4 + R.range(8);
    for (int I = 0; I != NumStmts; ++I)
      OS << stmt(1);
    // Damp once more so the checked result is far from 2^53.
    OS << "  return (b0 + b1 * 3 + b2 - b3) % 100003\n";
    OS << "end\n";
    return OS.str();
  }

private:
  std::string var() { return "b" + std::to_string(R.range(4)); }

  /// Every statement re-damps its target var with `% 100003`, so operands
  /// stay small enough that int64 arithmetic can never overflow (UB in the
  /// C backend would make disagreement ambiguous).
  std::string stmt(int Indent) {
    std::string Pad(Indent * 2, ' ');
    std::string V = var(), A = var(), B = var();
    switch (R.range(6)) {
    case 0:
      return Pad + V + " = (" + A + " + " + B + " * " +
             std::to_string(1 + R.range(9)) + ") % 100003\n";
    case 1: {
      // Divisor with a proven-nonzero constant range: A % k is in
      // [-(k-1), k-1], so + (k + m) keeps it positive. The analysis elides
      // the TrapIfZero for this site.
      int K = 2 + R.range(29);
      int M = 1 + R.range(50);
      return Pad + V + " = " + A + " / (" + B + " % " + std::to_string(K) +
             " + " + std::to_string(K + M) + ")\n";
    }
    case 2: {
      // Same shape for modulo.
      int K = 2 + R.range(13);
      return Pad + V + " = " + A + " % (" + B + " % " + std::to_string(K) +
             " + " + std::to_string(K + 1) + ")\n";
    }
    case 3: {
      // Shift amount in [K+1 - K, ...] = proven within [1, K+7] ⊂ [0, 63];
      // the shifted value is damped first so the result stays bounded.
      int K = 1 + R.range(7);
      return Pad + V + " = (" + A + " % 65536) << (" + B + " % " +
             std::to_string(K) + " + " + std::to_string(K) + ")\n";
    }
    case 4: {
      int K = 1 + R.range(15);
      return Pad + V + " = " + A + " >> (" + B + " % " + std::to_string(K) +
             " + " + std::to_string(K) + ")\n";
    }
    default: {
      // An unproven divisor (plain variable): the guard stays, and the
      // branch keeps the divisor nonzero at runtime on every engine.
      std::string S = Pad + "if " + A + " ~= 0 then\n";
      S += Pad + "  " + V + " = ((" + B + " * 5 - 11) / " + A +
           ") % 100003\n";
      S += Pad + "end\n";
      return S;
    }
    }
  }

  Rng R;
};

class IntFuzzDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntFuzzDiffTest, BackendsAgreeOnGuardElidedCode) {
  bool HaveCC = Engine::defaultBackend() != BackendKind::Interp;
  uint64_t Seed = GetParam();
  IntProgramGen G(Seed);
  std::string Src = G.generate();

  double Results[NumEngines] = {0};
  bool Have[NumEngines] = {false};
  for (int I = 0; I != NumEngines; ++I) {
    const EngineConfig &C = Engines[I];
    if (C.Backend == BackendKind::Native && !HaveCC)
      continue;
    ScopedEnv Force("TERRACPP_INTERP", C.Interp);
    Engine E(C.Backend);
    E.compiler().setAnalyzeLints(true); // Feed RangeFacts to the backends.
    ASSERT_TRUE(E.run(Src, "intfuzz")) << "seed " << Seed << "\n"
                                       << Src << "\n"
                                       << E.errors();
    std::vector<Value> R;
    ASSERT_TRUE(E.call(E.global("f"), {Value::number(271828)}, R))
        << "seed " << Seed << " engine " << C.Name << "\n"
        << Src << "\n"
        << E.errors();
    ASSERT_TRUE(R[0].isNumber());
    Results[I] = R[0].asNumber();
    Have[I] = true;
  }
  expectAgreement(Results, Have, Seed, Src);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntFuzzDiffTest,
                         ::testing::Range<uint64_t>(1, 25));

} // namespace
