//===- test_vm.cpp - Register-bytecode VM (tier 0) tests ------------------===//
//
// Covers the bytecode compiler + computed-goto VM that back tier-0
// execution (DESIGN.md §10):
//   * every function gets compiled to bytecode and executed on it;
//   * VM results match literal expected values (the tree-walking
//     evaluator's results before it was deleted) and native code, bit for
//     bit, across arithmetic, loops, structs, recursion, and traps;
//   * vector code (lowered to lanes) and indirect calls compile to
//     bytecode too, with results unchanged;
//   * functions past the old size limits (5000 locals, a 5 MiB frame)
//     compile to bytecode;
//   * dispatch latency and back-edge telemetry is recorded.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "core/Engine.h"
#include "core/TerraBytecode.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

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

TEST(VM, CompilesLoopHeavyKernelToBytecode) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int\n"
                    "  var s = 0\n"
                    "  for i = 0, n do s = s + i * i end\n"
                    "  return s\n"
                    "end"))
      << E.errors();
  EXPECT_EQ(callF(E, 10), 285);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  // The call above must have gone through the bytecode engine.
  ASSERT_NE(F->Bytecode, nullptr);
  EXPECT_GT(F->Bytecode->Code.size(), 0u);
  EXPECT_GT(F->Bytecode->NumRegs, 0u);
  // A loop-carrying program must contain a counted back-edge.
  bool HasBackEdge = false;
  for (const bytecode::Insn &I : F->Bytecode->Code)
    HasBackEdge |= I.Code == bytecode::Op::JmpBack;
  EXPECT_TRUE(HasBackEdge);
  // And the disassembler renders it (smoke: non-empty, mentions the op).
  std::string Dis = bytecode::disassemble(*F->Bytecode);
  EXPECT_NE(Dis.find("JmpBack"), std::string::npos);
}

TEST(VM, RecordsDispatchTelemetry) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int\n"
                    "  var s = 0\n"
                    "  for i = 0, n do s = s + i end\n"
                    "  return s\n"
                    "end"))
      << E.errors();
  EXPECT_EQ(callF(E, 100), 4950);
  telemetry::Histogram::Snapshot S =
      E.compiler().jit().metrics().histogram("vm.dispatch_us").snapshot();
  EXPECT_GE(S.Count, 1u);
  EXPECT_GE(E.compiler().jit().metrics().counter("vm.backedges").value(),
            100u);
}

TEST(VM, VectorProgramCompilesToLanes) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(k: double): double\n"
                    "  var v: vector(double, 4) = k\n"
                    "  var w = v + v\n"
                    "  return w[0] + w[3]\n"
                    "end"))
      << E.errors();
  EXPECT_DOUBLE_EQ(callF(E, 2.5), 10.0);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  // Vectors lower to one scalar op per lane: bytecode exists, and the
  // register-resident lanes need no frame.
  ASSERT_NE(F->Bytecode, nullptr);
  EXPECT_EQ(F->Bytecode->FrameBytes, 0u);
  std::string Dis = bytecode::disassemble(*F->Bytecode);
  size_t Adds = 0;
  for (size_t At = Dis.find("AddF"); At != std::string::npos;
       At = Dis.find("AddF", At + 1))
    ++Adds;
  EXPECT_EQ(Adds, 5u) << Dis; // 4 lanes of v + v, then w[0] + w[3].
}

TEST(VM, IndirectCallCompilesToBytecode) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra add1(x: int): int return x + 1 end\n"
                    "terra mul2(x: int): int return x * 2 end\n"
                    "terra f(n: int): int\n"
                    "  var fp: int -> int = add1\n"
                    "  if n > 5 then fp = mul2 end\n"
                    "  return fp(n)\n"
                    "end"))
      << E.errors();
  EXPECT_EQ(callF(E, 7), 14);
  EXPECT_EQ(callF(E, 3), 4);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(F->Bytecode, nullptr);
  ASSERT_EQ(F->Bytecode->Calls.size(), 1u);
  EXPECT_EQ(F->Bytecode->Calls[0].Callee, nullptr); // Read from a register.
  EXPECT_NE(E.terraFunction("add1")->Bytecode, nullptr);
  // A null function value traps with the interpreter's diagnostic.
  ASSERT_TRUE(E.run("terra g(n: int): int\n"
                    "  var fp = [int -> int](nil)\n"
                    "  return fp(n)\n"
                    "end"))
      << E.errors();
  std::vector<Value> R;
  EXPECT_FALSE(E.call(E.global("g"), {Value::number(1)}, R));
  EXPECT_NE(E.errors().find("null function pointer call"), std::string::npos)
      << E.errors();
}

// Locals past the persistent-register budget live in the frame: a staged
// function with 5000 scalar locals still compiles to bytecode.
TEST(VM, FiveThousandLocalsCompileToBytecode) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("local n = symbol(int, 'n')\n"
                    "local acc = symbol(int, 'acc')\n"
                    "local body = terralib.newlist()\n"
                    "body:insert(quote var [acc] = 0 end)\n"
                    "local xs = terralib.newlist()\n"
                    "for i = 1, 5000 do\n"
                    "  local x = symbol(int, 'x' .. i)\n"
                    "  xs:insert(x)\n"
                    "  body:insert(quote var [x] = [n] + i end)\n"
                    "end\n"
                    "for _, x in ipairs(xs) do\n"
                    "  body:insert(quote [acc] = [acc] + [x] end)\n"
                    "end\n"
                    "terra f([n]): int\n"
                    "  [body]\n"
                    "  return [acc]\n"
                    "end"))
      << E.errors();
  EXPECT_EQ(callF(E, 1), 12507500); // 5000 * 1 + 5000 * 5001 / 2
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(F->Bytecode, nullptr);
  EXPECT_GT(F->Bytecode->FrameBytes, 0u); // The overflow locals.
}

// A frame past the old 4 MiB cap compiles to bytecode; the baseline JIT
// leaves the activation to the VM's heap frame.
TEST(VM, FiveMiBFrameCompilesToBytecode) {
  for (const char *Interp : {"vm", "baseline"}) {
    ScopedEnv Force("TERRACPP_INTERP", Interp);
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run("terra f(n: int): int\n"
                      "  var a: int[1310720]\n" // 5 MiB
                      "  a[1310719] = n\n"
                      "  for i = 0, 1000 do a[i * 1000] = i end\n"
                      "  return a[1310719] + a[999000]\n"
                      "end"))
        << E.errors();
    EXPECT_EQ(callF(E, 7), 1006) << Interp;
    TerraFunction *F = E.terraFunction("f");
    ASSERT_NE(F, nullptr);
    ASSERT_NE(F->Bytecode, nullptr) << Interp;
    EXPECT_GE(F->Bytecode->FrameBytes, 5u << 20) << Interp;
  }
}

// Past the uint32_t frame the bytecode compiler gives up, and with no
// other interpreter that is a compile error naming the function and the
// bail site (nothing is allocated or run).
TEST(VM, FrameBeyondUint32IsACompileError) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra f(n: int): int\n"
                    "  var a: int8[5000000000]\n"
                    "  a[n] = 1\n"
                    "  return a[n]\n"
                    "end",
                    "huge.t"))
      << E.errors();
  std::vector<Value> R;
  EXPECT_FALSE(E.call(E.global("f"), {Value::number(1)}, R));
  EXPECT_NE(E.errors().find("huge.t:2:3: error: terra interpreter: cannot "
                            "compile function 'f' to bytecode: frame cap"),
            std::string::npos)
      << E.errors();
  EXPECT_EQ(E.terraFunction("f")->Bytecode, nullptr);
}

TEST(VM, TrapsMatchTreeWalker) {
  // Division by zero must produce a diagnostic, not UB, on both interpreter
  // engines: the tree-walker's text and location, pinned literally.
  for (const char *Interp : {"vm", "baseline"}) {
    ScopedEnv Force("TERRACPP_INTERP", Interp);
    Engine E(BackendKind::Interp);
    ASSERT_TRUE(E.run("terra f(n: int): int return 10 / n end"))
        << E.errors();
    std::vector<Value> R;
    EXPECT_TRUE(E.call(E.global("f"), {Value::number(5)}, R));
    EXPECT_EQ(R[0].asNumber(), 2);
    R.clear();
    EXPECT_FALSE(E.call(E.global("f"), {Value::number(0)}, R))
        << "engine=" << Interp;
    std::string Errs = E.errors();
    EXPECT_EQ(Errs.substr(0, Errs.find('\n')),
              "chunk:1:32: error: terra interpreter: integer division by zero")
        << "engine=" << Interp;
  }
}

//===----------------------------------------------------------------------===//
// Optimization feedback: interval analysis elides trap guards the bytecode
// compiler would otherwise emit before integer division and shifts.
//===----------------------------------------------------------------------===//

/// Compiles `f` from \p Src with lints on (so RangeFacts attach before
/// bytecode emission), checks f(Arg) == Want, and returns the disassembly.
std::string compileAndDisassemble(const std::string &Src, double Arg,
                                  double Want) {
  Engine E(BackendKind::Interp);
  E.compiler().setAnalyzeLints(true);
  EXPECT_TRUE(E.run(Src)) << E.errors();
  EXPECT_EQ(callF(E, Arg), Want);
  TerraFunction *F = E.terraFunction("f");
  EXPECT_NE(F, nullptr);
  if (!F || !F->Bytecode) {
    EXPECT_NE(F ? F->Bytecode.get() : nullptr, nullptr);
    return "";
  }
  return bytecode::disassemble(*F->Bytecode);
}

TEST(VM, AnalysisElidesProvenDivGuard) {
  // Inside `x > 4` the divisor is in [5, INT32_MAX]: provably nonzero, so
  // the TrapIfZero guard never reaches the bytecode (and hence never
  // reaches the baseline JIT, which emits from this bytecode).
  std::string Dis = compileAndDisassemble("terra f(x: int): int\n"
                                          "  if x > 4 then return 1000 / x end\n"
                                          "  return 0\n"
                                          "end",
                                          8, 125);
  EXPECT_EQ(Dis.find("TrapIfZero"), std::string::npos) << Dis;
}

TEST(VM, UnprovenDivKeepsGuardAndStillTraps) {
  Engine E(BackendKind::Interp);
  E.compiler().setAnalyzeLints(true);
  ASSERT_TRUE(E.run("terra f(x: int): int return 1000 / x end"))
      << E.errors();
  EXPECT_EQ(callF(E, 8), 125);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(F->Bytecode, nullptr);
  std::string Dis = bytecode::disassemble(*F->Bytecode);
  EXPECT_NE(Dis.find("TrapIfZero"), std::string::npos) << Dis;
  std::vector<Value> R;
  EXPECT_FALSE(E.call(E.global("f"), {Value::number(0)}, R));
  EXPECT_NE(E.errors().find("division by zero"), std::string::npos)
      << E.errors();
}

TEST(VM, AnalysisElidesProvenShiftGuard) {
  // x % 4 + 4 is in [1, 7]: always a legal 32-bit shift amount, so no
  // TrapIfShiftGE; the constant modulus also needs no TrapIfZero.
  std::string Dis =
      compileAndDisassemble("terra f(x: int): int return 1 << (x % 4 + 4) end",
                            3, 128);
  EXPECT_EQ(Dis.find("TrapIfShiftGE"), std::string::npos) << Dis;
  EXPECT_EQ(Dis.find("TrapIfZero"), std::string::npos) << Dis;
}

TEST(VM, UnprovenShiftKeepsGuardAndStillTraps) {
  Engine E(BackendKind::Interp);
  E.compiler().setAnalyzeLints(true);
  ASSERT_TRUE(E.run("terra f(x: int): int return 1 << x end")) << E.errors();
  EXPECT_EQ(callF(E, 5), 32);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(F->Bytecode, nullptr);
  std::string Dis = bytecode::disassemble(*F->Bytecode);
  EXPECT_NE(Dis.find("TrapIfShiftGE"), std::string::npos) << Dis;
  std::vector<Value> R;
  EXPECT_FALSE(E.call(E.global("f"), {Value::number(40)}, R));
  EXPECT_NE(E.errors().find("shift amount out of range"), std::string::npos)
      << E.errors();
}

TEST(VM, AnalysisFoldsProvenDeadBranch) {
  // TA008 proves `y > 3` always true; the midend folds the condition, so
  // the compiled body is straight-line (no conditional jump) yet computes
  // the same result.
  Engine E(BackendKind::Interp);
  E.compiler().setAnalyzeLints(true);
  ASSERT_TRUE(E.run("terra f(x: int): int\n"
                    "  var y = 5\n"
                    "  if y > 3 then return 100 end\n"
                    "  return x\n"
                    "end"))
      << E.errors();
  EXPECT_EQ(callF(E, 7), 100);
  EXPECT_NE(E.errors().find("[TA008]"), std::string::npos) << E.errors();
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_NE(F->Bytecode, nullptr);
  std::string Dis = bytecode::disassemble(*F->Bytecode);
  EXPECT_EQ(Dis.find("JmpIfFalse"), std::string::npos) << Dis;
}

/// The parity battery: every program runs under the VM, and under native
/// code when a C compiler is present; both must return Expected exactly
/// (the tree-walking evaluator's result, recorded before its deletion).
struct Program {
  const char *Name;
  const char *Src; ///< Defines terra `f`.
  double Arg;
  double Expected;
};

const Program Parity[] = {
    {"unsigned_wrap",
     "terra f(n: int): double\n"
     "  var x: uint8 = 250\n"
     "  x = x + [uint8](n)\n" // wraps mod 256
     "  return x\n"
     "end",
     10, 4},
    {"float_precision",
     "terra f(k: double): double\n"
     "  var a: float = k\n"
     "  var b: float = 3.1\n"
     "  return a * b\n" // must round through float, not double
     "end",
     1.7, 5.2699999809265137},
    {"struct_byval",
     "struct P { x : int; y : int }\n"
     "terra shift(p: P, d: int): P return P { p.x + d, p.y - d } end\n"
     "terra f(n: int): int\n"
     "  var p = P { n, n * 2 }\n"
     "  p = shift(p, 3)\n"
     "  return p.x * 100 + p.y\n"
     "end",
     4, 705},
    {"recursion_deep",
     "terra f(n: int): int\n"
     "  if n == 0 then return 0 end\n"
     "  return f(n - 1) + n\n"
     "end",
     100, 5050},
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
     25, 109},
    {"pointer_walk",
     "terra f(n: int): int\n"
     "  var a: int[32]\n"
     "  for i = 0, 32 do a[i] = i * 3 end\n"
     "  var p = &a[0]\n"
     "  var s = 0\n"
     "  while p ~= &a[0] + n do s = s + @p p = p + 1 end\n"
     "  return s\n"
     "end",
     20, 570},
    {"shift_mix",
     "terra f(n: int): int64\n"
     "  var acc: int64 = 0\n"
     "  for i = 0, n do\n"
     "    acc = acc + (1 << i) + ([int64](1) << (i + 20))\n"
     "    acc = acc - (-256 >> i) + ([uint32](4096) >> i)\n"
     "  end\n"
     "  return acc\n"
     "end",
     12, 4293931519},
};

class VMParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(VMParityTest, MatchesTreeWalker) {
  const Program &P = Parity[GetParam()];
  bool HaveCC = Engine::defaultBackend() != BackendKind::Interp;
  for (BackendKind Backend : {BackendKind::Interp, BackendKind::Native}) {
    if (Backend == BackendKind::Native && !HaveCC)
      continue;
    ScopedEnv Force("TERRACPP_INTERP", "vm");
    Engine E(Backend);
    ASSERT_TRUE(E.run(P.Src, P.Name)) << E.errors();
    EXPECT_EQ(callF(E, P.Arg), P.Expected)
        << P.Name << (Backend == BackendKind::Native ? " native" : " vm");
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, VMParityTest,
                         ::testing::Range<size_t>(0, std::size(Parity)),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           return Parity[Info.param].Name;
                         });

} // namespace
