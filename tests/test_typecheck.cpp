//===- test_typecheck.cpp - Terra typechecker behavior --------------------===//
//
// Positive and negative typechecking coverage: conversions and promotion,
// pointer arithmetic, vector typing, lvalue rules, condition typing,
// return-path analysis, and argument checking — the rules the backends
// rely on (TerraTypecheck.cpp).
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/TerraType.h"

#include <gtest/gtest.h>

using namespace terracpp;
using lua::Value;

namespace {

/// Runs the chunk and then compiles+calls global terra `f` with no args.
/// Returns the numeric result, or asserts.
double compileAndCall(const std::string &Src) {
  Engine E;
  bool OK = E.run(Src);
  EXPECT_TRUE(OK) << E.errors();
  if (!OK)
    return -1;
  std::vector<Value> Results;
  OK = E.call(E.global("f"), {}, Results);
  EXPECT_TRUE(OK) << E.errors();
  if (!OK || Results.empty())
    return -1;
  return Results[0].asNumber();
}

/// Expects the first call of `f` to fail typechecking with a message
/// containing \p Needle.
void expectTypeError(const std::string &Src, const std::string &Needle) {
  Engine E;
  ASSERT_TRUE(E.run(Src)) << E.errors();
  std::vector<Value> Results;
  EXPECT_FALSE(E.call(E.global("f"), {}, Results))
      << "expected a type error containing: " << Needle;
  EXPECT_NE(E.errors().find(Needle), std::string::npos) << E.errors();
}

//===----------------------------------------------------------------------===//
// Conversions and promotion
//===----------------------------------------------------------------------===//

TEST(Typecheck, IntFloatPromotion) {
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): double return 1 + 0.5 end"),
                   1.5);
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): double\n"
                                  "  var x: float = 0.25f\n"
                                  "  var y: int = 3\n"
                                  "  return x + y\n" // int -> float.
                                  "end"),
                   3.25);
}

TEST(Typecheck, IntegerWidthPromotion) {
  // int32 + int64 -> int64; large values survive.
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int64\n"
                                  "  var big: int64 = 4000000000LL\n"
                                  "  var small: int = 1\n"
                                  "  return big + small\n"
                                  "end"),
                   4000000001.0);
}

TEST(Typecheck, UnsignedArithmetic) {
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): uint64\n"
                                  "  var a: uint64 = 10ULL\n"
                                  "  var b: uint64 = 3ULL\n"
                                  "  return a / b\n"
                                  "end"),
                   3.0);
  // Unsigned comparison: huge unsigned > small.
  EXPECT_DOUBLE_EQ(compileAndCall(
                       "terra f(): int\n"
                       "  var a: uint32 = 0\n"
                       "  a = a - 1\n" // Wraps to UINT32_MAX.
                       "  if a > 100 then return 1 else return 0 end\n"
                       "end"),
                   1.0);
}

TEST(Typecheck, ShiftOperators) {
  // Precedence: shifts bind looser than additive/multiplicative ops.
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int return 1 << 2 + 3 end"), 32);
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int return 1 + 2 << 1 end"), 6);
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int return 2 << 1 * 3 end"), 16);
  // >> is arithmetic on signed, logical on unsigned operands.
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int return -16 >> 2 end"), -4);
  EXPECT_DOUBLE_EQ(
      compileAndCall("terra f(): uint32 return [uint32](4096) >> 5 end"), 128);
  // The result keeps the promoted operand type: uint8 << uint8 wraps.
  EXPECT_DOUBLE_EQ(
      compileAndCall("terra f(): int return [uint8](129) << [uint8](1) end"),
      2);
  EXPECT_DOUBLE_EQ(
      compileAndCall("terra f(): int64 return [int64](1) << 40 end"),
      1099511627776.0);
}

TEST(Typecheck, ShiftRequiresIntegralOperands) {
  expectTypeError("terra f(): double return 1.5 << 2 end",
                  "shift requires integral operands");
  expectTypeError("terra f(): int return 4 >> 0.5 end",
                  "shift requires integral operands");
}

TEST(Typecheck, ExplicitCastsAllowLossy) {
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int return int(3.9) end"), 3);
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int\n"
                                  "  var x: int64 = 300\n"
                                  "  return [int8](x)\n" // Truncates.
                                  "end"),
                   44); // 300 mod 256 = 44.
}

TEST(Typecheck, PointerConversions) {
  // nil converts to any pointer; &T to &U needs an explicit cast.
  EXPECT_DOUBLE_EQ(compileAndCall(
                       "terra f(): int\n"
                       "  var p: &int = nil\n"
                       "  if p == nil then return 1 else return 0 end\n"
                       "end"),
                   1.0);
  expectTypeError("terra f(): int\n"
                  "  var x: int = 0\n"
                  "  var p: &double = &x\n" // No implicit &int -> &double.
                  "  return 0\n"
                  "end",
                  "cannot convert");
}

TEST(Typecheck, PointerArithmetic) {
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int\n"
                                  "  var a: int[4]\n"
                                  "  a[0], a[1], a[2], a[3] = 10, 20, 30, 40\n"
                                  "  var p: &int = &a[0]\n"
                                  "  p = p + 2\n"
                                  "  var q: &int = &a[0]\n"
                                  "  return @p + (p - q)\n" // 30 + 2.
                                  "end"),
                   32.0);
}

TEST(Typecheck, ArrayDecayToPointer) {
  EXPECT_DOUBLE_EQ(compileAndCall("terra sum(p: &int, n: int): int\n"
                                  "  var s = 0\n"
                                  "  for i = 0, n do s = s + p[i] end\n"
                                  "  return s\n"
                                  "end\n"
                                  "terra f(): int\n"
                                  "  var a: int[3]\n"
                                  "  a[0], a[1], a[2] = 1, 2, 3\n"
                                  "  return sum(a, 3)\n" // Array decays.
                                  "end"),
                   6.0);
}

TEST(Typecheck, VectorBroadcastAndArithmetic) {
  EXPECT_DOUBLE_EQ(compileAndCall(
                       "terra f(): double\n"
                       "  var v: vector(double, 4) = 1.5\n" // Broadcast.
                       "  var w = v + v\n"
                       "  var s = 0.0\n"
                       "  for i = 0, 4 do s = s + w[i] end\n"
                       "  return s\n"
                       "end"),
                   12.0);
}

TEST(Typecheck, VectorComparisonsGiveBoolLanes) {
  // v > 5 is a vector(bool, 4) mask; `not` flips it lane by lane.
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int\n"
                                  "  var v: vector(int32, 4) = 3\n"
                                  "  v[1] = 7\n"
                                  "  var m = not (v > 5)\n"
                                  "  var n = 0\n"
                                  "  for i = 0, 4 do\n"
                                  "    if m[i] then n = n + 1 end\n"
                                  "  end\n"
                                  "  return n\n"
                                  "end"),
                   3.0);
  expectTypeError("terra f(): int\n"
                  "  var v: vector(int32, 4) = 3\n"
                  "  if v > 5 then return 1 end\n"
                  "  return 0\n"
                  "end",
                  "must be bool");
}

TEST(Typecheck, FloatForLoopsCountOnTruncatedBounds) {
  // The loop variable takes the bounds' float type; the count runs on the
  // int64 truncations (0, 1, 2 for 0.5 .. 3.5).
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): double\n"
                                  "  var s = 0.0\n"
                                  "  for t = 0.5, 3.5 do s = s + t end\n"
                                  "  return s\n"
                                  "end"),
                   3.0);
}

//===----------------------------------------------------------------------===//
// Error cases
//===----------------------------------------------------------------------===//

TEST(Typecheck, ConditionMustBeBool) {
  expectTypeError("terra f(): int\n"
                  "  if 1 then return 1 end\n"
                  "  return 0\n"
                  "end",
                  "must be bool");
  expectTypeError("terra f(): int\n"
                  "  while 0.5 do end\n"
                  "  return 0\n"
                  "end",
                  "must be bool");
}

TEST(Typecheck, LogicalOpsRequireBool) {
  expectTypeError("terra f(): int\n"
                  "  var x = 1 and 2\n"
                  "  return 0\n"
                  "end",
                  "boolean operands");
}

TEST(Typecheck, AssignmentToNonLValue) {
  expectTypeError("terra f(): int\n"
                  "  1 + 2 = 3\n"
                  "  return 0\n"
                  "end",
                  "lvalue");
}

TEST(Typecheck, WrongArgumentCount) {
  expectTypeError("terra g(a: int, b: int): int return a + b end\n"
                  "terra f(): int return g(1) end",
                  "expects 2 arguments");
}

TEST(Typecheck, NonVoidMustReturnOnAllPaths) {
  expectTypeError("terra f(): int\n"
                  "  var x = 1\n"
                  "end",
                  "control can reach the end");
  // But a fully-covered if/else is fine.
  EXPECT_DOUBLE_EQ(compileAndCall("terra f(): int\n"
                                  "  var x = 1\n"
                                  "  if x > 0 then return 1\n"
                                  "  else return 2 end\n"
                                  "end"),
                   1.0);
}

TEST(Typecheck, VoidFunctionCannotReturnValue) {
  expectTypeError("terra f(): {}\n"
                  "  return 1\n"
                  "end",
                  "void");
}

TEST(Typecheck, UnknownStructField) {
  expectTypeError("struct S { x : int }\n"
                  "terra f(): int\n"
                  "  var s: S\n"
                  "  return s.y\n"
                  "end",
                  "no field");
}

TEST(Typecheck, UnknownMethod) {
  expectTypeError("struct S { x : int }\n"
                  "terra f(): int\n"
                  "  var s: S\n"
                  "  return s:nope()\n"
                  "end",
                  "no method");
}

TEST(Typecheck, ModRequiresIntegers) {
  expectTypeError("terra f(): double return 1.5 % 0.5 end", "integral");
  expectTypeError("terra f(): double\n"
                  "  var v: vector(float, 4) = 1.5\n"
                  "  return (v % v)[0]\n"
                  "end",
                  "integral");
}

//===----------------------------------------------------------------------===//
// Return-type inference
//===----------------------------------------------------------------------===//

TEST(Typecheck, ReturnTypeInferred) {
  Engine E;
  ASSERT_TRUE(E.run("terra f(x: double) return x * 2.0 end")) << E.errors();
  std::vector<Value> Results;
  ASSERT_TRUE(E.call(E.global("f"), {Value::number(3)}, Results))
      << E.errors();
  EXPECT_DOUBLE_EQ(Results[0].asNumber(), 6.0);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->FnTy->result(), E.context().types().float64());
}

TEST(Typecheck, RecursiveNeedsAnnotationOnlyWhenRecursive) {
  // Self-recursion with an annotation works.
  EXPECT_DOUBLE_EQ(compileAndCall("terra fact(n: int): int\n"
                                  "  if n <= 1 then return 1 end\n"
                                  "  return n * fact(n - 1)\n"
                                  "end\n"
                                  "terra f(): int return fact(6) end"),
                   720.0);
}

TEST(Typecheck, MethodSugarPassesAddress) {
  // obj:m() on an lvalue takes &obj automatically (paper §4.1 desugaring).
  EXPECT_DOUBLE_EQ(compileAndCall("struct Counter { n : int }\n"
                                  "terra Counter:bump(): int\n"
                                  "  self.n = self.n + 1\n"
                                  "  return self.n\n"
                                  "end\n"
                                  "terra f(): int\n"
                                  "  var c = Counter { 0 }\n"
                                  "  c:bump()\n"
                                  "  c:bump()\n"
                                  "  return c:bump()\n"
                                  "end"),
                   3.0);
}

} // namespace
