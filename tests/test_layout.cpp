//===- test_layout.cpp - DataTable AoS/SoA tests (paper §6.3.2) -----------===//
//
// Checks that the generated AoS and SoA containers present the same
// interface and behavior, that the physical layouts actually differ as
// specified, and that generated kernels written against the interface work
// unchanged when the layout string flips — the paper's headline property.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/StagingAPI.h"
#include "core/TerraType.h"
#include "layout/DataTable.h"

#include <gtest/gtest.h>

using namespace terracpp;
using namespace terracpp::layout;
using stage::Builder;

namespace {

bool nativeAvailable() {
  return Engine::defaultBackend() != BackendKind::Interp;
}

/// Generates a kernel against the layout-independent interface:
///   var t; t:init(n); fill fields; sum = Σ (x+y); t:free(); return sum
TerraFunction *makeRoundtrip(Engine &E, DataTable &DT, const char *Name) {
  Builder B(E.context());
  TypeContext &TC = E.context().types();
  Type *F64 = TC.float64();
  Type *I64 = TC.int64();

  TerraSymbol *N = B.sym(I64, "n");
  TerraSymbol *T = B.sym(DT.type(), "t");
  TerraSymbol *Sum = B.sym(F64, "sum");
  TerraSymbol *I = B.sym(I64, "i");
  TerraSymbol *J = B.sym(I64, "j");

  std::vector<TerraStmt *> Fill;
  Fill.push_back(B.exprStmt(B.methodCall(
      B.addrOf(B.var(T)), "set_x",
      {B.var(I), B.cast(F64, B.var(I))})));
  Fill.push_back(B.exprStmt(B.methodCall(
      B.addrOf(B.var(T)), "set_y",
      {B.var(I), B.mul(B.cast(F64, B.var(I)), B.litFloat(2.0))})));

  std::vector<TerraStmt *> Acc;
  {
    TerraSymbol *R = B.sym(DT.rowType(), "r");
    Acc.push_back(B.varDecl(
        R, B.methodCall(B.addrOf(B.var(T)), "row", {B.var(J)})));
    Acc.push_back(B.assign(
        B.var(Sum),
        B.add(B.var(Sum),
              B.add(B.methodCall(B.addrOf(B.var(R)), "x", {}),
                    B.methodCall(B.addrOf(B.var(R)), "y", {})))));
  }

  std::vector<TerraStmt *> Body;
  Body.push_back(B.varDecl(T));
  Body.push_back(
      B.exprStmt(B.methodCall(B.addrOf(B.var(T)), "init", {B.var(N)})));
  Body.push_back(B.forNum(I, B.litI64(0), B.var(N), B.block(std::move(Fill))));
  Body.push_back(B.varDecl(Sum, B.litFloat(0.0)));
  Body.push_back(B.forNum(J, B.litI64(0), B.var(N), B.block(std::move(Acc))));
  Body.push_back(B.exprStmt(B.methodCall(B.addrOf(B.var(T)), "free", {})));
  Body.push_back(B.ret(B.var(Sum)));
  return B.function(Name, {N}, F64, B.block(std::move(Body)));
}

double runRoundtrip(Engine &E, DataTable &DT, int64_t N, const char *Name) {
  TerraFunction *Fn = makeRoundtrip(E, DT, Name);
  if (!E.compiler().ensureCompiled(Fn)) {
    ADD_FAILURE() << E.errors();
    return -1;
  }
  std::vector<lua::Value> Args = {lua::Value::number(double(N))}, Results;
  if (!E.compiler().callFromHost(Fn, Args, Results, SourceLoc())) {
    ADD_FAILURE() << E.errors();
    return -1;
  }
  return Results[0].asNumber();
}

class LayoutParamTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(LayoutParamTest, RoundtripSum) {
  if (!nativeAvailable())
    GTEST_SKIP();
  Engine E;
  TypeContext &TC = E.context().types();
  DataTable DT(E, "P", {{"x", TC.float64()}, {"y", TC.float64()}},
               GetParam());
  int64_t N = 1000;
  // sum over i of (i + 2i) = 3 * N(N-1)/2.
  double Expected = 3.0 * N * (N - 1) / 2;
  EXPECT_DOUBLE_EQ(runRoundtrip(E, DT, N, "roundtrip"), Expected);
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, LayoutParamTest,
                         ::testing::Values(LayoutKind::AoS, LayoutKind::SoA));

TEST(Layout, PhysicalLayoutsDiffer) {
  Engine E;
  TypeContext &TC = E.context().types();
  DataTable A(E, "A", {{"x", TC.float32()}, {"y", TC.float32()},
                       {"z", TC.float32()}},
              LayoutKind::AoS);
  DataTable S(E, "S", {{"x", TC.float32()}, {"y", TC.float32()},
                       {"z", TC.float32()}},
              LayoutKind::SoA);
  ASSERT_TRUE(
      E.compiler().typechecker().completeStruct(A.type(), SourceLoc()));
  ASSERT_TRUE(
      E.compiler().typechecker().completeStruct(S.type(), SourceLoc()));
  // AoS: one data pointer + count. SoA: three field pointers + count.
  EXPECT_EQ(A.type()->fields().size(), 2u);
  EXPECT_EQ(S.type()->fields().size(), 4u);
  EXPECT_TRUE(A.type()->fields()[0].FieldType->isPointer());
  EXPECT_TRUE(S.type()->fields()[0].FieldType->isPointer());
}

TEST(Layout, MixedFieldTypes) {
  if (!nativeAvailable())
    GTEST_SKIP();
  Engine E;
  TypeContext &TC = E.context().types();
  DataTable DT(E, "M",
               {{"x", TC.float64()}, {"flag", TC.int32()}},
               LayoutKind::SoA);
  Builder B(E.context());
  TerraSymbol *T = B.sym(DT.type(), "t");
  std::vector<TerraStmt *> Body;
  Body.push_back(B.varDecl(T));
  Body.push_back(
      B.exprStmt(B.methodCall(B.addrOf(B.var(T)), "init", {B.litI64(4)})));
  Body.push_back(B.exprStmt(B.methodCall(B.addrOf(B.var(T)), "set_flag",
                                         {B.litI64(2), B.litInt(7)})));
  Body.push_back(B.ret(B.methodCall(B.addrOf(B.var(T)), "get_flag",
                                    {B.litI64(2)})));
  TerraFunction *Fn = B.function("mixed", {}, TC.int32(),
                                 B.block(std::move(Body)));
  ASSERT_TRUE(E.compiler().ensureCompiled(Fn)) << E.errors();
  std::vector<lua::Value> Args, Results;
  ASSERT_TRUE(E.compiler().callFromHost(Fn, Args, Results, SourceLoc()));
  EXPECT_EQ(Results[0].asNumber(), 7);
}

} // namespace

//===----------------------------------------------------------------------===//
// Property sweep: many field shapes x both layouts behave identically
//===----------------------------------------------------------------------===//

namespace {

using PropParam = std::tuple<int /*NumFields*/, LayoutKind>;

class LayoutPropertyTest : public ::testing::TestWithParam<PropParam> {};

TEST_P(LayoutPropertyTest, WriteReadRoundtrip) {
  if (!nativeAvailable())
    GTEST_SKIP();
  auto [NumFields, L] = GetParam();
  Engine E;
  TypeContext &TC = E.context().types();
  stage::Builder B(E.context());

  // Alternate f64/i32 fields: mixed sizes exercise AoS padding.
  std::vector<std::pair<std::string, Type *>> Fields;
  for (int F = 0; F != NumFields; ++F)
    Fields.emplace_back("f" + std::to_string(F),
                        F % 2 ? (Type *)TC.int32() : (Type *)TC.float64());
  DataTable DT(E, "Prop", Fields, L);

  // Kernel: init(n); every field[i] = (i+1)*(f+1); checksum everything.
  Type *I64 = TC.int64();
  Type *F64 = TC.float64();
  TerraSymbol *T = B.sym(DT.type(), "t");
  TerraSymbol *N = B.sym(I64, "n");
  TerraSymbol *I = B.sym(I64, "i");
  TerraSymbol *J = B.sym(I64, "j");
  TerraSymbol *Sum = B.sym(F64, "sum");

  std::vector<TerraStmt *> Fill, Acc;
  for (int F = 0; F != NumFields; ++F) {
    Type *FT = Fields[F].second;
    TerraExpr *V = B.cast(FT, B.mul(B.add(B.var(I), B.litI64(1)),
                                    B.litI64(F + 1)));
    Fill.push_back(B.exprStmt(B.methodCall(
        B.addrOf(B.var(T)), "set_" + Fields[F].first, {B.var(I), V})));
    Acc.push_back(B.assign(
        B.var(Sum),
        B.add(B.var(Sum),
              B.cast(F64, B.methodCall(B.addrOf(B.var(T)),
                                       "get_" + Fields[F].first,
                                       {B.var(J)})))));
  }
  std::vector<TerraStmt *> Body;
  Body.push_back(B.varDecl(T));
  Body.push_back(
      B.exprStmt(B.methodCall(B.addrOf(B.var(T)), "init", {B.var(N)})));
  Body.push_back(B.forNum(I, B.litI64(0), B.var(N), B.block(std::move(Fill))));
  Body.push_back(B.varDecl(Sum, B.litFloat(0.0)));
  Body.push_back(B.forNum(J, B.litI64(0), B.var(N), B.block(std::move(Acc))));
  Body.push_back(B.exprStmt(B.methodCall(B.addrOf(B.var(T)), "free", {})));
  Body.push_back(B.ret(B.var(Sum)));
  TerraFunction *Fn =
      B.function("prop", {N}, F64, B.block(std::move(Body)));
  ASSERT_TRUE(E.compiler().ensureCompiled(Fn)) << E.errors();

  int64_t Count = 37;
  std::vector<lua::Value> Args = {lua::Value::number(double(Count))};
  std::vector<lua::Value> R;
  ASSERT_TRUE(E.compiler().callFromHost(Fn, Args, R, SourceLoc()))
      << E.errors();

  // Expected: sum over i in [0,Count), f in [0,NumFields) of (i+1)*(f+1).
  double SumI = double(Count) * (Count + 1) / 2;
  double SumF = double(NumFields) * (NumFields + 1) / 2;
  EXPECT_DOUBLE_EQ(R[0].asNumber(), SumI * SumF)
      << "fields=" << NumFields
      << " layout=" << (L == LayoutKind::AoS ? "AoS" : "SoA");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LayoutPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(LayoutKind::AoS, LayoutKind::SoA)));

} // namespace
