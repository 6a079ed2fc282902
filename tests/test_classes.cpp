//===- test_classes.cpp - Class-system library tests (paper §6.3.1) -------===//
//
// Exercises the vtable class system built on type reflection: virtual
// dispatch, inheritance with overriding, upcasts via __cast, interface
// dispatch through itable subobjects, and use from hosted Terra code.
//
//===----------------------------------------------------------------------===//

#include "classes/ClassSystem.h"
#include "core/Engine.h"
#include "core/StagingAPI.h"
#include "core/TerraType.h"

#include <gtest/gtest.h>

using namespace terracpp;
using namespace terracpp::classes;
using stage::Builder;

namespace {

bool nativeAvailable() {
  return Engine::defaultBackend() != BackendKind::Interp;
}

/// Builds the paper's Shape/Square example:
///   Shape  { w : double }  area() = 0.0, name-ish id() = 1
///   Square { w }           area() = w*w (override), id inherited
struct ShapeWorld {
  Engine E;
  ClassSystem J{E};
  Interface *Areal = nullptr;
  StructType *Shape = nullptr;
  StructType *Square = nullptr;

  ShapeWorld() {
    Builder B(E.context());
    TypeContext &TC = E.context().types();
    Type *F64 = TC.float64();

    Areal = J.interface("Areal", {{"area", TC.function({}, F64)}});

    Shape = J.newClass("Shape");
    J.field(Shape, "w", F64);
    {
      TerraSymbol *Self = B.sym(TC.pointer(Shape), "self");
      J.method(Shape, "area",
               B.function("Shape_area", {Self}, F64,
                          B.block({B.ret(B.litFloat(0.0))})));
    }
    {
      TerraSymbol *Self = B.sym(TC.pointer(Shape), "self");
      J.method(Shape, "id",
               B.function("Shape_id", {Self}, TC.int32(),
                          B.block({B.ret(B.litInt(1))})));
    }

    Square = J.newClass("Square");
    J.extends(Square, Shape);
    J.implements(Square, Areal);
    {
      TerraSymbol *Self = B.sym(TC.pointer(Square), "self");
      TerraExpr *W = B.select(B.deref(B.var(Self)), "w");
      TerraExpr *W2 = B.select(B.deref(B.var(Self)), "w");
      J.method(Square, "area",
               B.function("Square_area", {Self}, F64,
                          B.block({B.ret(B.mul(W, W2))})));
    }
  }

  /// Compiles `fn() : double` that allocates a Square(w), initializes its
  /// vtable, and dispatches through the requested mechanism.
  double runDispatch(const std::string &Mode) {
    Builder B(E.context());
    TypeContext &TC = E.context().types();
    Type *F64 = TC.float64();

    TerraSymbol *Obj = B.sym(Square, "obj");
    std::vector<TerraStmt *> Body;
    Body.push_back(B.varDecl(Obj));
    Body.push_back(B.exprStmt(
        B.methodCall(B.addrOf(B.var(Obj)), "initvtable", {})));
    Body.push_back(
        B.assign(B.select(B.var(Obj), "w"), B.litFloat(3.0)));
    if (Mode == "direct") {
      Body.push_back(
          B.ret(B.methodCall(B.addrOf(B.var(Obj)), "area", {})));
    } else if (Mode == "upcast") {
      TerraSymbol *ShapeP = B.sym(TC.pointer(Shape), "sp");
      // Implicit conversion &Square -> &Shape goes through __cast.
      Body.push_back(B.varDecl(ShapeP, B.addrOf(B.var(Obj))));
      Body.push_back(B.ret(B.methodCall(B.var(ShapeP), "area", {})));
    } else { // interface
      TerraSymbol *IfaceP = B.sym(TC.pointer(Areal->refType()), "ip");
      Body.push_back(B.varDecl(IfaceP, B.addrOf(B.var(Obj))));
      Body.push_back(B.ret(B.methodCall(B.var(IfaceP), "area", {})));
    }
    TerraFunction *Fn = B.function("dispatch_" + Mode, {}, F64,
                                   B.block(std::move(Body)));
    if (!E.compiler().ensureCompiled(Fn)) {
      ADD_FAILURE() << E.errors();
      return -1;
    }
    std::vector<lua::Value> Args, Results;
    if (!E.compiler().callFromHost(Fn, Args, Results, SourceLoc())) {
      ADD_FAILURE() << E.errors();
      return -1;
    }
    return Results[0].asNumber();
  }
};

TEST(Classes, VirtualDispatchThroughVTable) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ShapeWorld W;
  EXPECT_DOUBLE_EQ(W.runDispatch("direct"), 9.0);
}

TEST(Classes, UpcastDispatchesOverride) {
  if (!nativeAvailable())
    GTEST_SKIP();
  // &Square upcast to &Shape must still run Square's override — the core
  // property of virtual dispatch.
  ShapeWorld W;
  EXPECT_DOUBLE_EQ(W.runDispatch("upcast"), 9.0);
}

TEST(Classes, InterfaceDispatch) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ShapeWorld W;
  EXPECT_DOUBLE_EQ(W.runDispatch("interface"), 9.0);
}

TEST(Classes, LayoutPrefixProperty) {
  // The child's layout must start with the parent's layout so pointer
  // upcasts are safe (paper: "the beginning of each object has the same
  // layout as an object of the parent").
  ShapeWorld W;
  ASSERT_TRUE(
      W.E.compiler().typechecker().completeStruct(W.Square, SourceLoc()))
      << W.E.errors();
  ASSERT_TRUE(
      W.E.compiler().typechecker().completeStruct(W.Shape, SourceLoc()));
  const auto &PF = W.Shape->fields();
  const auto &CF = W.Square->fields();
  ASSERT_GE(CF.size(), PF.size());
  for (size_t I = 0; I != PF.size(); ++I) {
    EXPECT_EQ(CF[I].Name, PF[I].Name);
    EXPECT_EQ(CF[I].FieldType, PF[I].FieldType);
    EXPECT_EQ(CF[I].Offset, PF[I].Offset);
  }
}

TEST(Classes, SubtypeQueries) {
  ShapeWorld W;
  EXPECT_TRUE(W.J.isSubclass(W.Square, W.Shape));
  EXPECT_FALSE(W.J.isSubclass(W.Shape, W.Square));
  EXPECT_TRUE(W.J.implementsInterface(W.Square, W.Areal));
  EXPECT_FALSE(W.J.implementsInterface(W.Shape, W.Areal));
}

TEST(Classes, InheritedMethodCallableOnChild) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ShapeWorld W;
  Builder B(W.E.context());
  TypeContext &TC = W.E.context().types();
  TerraSymbol *Obj = B.sym(W.Square, "obj");
  std::vector<TerraStmt *> Body;
  Body.push_back(B.varDecl(Obj));
  Body.push_back(
      B.exprStmt(B.methodCall(B.addrOf(B.var(Obj)), "initvtable", {})));
  Body.push_back(B.ret(B.methodCall(B.addrOf(B.var(Obj)), "id", {})));
  TerraFunction *Fn =
      B.function("call_inherited", {}, TC.int32(), B.block(std::move(Body)));
  ASSERT_TRUE(W.E.compiler().ensureCompiled(Fn)) << W.E.errors();
  std::vector<lua::Value> Args, Results;
  ASSERT_TRUE(W.E.compiler().callFromHost(Fn, Args, Results, SourceLoc()));
  EXPECT_EQ(Results[0].asNumber(), 1);
}

TEST(Classes, InvalidDowncastRejected) {
  // &Shape -> &Square is not a subtype conversion; typechecking must fail.
  ShapeWorld W;
  Builder B(W.E.context());
  TypeContext &TC = W.E.context().types();
  TerraSymbol *Obj = B.sym(W.Shape, "obj");
  TerraSymbol *SqP = B.sym(TC.pointer(W.Square), "p");
  std::vector<TerraStmt *> Body;
  Body.push_back(B.varDecl(Obj));
  Body.push_back(B.varDecl(SqP, B.addrOf(B.var(Obj)))); // Implicit downcast.
  Body.push_back(B.ret());
  TerraFunction *Fn =
      B.function("bad_downcast", {}, TC.voidType(), B.block(std::move(Body)));
  EXPECT_FALSE(W.E.compiler().ensureCompiled(Fn));
}

} // namespace
