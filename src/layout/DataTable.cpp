#include "layout/DataTable.h"

#include "core/Libc.h"
#include "core/LuaInterp.h"
#include "core/StagingAPI.h"

using namespace terracpp;
using namespace terracpp::layout;
using namespace terracpp::lua;
using stage::Builder;

DataTable::DataTable(Engine &E, const std::string &Name,
                     std::vector<std::pair<std::string, Type *>> Fields,
                     LayoutKind Layout)
    : Layout(Layout) {
  TypeContext &TC = E.context().types();
  Builder B(E.context());
  Type *I64 = TC.int64();

  // libc bindings used by init/free.
  TerraFunction *Malloc =
      E.compiler().createExtern(*libc::find("stdlib.h", "malloc"));
  TerraFunction *Free =
      E.compiler().createExtern(*libc::find("stdlib.h", "free"));

  // Container layout.
  Container = TC.createStruct(Name);
  if (Layout == LayoutKind::AoS) {
    ElemTy = TC.createStruct(Name + "_row");
    for (const auto &F : Fields)
      ElemTy->addField(F.first, F.second);
    Container->addField("data", TC.pointer(ElemTy));
  } else {
    for (const auto &F : Fields)
      Container->addField(F.first, TC.pointer(F.second));
  }
  Container->addField("N", I64);

  // Row accessor: a (container, index) pair; layout-independent.
  RowRef = TC.createStruct(Name + "_ref");
  RowRef->addField("t", TC.pointer(Container));
  RowRef->addField("i", I64);

  Type *SelfTy = TC.pointer(Container);

  // Address of field F at row i (layout-specific — the only place the
  // choice appears).
  auto FieldAddr = [&](TerraExpr *Self, TerraExpr *Idx,
                       const std::string &FieldName) -> TerraExpr * {
    if (Layout == LayoutKind::AoS)
      return B.addrOf(B.select(
          B.index(B.select(B.deref(Self), "data"), Idx), FieldName));
    return B.addrOf(B.index(B.select(B.deref(Self), FieldName), Idx));
  };

  // t:init(n)
  {
    TerraSymbol *Self = B.sym(SelfTy, "self");
    TerraSymbol *N = B.sym(I64, "n");
    std::vector<TerraStmt *> Body;
    if (Layout == LayoutKind::AoS) {
      TerraExpr *Bytes = B.mul(B.var(N), B.cast(I64, B.sizeOf(ElemTy)));
      Body.push_back(B.assign(B.select(B.deref(B.var(Self)), "data"),
                              B.cast(TC.pointer(ElemTy),
                                     B.call(Malloc, {Bytes}))));
    } else {
      for (const auto &F : Fields) {
        TerraExpr *Bytes = B.mul(B.var(N), B.cast(I64, B.sizeOf(F.second)));
        Body.push_back(B.assign(B.select(B.deref(B.var(Self)), F.first),
                                B.cast(TC.pointer(F.second),
                                       B.call(Malloc, {Bytes}))));
      }
    }
    Body.push_back(B.assign(B.select(B.deref(B.var(Self)), "N"), B.var(N)));
    Body.push_back(B.ret());
    Container->methods()->setStr(
        "init", Value::terraFn(B.function(Name + "_init", {Self, N},
                                          TC.voidType(),
                                          B.block(std::move(Body)))));
  }

  // t:free()
  {
    TerraSymbol *Self = B.sym(SelfTy, "self");
    std::vector<TerraStmt *> Body;
    if (Layout == LayoutKind::AoS) {
      Body.push_back(B.exprStmt(B.call(
          Free,
          {B.cast(TC.opaquePtr(), B.select(B.deref(B.var(Self)), "data"))})));
    } else {
      for (const auto &F : Fields)
        Body.push_back(B.exprStmt(B.call(
            Free, {B.cast(TC.opaquePtr(),
                          B.select(B.deref(B.var(Self)), F.first))})));
    }
    Body.push_back(B.ret());
    Container->methods()->setStr(
        "free", Value::terraFn(B.function(Name + "_free", {Self},
                                          TC.voidType(),
                                          B.block(std::move(Body)))));
  }

  // t:row(i) -> RowRef
  {
    TerraSymbol *Self = B.sym(SelfTy, "self");
    TerraSymbol *I = B.sym(I64, "i");
    std::vector<TerraStmt *> Body;
    Body.push_back(B.ret(B.construct(RowRef, {B.var(Self), B.var(I)})));
    Container->methods()->setStr(
        "row", Value::terraFn(B.function(Name + "_row", {Self, I}, RowRef,
                                         B.block(std::move(Body)))));
  }

  // Per-field accessors: t:get_f(i), t:set_f(i, v), r:f(), r:setf(v).
  for (const auto &F : Fields) {
    const std::string &FN = F.first;
    Type *FT = F.second;
    {
      TerraSymbol *Self = B.sym(SelfTy, "self");
      TerraSymbol *I = B.sym(I64, "i");
      Container->methods()->setStr(
          "get_" + FN,
          Value::terraFn(B.function(
              Name + "_get_" + FN, {Self, I}, FT,
              B.block({B.ret(
                  B.deref(FieldAddr(B.var(Self), B.var(I), FN)))}))));
    }
    {
      TerraSymbol *Self = B.sym(SelfTy, "self");
      TerraSymbol *I = B.sym(I64, "i");
      TerraSymbol *V = B.sym(FT, "v");
      Container->methods()->setStr(
          "set_" + FN,
          Value::terraFn(B.function(
              Name + "_set_" + FN, {Self, I, V}, TC.voidType(),
              B.block({B.assign(B.deref(FieldAddr(B.var(Self), B.var(I), FN)),
                                B.var(V)),
                       B.ret()}))));
    }
    {
      TerraSymbol *Self = B.sym(TC.pointer(RowRef), "self");
      TerraExpr *T = B.select(B.deref(B.var(Self)), "t");
      TerraExpr *I = B.select(B.deref(B.var(Self)), "i");
      RowRef->methods()->setStr(
          FN, Value::terraFn(B.function(
                  Name + "_r_" + FN, {Self}, FT,
                  B.block({B.ret(B.deref(FieldAddr(T, I, FN)))}))));
    }
    {
      TerraSymbol *Self = B.sym(TC.pointer(RowRef), "self");
      TerraSymbol *V = B.sym(FT, "v");
      TerraExpr *T = B.select(B.deref(B.var(Self)), "t");
      TerraExpr *I = B.select(B.deref(B.var(Self)), "i");
      RowRef->methods()->setStr(
          "set" + FN,
          Value::terraFn(B.function(
              Name + "_r_set" + FN, {Self, V}, TC.voidType(),
              B.block({B.assign(B.deref(FieldAddr(T, I, FN)), B.var(V)),
                       B.ret()}))));
    }
  }
}
