#include "core/TerraSpecialize.h"

#include "core/LuaInterp.h"
#include "core/TerraType.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <cmath>

using namespace terracpp;
using namespace terracpp::lua;

namespace {

/// Result of specializing a Terra expression: either a specialized tree, or
/// a host value not yet converted (needed so nested-table chains like
/// std.malloc can be resolved at specialization time, paper §4.1's implicit
/// escapes).
struct SpecRes {
  TerraExpr *E = nullptr;
  bool IsHostValue = false;
  Value V;

  static SpecRes tree(TerraExpr *E) {
    SpecRes R;
    R.E = E;
    return R;
  }
  static SpecRes host(Value V) {
    SpecRes R;
    R.IsHostValue = true;
    R.V = std::move(V);
    return R;
  }
};

class SpecState {
public:
  SpecState(TerraContext &Ctx, Interp &I, EnvPtr Environment)
      : Ctx(Ctx), I(I), Env(std::move(Environment)) {}

  TerraContext &Ctx;
  Interp &I;
  EnvPtr Env;

  bool fail(SourceLoc Loc, const std::string &Msg) {
    I.diags().error(Loc, Msg);
    return false;
  }

  void pushScope() { Env = std::make_shared<lua::Env>(Env); }
  void popScope() { Env = Env->parentPtr(); }

  //===------------------------------------------------------------------===//
  // Cloning (for quotation splices)
  //===------------------------------------------------------------------===//
  TerraExpr *cloneExpr(const TerraExpr *E);
  TerraStmt *cloneStmt(const TerraStmt *S);
  BlockStmt *cloneBlock(const BlockStmt *B);

  //===------------------------------------------------------------------===//
  // Specialization
  //===------------------------------------------------------------------===//
  bool specExprEx(const TerraExpr *E, SpecRes &R);
  TerraExpr *specExpr(const TerraExpr *E);
  TerraExpr *forceToExpr(SpecRes R, SourceLoc Loc);
  TerraExpr *valueToExpr(const Value &V, SourceLoc Loc);
  TerraStmt *specStmt(const TerraStmt *S);
  BlockStmt *specBlock(const BlockStmt *B, bool NewScope = true);
  bool specArgs(TerraExpr *const *Args, unsigned N,
                std::vector<TerraExpr *> &Out);
  bool resolveTypeAnnotation(const lua::Expr *HostExpr, SourceLoc Loc,
                             Type *&Out);
  bool specVarDeclName(const VarDeclName &In, VarDeclName &Out,
                       SourceLoc Loc);
};

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

BlockStmt *SpecState::cloneBlock(const BlockStmt *B) {
  auto *N = Ctx.make<BlockStmt>(B->loc());
  std::vector<TerraStmt *> Stmts;
  Stmts.reserve(B->NumStmts);
  for (unsigned I2 = 0; I2 != B->NumStmts; ++I2)
    Stmts.push_back(cloneStmt(B->Stmts[I2]));
  N->Stmts = Ctx.copyArray(Stmts);
  N->NumStmts = Stmts.size();
  return N;
}

TerraExpr *SpecState::cloneExpr(const TerraExpr *E) {
  if (!E)
    return nullptr;
  switch (E->kind()) {
  case TerraNode::NK_Lit: {
    auto *N = Ctx.make<LitExpr>(E->loc());
    *N = *cast<LitExpr>(E);
    return N;
  }
  case TerraNode::NK_Var: {
    auto *N = Ctx.make<VarExpr>(E->loc());
    *N = *cast<VarExpr>(E);
    return N;
  }
  case TerraNode::NK_Escape: {
    auto *N = Ctx.make<EscapeExpr>(E->loc());
    *N = *cast<EscapeExpr>(E);
    return N;
  }
  case TerraNode::NK_Select: {
    const auto *O = cast<SelectExpr>(E);
    auto *N = Ctx.make<SelectExpr>(E->loc());
    *N = *O;
    N->Base = cloneExpr(O->Base);
    return N;
  }
  case TerraNode::NK_Apply: {
    const auto *O = cast<ApplyExpr>(E);
    auto *N = Ctx.make<ApplyExpr>(E->loc());
    N->Callee = cloneExpr(O->Callee);
    std::vector<TerraExpr *> Args;
    for (unsigned I2 = 0; I2 != O->NumArgs; ++I2)
      Args.push_back(cloneExpr(O->Args[I2]));
    N->Args = Ctx.copyArray(Args);
    N->NumArgs = Args.size();
    return N;
  }
  case TerraNode::NK_MethodCall: {
    const auto *O = cast<MethodCallExpr>(E);
    auto *N = Ctx.make<MethodCallExpr>(E->loc());
    N->Obj = cloneExpr(O->Obj);
    N->Method = O->Method;
    N->MethodEscape = O->MethodEscape;
    std::vector<TerraExpr *> Args;
    for (unsigned I2 = 0; I2 != O->NumArgs; ++I2)
      Args.push_back(cloneExpr(O->Args[I2]));
    N->Args = Ctx.copyArray(Args);
    N->NumArgs = Args.size();
    return N;
  }
  case TerraNode::NK_BinOp: {
    const auto *O = cast<BinOpExpr>(E);
    auto *N = Ctx.make<BinOpExpr>(E->loc());
    N->Op = O->Op;
    N->LHS = cloneExpr(O->LHS);
    N->RHS = cloneExpr(O->RHS);
    return N;
  }
  case TerraNode::NK_UnOp: {
    const auto *O = cast<UnOpExpr>(E);
    auto *N = Ctx.make<UnOpExpr>(E->loc());
    N->Op = O->Op;
    N->Operand = cloneExpr(O->Operand);
    return N;
  }
  case TerraNode::NK_Index: {
    const auto *O = cast<IndexExpr>(E);
    auto *N = Ctx.make<IndexExpr>(E->loc());
    N->Base = cloneExpr(O->Base);
    N->Idx = cloneExpr(O->Idx);
    return N;
  }
  case TerraNode::NK_Constructor: {
    const auto *O = cast<ConstructorExpr>(E);
    auto *N = Ctx.make<ConstructorExpr>(E->loc());
    N->TypeCallee = cloneExpr(O->TypeCallee);
    N->TyRef = O->TyRef;
    N->FieldNames = O->FieldNames;
    std::vector<TerraExpr *> Inits;
    for (unsigned I2 = 0; I2 != O->NumInits; ++I2)
      Inits.push_back(cloneExpr(O->Inits[I2]));
    N->Inits = Ctx.copyArray(Inits);
    N->NumInits = Inits.size();
    return N;
  }
  case TerraNode::NK_Cast: {
    const auto *O = cast<CastExpr>(E);
    auto *N = Ctx.make<CastExpr>(E->loc());
    N->TyRef = O->TyRef;
    N->Operand = cloneExpr(O->Operand);
    N->Implicit = O->Implicit;
    return N;
  }
  case TerraNode::NK_FuncLit: {
    auto *N = Ctx.make<FuncLitExpr>(E->loc());
    *N = *cast<FuncLitExpr>(E);
    return N;
  }
  case TerraNode::NK_GlobalRef: {
    auto *N = Ctx.make<GlobalRefExpr>(E->loc());
    *N = *cast<GlobalRefExpr>(E);
    return N;
  }
  case TerraNode::NK_Intrinsic: {
    const auto *O = cast<IntrinsicExpr>(E);
    auto *N = Ctx.make<IntrinsicExpr>(E->loc());
    N->IK = O->IK;
    N->TyRef = O->TyRef;
    std::vector<TerraExpr *> Args;
    for (unsigned I2 = 0; I2 != O->NumArgs; ++I2)
      Args.push_back(cloneExpr(O->Args[I2]));
    N->Args = Ctx.copyArray(Args);
    N->NumArgs = Args.size();
    return N;
  }
  default:
    assert(false && "not an expression");
    return nullptr;
  }
}

TerraStmt *SpecState::cloneStmt(const TerraStmt *S) {
  switch (S->kind()) {
  case TerraNode::NK_Block:
    return cloneBlock(cast<BlockStmt>(S));
  case TerraNode::NK_VarDecl: {
    const auto *O = cast<VarDeclStmt>(S);
    auto *N = Ctx.make<VarDeclStmt>(S->loc());
    std::vector<VarDeclName> Names(O->Names, O->Names + O->NumNames);
    N->Names = Ctx.copyArray(Names);
    N->NumNames = O->NumNames;
    std::vector<TerraExpr *> Inits;
    for (unsigned I2 = 0; I2 != O->NumInits; ++I2)
      Inits.push_back(cloneExpr(O->Inits[I2]));
    N->Inits = Ctx.copyArray(Inits);
    N->NumInits = O->NumInits;
    return N;
  }
  case TerraNode::NK_Assign: {
    const auto *O = cast<AssignStmt>(S);
    auto *N = Ctx.make<AssignStmt>(S->loc());
    std::vector<TerraExpr *> L, R;
    for (unsigned I2 = 0; I2 != O->NumLHS; ++I2)
      L.push_back(cloneExpr(O->LHS[I2]));
    for (unsigned I2 = 0; I2 != O->NumRHS; ++I2)
      R.push_back(cloneExpr(O->RHS[I2]));
    N->LHS = Ctx.copyArray(L);
    N->NumLHS = L.size();
    N->RHS = Ctx.copyArray(R);
    N->NumRHS = R.size();
    return N;
  }
  case TerraNode::NK_If: {
    const auto *O = cast<IfStmt>(S);
    auto *N = Ctx.make<IfStmt>(S->loc());
    std::vector<TerraExpr *> Conds;
    std::vector<BlockStmt *> Blocks;
    for (unsigned I2 = 0; I2 != O->NumClauses; ++I2) {
      Conds.push_back(cloneExpr(O->Conds[I2]));
      Blocks.push_back(cloneBlock(O->Blocks[I2]));
    }
    N->Conds = Ctx.copyArray(Conds);
    N->Blocks = Ctx.copyArray(Blocks);
    N->NumClauses = O->NumClauses;
    N->ElseBlock = O->ElseBlock ? cloneBlock(O->ElseBlock) : nullptr;
    return N;
  }
  case TerraNode::NK_While: {
    const auto *O = cast<WhileStmt>(S);
    auto *N = Ctx.make<WhileStmt>(S->loc());
    N->Cond = cloneExpr(O->Cond);
    N->Body = cloneBlock(O->Body);
    return N;
  }
  case TerraNode::NK_ForNum: {
    const auto *O = cast<ForNumStmt>(S);
    auto *N = Ctx.make<ForNumStmt>(S->loc());
    N->Var = O->Var;
    N->Lo = cloneExpr(O->Lo);
    N->Hi = cloneExpr(O->Hi);
    N->Step = O->Step ? cloneExpr(O->Step) : nullptr;
    N->Body = cloneBlock(O->Body);
    return N;
  }
  case TerraNode::NK_Return: {
    const auto *O = cast<ReturnStmt>(S);
    auto *N = Ctx.make<ReturnStmt>(S->loc());
    N->Val = O->Val ? cloneExpr(O->Val) : nullptr;
    return N;
  }
  case TerraNode::NK_Break:
    return Ctx.make<BreakStmt>(S->loc());
  case TerraNode::NK_ExprStmt: {
    auto *N = Ctx.make<ExprStmt>(S->loc());
    N->E = cloneExpr(cast<ExprStmt>(S)->E);
    return N;
  }
  case TerraNode::NK_EscapeStmt: {
    auto *N = Ctx.make<EscapeStmt>(S->loc());
    N->Host = cast<EscapeStmt>(S)->Host;
    return N;
  }
  default:
    assert(false && "not a statement");
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Value -> Terra term conversion (paper: escapes resolve Lua values into
// Terra terms; only values representable as specialized terms are allowed)
//===----------------------------------------------------------------------===//

TerraExpr *SpecState::valueToExpr(const Value &V, SourceLoc Loc) {
  switch (V.kind()) {
  case Value::VK_Number: {
    auto *L = Ctx.make<LitExpr>(Loc);
    double N = V.asNumber();
    if (N == std::floor(N) && std::abs(N) < 9.0e15) {
      L->LK = LitExpr::LK_Int;
      L->IntVal = static_cast<int64_t>(N);
      // Lua integral numbers specialize as `int` when they fit (as in
      // Terra); wider values become int64.
      L->LitTy = (N >= -2147483648.0 && N <= 2147483647.0)
                     ? (Type *)Ctx.types().int32()
                     : (Type *)Ctx.types().int64();
    } else {
      L->LK = LitExpr::LK_Float;
      L->FloatVal = N;
      L->LitTy = Ctx.types().float64();
    }
    return L;
  }
  case Value::VK_Bool: {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Bool;
    L->BoolVal = V.asBool();
    L->LitTy = Ctx.types().boolType();
    return L;
  }
  case Value::VK_String: {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_String;
    L->StrVal = Ctx.intern(V.asString());
    L->LitTy = Ctx.types().rawstring();
    return L;
  }
  case Value::VK_Symbol: {
    auto *X = Ctx.make<VarExpr>(Loc);
    X->Sym = V.asSymbol();
    X->Name = X->Sym->Name;
    return X;
  }
  case Value::VK_TerraFn: {
    auto *F = Ctx.make<FuncLitExpr>(Loc);
    F->Fn = V.asTerraFn();
    return F;
  }
  case Value::VK_Global: {
    auto *G = Ctx.make<GlobalRefExpr>(Loc);
    G->Global = V.asGlobal();
    return G;
  }
  case Value::VK_Quote: {
    const QuoteValue &Q = V.asQuote();
    if (!Q.isExpr()) {
      fail(Loc, "statement quotation used in expression position");
      return nullptr;
    }
    return cloneExpr(Q.Expr);
  }
  case Value::VK_CData: {
    CData *D = V.asCData();
    if (D->Ty->isPointer() && D->Bytes.size() == sizeof(void *)) {
      auto *L = Ctx.make<LitExpr>(Loc);
      L->LK = LitExpr::LK_Pointer;
      L->PtrVal = D->pointerValue();
      L->LitTy = D->Ty;
      return L;
    }
    fail(Loc, "only pointer cdata can be spliced into terra code");
    return nullptr;
  }
  case Value::VK_Type:
    fail(Loc, "terra type '" + V.asType()->str() +
                  "' used as a value in terra code (types are only valid in "
                  "casts, constructors, and annotations)");
    return nullptr;
  case Value::VK_Closure:
  case Value::VK_Builtin:
    fail(Loc, "lua functions cannot be used directly in terra code; convert "
              "them with terralib.cast(type, fn)");
    return nullptr;
  case Value::VK_Table:
    fail(Loc, "lua table cannot be spliced into terra code here");
    return nullptr;
  case Value::VK_Nil:
    fail(Loc, "nil cannot be spliced into terra code (a variable is "
              "undefined, or an escape returned nothing)");
    return nullptr;
  }
  return nullptr;
}

TerraExpr *SpecState::forceToExpr(SpecRes R, SourceLoc Loc) {
  if (!R.IsHostValue)
    return R.E;
  return valueToExpr(R.V, Loc);
}

TerraExpr *SpecState::specExpr(const TerraExpr *E) {
  SpecRes R;
  if (!specExprEx(E, R))
    return nullptr;
  return forceToExpr(std::move(R), E->loc());
}

bool SpecState::resolveTypeAnnotation(const lua::Expr *HostExpr, SourceLoc Loc,
                                      Type *&Out) {
  Value V;
  if (!I.evalExpr(HostExpr, Env, V))
    return false;
  Out = I.valueAsType(V);
  if (!Out)
    return fail(Loc, std::string("type annotation did not evaluate to a "
                                 "terra type (got ") +
                         V.typeName() + ")");
  return true;
}

bool SpecState::specExprEx(const TerraExpr *E, SpecRes &R) {
  switch (E->kind()) {
  case TerraNode::NK_Lit: {
    const auto *O = cast<LitExpr>(E);
    auto *L = Ctx.make<LitExpr>(E->loc());
    *L = *O;
    // Resolve the literal's natural type from the parser's width tags.
    TypeContext &TC = Ctx.types();
    switch (L->LK) {
    case LitExpr::LK_Int:
      L->LitTy = O->FloatVal == 0    ? (Type *)TC.int32()
                 : O->FloatVal == 64 ? (Type *)TC.int64()
                                     : (Type *)TC.uint64();
      break;
    case LitExpr::LK_Float:
      L->LitTy = O->IntVal == 32 ? (Type *)TC.float32() : (Type *)TC.float64();
      L->IntVal = 0;
      break;
    case LitExpr::LK_Bool:
      L->LitTy = TC.boolType();
      break;
    case LitExpr::LK_String:
      L->LitTy = TC.rawstring();
      break;
    case LitExpr::LK_Pointer:
      if (!L->LitTy)
        L->LitTy = TC.opaquePtr();
      break;
    }
    R = SpecRes::tree(L);
    return true;
  }
  case TerraNode::NK_Var: {
    const auto *O = cast<VarExpr>(E);
    if (O->Sym) {
      // Already-specialized node (builder-constructed or cloned).
      auto *N = Ctx.make<VarExpr>(E->loc());
      *N = *O;
      R = SpecRes::tree(N);
      return true;
    }
    Cell C = Env->lookup(O->Name);
    if (!C)
      return fail(E->loc(),
                  "variable '" + *O->Name + "' is not defined in terra code");
    if (C->isSymbol()) {
      auto *N = Ctx.make<VarExpr>(E->loc());
      N->Name = O->Name;
      N->Sym = C->asSymbol();
      R = SpecRes::tree(N);
      return true;
    }
    R = SpecRes::host(*C);
    return true;
  }
  case TerraNode::NK_Escape: {
    const auto *O = cast<EscapeExpr>(E);
    Value V;
    if (!I.evalExpr(O->Host, Env, V))
      return false;
    R = SpecRes::host(std::move(V));
    return true;
  }
  case TerraNode::NK_Select: {
    const auto *O = cast<SelectExpr>(E);
    const std::string *Field = O->Field;
    if (O->FieldEscape) {
      Value FV;
      if (!I.evalExpr(O->FieldEscape, Env, FV))
        return false;
      if (!FV.isString())
        return fail(E->loc(), "computed field name is not a string");
      Field = Ctx.intern(FV.asString());
    }
    SpecRes Base;
    if (!specExprEx(O->Base, Base))
      return false;
    if (Base.IsHostValue &&
        (Base.V.isTable() || Base.V.isType() || Base.V.isTerraFn())) {
      // Implicit escape: nested lua table selection (std.malloc), type
      // reflection, etc. resolves at specialization time (paper §4.1).
      Value Out;
      if (!I.indexValue(Base.V, Value::string(*Field), Out, E->loc()))
        return false;
      R = SpecRes::host(std::move(Out));
      return true;
    }
    auto *N = Ctx.make<SelectExpr>(E->loc());
    N->Base = forceToExpr(std::move(Base), O->Base->loc());
    if (!N->Base)
      return false;
    N->Field = Field;
    R = SpecRes::tree(N);
    return true;
  }
  case TerraNode::NK_Apply: {
    const auto *O = cast<ApplyExpr>(E);
    SpecRes Callee;
    if (!specExprEx(O->Callee, Callee))
      return false;

    // Cast: a type value in call position, e.g. [&int8](p) or int64(x).
    if (Callee.IsHostValue && Callee.V.isType()) {
      if (O->NumArgs != 1)
        return fail(E->loc(), "cast to " + Callee.V.asType()->str() +
                                  " expects exactly one argument");
      TerraExpr *Arg = specExpr(O->Args[0]);
      if (!Arg)
        return false;
      auto *C = Ctx.make<CastExpr>(E->loc());
      C->TyRef = TypeRef::fromType(Callee.V.asType());
      C->Operand = Arg;
      R = SpecRes::tree(C);
      return true;
    }

    // Intrinsics exposed as host builtins: prefetch, sizeof.
    if (Callee.IsHostValue && Callee.V.isBuiltin()) {
      const std::string &BName = Callee.V.asBuiltin().Name;
      if (BName == "prefetch" || BName == "sizeof") {
        auto *N = Ctx.make<IntrinsicExpr>(E->loc());
        if (BName == "sizeof") {
          N->IK = IntrinsicKind::Sizeof;
          if (O->NumArgs != 1)
            return fail(E->loc(), "sizeof expects exactly one type argument");
          SpecRes ArgR;
          if (!specExprEx(O->Args[0], ArgR))
            return false;
          Type *T = ArgR.IsHostValue ? I.valueAsType(ArgR.V) : nullptr;
          if (!T)
            return fail(E->loc(), "sizeof expects a terra type");
          N->TyRef = TypeRef::fromType(T);
        } else {
          N->IK = IntrinsicKind::Prefetch;
          std::vector<TerraExpr *> Args;
          if (!specArgs(O->Args, O->NumArgs, Args))
            return false;
          N->Args = Ctx.copyArray(Args);
          N->NumArgs = Args.size();
        }
        R = SpecRes::tree(N);
        return true;
      }
      return fail(E->loc(), "lua function '" + BName +
                                "' cannot be called from terra code");
    }

    TerraExpr *CalleeE = forceToExpr(std::move(Callee), O->Callee->loc());
    if (!CalleeE)
      return false;
    std::vector<TerraExpr *> Args;
    if (!specArgs(O->Args, O->NumArgs, Args))
      return false;
    auto *N = Ctx.make<ApplyExpr>(E->loc());
    N->Callee = CalleeE;
    N->Args = Ctx.copyArray(Args);
    N->NumArgs = Args.size();
    R = SpecRes::tree(N);
    return true;
  }
  case TerraNode::NK_MethodCall: {
    const auto *O = cast<MethodCallExpr>(E);
    const std::string *Method = O->Method;
    if (O->MethodEscape) {
      Value MV;
      if (!I.evalExpr(O->MethodEscape, Env, MV))
        return false;
      if (!MV.isString())
        return fail(E->loc(), "computed method name is not a string");
      Method = Ctx.intern(MV.asString());
    }
    TerraExpr *Obj = specExpr(O->Obj);
    if (!Obj)
      return false;
    std::vector<TerraExpr *> Args;
    if (!specArgs(O->Args, O->NumArgs, Args))
      return false;
    auto *N = Ctx.make<MethodCallExpr>(E->loc());
    N->Obj = Obj;
    N->Method = Method;
    N->Args = Ctx.copyArray(Args);
    N->NumArgs = Args.size();
    R = SpecRes::tree(N);
    return true;
  }
  case TerraNode::NK_BinOp: {
    const auto *O = cast<BinOpExpr>(E);
    TerraExpr *L = specExpr(O->LHS);
    TerraExpr *Rt = specExpr(O->RHS);
    if (!L || !Rt)
      return false;
    auto *N = Ctx.make<BinOpExpr>(E->loc());
    N->Op = O->Op;
    N->LHS = L;
    N->RHS = Rt;
    R = SpecRes::tree(N);
    return true;
  }
  case TerraNode::NK_UnOp: {
    const auto *O = cast<UnOpExpr>(E);
    // `&T` where T specializes to a type is a pointer-type annotation used
    // in expression position via escapes; handle types specially.
    SpecRes OpR;
    if (!specExprEx(O->Operand, OpR))
      return false;
    if (O->Op == UnOpKind::AddrOf && OpR.IsHostValue && OpR.V.isType()) {
      R = SpecRes::host(
          Value::type(Ctx.types().pointer(OpR.V.asType())));
      return true;
    }
    TerraExpr *Operand = forceToExpr(std::move(OpR), O->Operand->loc());
    if (!Operand)
      return false;
    auto *N = Ctx.make<UnOpExpr>(E->loc());
    N->Op = O->Op;
    N->Operand = Operand;
    R = SpecRes::tree(N);
    return true;
  }
  case TerraNode::NK_Index: {
    const auto *O = cast<IndexExpr>(E);
    SpecRes BaseR;
    if (!specExprEx(O->Base, BaseR))
      return false;
    // T[N] in type position: array type.
    if (BaseR.IsHostValue && BaseR.V.isType()) {
      SpecRes IdxR;
      if (!specExprEx(O->Idx, IdxR))
        return false;
      if (IdxR.IsHostValue && IdxR.V.isNumber()) {
        R = SpecRes::host(Value::type(Ctx.types().array(
            BaseR.V.asType(),
            static_cast<uint64_t>(IdxR.V.asNumber()))));
        return true;
      }
      return fail(E->loc(), "array type length must be a constant number");
    }
    TerraExpr *Base = forceToExpr(std::move(BaseR), O->Base->loc());
    TerraExpr *Idx = specExpr(O->Idx);
    if (!Base || !Idx)
      return false;
    auto *N = Ctx.make<IndexExpr>(E->loc());
    N->Base = Base;
    N->Idx = Idx;
    R = SpecRes::tree(N);
    return true;
  }
  case TerraNode::NK_Constructor: {
    const auto *O = cast<ConstructorExpr>(E);
    Type *T = O->TyRef.Resolved;
    if (!T && O->TypeCallee) {
      SpecRes CR;
      if (!specExprEx(O->TypeCallee, CR))
        return false;
      if (!CR.IsHostValue || !CR.V.isType())
        return fail(E->loc(), "constructor expression requires a terra type "
                              "before '{'");
      T = CR.V.asType();
    }
    if (!T)
      return fail(E->loc(), "constructor has no type");
    std::vector<TerraExpr *> Inits;
    for (unsigned I2 = 0; I2 != O->NumInits; ++I2) {
      TerraExpr *Init = specExpr(O->Inits[I2]);
      if (!Init)
        return false;
      Inits.push_back(Init);
    }
    auto *N = Ctx.make<ConstructorExpr>(E->loc());
    N->TyRef = TypeRef::fromType(T);
    N->FieldNames = O->FieldNames;
    N->Inits = Ctx.copyArray(Inits);
    N->NumInits = Inits.size();
    R = SpecRes::tree(N);
    return true;
  }
  case TerraNode::NK_Cast: {
    const auto *O = cast<CastExpr>(E);
    Type *T = O->TyRef.Resolved;
    if (!T) {
      if (!resolveTypeAnnotation(O->TyRef.HostExpr, E->loc(), T))
        return false;
    }
    TerraExpr *Operand = specExpr(O->Operand);
    if (!Operand)
      return false;
    auto *N = Ctx.make<CastExpr>(E->loc());
    N->TyRef = TypeRef::fromType(T);
    N->Operand = Operand;
    N->Implicit = O->Implicit;
    R = SpecRes::tree(N);
    return true;
  }
  case TerraNode::NK_FuncLit:
  case TerraNode::NK_GlobalRef: {
    R = SpecRes::tree(cloneExpr(E));
    return true;
  }
  case TerraNode::NK_Intrinsic: {
    R = SpecRes::tree(cloneExpr(E));
    return true;
  }
  default:
    return fail(E->loc(), "internal: unexpected node in specialization");
  }
}

bool SpecState::specArgs(TerraExpr *const *Args, unsigned N,
                         std::vector<TerraExpr *> &Out) {
  for (unsigned I2 = 0; I2 != N; ++I2) {
    const TerraExpr *A = Args[I2];
    SpecRes R;
    if (!specExprEx(A, R))
      return false;
    if (R.IsHostValue && R.V.isTable()) {
      // An escape evaluating to a list splices multiple arguments
      // (`f([params])`, paper §6.3.1).
      Table *T = R.V.asTable();
      int64_t Len = T->arrayLength();
      for (int64_t K = 1; K <= Len; ++K) {
        TerraExpr *El = valueToExpr(T->getInt(K), A->loc());
        if (!El)
          return false;
        Out.push_back(El);
      }
      continue;
    }
    TerraExpr *Arg = forceToExpr(std::move(R), A->loc());
    if (!Arg)
      return false;
    Out.push_back(Arg);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool SpecState::specVarDeclName(const VarDeclName &In, VarDeclName &Out,
                                SourceLoc Loc) {
  Out = VarDeclName();
  Type *DeclTy = nullptr;
  if (In.Ty.Resolved)
    DeclTy = In.Ty.Resolved;
  else if (In.Ty.HostExpr && !resolveTypeAnnotation(In.Ty.HostExpr, Loc, DeclTy))
    return false;

  if (In.NameEscape) {
    Value V;
    if (!I.evalExpr(In.NameEscape, Env, V))
      return false;
    if (!V.isSymbol())
      return fail(Loc, "escaped declaration name must be a symbol (created "
                       "with symbol())");
    Out.Sym = V.asSymbol();
    if (DeclTy)
      Out.Sym->DeclaredType = DeclTy;
    Out.Name = Out.Sym->Name;
    Out.Ty = TypeRef::fromType(Out.Sym->DeclaredType);
    return true;
  }
  if (In.Sym) {
    // Already specialized (builder path).
    Out = In;
    return true;
  }
  // Hygiene: fresh symbol, bound into the shared lexical environment so
  // escaped host code sees it (paper rules LTDEFN / SLET).
  Out.Name = In.Name;
  Out.Sym = Ctx.freshSymbol(In.Name, DeclTy);
  Out.Ty = TypeRef::fromType(DeclTy);
  Env->define(In.Name, Value::symbol(Out.Sym));
  return true;
}

BlockStmt *SpecState::specBlock(const BlockStmt *B, bool NewScope) {
  if (NewScope)
    pushScope();
  std::vector<TerraStmt *> Stmts;
  bool OK = true;
  for (unsigned I2 = 0; I2 != B->NumStmts && OK; ++I2) {
    TerraStmt *S = specStmt(B->Stmts[I2]);
    if (!S) {
      OK = false;
      break;
    }
    Stmts.push_back(S);
  }
  if (NewScope)
    popScope();
  if (!OK)
    return nullptr;
  auto *N = Ctx.make<BlockStmt>(B->loc());
  N->Stmts = Ctx.copyArray(Stmts);
  N->NumStmts = Stmts.size();
  return N;
}

TerraStmt *SpecState::specStmt(const TerraStmt *S) {
  switch (S->kind()) {
  case TerraNode::NK_Block:
    return specBlock(cast<BlockStmt>(S));
  case TerraNode::NK_VarDecl: {
    const auto *O = cast<VarDeclStmt>(S);
    if (O->NumInits != 0 && O->NumInits != O->NumNames) {
      fail(S->loc(), "'var' initializer count does not match variable count");
      return nullptr;
    }
    // Initializers are specialized before the names are bound, so
    // `var x = x` refers to the enclosing x.
    std::vector<TerraExpr *> Inits;
    for (unsigned I2 = 0; I2 != O->NumInits; ++I2) {
      TerraExpr *Init = specExpr(O->Inits[I2]);
      if (!Init)
        return nullptr;
      Inits.push_back(Init);
    }
    std::vector<VarDeclName> Names(O->NumNames);
    for (unsigned I2 = 0; I2 != O->NumNames; ++I2)
      if (!specVarDeclName(O->Names[I2], Names[I2], S->loc()))
        return nullptr;
    auto *N = Ctx.make<VarDeclStmt>(S->loc());
    N->Names = Ctx.copyArray(Names);
    N->NumNames = Names.size();
    N->Inits = Ctx.copyArray(Inits);
    N->NumInits = Inits.size();
    return N;
  }
  case TerraNode::NK_Assign: {
    const auto *O = cast<AssignStmt>(S);
    std::vector<TerraExpr *> L, R;
    for (unsigned I2 = 0; I2 != O->NumLHS; ++I2) {
      TerraExpr *T = specExpr(O->LHS[I2]);
      if (!T)
        return nullptr;
      L.push_back(T);
    }
    for (unsigned I2 = 0; I2 != O->NumRHS; ++I2) {
      TerraExpr *T = specExpr(O->RHS[I2]);
      if (!T)
        return nullptr;
      R.push_back(T);
    }
    auto *N = Ctx.make<AssignStmt>(S->loc());
    N->LHS = Ctx.copyArray(L);
    N->NumLHS = L.size();
    N->RHS = Ctx.copyArray(R);
    N->NumRHS = R.size();
    return N;
  }
  case TerraNode::NK_If: {
    const auto *O = cast<IfStmt>(S);
    std::vector<TerraExpr *> Conds;
    std::vector<BlockStmt *> Blocks;
    for (unsigned I2 = 0; I2 != O->NumClauses; ++I2) {
      TerraExpr *C = specExpr(O->Conds[I2]);
      BlockStmt *B = C ? specBlock(O->Blocks[I2]) : nullptr;
      if (!C || !B)
        return nullptr;
      Conds.push_back(C);
      Blocks.push_back(B);
    }
    BlockStmt *ElseB = nullptr;
    if (O->ElseBlock) {
      ElseB = specBlock(O->ElseBlock);
      if (!ElseB)
        return nullptr;
    }
    auto *N = Ctx.make<IfStmt>(S->loc());
    N->Conds = Ctx.copyArray(Conds);
    N->Blocks = Ctx.copyArray(Blocks);
    N->NumClauses = Conds.size();
    N->ElseBlock = ElseB;
    return N;
  }
  case TerraNode::NK_While: {
    const auto *O = cast<WhileStmt>(S);
    TerraExpr *C = specExpr(O->Cond);
    BlockStmt *B = C ? specBlock(O->Body) : nullptr;
    if (!C || !B)
      return nullptr;
    auto *N = Ctx.make<WhileStmt>(S->loc());
    N->Cond = C;
    N->Body = B;
    return N;
  }
  case TerraNode::NK_ForNum: {
    const auto *O = cast<ForNumStmt>(S);
    TerraExpr *Lo = specExpr(O->Lo);
    TerraExpr *Hi = Lo ? specExpr(O->Hi) : nullptr;
    if (!Lo || !Hi)
      return nullptr;
    TerraExpr *Step = nullptr;
    if (O->Step) {
      Step = specExpr(O->Step);
      if (!Step)
        return nullptr;
    }
    pushScope();
    VarDeclName Var;
    bool OK = specVarDeclName(O->Var, Var, S->loc());
    BlockStmt *Body = OK ? specBlock(O->Body, /*NewScope=*/false) : nullptr;
    popScope();
    if (!OK || !Body)
      return nullptr;
    auto *N = Ctx.make<ForNumStmt>(S->loc());
    N->Var = Var;
    N->Lo = Lo;
    N->Hi = Hi;
    N->Step = Step;
    N->Body = Body;
    return N;
  }
  case TerraNode::NK_Return: {
    const auto *O = cast<ReturnStmt>(S);
    auto *N = Ctx.make<ReturnStmt>(S->loc());
    if (O->Val) {
      N->Val = specExpr(O->Val);
      if (!N->Val)
        return nullptr;
    }
    return N;
  }
  case TerraNode::NK_Break:
    return Ctx.make<BreakStmt>(S->loc());
  case TerraNode::NK_ExprStmt: {
    const auto *O = cast<ExprStmt>(S);
    TerraExpr *E = specExpr(O->E);
    if (!E)
      return nullptr;
    auto *N = Ctx.make<ExprStmt>(S->loc());
    N->E = E;
    return N;
  }
  case TerraNode::NK_EscapeStmt: {
    const auto *O = cast<EscapeStmt>(S);
    Value V;
    if (!I.evalExpr(O->Host, Env, V))
      return nullptr;
    // Splice: a statement quote, an expression quote, or a list of quotes.
    auto SpliceOne = [&](const Value &Q, std::vector<TerraStmt *> &Out) {
      if (Q.isQuote()) {
        const QuoteValue &QV = Q.asQuote();
        if (QV.isExpr()) {
          auto *ES = Ctx.make<ExprStmt>(S->loc());
          ES->E = cloneExpr(QV.Expr);
          Out.push_back(ES);
        } else {
          Out.push_back(cloneStmt(QV.Stmts));
        }
        return true;
      }
      return fail(S->loc(),
                  std::string("cannot splice a ") + Q.typeName() +
                      " in statement position (expected quote or list of "
                      "quotes)");
    };
    std::vector<TerraStmt *> Spliced;
    if (V.isTable()) {
      Table *T = V.asTable();
      int64_t Len = T->arrayLength();
      for (int64_t K = 1; K <= Len; ++K)
        if (!SpliceOne(T->getInt(K), Spliced))
          return nullptr;
    } else if (!SpliceOne(V, Spliced)) {
      return nullptr;
    }
    auto *B = Ctx.make<BlockStmt>(S->loc());
    B->Stmts = Ctx.copyArray(Spliced);
    B->NumStmts = Spliced.size();
    return B;
  }
  default:
    fail(S->loc(), "internal: unexpected statement in specialization");
    return nullptr;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Specializer public interface
//===----------------------------------------------------------------------===//

Specializer::Specializer(TerraContext &Ctx, Interp &I) : Ctx(Ctx), I(I) {}

TerraFunction *Specializer::specializeFunction(const lua::TerraFuncExpr *Fn,
                                               EnvPtr Environment,
                                               TerraFunction *Target,
                                               StructType *SelfType) {
  // Specialization is eager — it happens the moment the host interpreter
  // evaluates the `terra` definition (paper Fig. 4) — so this span marks
  // the first stage boundary of every function's pipeline.
  trace::TraceSpan Span("specialize", "frontend");
  Span.arg("fn", Target           ? Target->Name
               : Fn->DebugName    ? *Fn->DebugName
                                  : std::string("anon"));
  telemetry::Registry &Reg = telemetry::Registry::global();
  Reg.counter("frontend.specializations").inc();
  telemetry::ScopedTimerUs Timer(Reg.histogram("frontend.specialize_us"));

  SpecState S(Ctx, I, std::move(Environment));
  TerraFunction *F =
      Target ? Target
             : Ctx.createFunction(Fn->DebugName ? *Fn->DebugName : "anon");
  if (Target && Target->isDefined()) {
    S.fail(Fn->loc(), "terra function '" + Target->Name +
                          "' is already defined (functions can be defined "
                          "only once)");
    return nullptr;
  }
  if (Fn->DebugName && F->Name == "anon")
    F->Name = *Fn->DebugName;

  S.pushScope();
  std::vector<TerraSymbol *> Params;

  if (SelfType) {
    const std::string *SelfName = Ctx.intern("self");
    TerraSymbol *Self =
        Ctx.freshSymbol(SelfName, Ctx.types().pointer(SelfType));
    S.Env->define(SelfName, Value::symbol(Self));
    Params.push_back(Self);
  }

  bool OK = true;
  for (unsigned I2 = 0; I2 != Fn->NumParams && OK; ++I2) {
    const lua::TerraParamDecl &P = Fn->Params[I2];
    Type *AnnotTy = nullptr;
    if (P.TypeExpr) {
      Value TV;
      if (!I.evalExpr(P.TypeExpr, S.Env, TV)) {
        OK = false;
        break;
      }
      AnnotTy = I.valueAsType(TV);
      if (!AnnotTy) {
        S.fail(Fn->loc(), "parameter type annotation is not a terra type");
        OK = false;
        break;
      }
    }
    if (P.NameEscape) {
      Value V;
      if (!I.evalExpr(P.NameEscape, S.Env, V)) {
        OK = false;
        break;
      }
      auto AddSym = [&](const Value &SV) {
        if (!SV.isSymbol())
          return S.fail(Fn->loc(), "escaped parameter must be a symbol or a "
                                   "list of symbols");
        TerraSymbol *Sym = SV.asSymbol();
        if (AnnotTy)
          Sym->DeclaredType = AnnotTy;
        if (!Sym->DeclaredType)
          return S.fail(Fn->loc(), "escaped parameter symbol has no type");
        Params.push_back(Sym);
        return true;
      };
      if (V.isTable()) {
        Table *T = V.asTable();
        int64_t Len = T->arrayLength();
        for (int64_t K = 1; K <= Len && OK; ++K)
          OK = AddSym(T->getInt(K));
      } else {
        OK = AddSym(V);
      }
      continue;
    }
    if (!AnnotTy) {
      S.fail(Fn->loc(),
             "parameter '" + *P.Name + "' is missing a type annotation");
      OK = false;
      break;
    }
    TerraSymbol *Sym = Ctx.freshSymbol(P.Name, AnnotTy);
    S.Env->define(P.Name, Value::symbol(Sym));
    Params.push_back(Sym);
  }

  Type *RetTy = nullptr;
  if (OK && Fn->RetTypeExpr) {
    Value RV;
    if (!I.evalExpr(Fn->RetTypeExpr, S.Env, RV)) {
      OK = false;
    } else {
      RetTy = I.valueAsType(RV);
      if (!RetTy) {
        S.fail(Fn->loc(), "return type annotation is not a terra type");
        OK = false;
      }
    }
  }

  BlockStmt *Body = nullptr;
  if (OK)
    Body = S.specBlock(Fn->Body, /*NewScope=*/false);
  S.popScope();
  if (!OK || !Body)
    return nullptr;

  F->Params = Ctx.copyArray(Params);
  F->NumParams = Params.size();
  F->RetTy = RetTy ? TypeRef::fromType(RetTy) : TypeRef();
  F->Body = Body;
  F->State = TerraFunction::SK_Defined;
  return F;
}

bool Specializer::specializeQuote(const lua::TerraQuoteExpr *Q,
                                  EnvPtr Environment, QuoteValue &Out) {
  SpecState S(Ctx, I, std::move(Environment));
  if (Q->ExprTree) {
    TerraExpr *E = S.specExpr(Q->ExprTree);
    if (!E)
      return false;
    Out.Expr = E;
    Out.Stmts = nullptr;
    return true;
  }
  BlockStmt *B = S.specBlock(Q->Stmts);
  if (!B)
    return false;
  Out.Stmts = B;
  Out.Expr = nullptr;
  return true;
}

TerraExpr *Specializer::cloneExpr(const TerraExpr *E) {
  SpecState S(Ctx, I, nullptr);
  return S.cloneExpr(E);
}

TerraStmt *Specializer::cloneStmt(const TerraStmt *S2) {
  SpecState S(Ctx, I, nullptr);
  return S.cloneStmt(S2);
}
