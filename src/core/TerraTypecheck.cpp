#include "core/TerraTypecheck.h"

#include "core/LuaInterp.h"
#include "core/TerraType.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>

using namespace terracpp;
using namespace terracpp::lua;

namespace {

/// Per-connected-component checking state.
class CheckState {
public:
  CheckState(TerraContext &Ctx, Interp &I) : Ctx(Ctx), I(I) {}

  TerraContext &Ctx;
  Interp &I;
  std::vector<TerraFunction *> Worklist;
  TerraFunction *Current = nullptr;
  /// Set when a failure was a link error (reference to a declared-but-
  /// undefined function). Such failures are not sticky: typechecking is
  /// monotonic (paper §4.1) and must succeed once the function is defined.
  bool FailedOnUndefined = false;

  bool fail(SourceLoc Loc, const std::string &Msg) {
    I.diags().error(Loc, Msg);
    return false;
  }

  bool checkFunction(TerraFunction *F);
  bool completeStruct(StructType *ST, SourceLoc Loc);

  Type *checkExpr(TerraExpr *&E);
  bool checkStmt(TerraStmt *S);
  bool checkBlock(BlockStmt *B);

  /// Inserts an implicit conversion of \p E to \p To, or fails.
  bool convert(TerraExpr *&E, Type *To);
  /// True without modifying anything.
  bool canConvert(Type *From, Type *To, TerraExpr *E);
  /// Explicit cast (allows lossy conversions, pointer<->integer, bitcasts).
  bool castExplicit(TerraExpr *&E, Type *To, SourceLoc Loc);
  /// Tries a __cast metamethod; returns true and replaces E on success.
  bool tryUserCast(TerraExpr *&E, Type *To, bool &Applied);

  Type *promote(Type *A, Type *B);
  /// The operand type of a comparison: arithmetic, or a vector of them.
  static bool comparable(const Type *P) {
    return P->isArithmetic() ||
           (P->isVector() && cast<VectorType>(P)->element()->isArithmetic());
  }
  /// bool for scalars; a vector(bool, N) lane mask for vector operands.
  Type *comparisonType(Type *Operand) {
    if (auto *VT = dyn_cast<VectorType>(Operand))
      return Ctx.types().vector(Ctx.types().boolType(), VT->length());
    return Ctx.types().boolType();
  }
  TerraExpr *makeCast(TerraExpr *E, Type *To, bool Implicit);
  bool referenceFunction(TerraFunction *Callee, SourceLoc Loc,
                         FunctionType *&FnTy);

};

//===----------------------------------------------------------------------===//
// Struct completion
//===----------------------------------------------------------------------===//

bool CheckState::completeStruct(StructType *ST, SourceLoc Loc) {
  if (ST->isComplete())
    return true;
  // Run the __finalizelayout metamethod so libraries (e.g. the class
  // system) can compute a layout at the latest possible time (paper §6.3.1).
  Value MM = ST->metamethods()->getStr("__finalizelayout");
  if (!MM.isNil()) {
    // Remove it first so re-entrant completion does not loop.
    ST->metamethods()->setStr("__finalizelayout", Value::nil());
    std::vector<Value> Results;
    if (!I.call(MM, {Value::type(ST)}, Results, Loc))
      return false;
  }
  std::string Err;
  if (!ST->finalizeLayout(Err))
    return fail(Loc, Err);
  // Post-layout hook (__staticinitialize): libraries use it to fill vtable
  // storage once offsets are known (paper §6.3.1's class system).
  Value SI = ST->metamethods()->getStr("__staticinitialize");
  if (!SI.isNil()) {
    ST->metamethods()->setStr("__staticinitialize", Value::nil());
    std::vector<Value> Results;
    if (!I.call(SI, {Value::type(ST)}, Results, Loc))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

TerraExpr *CheckState::makeCast(TerraExpr *E, Type *To, bool Implicit) {
  auto *C = Ctx.make<CastExpr>(E->loc());
  C->TyRef = TypeRef::fromType(To);
  C->Operand = E;
  C->Implicit = Implicit;
  C->Ty = To;
  return C;
}

/// Static conversion predicate shared with the FFI.
static bool implicitOK(Type *From, Type *To, bool IsNullPtrLiteral) {
  if (From == To)
    return true;
  if (From->isArithmetic() && To->isArithmetic())
    return true;
  if (From->isPointer() && To->isPointer())
    return IsNullPtrLiteral; // &T -> &U only for nil.
  if (auto *VT = dyn_cast<VectorType>(To)) {
    if (From->isArithmetic() && VT->element()->isArithmetic())
      return true; // Broadcast.
    if (auto *VF = dyn_cast<VectorType>(From))
      return VF->length() == VT->length() &&
             VF->element()->isArithmetic() && VT->element()->isArithmetic();
  }
  // Arrays decay to pointers to their element type.
  if (auto *AT = dyn_cast<ArrayType>(From))
    if (auto *PT = dyn_cast<PointerType>(To))
      return AT->element() == PT->pointee();
  return false;
}

bool CheckState::canConvert(Type *From, Type *To, TerraExpr *E) {
  bool IsNull = false;
  if (const auto *L = dyn_cast_or_null<LitExpr>(E))
    IsNull = L->LK == LitExpr::LK_Pointer && L->PtrVal == nullptr;
  return implicitOK(From, To, IsNull);
}

bool CheckState::tryUserCast(TerraExpr *&E, Type *To, bool &Applied) {
  Applied = false;
  Type *From = E->Ty;
  Type *FromBase = From;
  Type *ToBase = To;
  if (auto *P = dyn_cast<PointerType>(FromBase))
    FromBase = P->pointee();
  if (auto *P = dyn_cast<PointerType>(ToBase))
    ToBase = P->pointee();

  // Paper §4.1: "it will call the __cast metamethod of either type...
  // if both are successful, we favor the metamethod of the starting type."
  for (Type *Candidate : {FromBase, ToBase}) {
    auto *ST = dyn_cast<StructType>(Candidate);
    if (!ST)
      continue;
    Value MM = ST->metamethods()->getStr("__cast");
    if (MM.isNil())
      continue;
    size_t Checkpoint = I.diags().checkpoint();
    QuoteValue Q;
    Q.Expr = E;
    std::vector<Value> Results;
    bool OK = I.call(MM, {Value::type(From), Value::type(To), Value::quote(Q)},
                     Results, E->loc());
    if (OK && !Results.empty() && Results[0].isQuote() &&
        Results[0].asQuote().isExpr()) {
      TerraExpr *NewE = Results[0].asQuote().Expr;
      Type *NewTy = checkExpr(NewE);
      if (NewTy == To) {
        E = NewE;
        Applied = true;
        return true;
      }
      if (NewTy && canConvert(NewTy, To, NewE)) {
        E = makeCast(NewE, To, /*Implicit=*/true);
        Applied = true;
        return true;
      }
    }
    // This metamethod didn't produce the conversion; roll back any errors
    // it reported and try the other side.
    I.diags().rollback(Checkpoint);
  }
  return true;
}

bool CheckState::convert(TerraExpr *&E, Type *To) {
  Type *From = E->Ty;
  assert(From && "operand not checked");
  if (From == To)
    return true;
  if (canConvert(From, To, E)) {
    E = makeCast(E, To, /*Implicit=*/true);
    return true;
  }
  bool Applied = false;
  if (!tryUserCast(E, To, Applied))
    return false;
  if (Applied)
    return true;
  return fail(E->loc(), "cannot convert " + From->str() + " to " + To->str());
}

bool CheckState::castExplicit(TerraExpr *&E, Type *To, SourceLoc Loc) {
  Type *From = E->Ty;
  if (From == To)
    return true;
  if (canConvert(From, To, E)) {
    E = makeCast(E, To, /*Implicit=*/false);
    return true;
  }
  // Explicit-only conversions.
  bool OK = false;
  if (From->isPointer() && To->isPointer())
    OK = true; // Reinterpret.
  else if (From->isPointer() && To->isIntegral() && To->size() == 8)
    OK = true;
  else if (From->isIntegral() && To->isPointer())
    OK = true;
  else if (From->isBool() && To->isIntegral())
    OK = true;
  else if (From->isIntegral() && To->isBool())
    OK = true;
  else if (From->isPointer() && To->isFunction())
    OK = true; // Raw vtable slots cast to function values (paper §6.3.1).
  else if (From->isFunction() && To->isPointer())
    OK = true;
  if (OK) {
    E = makeCast(E, To, /*Implicit=*/false);
    return true;
  }
  bool Applied = false;
  if (!tryUserCast(E, To, Applied))
    return false;
  if (Applied)
    return true;
  return fail(Loc, "invalid cast from " + From->str() + " to " + To->str());
}

Type *CheckState::promote(Type *A, Type *B) {
  if (A == B)
    return A;
  // Vector + scalar: the vector shape wins.
  auto *VA = dyn_cast<VectorType>(A);
  auto *VB = dyn_cast<VectorType>(B);
  if (VA || VB) {
    uint64_t Len = VA ? VA->length() : VB->length();
    if (VA && VB && VA->length() != VB->length())
      return nullptr;
    Type *EA = VA ? VA->element() : A;
    Type *EB = VB ? VB->element() : B;
    Type *E = promote(EA, EB);
    if (!E || !E->isArithmetic())
      return nullptr;
    return Ctx.types().vector(E, Len);
  }
  auto *PA = dyn_cast<PrimType>(A);
  auto *PB = dyn_cast<PrimType>(B);
  if (!PA || !PB || !PA->isIntegralPrim() || !PB->isIntegralPrim()) {
    if (PA && PB && PA->isFloatPrim() && PB->isFloatPrim())
      return PA->conversionRank() >= PB->conversionRank() ? A : B;
    if (PA && PB && (PA->isFloatPrim() || PB->isFloatPrim()) &&
        PA->isIntegralPrim() + PA->isFloatPrim() &&
        PB->isIntegralPrim() + PB->isFloatPrim())
      return PA->isFloatPrim() ? A : B;
    return nullptr;
  }
  // Both integral: wider wins; same width, unsigned wins.
  if (PA->conversionRank() != PB->conversionRank())
    return PA->conversionRank() > PB->conversionRank() ? A : B;
  return PA->isSignedPrim() ? B : A;
}

//===----------------------------------------------------------------------===//
// Function references (paper Fig. 4)
//===----------------------------------------------------------------------===//

bool CheckState::referenceFunction(TerraFunction *Callee, SourceLoc Loc,
                                   FunctionType *&FnTy) {
  if (Current) {
    auto &Refs = Current->Callees;
    if (std::find(Refs.begin(), Refs.end(), Callee) == Refs.end())
      Refs.push_back(Callee);
  }
  switch (Callee->State) {
  case TerraFunction::SK_Checked:
    FnTy = Callee->FnTy;
    return true;
  case TerraFunction::SK_Error:
    return fail(Loc, "referenced terra function '" + Callee->Name +
                         "' failed to typecheck");
  case TerraFunction::SK_Declared:
    FailedOnUndefined = true;
    return fail(Loc, "terra function '" + Callee->Name +
                         "' is declared but not defined (link error)");
  case TerraFunction::SK_Checking: {
    // Mutual recursion: the callee's signature must be computable without
    // its body.
    if (Callee->FnTy) {
      FnTy = Callee->FnTy;
      return true;
    }
    return fail(Loc, "recursive reference to '" + Callee->Name +
                         "' requires an explicit return type annotation");
  }
  case TerraFunction::SK_Defined: {
    Worklist.push_back(Callee);
    // Compute the signature now (params are always typed; the return type
    // must be declared or the body gets checked first on demand).
    if (Callee->FnTy) {
      FnTy = Callee->FnTy;
      return true;
    }
    if (Callee->RetTy.Resolved) {
      std::vector<Type *> Params;
      for (unsigned I2 = 0; I2 != Callee->NumParams; ++I2)
        Params.push_back(Callee->Params[I2]->DeclaredType);
      Callee->FnTy =
          Ctx.types().function(std::move(Params), Callee->RetTy.Resolved);
      FnTy = Callee->FnTy;
      return true;
    }
    // No annotation: we must check the callee's body to infer its type.
    // Do it eagerly here (cycles are caught by SK_Checking above).
    TerraFunction *SavedCurrent = Current;
    bool OK = checkFunction(Callee);
    Current = SavedCurrent;
    if (!OK)
      return fail(Loc, "referenced terra function '" + Callee->Name +
                           "' failed to typecheck");
    FnTy = Callee->FnTy;
    return true;
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Type *CheckState::checkExpr(TerraExpr *&E) {
  if (!E)
    return nullptr;
  if (E->Ty)
    return E->Ty; // Already checked (shared via desugaring).

  switch (E->kind()) {
  case TerraNode::NK_Lit: {
    auto *L = cast<LitExpr>(E);
    assert(L->LitTy && "literal not specialized");
    L->Ty = L->LitTy;
    return L->Ty;
  }
  case TerraNode::NK_Var: {
    auto *V = cast<VarExpr>(E);
    if (!V->Sym) {
      fail(E->loc(), "unspecialized variable in typechecking");
      return nullptr;
    }
    if (!V->Sym->DeclaredType) {
      fail(E->loc(), "variable '" + *V->Sym->Name + "' has no type (symbol "
                                                    "used before declaration)");
      return nullptr;
    }
    V->Ty = V->Sym->DeclaredType;
    V->IsLValue = true;
    return V->Ty;
  }
  case TerraNode::NK_GlobalRef: {
    auto *G = cast<GlobalRefExpr>(E);
    if (Current) {
      auto &Refs = Current->GlobalRefs;
      if (std::find(Refs.begin(), Refs.end(), G->Global) == Refs.end())
        Refs.push_back(G->Global);
    }
    G->Ty = G->Global->Ty;
    G->IsLValue = true;
    return G->Ty;
  }
  case TerraNode::NK_FuncLit: {
    auto *F = cast<FuncLitExpr>(E);
    FunctionType *FnTy = nullptr;
    if (!referenceFunction(F->Fn, E->loc(), FnTy))
      return nullptr;
    F->Ty = FnTy;
    return F->Ty;
  }
  case TerraNode::NK_Select: {
    auto *S = cast<SelectExpr>(E);
    Type *BaseTy = checkExpr(S->Base);
    if (!BaseTy)
      return nullptr;
    // Auto-deref a pointer to struct.
    if (auto *PT = dyn_cast<PointerType>(BaseTy)) {
      if (PT->pointee()->isStruct()) {
        auto *D = Ctx.make<UnOpExpr>(S->loc());
        D->Op = UnOpKind::Deref;
        D->Operand = S->Base;
        D->Ty = PT->pointee();
        D->IsLValue = true;
        S->Base = D;
        BaseTy = PT->pointee();
      }
    }
    auto *ST = dyn_cast<StructType>(BaseTy);
    if (!ST) {
      fail(E->loc(), "cannot select field '" + *S->Field + "' from value of "
                                                           "type " +
                         BaseTy->str());
      return nullptr;
    }
    if (!completeStruct(ST, E->loc()))
      return nullptr;
    int Idx = ST->fieldIndex(*S->Field);
    if (Idx < 0) {
      fail(E->loc(), "struct " + ST->name() + " has no field '" + *S->Field +
                         "'");
      return nullptr;
    }
    S->FieldIndex = Idx;
    S->Ty = ST->fields()[Idx].FieldType;
    S->IsLValue = S->Base->IsLValue;
    return S->Ty;
  }
  case TerraNode::NK_MethodCall: {
    auto *M = cast<MethodCallExpr>(E);
    Type *ObjTy = checkExpr(M->Obj);
    if (!ObjTy)
      return nullptr;
    Type *Bare = ObjTy;
    if (auto *PT = dyn_cast<PointerType>(Bare))
      Bare = PT->pointee();
    auto *ST = dyn_cast<StructType>(Bare);
    if (!ST) {
      fail(E->loc(), "method call on non-struct type " + ObjTy->str());
      return nullptr;
    }
    // Examining the type triggers layout finalization (which may install
    // methods, e.g. the class system's stubs) before the lookup.
    if (!completeStruct(ST, E->loc()))
      return nullptr;
    // Lazy method lookup in the struct's host-side methods table
    // (paper §4.1: obj:m(a) desugars to [T.methods.m](obj, a)).
    Value Method = ST->methods()->getStr(*M->Method);
    if (!Method.isTerraFn()) {
      fail(E->loc(),
           "struct " + ST->name() + " has no method '" + *M->Method + "'");
      return nullptr;
    }
    FunctionType *FnTy = nullptr;
    if (!referenceFunction(Method.asTerraFn(), E->loc(), FnTy))
      return nullptr;
    // Build the self argument: take the address when the method expects a
    // pointer and we have an lvalue.
    TerraExpr *Self = M->Obj;
    if (!FnTy->params().empty()) {
      Type *SelfParam = FnTy->params()[0];
      if (SelfParam->isPointer() && !ObjTy->isPointer()) {
        if (!Self->IsLValue) {
          fail(E->loc(), "cannot take address of temporary for method call");
          return nullptr;
        }
        auto *A = Ctx.make<UnOpExpr>(M->loc());
        A->Op = UnOpKind::AddrOf;
        A->Operand = Self;
        A->Ty = Ctx.types().pointer(ObjTy);
        Self = A;
      } else if (!SelfParam->isPointer() && ObjTy->isPointer()) {
        auto *D = Ctx.make<UnOpExpr>(M->loc());
        D->Op = UnOpKind::Deref;
        D->Operand = Self;
        D->Ty = cast<PointerType>(ObjTy)->pointee();
        D->IsLValue = true;
        Self = D;
      }
    }
    auto *F = Ctx.make<FuncLitExpr>(M->loc());
    F->Fn = Method.asTerraFn();
    F->Ty = FnTy;
    std::vector<TerraExpr *> Args;
    Args.push_back(Self);
    for (unsigned I2 = 0; I2 != M->NumArgs; ++I2)
      Args.push_back(M->Args[I2]);
    auto *A = Ctx.make<ApplyExpr>(M->loc());
    A->Callee = F;
    A->Args = Ctx.copyArray(Args);
    A->NumArgs = Args.size();
    E = A; // Replace the method call with the desugared application.
    return checkExpr(E);
  }
  case TerraNode::NK_Apply: {
    auto *A = cast<ApplyExpr>(E);
    Type *CalleeTy = checkExpr(A->Callee);
    if (!CalleeTy)
      return nullptr;
    auto *FnTy = dyn_cast<FunctionType>(CalleeTy);
    if (!FnTy) {
      fail(E->loc(), "called value has type " + CalleeTy->str() +
                         ", which is not callable");
      return nullptr;
    }
    const auto *FL = dyn_cast<FuncLitExpr>(A->Callee);
    bool VarArg = FL && FL->Fn->IsExtern && FL->Fn->Extern->VarArg;
    if (VarArg ? A->NumArgs < FnTy->params().size()
               : A->NumArgs != FnTy->params().size()) {
      fail(E->loc(), "call expects " +
                         std::to_string(FnTy->params().size()) +
                         std::string(VarArg ? "+" : "") +
                         " arguments but got " + std::to_string(A->NumArgs));
      return nullptr;
    }
    for (unsigned I2 = 0; I2 != A->NumArgs; ++I2) {
      if (!checkExpr(A->Args[I2]))
        return nullptr;
      if (I2 < FnTy->params().size()) {
        if (!convert(A->Args[I2], FnTy->params()[I2]))
          return nullptr;
      } else {
        // C default argument promotions for varargs.
        Type *AT = A->Args[I2]->Ty;
        if (AT->isFloat() && AT->size() == 4) {
          if (!convert(A->Args[I2], Ctx.types().float64()))
            return nullptr;
        } else if (AT->isIntegral() && AT->size() < 4) {
          if (!convert(A->Args[I2], Ctx.types().int32()))
            return nullptr;
        }
      }
    }
    A->Ty = FnTy->result();
    return A->Ty;
  }
  case TerraNode::NK_BinOp: {
    auto *B = cast<BinOpExpr>(E);
    Type *L = checkExpr(B->LHS);
    Type *R = checkExpr(B->RHS);
    if (!L || !R)
      return nullptr;
    switch (B->Op) {
    case BinOpKind::Add:
    case BinOpKind::Sub: {
      // Pointer arithmetic.
      if (L->isPointer() && R->isIntegral()) {
        if (!convert(B->RHS, Ctx.types().int64()))
          return nullptr;
        B->Ty = L;
        return B->Ty;
      }
      if (B->Op == BinOpKind::Add && L->isIntegral() && R->isPointer()) {
        if (!convert(B->LHS, Ctx.types().int64()))
          return nullptr;
        B->Ty = R;
        return B->Ty;
      }
      if (B->Op == BinOpKind::Sub && L->isPointer() && R == L) {
        B->Ty = Ctx.types().int64();
        return B->Ty;
      }
      [[fallthrough]];
    }
    case BinOpKind::Mul:
    case BinOpKind::Div:
    case BinOpKind::Mod: {
      Type *P = promote(L, R);
      if (!P || !(P->isArithmetic() ||
                  (P->isVector() &&
                   cast<VectorType>(P)->element()->isArithmetic()))) {
        fail(E->loc(), "invalid operands to arithmetic: " + L->str() +
                           " and " + R->str());
        return nullptr;
      }
      if (B->Op == BinOpKind::Mod &&
          (P->isFloat() ||
           (P->isVector() && cast<VectorType>(P)->element()->isFloat()))) {
        fail(E->loc(), "'%' requires integral operands");
        return nullptr;
      }
      if (!convert(B->LHS, P) || !convert(B->RHS, P))
        return nullptr;
      B->Ty = P;
      return B->Ty;
    }
    case BinOpKind::Shl:
    case BinOpKind::Shr: {
      Type *P = promote(L, R);
      if (!P || !P->isIntegral()) {
        fail(E->loc(), "shift requires integral operands (got " + L->str() +
                           " and " + R->str() + ")");
        return nullptr;
      }
      if (!convert(B->LHS, P) || !convert(B->RHS, P))
        return nullptr;
      B->Ty = P;
      return B->Ty;
    }
    case BinOpKind::Lt:
    case BinOpKind::Le:
    case BinOpKind::Gt:
    case BinOpKind::Ge: {
      Type *P = promote(L, R);
      if (!P || !comparable(P)) {
        fail(E->loc(), "invalid operands to comparison: " + L->str() +
                           " and " + R->str());
        return nullptr;
      }
      if (!convert(B->LHS, P) || !convert(B->RHS, P))
        return nullptr;
      B->Ty = comparisonType(P);
      return B->Ty;
    }
    case BinOpKind::Eq:
    case BinOpKind::Ne: {
      if (L->isPointer() || R->isPointer()) {
        // Pointer equality (nil literals convert).
        Type *P = L->isPointer() ? L : R;
        if (!convert(B->LHS, P) || !convert(B->RHS, P))
          return nullptr;
      } else if (L->isBool() && R->isBool()) {
        // OK as-is.
      } else {
        Type *P = promote(L, R);
        if (!P || !comparable(P)) {
          fail(E->loc(), "invalid operands to equality: " + L->str() +
                             " and " + R->str());
          return nullptr;
        }
        if (!convert(B->LHS, P) || !convert(B->RHS, P))
          return nullptr;
        B->Ty = comparisonType(P);
        return B->Ty;
      }
      B->Ty = Ctx.types().boolType();
      return B->Ty;
    }
    case BinOpKind::And:
    case BinOpKind::Or: {
      if (!L->isBool() || !R->isBool()) {
        fail(E->loc(), "'and'/'or' require boolean operands in terra (got " +
                           L->str() + " and " + R->str() + ")");
        return nullptr;
      }
      B->Ty = Ctx.types().boolType();
      return B->Ty;
    }
    }
    return nullptr;
  }
  case TerraNode::NK_UnOp: {
    auto *U = cast<UnOpExpr>(E);
    Type *T = checkExpr(U->Operand);
    if (!T)
      return nullptr;
    switch (U->Op) {
    case UnOpKind::Neg: {
      if (!(T->isArithmetic() ||
            (T->isVector() && cast<VectorType>(T)->element()->isArithmetic()))) {
        fail(E->loc(), "cannot negate " + T->str());
        return nullptr;
      }
      U->Ty = T;
      return U->Ty;
    }
    case UnOpKind::Not: {
      if (!T->isBool() &&
          !(T->isVector() && cast<VectorType>(T)->element()->isBool())) {
        fail(E->loc(), "'not' requires a boolean operand");
        return nullptr;
      }
      U->Ty = T;
      return U->Ty;
    }
    case UnOpKind::Deref: {
      auto *PT = dyn_cast<PointerType>(T);
      if (!PT) {
        fail(E->loc(), "cannot dereference non-pointer type " + T->str());
        return nullptr;
      }
      U->Ty = PT->pointee();
      U->IsLValue = true;
      return U->Ty;
    }
    case UnOpKind::AddrOf: {
      if (!U->Operand->IsLValue) {
        fail(E->loc(), "cannot take the address of a non-lvalue");
        return nullptr;
      }
      U->Ty = Ctx.types().pointer(T);
      return U->Ty;
    }
    }
    return nullptr;
  }
  case TerraNode::NK_Index: {
    auto *X = cast<IndexExpr>(E);
    Type *BaseTy = checkExpr(X->Base);
    Type *IdxTy = checkExpr(X->Idx);
    if (!BaseTy || !IdxTy)
      return nullptr;
    if (!IdxTy->isIntegral()) {
      fail(E->loc(), "index must be integral, got " + IdxTy->str());
      return nullptr;
    }
    if (!convert(X->Idx, Ctx.types().int64()))
      return nullptr;
    if (auto *PT = dyn_cast<PointerType>(BaseTy)) {
      X->Ty = PT->pointee();
      X->IsLValue = true;
      return X->Ty;
    }
    if (auto *AT = dyn_cast<ArrayType>(BaseTy)) {
      X->Ty = AT->element();
      X->IsLValue = X->Base->IsLValue;
      return X->Ty;
    }
    if (auto *VT = dyn_cast<VectorType>(BaseTy)) {
      X->Ty = VT->element();
      X->IsLValue = X->Base->IsLValue;
      return X->Ty;
    }
    fail(E->loc(), "cannot index type " + BaseTy->str());
    return nullptr;
  }
  case TerraNode::NK_Cast: {
    auto *C = cast<CastExpr>(E);
    Type *To = C->TyRef.Resolved;
    assert(To && "cast type unresolved after specialization");
    if (!checkExpr(C->Operand))
      return nullptr;
    TerraExpr *Operand = C->Operand;
    if (!castExplicit(Operand, To, E->loc()))
      return nullptr;
    E = Operand; // castExplicit wrapped (or passed through) the operand.
    if (E->Ty != To) {
      // Identity conversion: just annotate.
      E = makeCast(Operand, To, false);
    }
    return E->Ty;
  }
  case TerraNode::NK_Constructor: {
    auto *C = cast<ConstructorExpr>(E);
    Type *T = C->TyRef.Resolved;
    auto *ST = dyn_cast_or_null<StructType>(T);
    if (!ST) {
      fail(E->loc(), "constructor requires a struct type");
      return nullptr;
    }
    if (!completeStruct(ST, E->loc()))
      return nullptr;
    const auto &Fields = ST->fields();
    if (C->NumInits > Fields.size()) {
      fail(E->loc(), "too many initializers for struct " + ST->name());
      return nullptr;
    }
    for (unsigned I2 = 0; I2 != C->NumInits; ++I2) {
      int FieldIdx = static_cast<int>(I2);
      if (C->FieldNames && C->FieldNames[I2]) {
        FieldIdx = ST->fieldIndex(*C->FieldNames[I2]);
        if (FieldIdx < 0) {
          fail(E->loc(), "struct " + ST->name() + " has no field '" +
                             *C->FieldNames[I2] + "'");
          return nullptr;
        }
      }
      if (!checkExpr(C->Inits[I2]))
        return nullptr;
      if (!convert(C->Inits[I2], Fields[FieldIdx].FieldType))
        return nullptr;
    }
    C->Ty = ST;
    return C->Ty;
  }
  case TerraNode::NK_Intrinsic: {
    auto *N = cast<IntrinsicExpr>(E);
    switch (N->IK) {
    case IntrinsicKind::Sizeof: {
      Type *T = N->TyRef.Resolved;
      if (auto *ST = dyn_cast_or_null<StructType>(T))
        if (!completeStruct(ST, E->loc()))
          return nullptr;
      N->Ty = Ctx.types().uint64();
      return N->Ty;
    }
    case IntrinsicKind::Min:
    case IntrinsicKind::Max: {
      if (N->NumArgs != 2) {
        fail(E->loc(), "min/max take exactly two arguments");
        return nullptr;
      }
      Type *A = checkExpr(N->Args[0]);
      Type *B2 = checkExpr(N->Args[1]);
      if (!A || !B2)
        return nullptr;
      Type *P = promote(A, B2);
      bool ElemOK =
          P && (P->isArithmetic() ||
                (P->isVector() &&
                 cast<VectorType>(P)->element()->isArithmetic()));
      if (!ElemOK) {
        fail(E->loc(), "invalid operands to min/max: " + A->str() + " and " +
                           B2->str());
        return nullptr;
      }
      if (!convert(N->Args[0], P) || !convert(N->Args[1], P))
        return nullptr;
      N->Ty = P;
      return N->Ty;
    }
    case IntrinsicKind::Prefetch: {
      if (N->NumArgs < 1) {
        fail(E->loc(), "prefetch requires at least an address argument");
        return nullptr;
      }
      for (unsigned I2 = 0; I2 != N->NumArgs; ++I2)
        if (!checkExpr(N->Args[I2]))
          return nullptr;
      if (!N->Args[0]->Ty->isPointer()) {
        fail(E->loc(), "prefetch address must be a pointer");
        return nullptr;
      }
      for (unsigned I2 = 1; I2 != N->NumArgs; ++I2)
        if (!convert(N->Args[I2], Ctx.types().int32()))
          return nullptr;
      N->Ty = Ctx.types().voidType();
      return N->Ty;
    }
    }
    return nullptr;
  }
  default:
    fail(E->loc(), "internal: unexpected expression in typechecking");
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool CheckState::checkBlock(BlockStmt *B) {
  for (unsigned I2 = 0; I2 != B->NumStmts; ++I2)
    if (!checkStmt(B->Stmts[I2]))
      return false;
  return true;
}

bool CheckState::checkStmt(TerraStmt *S) {
  switch (S->kind()) {
  case TerraNode::NK_Block:
    return checkBlock(cast<BlockStmt>(S));
  case TerraNode::NK_VarDecl: {
    auto *D = cast<VarDeclStmt>(S);
    for (unsigned I2 = 0; I2 != D->NumNames; ++I2) {
      VarDeclName &N = D->Names[I2];
      Type *DeclTy = N.Sym->DeclaredType;
      if (I2 < D->NumInits) {
        Type *InitTy = checkExpr(D->Inits[I2]);
        if (!InitTy)
          return false;
        if (InitTy->isVoid())
          return fail(S->loc(), "cannot initialize a variable from a void "
                                "expression");
        if (DeclTy) {
          if (!convert(D->Inits[I2], DeclTy))
            return false;
        } else {
          N.Sym->DeclaredType = InitTy;
        }
      } else if (!DeclTy) {
        return fail(S->loc(), "variable '" + *N.Sym->Name +
                                  "' needs a type annotation or initializer");
      }
      if (auto *ST = dyn_cast<StructType>(N.Sym->DeclaredType))
        if (!completeStruct(ST, S->loc()))
          return false;
    }
    return true;
  }
  case TerraNode::NK_Assign: {
    auto *A = cast<AssignStmt>(S);
    if (A->NumLHS != A->NumRHS)
      return fail(S->loc(), "assignment count mismatch");
    // Terra evaluates all RHS before assigning (needed for swaps like
    // `B,A = B+ldb, A+1`): check both sides, conversions per-slot.
    for (unsigned I2 = 0; I2 != A->NumLHS; ++I2) {
      Type *LT = checkExpr(A->LHS[I2]);
      if (!LT)
        return false;
      if (!A->LHS[I2]->IsLValue)
        return fail(A->LHS[I2]->loc(), "left side of assignment is not an "
                                       "lvalue");
      if (!checkExpr(A->RHS[I2]))
        return false;
      if (!convert(A->RHS[I2], LT))
        return false;
    }
    return true;
  }
  case TerraNode::NK_If: {
    auto *I2 = cast<IfStmt>(S);
    for (unsigned K = 0; K != I2->NumClauses; ++K) {
      Type *CT = checkExpr(I2->Conds[K]);
      if (!CT)
        return false;
      if (!CT->isBool())
        return fail(I2->Conds[K]->loc(),
                    "'if' condition must be bool, got " + CT->str());
      if (!checkBlock(I2->Blocks[K]))
        return false;
    }
    return !I2->ElseBlock || checkBlock(I2->ElseBlock);
  }
  case TerraNode::NK_While: {
    auto *W = cast<WhileStmt>(S);
    Type *CT = checkExpr(W->Cond);
    if (!CT)
      return false;
    if (!CT->isBool())
      return fail(W->Cond->loc(),
                  "'while' condition must be bool, got " + CT->str());
    return checkBlock(W->Body);
  }
  case TerraNode::NK_ForNum: {
    auto *F = cast<ForNumStmt>(S);
    Type *LoT = checkExpr(F->Lo);
    Type *HiT = checkExpr(F->Hi);
    if (!LoT || !HiT)
      return false;
    Type *StepT = nullptr;
    if (F->Step) {
      StepT = checkExpr(F->Step);
      if (!StepT)
        return false;
    }
    Type *IterT = F->Var.Sym->DeclaredType;
    if (!IterT) {
      IterT = promote(LoT, HiT);
      if (IterT && StepT)
        IterT = promote(IterT, StepT);
    }
    if (!IterT || !IterT->isArithmetic())
      return fail(S->loc(), "terra 'for' bounds must be numbers");
    F->Var.Sym->DeclaredType = IterT;
    if (!convert(F->Lo, IterT) || !convert(F->Hi, IterT))
      return false;
    if (F->Step && !convert(F->Step, IterT))
      return false;
    return checkBlock(F->Body);
  }
  case TerraNode::NK_Return: {
    auto *R = cast<ReturnStmt>(S);
    Type *ValTy = Ctx.types().voidType();
    if (R->Val) {
      ValTy = checkExpr(R->Val);
      if (!ValTy)
        return false;
    }
    assert(Current && "return outside function");
    Type *Expected = Current->RetTy.Resolved;
    if (!Expected) {
      Current->RetTy = TypeRef::fromType(ValTy);
      return true;
    }
    if (Expected->isVoid()) {
      if (R->Val)
        return fail(S->loc(), "returning a value from a void function");
      return true;
    }
    if (!R->Val)
      return fail(S->loc(), "missing return value (function returns " +
                                Expected->str() + ")");
    return convert(R->Val, Expected);
  }
  case TerraNode::NK_Break:
    return true;
  case TerraNode::NK_ExprStmt:
    return checkExpr(cast<ExprStmt>(S)->E) != nullptr;
  default:
    return fail(S->loc(), "internal: unexpected statement in typechecking");
  }
}

//===----------------------------------------------------------------------===//
// Function checking
//===----------------------------------------------------------------------===//

bool CheckState::checkFunction(TerraFunction *F) {
  switch (F->State) {
  case TerraFunction::SK_Checked:
    return true;
  case TerraFunction::SK_Error:
    return false;
  case TerraFunction::SK_Checking:
    return true; // Cycle; caller handles signature needs.
  case TerraFunction::SK_Declared:
    return fail(SourceLoc(), "terra function '" + F->Name +
                                 "' is declared but never defined");
  case TerraFunction::SK_Defined:
    break;
  }

  F->State = TerraFunction::SK_Checking;
  TerraFunction *SavedCurrent = Current;
  Current = F;

  bool OK = true;
  // Validate and complete parameter types.
  for (unsigned I2 = 0; I2 != F->NumParams && OK; ++I2) {
    TerraSymbol *P = F->Params[I2];
    if (!P->DeclaredType) {
      OK = fail(SourceLoc(), "parameter '" + *P->Name + "' of '" + F->Name +
                                 "' has no type");
      break;
    }
    if (auto *ST = dyn_cast<StructType>(P->DeclaredType))
      OK = completeStruct(ST, SourceLoc());
  }
  if (OK && F->RetTy.Resolved) {
    std::vector<Type *> Params;
    for (unsigned I2 = 0; I2 != F->NumParams; ++I2)
      Params.push_back(F->Params[I2]->DeclaredType);
    F->FnTy = Ctx.types().function(std::move(Params), F->RetTy.Resolved);
  }

  if (OK)
    OK = checkBlock(F->Body);

  if (OK && !F->RetTy.Resolved)
    F->RetTy = TypeRef::fromType(Ctx.types().voidType());

  // Return coverage ("control can reach the end of the body") is checked
  // CFG-precisely by the analysis layer's TA002, which the compile pipeline
  // runs unconditionally after typechecking.

  if (OK && !F->FnTy) {
    std::vector<Type *> Params;
    for (unsigned I2 = 0; I2 != F->NumParams; ++I2)
      Params.push_back(F->Params[I2]->DeclaredType);
    F->FnTy = Ctx.types().function(std::move(Params), F->RetTy.Resolved);
  }
  if (OK) {
    if (auto *ST = dyn_cast<StructType>(F->RetTy.Resolved))
      OK = completeStruct(ST, SourceLoc());
  }

  // Link failures are retryable (monotonic typechecking); real type errors
  // are sticky.
  F->State = OK ? TerraFunction::SK_Checked
                : (FailedOnUndefined ? TerraFunction::SK_Defined
                                     : TerraFunction::SK_Error);
  Current = SavedCurrent;
  return OK;
}

} // namespace

//===----------------------------------------------------------------------===//
// Typechecker public interface
//===----------------------------------------------------------------------===//

Typechecker::Typechecker(TerraContext &Ctx, Interp &I) : Ctx(Ctx), I(I) {}

bool Typechecker::check(TerraFunction *F) {
  if (F->State == TerraFunction::SK_Checked)
    return true;
  if (F->State == TerraFunction::SK_Error) {
    I.diags().error(SourceLoc(), "terra function '" + F->Name +
                                     "' previously failed to typecheck");
    return false;
  }
  if (F->IsExtern || F->HostClosure) {
    // Externs and host wrappers carry their type from creation.
    F->State = TerraFunction::SK_Checked;
    return true;
  }
  // Typechecking is lazy — deferred to the first call (paper Fig. 4) — and
  // covers the root's whole connected component in one pass.
  trace::TraceSpan Span("typecheck", "frontend");
  Span.arg("fn", F->Name);
  telemetry::Registry &Reg = telemetry::Registry::global();
  Reg.counter("frontend.typechecks").inc();
  telemetry::ScopedTimerUs Timer(Reg.histogram("frontend.typecheck_us"));
  CheckState S(Ctx, I);
  if (!S.checkFunction(F))
    return false;
  // Paper Fig. 4: everything in the connected component must typecheck
  // before the root can run.
  while (!S.Worklist.empty()) {
    TerraFunction *Next = S.Worklist.back();
    S.Worklist.pop_back();
    if (Next->State == TerraFunction::SK_Checked ||
        Next->IsExtern || Next->HostClosure)
      continue;
    if (!S.checkFunction(Next)) {
      F->State = S.FailedOnUndefined ? TerraFunction::SK_Defined
                                     : TerraFunction::SK_Error;
      return false;
    }
  }
  return true;
}

bool Typechecker::completeStruct(StructType *ST, SourceLoc Loc) {
  CheckState S(Ctx, I);
  return S.completeStruct(ST, Loc);
}

bool Typechecker::isImplicitlyConvertible(Type *From, Type *To) {
  return implicitOK(From, To, /*IsNullPtrLiteral=*/false);
}
