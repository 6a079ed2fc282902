#include "core/TerraInterpBackend.h"

#include "core/TerraBaselineJIT.h"
#include "core/TerraCompiler.h"
#include "core/TerraExternDispatch.h"
#include "core/TerraJIT.h"
#include "core/TerraType.h"
#include "core/TerraVM.h"
#include "support/Log.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

using namespace terracpp;

namespace {

//===----------------------------------------------------------------------===//
// Scalar helpers (shared with the tier-0 VM; see TerraExternDispatch.h)
//===----------------------------------------------------------------------===//

using interpruntime::loadAsDouble;
using interpruntime::loadAsInt;
using interpruntime::storeFromDouble;
using interpruntime::storeFromInt;

size_t PrimSizeOf(PrimType::PrimKind PK) {
  return interpruntime::primSizeOf(PK);
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

class TEval {
public:
  TEval(TerraContext &Ctx, TerraCompiler &Comp) : Ctx(Ctx), Comp(Comp) {}

  TerraContext &Ctx;
  TerraCompiler &Comp;
  bool Failed = false;

  struct Frame {
    std::map<const TerraSymbol *, std::unique_ptr<uint8_t[]>> Locals;

    void *slot(const TerraSymbol *S, uint64_t Size) {
      auto It = Locals.find(S);
      if (It != Locals.end())
        return alignUp(It->second.get());
      auto Buf = std::make_unique<uint8_t[]>(Size + 32);
      void *P = alignUp(Buf.get());
      memset(P, 0, Size);
      Locals[S] = std::move(Buf);
      return P;
    }

    static void *alignUp(void *P) {
      return reinterpret_cast<void *>(
          (reinterpret_cast<uintptr_t>(P) + 31) & ~static_cast<uintptr_t>(31));
    }
  };

  enum class Flow { Normal, Break, Return };

  bool fail(SourceLoc Loc, const std::string &Msg) {
    if (!Failed)
      Ctx.diags().error(Loc, "terra interpreter: " + Msg);
    Failed = true;
    return false;
  }

  bool runFunction(const TerraFunction *F, void **Args, void *Ret);

private:
  Frame *Cur = nullptr;
  void *RetSlot = nullptr;
  Type *RetTy = nullptr;
  unsigned Depth = 0;

  bool evalExpr(const TerraExpr *E, void *Dst);
  bool evalAddr(const TerraExpr *E, void *&Addr);
  bool execStmt(const TerraStmt *S, Flow &F);
  bool execBlock(const BlockStmt *B, Flow &F);
  bool evalBool(const TerraExpr *E, bool &Out) {
    uint8_t B = 0;
    if (!evalExpr(E, &B))
      return false;
    Out = B != 0;
    return true;
  }
  bool callFunction(const TerraFunction *F, const ApplyExpr *A, void *Dst);
  bool dispatchExtern(const TerraFunction *F, void **Args,
                      const std::vector<Type *> &ArgTypes, void *Ret,
                      SourceLoc Loc);
  bool binScalar(BinOpKind Op, PrimType::PrimKind PK, const void *L,
                 const void *R, void *Dst, Type *ResTy, SourceLoc Loc);
  bool castScalar(Type *From, Type *To, const void *Src, void *Dst,
                  SourceLoc Loc);

  std::vector<std::unique_ptr<uint8_t[]>> TempPool;
  void *temp(uint64_t Size) {
    TempPool.push_back(std::make_unique<uint8_t[]>(Size + 32));
    void *P = Frame::alignUp(TempPool.back().get());
    memset(P, 0, Size);
    return P;
  }
};

bool TEval::runFunction(const TerraFunction *F, void **Args, void *Ret) {
  if (Depth > 400)
    return fail(SourceLoc(), "terra call stack overflow in interpreter");
  ++Depth;
  Frame NewFrame;
  Frame *SavedFrame = Cur;
  void *SavedRet = RetSlot;
  Type *SavedRetTy = RetTy;
  size_t SavedTemps = TempPool.size();
  Cur = &NewFrame;
  RetSlot = Ret;
  RetTy = F->FnTy->result();

  for (unsigned I = 0; I != F->NumParams; ++I) {
    Type *PT = F->Params[I]->DeclaredType;
    void *Slot = NewFrame.slot(F->Params[I], PT->size());
    memcpy(Slot, Args[I], PT->size());
  }
  Flow Fl = Flow::Normal;
  bool OK = execBlock(F->Body, Fl);
  if (OK && Fl != Flow::Return && !RetTy->isVoid())
    OK = fail(F->Body->loc(), "control reached end of non-void function '" +
                                  F->Name + "'");
  Cur = SavedFrame;
  RetSlot = SavedRet;
  RetTy = SavedRetTy;
  TempPool.resize(SavedTemps);
  --Depth;
  return OK;
}

bool TEval::execBlock(const BlockStmt *B, Flow &F) {
  for (unsigned I = 0; I != B->NumStmts; ++I) {
    // Temporaries never outlive their statement; reclaim them so loops do
    // not accumulate allocations.
    size_t Mark = TempPool.size();
    bool OK = execStmt(B->Stmts[I], F);
    TempPool.resize(Mark);
    if (!OK)
      return false;
    if (F != Flow::Normal)
      return true;
  }
  return true;
}

bool TEval::execStmt(const TerraStmt *S, Flow &F) {
  switch (S->kind()) {
  case TerraNode::NK_Block:
    return execBlock(cast<BlockStmt>(S), F);
  case TerraNode::NK_VarDecl: {
    const auto *D = cast<VarDeclStmt>(S);
    for (unsigned I = 0; I != D->NumNames; ++I) {
      Type *T = D->Names[I].Sym->DeclaredType;
      void *Slot = Cur->slot(D->Names[I].Sym, T->size());
      if (I < D->NumInits) {
        if (!evalExpr(D->Inits[I], Slot))
          return false;
      } else {
        memset(Slot, 0, T->size());
      }
    }
    return true;
  }
  case TerraNode::NK_Assign: {
    const auto *A = cast<AssignStmt>(S);
    // Parallel semantics: all RHS evaluated before stores.
    std::vector<void *> Temps(A->NumRHS);
    for (unsigned I = 0; I != A->NumRHS; ++I) {
      Temps[I] = temp(A->RHS[I]->Ty->size());
      if (!evalExpr(A->RHS[I], Temps[I]))
        return false;
    }
    for (unsigned I = 0; I != A->NumLHS; ++I) {
      void *Addr = nullptr;
      if (!evalAddr(A->LHS[I], Addr))
        return false;
      memcpy(Addr, Temps[I], A->LHS[I]->Ty->size());
    }
    return true;
  }
  case TerraNode::NK_If: {
    const auto *I2 = cast<IfStmt>(S);
    for (unsigned K = 0; K != I2->NumClauses; ++K) {
      bool C;
      if (!evalBool(I2->Conds[K], C))
        return false;
      if (C)
        return execBlock(I2->Blocks[K], F);
    }
    if (I2->ElseBlock)
      return execBlock(I2->ElseBlock, F);
    return true;
  }
  case TerraNode::NK_While: {
    const auto *W = cast<WhileStmt>(S);
    while (true) {
      bool C;
      if (!evalBool(W->Cond, C))
        return false;
      if (!C)
        return true;
      Flow BF = Flow::Normal;
      if (!execBlock(W->Body, BF))
        return false;
      if (BF == Flow::Break)
        return true;
      if (BF == Flow::Return) {
        F = Flow::Return;
        return true;
      }
    }
  }
  case TerraNode::NK_ForNum: {
    const auto *Fo = cast<ForNumStmt>(S);
    Type *IT = Fo->Var.Sym->DeclaredType;
    auto PK = cast<PrimType>(IT)->primKind();
    int64_t Lo, Hi, Step = 1;
    {
      void *T1 = temp(IT->size());
      if (!evalExpr(Fo->Lo, T1))
        return false;
      Lo = loadAsInt(PK, T1);
      if (!evalExpr(Fo->Hi, T1))
        return false;
      Hi = loadAsInt(PK, T1);
      if (Fo->Step) {
        if (!evalExpr(Fo->Step, T1))
          return false;
        Step = loadAsInt(PK, T1);
      }
    }
    if (Step == 0)
      return fail(S->loc(), "'for' step is zero");
    void *IVar = Cur->slot(Fo->Var.Sym, IT->size());
    for (int64_t I = Lo; Step > 0 ? I < Hi : I > Hi; I += Step) {
      storeFromInt(PK, IVar, I);
      Flow BF = Flow::Normal;
      if (!execBlock(Fo->Body, BF))
        return false;
      if (BF == Flow::Break)
        return true;
      if (BF == Flow::Return) {
        F = Flow::Return;
        return true;
      }
      // Loop variable mutations inside the body follow Terra/C semantics:
      // the next iteration continues from the stored value.
      I = loadAsInt(PK, IVar);
    }
    return true;
  }
  case TerraNode::NK_Return: {
    const auto *R = cast<ReturnStmt>(S);
    if (R->Val && RetSlot) {
      if (!evalExpr(R->Val, RetSlot))
        return false;
    }
    F = Flow::Return;
    return true;
  }
  case TerraNode::NK_Break:
    F = Flow::Break;
    return true;
  case TerraNode::NK_ExprStmt: {
    const TerraExpr *E = cast<ExprStmt>(S)->E;
    void *Dst = E->Ty->isVoid() ? nullptr : temp(E->Ty->size());
    return evalExpr(E, Dst);
  }
  default:
    return fail(S->loc(), "unexpected statement");
  }
}

//===----------------------------------------------------------------------===//
// Addresses (lvalues)
//===----------------------------------------------------------------------===//

bool TEval::evalAddr(const TerraExpr *E, void *&Addr) {
  switch (E->kind()) {
  case TerraNode::NK_Var: {
    const auto *V = cast<VarExpr>(E);
    Addr = Cur->slot(V->Sym, V->Sym->DeclaredType->size());
    return true;
  }
  case TerraNode::NK_GlobalRef:
    Addr = cast<GlobalRefExpr>(E)->Global->Storage;
    return true;
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    if (U->Op != UnOpKind::Deref)
      break;
    void *P = temp(8);
    if (!evalExpr(U->Operand, P))
      return false;
    memcpy(&Addr, P, sizeof(void *));
    if (!Addr)
      return fail(E->loc(), "null pointer dereference");
    return true;
  }
  case TerraNode::NK_Index: {
    const auto *X = cast<IndexExpr>(E);
    int64_t Idx;
    {
      void *T1 = temp(8);
      if (!evalExpr(X->Idx, T1))
        return false;
      Idx = *static_cast<int64_t *>(T1);
    }
    Type *BT = X->Base->Ty;
    if (BT->isPointer()) {
      void *P = temp(8);
      if (!evalExpr(X->Base, P))
        return false;
      void *Base;
      memcpy(&Base, P, sizeof(void *));
      Addr = static_cast<uint8_t *>(Base) + Idx * E->Ty->size();
      return true;
    }
    // Array or vector lvalue.
    void *BaseAddr = nullptr;
    if (!evalAddr(X->Base, BaseAddr))
      return false;
    Addr = static_cast<uint8_t *>(BaseAddr) + Idx * E->Ty->size();
    return true;
  }
  case TerraNode::NK_Select: {
    const auto *S = cast<SelectExpr>(E);
    void *BaseAddr = nullptr;
    if (!evalAddr(S->Base, BaseAddr))
      return false;
    const auto *ST = cast<StructType>(S->Base->Ty);
    Addr = static_cast<uint8_t *>(BaseAddr) +
           ST->fields()[S->FieldIndex].Offset;
    return true;
  }
  default:
    break;
  }
  return fail(E->loc(), "expression is not an lvalue in interpreter");
}

//===----------------------------------------------------------------------===//
// Casts and arithmetic
//===----------------------------------------------------------------------===//

bool TEval::castScalar(Type *From, Type *To, const void *Src, void *Dst,
                       SourceLoc Loc) {
  if (From == To) {
    memcpy(Dst, Src, To->size());
    return true;
  }
  if ((From->isPointer() || From->isFunction()) &&
      (To->isPointer() || To->isFunction())) {
    memcpy(Dst, Src, sizeof(void *));
    return true;
  }
  if (From->isPointer() && To->isIntegral()) {
    uint64_t V;
    memcpy(&V, Src, 8);
    storeFromInt(cast<PrimType>(To)->primKind(), Dst,
                 static_cast<int64_t>(V));
    return true;
  }
  if (From->isIntegral() && To->isPointer()) {
    int64_t V = loadAsInt(cast<PrimType>(From)->primKind(), Src);
    memcpy(Dst, &V, 8);
    return true;
  }
  const auto *PF = dyn_cast<PrimType>(From);
  const auto *PT = dyn_cast<PrimType>(To);
  if (PF && PT) {
    if (PF->isIntegralPrim() || PF->primKind() == PrimType::Bool) {
      int64_t V = loadAsInt(PF->primKind(), Src);
      storeFromInt(PT->primKind(), Dst, V);
    } else {
      double V = loadAsDouble(PF->primKind(), Src);
      storeFromDouble(PT->primKind(), Dst, V);
    }
    return true;
  }
  // Scalar -> vector broadcast.
  if (auto *VT = dyn_cast<VectorType>(To)) {
    if (From->isArithmetic()) {
      uint64_t ES = VT->element()->size();
      void *Lane = temp(ES);
      if (!castScalar(From, VT->element(), Src, Lane, Loc))
        return false;
      for (uint64_t I = 0; I != VT->length(); ++I)
        memcpy(static_cast<uint8_t *>(Dst) + I * ES, Lane, ES);
      return true;
    }
    if (auto *VF = dyn_cast<VectorType>(From)) {
      uint64_t ESF = VF->element()->size(), EST = VT->element()->size();
      for (uint64_t I = 0; I != VT->length(); ++I)
        if (!castScalar(VF->element(), VT->element(),
                        static_cast<const uint8_t *>(Src) + I * ESF,
                        static_cast<uint8_t *>(Dst) + I * EST, Loc))
          return false;
      return true;
    }
  }
  // Array decay handled by evalExpr(Cast) directly.
  return fail(Loc, "unsupported cast " + From->str() + " -> " + To->str());
}

bool TEval::binScalar(BinOpKind Op, PrimType::PrimKind PK, const void *L,
                      const void *R, void *Dst, Type *ResTy, SourceLoc Loc) {
  bool IsFloat = PK == PrimType::Float32 || PK == PrimType::Float64;
  auto PutBool = [&](bool B) { *static_cast<uint8_t *>(Dst) = B ? 1 : 0; };
  if (IsFloat) {
    double A = loadAsDouble(PK, L), B = loadAsDouble(PK, R);
    if (PK == PrimType::Float32) {
      float FA = *static_cast<const float *>(L),
            FB = *static_cast<const float *>(R);
      A = FA;
      B = FB;
    }
    switch (Op) {
    case BinOpKind::Add:
      storeFromDouble(PK, Dst, A + B);
      return true;
    case BinOpKind::Sub:
      storeFromDouble(PK, Dst, A - B);
      return true;
    case BinOpKind::Mul:
      storeFromDouble(PK, Dst, A * B);
      return true;
    case BinOpKind::Div:
      storeFromDouble(PK, Dst, A / B);
      return true;
    case BinOpKind::Lt:
      PutBool(A < B);
      return true;
    case BinOpKind::Le:
      PutBool(A <= B);
      return true;
    case BinOpKind::Gt:
      PutBool(A > B);
      return true;
    case BinOpKind::Ge:
      PutBool(A >= B);
      return true;
    case BinOpKind::Eq:
      PutBool(A == B);
      return true;
    case BinOpKind::Ne:
      PutBool(A != B);
      return true;
    default:
      return fail(Loc, "invalid float operator");
    }
  }
  if (PK == PrimType::Bool) {
    bool A = *static_cast<const uint8_t *>(L) != 0;
    bool B = *static_cast<const uint8_t *>(R) != 0;
    switch (Op) {
    case BinOpKind::And:
      PutBool(A && B);
      return true;
    case BinOpKind::Or:
      PutBool(A || B);
      return true;
    case BinOpKind::Eq:
      PutBool(A == B);
      return true;
    case BinOpKind::Ne:
      PutBool(A != B);
      return true;
    default:
      return fail(Loc, "invalid bool operator");
    }
  }
  bool IsSigned = PK >= PrimType::Int8 && PK <= PrimType::Int64;
  int64_t A = loadAsInt(PK, L), B = loadAsInt(PK, R);
  uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
  auto PutInt = [&](int64_t V) {
    storeFromInt(PK, Dst, V);
    (void)ResTy;
  };
  switch (Op) {
  case BinOpKind::Add:
    PutInt(A + B);
    return true;
  case BinOpKind::Sub:
    PutInt(A - B);
    return true;
  case BinOpKind::Mul:
    PutInt(A * B);
    return true;
  case BinOpKind::Div:
    if (B == 0)
      return fail(Loc, "integer division by zero");
    PutInt(IsSigned ? A / B : static_cast<int64_t>(UA / UB));
    return true;
  case BinOpKind::Mod:
    if (B == 0)
      return fail(Loc, "integer modulo by zero");
    PutInt(IsSigned ? A % B : static_cast<int64_t>(UA % UB));
    return true;
  case BinOpKind::Shl:
  case BinOpKind::Shr: {
    uint64_t Width = ResTy ? ResTy->size() * 8 : 64;
    if (UB >= Width)
      return fail(Loc, "shift amount out of range");
    if (Op == BinOpKind::Shl)
      PutInt(static_cast<int64_t>(UA << UB));
    else
      PutInt(IsSigned ? A >> B : static_cast<int64_t>(UA >> UB));
    return true;
  }
  case BinOpKind::Lt:
    PutBool(IsSigned ? A < B : UA < UB);
    return true;
  case BinOpKind::Le:
    PutBool(IsSigned ? A <= B : UA <= UB);
    return true;
  case BinOpKind::Gt:
    PutBool(IsSigned ? A > B : UA > UB);
    return true;
  case BinOpKind::Ge:
    PutBool(IsSigned ? A >= B : UA >= UB);
    return true;
  case BinOpKind::Eq:
    PutBool(A == B);
    return true;
  case BinOpKind::Ne:
    PutBool(A != B);
    return true;
  default:
    return fail(Loc, "invalid integer operator");
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

bool TEval::evalExpr(const TerraExpr *E, void *Dst) {
  switch (E->kind()) {
  case TerraNode::NK_Lit: {
    const auto *L = cast<LitExpr>(E);
    switch (L->LK) {
    case LitExpr::LK_Int:
      storeFromInt(cast<PrimType>(L->Ty)->primKind(), Dst, L->IntVal);
      return true;
    case LitExpr::LK_Float:
      storeFromDouble(cast<PrimType>(L->Ty)->primKind(), Dst, L->FloatVal);
      return true;
    case LitExpr::LK_Bool:
      *static_cast<uint8_t *>(Dst) = L->BoolVal ? 1 : 0;
      return true;
    case LitExpr::LK_String: {
      const char *Data = Ctx.internStringData(*L->StrVal);
      memcpy(Dst, &Data, sizeof(void *));
      return true;
    }
    case LitExpr::LK_Pointer:
      memcpy(Dst, &L->PtrVal, sizeof(void *));
      return true;
    }
    return false;
  }
  case TerraNode::NK_Var:
  case TerraNode::NK_GlobalRef:
  case TerraNode::NK_Select: {
    void *Addr = nullptr;
    if (!evalAddr(E, Addr))
      return false;
    memcpy(Dst, Addr, E->Ty->size());
    return true;
  }
  case TerraNode::NK_Index: {
    // Index on a non-lvalue base (rare): evaluate base into a temp.
    const auto *X = cast<IndexExpr>(E);
    if (X->Base->IsLValue || X->Base->Ty->isPointer()) {
      void *Addr = nullptr;
      if (!evalAddr(E, Addr))
        return false;
      memcpy(Dst, Addr, E->Ty->size());
      return true;
    }
    void *Base = temp(X->Base->Ty->size());
    if (!evalExpr(X->Base, Base))
      return false;
    void *T1 = temp(8);
    if (!evalExpr(X->Idx, T1))
      return false;
    int64_t Idx = *static_cast<int64_t *>(T1);
    memcpy(Dst, static_cast<uint8_t *>(Base) + Idx * E->Ty->size(),
           E->Ty->size());
    return true;
  }
  case TerraNode::NK_FuncLit: {
    const TerraFunction *F = cast<FuncLitExpr>(E)->Fn;
    if (Comp.tierManager()) {
      // Tiered execution: materialized function values are machine
      // addresses everywhere (native code may call through the same bits),
      // so taking a function's value promotes it.
      void *P = Comp.nativePointer(const_cast<TerraFunction *>(F));
      if (!P)
        return fail(E->loc(),
                    "cannot take the address of function '" + F->Name + "'");
      memcpy(Dst, &P, sizeof(void *));
      return true;
    }
    memcpy(Dst, &F, sizeof(void *));
    return true;
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    switch (U->Op) {
    case UnOpKind::AddrOf: {
      void *Addr = nullptr;
      if (!evalAddr(U->Operand, Addr))
        return false;
      memcpy(Dst, &Addr, sizeof(void *));
      return true;
    }
    case UnOpKind::Deref: {
      void *P = temp(8);
      if (!evalExpr(U->Operand, P))
        return false;
      void *Addr;
      memcpy(&Addr, P, sizeof(void *));
      if (!Addr)
        return fail(E->loc(), "null pointer dereference");
      memcpy(Dst, Addr, E->Ty->size());
      return true;
    }
    case UnOpKind::Not: {
      // Bool lanes are one byte each; a scalar bool is one lane.
      uint64_t N = U->Ty->size();
      auto *B = static_cast<uint8_t *>(temp(N));
      if (!evalExpr(U->Operand, B))
        return false;
      for (uint64_t I = 0; I != N; ++I)
        static_cast<uint8_t *>(Dst)[I] = B[I] ? 0 : 1;
      return true;
    }
    case UnOpKind::Neg: {
      Type *T = U->Ty;
      if (auto *VT = dyn_cast<VectorType>(T)) {
        void *Src = temp(T->size());
        if (!evalExpr(U->Operand, Src))
          return false;
        auto PK = cast<PrimType>(VT->element())->primKind();
        uint64_t ES = VT->element()->size();
        for (uint64_t I = 0; I != VT->length(); ++I) {
          const void *L = static_cast<const uint8_t *>(Src) + I * ES;
          void *D = static_cast<uint8_t *>(Dst) + I * ES;
          if (PK == PrimType::Float32 || PK == PrimType::Float64)
            storeFromDouble(PK, D, -loadAsDouble(PK, L));
          else
            storeFromInt(PK, D, -loadAsInt(PK, L));
        }
        return true;
      }
      void *Src = temp(T->size());
      if (!evalExpr(U->Operand, Src))
        return false;
      auto PK = cast<PrimType>(T)->primKind();
      if (PK == PrimType::Float32 || PK == PrimType::Float64)
        storeFromDouble(PK, Dst, -loadAsDouble(PK, Src));
      else
        storeFromInt(PK, Dst, -loadAsInt(PK, Src));
      return true;
    }
    }
    return false;
  }
  case TerraNode::NK_BinOp: {
    const auto *B = cast<BinOpExpr>(E);
    Type *OpTy = B->LHS->Ty;
    // Short-circuit boolean and/or (matches the C backend's && / ||).
    if ((B->Op == BinOpKind::And || B->Op == BinOpKind::Or) &&
        OpTy->isBool()) {
      uint8_t L8 = 0;
      if (!evalExpr(B->LHS, &L8))
        return false;
      bool L = L8 != 0;
      if (B->Op == BinOpKind::And ? !L : L) {
        *static_cast<uint8_t *>(Dst) = L ? 1 : 0;
        return true;
      }
      return evalExpr(B->RHS, Dst);
    }
    // Pointer arithmetic.
    if (OpTy->isPointer() || B->RHS->Ty->isPointer()) {
      void *PL = temp(8), *PR = temp(8);
      if (!evalExpr(B->LHS, PL) || !evalExpr(B->RHS, PR))
        return false;
      if (OpTy->isPointer() && B->RHS->Ty->isPointer()) {
        uint8_t *A, *C;
        memcpy(&A, PL, 8);
        memcpy(&C, PR, 8);
        if (B->Op == BinOpKind::Sub) {
          int64_t D = (A - C) /
                      static_cast<int64_t>(
                          cast<PointerType>(OpTy)->pointee()->size());
          memcpy(Dst, &D, 8);
          return true;
        }
        uint8_t R = 0;
        switch (B->Op) {
        case BinOpKind::Eq:
          R = A == C;
          break;
        case BinOpKind::Ne:
          R = A != C;
          break;
        default:
          return fail(E->loc(), "invalid pointer operator");
        }
        *static_cast<uint8_t *>(Dst) = R;
        return true;
      }
      // ptr +/- int (typechecker normalized int side to int64).
      uint8_t *A;
      int64_t Off;
      if (OpTy->isPointer()) {
        memcpy(&A, PL, 8);
        memcpy(&Off, PR, 8);
      } else {
        memcpy(&A, PR, 8);
        memcpy(&Off, PL, 8);
      }
      uint64_t ES = cast<PointerType>(E->Ty)->pointee()->size();
      uint8_t *R = B->Op == BinOpKind::Add
                       ? A + Off * static_cast<int64_t>(ES)
                       : A - Off * static_cast<int64_t>(ES);
      memcpy(Dst, &R, 8);
      return true;
    }
    void *L = temp(OpTy->size()), *R = temp(OpTy->size());
    if (!evalExpr(B->LHS, L) || !evalExpr(B->RHS, R))
      return false;
    if (auto *VT = dyn_cast<VectorType>(OpTy)) {
      auto PK = cast<PrimType>(VT->element())->primKind();
      uint64_t ES = VT->element()->size();
      bool IsCmp = E->Ty->isBool() ||
                   (E->Ty->isVector() &&
                    cast<VectorType>(E->Ty)->element()->isBool());
      uint64_t DS = IsCmp ? 1 : ES;
      for (uint64_t I = 0; I != VT->length(); ++I)
        if (!binScalar(B->Op, PK, static_cast<uint8_t *>(L) + I * ES,
                       static_cast<uint8_t *>(R) + I * ES,
                       static_cast<uint8_t *>(Dst) + I * DS, E->Ty,
                       E->loc()))
          return false;
      return true;
    }
    return binScalar(B->Op, cast<PrimType>(OpTy)->primKind(), L, R, Dst,
                     E->Ty, E->loc());
  }
  case TerraNode::NK_Cast: {
    const auto *C = cast<CastExpr>(E);
    Type *From = C->Operand->Ty;
    Type *To = C->Ty;
    if (From->isArray() && To->isPointer()) {
      void *Addr = nullptr;
      if (!evalAddr(C->Operand, Addr))
        return false;
      memcpy(Dst, &Addr, sizeof(void *));
      return true;
    }
    void *Src = temp(From->size());
    if (!evalExpr(C->Operand, Src))
      return false;
    return castScalar(From, To, Src, Dst, E->loc());
  }
  case TerraNode::NK_Constructor: {
    const auto *C = cast<ConstructorExpr>(E);
    const auto *ST = cast<StructType>(C->Ty);
    memset(Dst, 0, ST->size());
    for (unsigned I = 0; I != C->NumInits; ++I) {
      int Idx = static_cast<int>(I);
      if (C->FieldNames && C->FieldNames[I])
        Idx = ST->fieldIndex(*C->FieldNames[I]);
      const StructField &Fl = ST->fields()[Idx];
      if (!evalExpr(C->Inits[I], static_cast<uint8_t *>(Dst) + Fl.Offset))
        return false;
    }
    return true;
  }
  case TerraNode::NK_Apply: {
    const auto *A = cast<ApplyExpr>(E);
    const TerraFunction *F = nullptr;
    if (const auto *FL = dyn_cast<FuncLitExpr>(A->Callee)) {
      F = FL->Fn;
    } else {
      void *P = temp(8);
      if (!evalExpr(A->Callee, P))
        return false;
      memcpy(&F, P, sizeof(void *));
      if (!F)
        return fail(E->loc(), "null function pointer call");
      if (Comp.tierManager()) {
        // Under tiered execution the value is a machine address; map it
        // back to the function so the call dispatches through its entry.
        const TerraFunction *MF = Comp.functionForRawPtr(F);
        if (!MF)
          return fail(E->loc(),
                      "call through unknown function pointer in interpreter");
        F = MF;
      }
    }
    return callFunction(F, A, Dst);
  }
  case TerraNode::NK_Intrinsic: {
    const auto *N = cast<IntrinsicExpr>(E);
    switch (N->IK) {
    case IntrinsicKind::Sizeof: {
      uint64_t S = N->TyRef.Resolved->size();
      memcpy(Dst, &S, 8);
      return true;
    }
    case IntrinsicKind::Min:
    case IntrinsicKind::Max: {
      Type *T = E->Ty;
      void *A = temp(T->size()), *B2 = temp(T->size());
      if (!evalExpr(N->Args[0], A) || !evalExpr(N->Args[1], B2))
        return false;
      auto Pick = [&](PrimType::PrimKind PK, const void *X, const void *Y,
                      void *D) {
        bool TakeX;
        if (PK == PrimType::Float32 || PK == PrimType::Float64)
          TakeX = N->IK == IntrinsicKind::Min
                      ? loadAsDouble(PK, X) < loadAsDouble(PK, Y)
                      : loadAsDouble(PK, X) > loadAsDouble(PK, Y);
        else
          TakeX = N->IK == IntrinsicKind::Min
                      ? loadAsInt(PK, X) < loadAsInt(PK, Y)
                      : loadAsInt(PK, X) > loadAsInt(PK, Y);
        memcpy(D, TakeX ? X : Y, PrimSizeOf(PK));
      };
      if (auto *VT = dyn_cast<VectorType>(T)) {
        auto PK = cast<PrimType>(VT->element())->primKind();
        uint64_t ES = VT->element()->size();
        for (uint64_t I = 0; I != VT->length(); ++I)
          Pick(PK, static_cast<uint8_t *>(A) + I * ES,
               static_cast<uint8_t *>(B2) + I * ES,
               static_cast<uint8_t *>(Dst) + I * ES);
        return true;
      }
      Pick(cast<PrimType>(T)->primKind(), A, B2, Dst);
      return true;
    }
    case IntrinsicKind::Prefetch:
      // Evaluate the address for effect parity, then ignore.
      {
        void *P = temp(8);
        return evalExpr(N->Args[0], P);
      }
    }
    return false;
  }
  default:
    return fail(E->loc(), "unexpected expression in interpreter");
  }
}

bool TEval::callFunction(const TerraFunction *F, const ApplyExpr *A,
                         void *Dst) {
  std::vector<void *> ArgPtrs(A->NumArgs);
  for (unsigned I = 0; I != A->NumArgs; ++I) {
    ArgPtrs[I] = temp(A->Args[I]->Ty->size());
    if (!evalExpr(A->Args[I], ArgPtrs[I]))
      return false;
  }
  if (F->IsExtern) {
    std::vector<Type *> ArgTypes(A->NumArgs);
    for (unsigned I = 0; I != A->NumArgs; ++I)
      ArgTypes[I] = A->Args[I]->Ty;
    return dispatchExtern(F, ArgPtrs.data(), ArgTypes, Dst, A->loc());
  }
  if (F->HostClosure)
    return Comp.invokeHostClosure(F->HostClosureId, ArgPtrs.data(), Dst);
  auto *MF = const_cast<TerraFunction *>(F);
  if (!MF->Entry) {
    // Lazily prepare functions reached through function-pointer values.
    if (!Comp.ensureCompiled(MF))
      return false;
  }
  if (MF->Body)
    return runFunction(MF, ArgPtrs.data(), Dst);
  MF->Entry(ArgPtrs.data(), Dst);
  return true;
}

//===----------------------------------------------------------------------===//
// Extern dispatch (libc registry)
//===----------------------------------------------------------------------===//

bool TEval::dispatchExtern(const TerraFunction *F, void **Args,
                           const std::vector<Type *> &ArgTypes, void *Ret,
                           SourceLoc Loc) {
  std::string Err;
  if (interpruntime::dispatchExtern(F, Args, ArgTypes, Ret, Err))
    return true;
  return fail(Loc, Err);
}

} // namespace

//===----------------------------------------------------------------------===//
// TerraInterpBackend
//===----------------------------------------------------------------------===//

TerraInterpBackend::TerraInterpBackend(TerraContext &Ctx,
                                       TerraCompiler &Compiler, InterpKind Kind)
    : Ctx(Ctx), Compiler(Compiler), ForceTree(Kind == InterpKind::Tree),
      MDispatchUs(Compiler.jit().metrics().histogram("vm.dispatch_us")),
      MBackEdges(Compiler.jit().metrics().counter("vm.backedges")),
      MTreeFallbacks(
          Compiler.jit().metrics().counter("interp.tree_fallbacks")) {}

int TerraInterpBackend::execute(const TerraFunction *F, void **Args, void *Ret,
                                uint64_t *BackEdges) {
  if (BackEdges)
    *BackEdges = 0;
  int Tier = 0;
  if (F->HostClosure) {
    // Host closures carry no Body; the engines below would have nothing to
    // run. (Reached when a closure lands in a tiered component.)
    Compiler.invokeHostClosure(F->HostClosureId, Args, Ret);
  } else if (ForceTree || !F->Bytecode) {
    TEval Eval(Ctx, Compiler);
    Eval.runFunction(F, Args, Ret);
  } else {
    // Baseline machine code when available; same ExecEnv contract, same
    // telemetry stream as the VM.
    BaselineJIT::Fn Entry = nullptr;
    if (BaselineJIT *BJ = Compiler.baseline())
      Entry = BJ->entryFor(const_cast<TerraFunction *>(F));
    vm::ExecEnv Env(Ctx, Compiler);
    if (Entry) {
      Tier = 2;
      // The emitted frame lives on the native stack: charge the shared
      // depth budget before entering machine code. Recursion through
      // dispatcher entries comes back here with a fresh Env each hop; this
      // thread-shared scope is what bounds the stack those frames grow.
      vm::CallDepthScope DepthScope(BaselineJIT::depthUnits(F));
      if (DepthScope.exceeded()) {
        vm::failStackOverflow(Env);
      } else {
        telemetry::ScopedTimerUs T(MDispatchUs);
        Env.BackEdges += Entry(Args, Ret, &Env);
      }
    } else {
      telemetry::ScopedTimerUs T(MDispatchUs);
      vm::run(*F->Bytecode, Args, Ret, Env);
    }
    if (Env.BackEdges) {
      MBackEdges.inc(Env.BackEdges);
      if (BackEdges)
        *BackEdges = Env.BackEdges;
    }
  }
  Compiler.noteLastCallTier(Tier);
  return Tier;
}

void TerraInterpBackend::compileBytecode(TerraFunction *F) {
  if (F->Bytecode || !F->Body || F->IsExtern || F->HostClosure)
    return;
  bytecode::BailSite Why;
  F->Bytecode = bytecode::compile(Ctx, F, &Why);
  if (F->Bytecode)
    return;
  MTreeFallbacks.inc();
  logging::emit(logging::Level::Debug, "interp.tree_fallback",
                {{"function", F->Name},
                 {"site", Why.Reason},
                 {"line", std::to_string(Why.Loc.Line)},
                 {"col", std::to_string(Why.Loc.Column)}});
}

bool TerraInterpBackend::prepare(TerraFunction *F) {
  compileBytecode(F);
  if (F->Entry)
    return true;
  TerraInterpBackend *Self = this;
  F->Entry = [Self, F](void **Args, void *Ret) { Self->execute(F, Args, Ret); };
  return true;
}
