#include "analysis/Checkers.h"

#include "analysis/Dataflow.h"
#include "core/TerraType.h"

#include <map>
#include <string_view>

using namespace terracpp;
using namespace terracpp::analysis;

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

namespace {

const TerraExpr *skipCasts(const TerraExpr *E) {
  while (const auto *C = dyn_cast<CastExpr>(E))
    E = C->Operand;
  return E;
}

const TerraSymbol *asVar(const TerraExpr *E) {
  if (const auto *V = dyn_cast<VarExpr>(skipCasts(E)))
    return V->Sym;
  return nullptr;
}

enum class CallKind { Other, Alloc, Free };

/// Recognizes the libc allocator externs registered by terralib.includec
/// ("stdlib.h"). Any other callee is an unknown function: pointers passed to
/// it are treated as escaped.
CallKind classifyCall(const ApplyExpr *A) {
  const auto *FL = dyn_cast<FuncLitExpr>(skipCasts(A->Callee));
  if (!FL || !FL->Fn || !FL->Fn->IsExtern)
    return CallKind::Other;
  std::string_view N = FL->Fn->Extern->Name;
  if (N == "malloc" || N == "calloc" || N == "realloc")
    return CallKind::Alloc;
  if (N == "free")
    return CallKind::Free;
  return CallKind::Other;
}

/// The pointer operand of a `free(p)`-shaped call, or null.
const TerraSymbol *freedVar(const ApplyExpr *A) {
  if (classifyCall(A) != CallKind::Free || A->NumArgs != 1)
    return nullptr;
  return asVar(A->Args[0]);
}

/// True when \p E (cast-stripped) is a call to malloc/calloc/realloc.
const ApplyExpr *asAllocCall(const TerraExpr *E) {
  const auto *A = dyn_cast<ApplyExpr>(skipCasts(E));
  return A && classifyCall(A) == CallKind::Alloc ? A : nullptr;
}

/// Cheap structural walk: does this expression contain any allocator-shaped
/// extern call at all? Most kernels don't, and this gates the whole heap
/// analysis (escape scan + two dataflow solves) behind one pass that does
/// nothing per node but dispatch.
bool exprHasHeapCall(const TerraExpr *E) {
  if (!E)
    return false;
  switch (E->kind()) {
  case TerraNode::NK_Apply: {
    const auto *A = cast<ApplyExpr>(E);
    if (classifyCall(A) != CallKind::Other)
      return true;
    if (exprHasHeapCall(A->Callee))
      return true;
    for (unsigned I = 0; I != A->NumArgs; ++I)
      if (exprHasHeapCall(A->Args[I]))
        return true;
    return false;
  }
  case TerraNode::NK_MethodCall: {
    const auto *M = cast<MethodCallExpr>(E);
    if (exprHasHeapCall(M->Obj))
      return true;
    for (unsigned I = 0; I != M->NumArgs; ++I)
      if (exprHasHeapCall(M->Args[I]))
        return true;
    return false;
  }
  case TerraNode::NK_BinOp:
    return exprHasHeapCall(cast<BinOpExpr>(E)->LHS) ||
           exprHasHeapCall(cast<BinOpExpr>(E)->RHS);
  case TerraNode::NK_UnOp:
    return exprHasHeapCall(cast<UnOpExpr>(E)->Operand);
  case TerraNode::NK_Index:
    return exprHasHeapCall(cast<IndexExpr>(E)->Base) ||
           exprHasHeapCall(cast<IndexExpr>(E)->Idx);
  case TerraNode::NK_Select:
    return exprHasHeapCall(cast<SelectExpr>(E)->Base);
  case TerraNode::NK_Cast:
    return exprHasHeapCall(cast<CastExpr>(E)->Operand);
  case TerraNode::NK_Constructor: {
    const auto *C = cast<ConstructorExpr>(E);
    for (unsigned I = 0; I != C->NumInits; ++I)
      if (exprHasHeapCall(C->Inits[I]))
        return true;
    return false;
  }
  case TerraNode::NK_Intrinsic: {
    const auto *I = cast<IntrinsicExpr>(E);
    for (unsigned K = 0; K != I->NumArgs; ++K)
      if (exprHasHeapCall(I->Args[K]))
        return true;
    return false;
  }
  default: // Lit, Var, FuncLit, GlobalRef, Escape.
    return false;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// TA002: missing return
//===----------------------------------------------------------------------===//

void terracpp::analysis::checkMissingReturn(const TerraFunction *F,
                                            const CFG &G,
                                            std::vector<Finding> &Out) {
  Type *Ret = F->RetTy.Resolved ? F->RetTy.Resolved
                                : (F->FnTy ? F->FnTy->result() : nullptr);
  if (!Ret || Ret->isVoid())
    return;
  if (!G.fallOffReachable())
    return;
  Out.push_back({"TA002", F->Body->loc(),
                 "function '" + F->Name + "' returns " + Ret->str() +
                     " but control can reach the end of the body",
                 /*MandatoryError=*/true, {}});
}

//===----------------------------------------------------------------------===//
// TA001: definite initialization
//===----------------------------------------------------------------------===//

namespace {

template <typename Fn> void walkNestedStmts(const TerraStmt *S, Fn Cb) {
  if (!S)
    return;
  Cb(S);
  switch (S->kind()) {
  case TerraNode::NK_Block: {
    const auto *B = cast<BlockStmt>(S);
    for (unsigned I = 0; I != B->NumStmts; ++I)
      walkNestedStmts(B->Stmts[I], Cb);
    break;
  }
  case TerraNode::NK_If: {
    const auto *I = cast<IfStmt>(S);
    for (unsigned K = 0; K != I->NumClauses; ++K)
      walkNestedStmts(I->Blocks[K], Cb);
    walkNestedStmts(I->ElseBlock, Cb);
    break;
  }
  case TerraNode::NK_While:
    walkNestedStmts(cast<WhileStmt>(S)->Body, Cb);
    break;
  case TerraNode::NK_ForNum:
    walkNestedStmts(cast<ForNumStmt>(S)->Body, Cb);
    break;
  default:
    break;
  }
}

/// Only scalar and pointer locals declared without an initializer are
/// tracked; aggregates are routinely filled in member-at-a-time and params
/// arrive initialized.
std::map<const TerraSymbol *, unsigned>
collectUninitLocals(const TerraFunction *F) {
  std::map<const TerraSymbol *, unsigned> Bits;
  walkNestedStmts(F->Body, [&](const TerraStmt *S) {
    const auto *D = dyn_cast<VarDeclStmt>(S);
    if (!D || D->NumInits != 0)
      return;
    for (unsigned I = 0; I != D->NumNames; ++I) {
      const TerraSymbol *Sym = D->Names[I].Sym;
      Type *T = Sym ? Sym->DeclaredType : nullptr;
      if (T && ((T->isPrim() && !T->isVoid()) || T->isPointer()))
        Bits.emplace(Sym, (unsigned)Bits.size());
    }
  });
  return Bits;
}

/// Forward may-assign analysis: bit set means "some path to here assigned
/// the variable". A use is reported only when *no* path assigned — a pure
/// definite-uninit check, so merges never create false positives.
class DefiniteInitChecker : public DataflowProblem {
public:
  DefiniteInitChecker(const CFG &G,
                      std::map<const TerraSymbol *, unsigned> TrackedBits)
      : DataflowProblem(Direction::Forward, Meet::Union,
                        (unsigned)TrackedBits.size()),
        G(G), Bits(std::move(TrackedBits)) {}

  void transfer(const CFGBlock &B, BitVector &State) const override {
    for (const CFGElement &El : B.Elems)
      transferElement(El, State);
  }

  void report(const DataflowResult &R, std::vector<Finding> &Out) const {
    const std::vector<bool> &Reach = G.reachableFromEntry();
    for (const CFGBlock &B : G.blocks()) {
      if (!Reach[B.Id])
        continue;
      BitVector State = R.In[B.Id];
      for (const CFGElement &El : B.Elems)
        checkElement(El, State, Out);
    }
  }

private:
  int bitOf(const TerraSymbol *Sym) const {
    auto It = Bits.find(Sym);
    return It == Bits.end() ? -1 : (int)It->second;
  }

  /// Marks address-taken variables as assigned (their storage may be
  /// written through the pointer) while scanning an expression.
  void genFromExpr(const TerraExpr *E, BitVector &State) const {
    if (!E)
      return;
    if (const auto *U = dyn_cast<UnOpExpr>(E)) {
      if (U->Op == UnOpKind::AddrOf)
        if (const TerraSymbol *Sym = asVar(U->Operand)) {
          if (int Bit = bitOf(Sym); Bit >= 0)
            State.set((unsigned)Bit);
          return;
        }
      genFromExpr(U->Operand, State);
      return;
    }
    forEachChild(E, [&](const TerraExpr *C) { genFromExpr(C, State); });
  }

  template <typename Fn> void forEachChild(const TerraExpr *E, Fn F) const {
    switch (E->kind()) {
    case TerraNode::NK_Select:
      F(cast<SelectExpr>(E)->Base);
      break;
    case TerraNode::NK_Apply: {
      const auto *A = cast<ApplyExpr>(E);
      F(A->Callee);
      for (unsigned I = 0; I != A->NumArgs; ++I)
        F(A->Args[I]);
      break;
    }
    case TerraNode::NK_MethodCall: {
      const auto *M = cast<MethodCallExpr>(E);
      F(M->Obj);
      for (unsigned I = 0; I != M->NumArgs; ++I)
        F(M->Args[I]);
      break;
    }
    case TerraNode::NK_BinOp:
      F(cast<BinOpExpr>(E)->LHS);
      F(cast<BinOpExpr>(E)->RHS);
      break;
    case TerraNode::NK_UnOp:
      F(cast<UnOpExpr>(E)->Operand);
      break;
    case TerraNode::NK_Index:
      F(cast<IndexExpr>(E)->Base);
      F(cast<IndexExpr>(E)->Idx);
      break;
    case TerraNode::NK_Constructor: {
      const auto *C = cast<ConstructorExpr>(E);
      for (unsigned I = 0; I != C->NumInits; ++I)
        F(C->Inits[I]);
      break;
    }
    case TerraNode::NK_Cast:
      F(cast<CastExpr>(E)->Operand);
      break;
    case TerraNode::NK_Intrinsic: {
      const auto *I = cast<IntrinsicExpr>(E);
      for (unsigned K = 0; K != I->NumArgs; ++K)
        F(I->Args[K]);
      break;
    }
    default: // Lit, Var, FuncLit, GlobalRef, Escape.
      break;
    }
  }

  void transferElement(const CFGElement &El, BitVector &State) const {
    if (El.Cond) {
      genFromExpr(El.Cond, State);
      return;
    }
    const TerraStmt *S = El.Stmt;
    switch (S->kind()) {
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        genFromExpr(A->RHS[I], State);
      for (unsigned I = 0; I != A->NumLHS; ++I) {
        if (const auto *V = dyn_cast<VarExpr>(A->LHS[I])) {
          if (int Bit = bitOf(V->Sym); Bit >= 0)
            State.set((unsigned)Bit);
        } else {
          genFromExpr(A->LHS[I], State);
        }
      }
      break;
    }
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumInits; ++I)
        genFromExpr(D->Inits[I], State);
      break;
    }
    case TerraNode::NK_Return:
      genFromExpr(cast<ReturnStmt>(S)->Val, State);
      break;
    case TerraNode::NK_ExprStmt:
      genFromExpr(cast<ExprStmt>(S)->E, State);
      break;
    case TerraNode::NK_ForNum: {
      const auto *FS = cast<ForNumStmt>(S);
      genFromExpr(FS->Lo, State);
      genFromExpr(FS->Hi, State);
      genFromExpr(FS->Step, State);
      break;
    }
    default:
      break;
    }
  }

  /// Re-walks an element against the solved state, reporting uses of
  /// still-unassigned bits, then applies the same gens as the transfer.
  void checkElement(const CFGElement &El, BitVector &State,
                    std::vector<Finding> &Out) const {
    auto use = [&](const TerraExpr *E) { checkUses(E, State, Out); };
    if (El.Cond) {
      use(El.Cond);
      transferElement(El, State);
      return;
    }
    const TerraStmt *S = El.Stmt;
    switch (S->kind()) {
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        use(A->RHS[I]);
      for (unsigned I = 0; I != A->NumLHS; ++I)
        if (!isa<VarExpr>(A->LHS[I]))
          use(A->LHS[I]);
      break;
    }
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumInits; ++I)
        use(D->Inits[I]);
      break;
    }
    case TerraNode::NK_Return:
      use(cast<ReturnStmt>(S)->Val);
      break;
    case TerraNode::NK_ExprStmt:
      use(cast<ExprStmt>(S)->E);
      break;
    case TerraNode::NK_ForNum: {
      const auto *FS = cast<ForNumStmt>(S);
      use(FS->Lo);
      use(FS->Hi);
      use(FS->Step);
      break;
    }
    default:
      break;
    }
    transferElement(El, State);
  }

  void checkUses(const TerraExpr *E, const BitVector &State,
                 std::vector<Finding> &Out) const {
    if (!E)
      return;
    if (const auto *U = dyn_cast<UnOpExpr>(E)) {
      // &x initializes rather than reads x.
      if (U->Op == UnOpKind::AddrOf && asVar(U->Operand))
        return;
      checkUses(U->Operand, State, Out);
      return;
    }
    if (const auto *V = dyn_cast<VarExpr>(E)) {
      if (int Bit = bitOf(V->Sym); Bit >= 0 && !State.test((unsigned)Bit))
        Out.push_back({"TA001", V->loc(),
                       "variable '" + *V->Sym->Name +
                           "' is used before any assignment",
                       false, {}});
      return;
    }
    forEachChild(E, [&](const TerraExpr *C) { checkUses(C, State, Out); });
  }

  const CFG &G;
  std::map<const TerraSymbol *, unsigned> Bits;
};

} // namespace

void terracpp::analysis::checkDefiniteInit(const TerraFunction *F,
                                           const CFG &G,
                                           std::vector<Finding> &Out) {
  std::map<const TerraSymbol *, unsigned> Tracked = collectUninitLocals(F);
  if (Tracked.empty())
    return;
  DefiniteInitChecker P(G, std::move(Tracked));
  DataflowResult R = solveDataflow(G, P);
  P.report(R, Out);
}

//===----------------------------------------------------------------------===//
// TA003 + TA004: heap safety (use-after-free / double-free / leaks)
//===----------------------------------------------------------------------===//

namespace {

/// Flow-insensitive facts about each pointer-typed local/param, gathered in
/// one pre-pass. Escape analysis is a whitelist: the only occurrences of a
/// tracked pointer that do NOT escape it are
///   * the base of a deref/index/field access (a pointee use),
///   * the sole argument of free(),
///   * either side of an ==/~= comparison,
///   * the LHS of a whole-variable assignment / its own declaration.
/// Everything else — other call arguments, returns, stores into memory,
/// aliasing copies, address-of, pointer arithmetic — escapes, and escaped
/// pointers are assumed freed-and-owned-elsewhere (never reported).
struct PtrInfo {
  unsigned Bit = 0;
  bool IsParam = false;
  bool Escaped = false;
  SourceLoc FirstAlloc;
  bool HasAlloc = false;
};

class HeapFacts {
public:
  explicit HeapFacts(const TerraFunction *F) {
    for (unsigned I = 0; I != F->NumParams; ++I)
      addCandidate(F->Params[I], /*IsParam=*/true);
    walkNestedStmts(F->Body, [&](const TerraStmt *S) {
      if (const auto *D = dyn_cast<VarDeclStmt>(S))
        for (unsigned I = 0; I != D->NumNames; ++I)
          addCandidate(D->Names[I].Sym, false);
    });
    scanStmt(F->Body);
  }

  const std::map<const TerraSymbol *, PtrInfo> &vars() const { return Vars; }

  /// True when the body contains any free(p) of a plain variable. Together
  /// with hasAlloc() this gates the dataflow solves: no free and no alloc
  /// means neither TA003 nor TA004 can fire.
  bool sawFree() const { return SawFree; }
  bool hasAlloc() const {
    for (const auto &[Sym, Info] : Vars)
      if (Info.HasAlloc)
        return true;
    return false;
  }

  int bitOf(const TerraSymbol *Sym) const {
    auto It = Vars.find(Sym);
    if (It == Vars.end() || It->second.Escaped)
      return -1;
    return (int)It->second.Bit;
  }

  unsigned numBits() const { return (unsigned)Vars.size(); }

private:
  void addCandidate(const TerraSymbol *Sym, bool IsParam) {
    if (!Sym || !Sym->DeclaredType || !Sym->DeclaredType->isPointer())
      return;
    PtrInfo Info;
    Info.Bit = (unsigned)Vars.size();
    Info.IsParam = IsParam;
    Vars.emplace(Sym, Info);
  }

  void escape(const TerraSymbol *Sym) {
    auto It = Vars.find(Sym);
    if (It != Vars.end())
      It->second.Escaped = true;
  }

  void recordAlloc(const TerraSymbol *Sym, SourceLoc Loc) {
    auto It = Vars.find(Sym);
    if (It == Vars.end())
      return;
    if (!It->second.HasAlloc) {
      It->second.HasAlloc = true;
      It->second.FirstAlloc = Loc;
    }
  }

  /// A pointee use (`@p`, `p[i]`, `p.f`): base var doesn't escape, but
  /// any non-trivial base does get the generic scan.
  void scanBaseUse(const TerraExpr *Base) {
    if (!asVar(Base))
      scanExpr(Base);
  }

  /// Generic (escaping) context scan.
  void scanExpr(const TerraExpr *E) {
    if (!E)
      return;
    E = skipCasts(E);
    switch (E->kind()) {
    case TerraNode::NK_Var:
      escape(cast<VarExpr>(E)->Sym);
      return;
    case TerraNode::NK_UnOp: {
      const auto *U = cast<UnOpExpr>(E);
      if (U->Op == UnOpKind::Deref) {
        scanBaseUse(U->Operand);
        return;
      }
      if (U->Op == UnOpKind::AddrOf) {
        // &p[i] / &p.f use the pointee; &p itself escapes p.
        const TerraExpr *L = skipCasts(U->Operand);
        if (const auto *Ix = dyn_cast<IndexExpr>(L)) {
          scanBaseUse(Ix->Base);
          scanExpr(Ix->Idx);
          return;
        }
        if (const auto *Sel = dyn_cast<SelectExpr>(L)) {
          scanBaseUse(Sel->Base);
          return;
        }
      }
      scanExpr(U->Operand);
      return;
    }
    case TerraNode::NK_Index: {
      const auto *Ix = cast<IndexExpr>(E);
      scanBaseUse(Ix->Base);
      scanExpr(Ix->Idx);
      return;
    }
    case TerraNode::NK_Select:
      scanBaseUse(cast<SelectExpr>(E)->Base);
      return;
    case TerraNode::NK_BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      if (B->Op == BinOpKind::Eq || B->Op == BinOpKind::Ne) {
        // nil/pointer comparisons don't transfer ownership.
        if (!asVar(B->LHS))
          scanExpr(B->LHS);
        if (!asVar(B->RHS))
          scanExpr(B->RHS);
        return;
      }
      scanExpr(B->LHS);
      scanExpr(B->RHS);
      return;
    }
    case TerraNode::NK_Apply: {
      const auto *A = cast<ApplyExpr>(E);
      if (freedVar(A)) {
        SawFree = true;
        return; // free(p): handled by the dataflow, not an escape.
      }
      if (!isa<FuncLitExpr>(skipCasts(A->Callee)))
        scanExpr(A->Callee);
      for (unsigned I = 0; I != A->NumArgs; ++I)
        scanExpr(A->Args[I]);
      return;
    }
    case TerraNode::NK_MethodCall: {
      const auto *M = cast<MethodCallExpr>(E);
      scanExpr(M->Obj);
      for (unsigned I = 0; I != M->NumArgs; ++I)
        scanExpr(M->Args[I]);
      return;
    }
    case TerraNode::NK_Constructor: {
      const auto *C = cast<ConstructorExpr>(E);
      for (unsigned I = 0; I != C->NumInits; ++I)
        scanExpr(C->Inits[I]);
      return;
    }
    case TerraNode::NK_Intrinsic: {
      const auto *I = cast<IntrinsicExpr>(E);
      for (unsigned K = 0; K != I->NumArgs; ++K)
        scanExpr(I->Args[K]);
      return;
    }
    default: // Lit, FuncLit, GlobalRef.
      return;
    }
  }

  /// Scans an assignment LHS: a plain var is a kill (no escape); other
  /// lvalues use their base pointee.
  void scanLHS(const TerraExpr *L) {
    if (asVar(L))
      return;
    scanExpr(L);
  }

  void scanStmt(const TerraStmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      const auto *B = cast<BlockStmt>(S);
      for (unsigned I = 0; I != B->NumStmts; ++I)
        scanStmt(B->Stmts[I]);
      break;
    }
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumInits; ++I) {
        if (const ApplyExpr *A = asAllocCall(D->Inits[I])) {
          if (I < D->NumNames)
            recordAlloc(D->Names[I].Sym, D->Inits[I]->loc());
          for (unsigned K = 0; K != A->NumArgs; ++K)
            scanExpr(A->Args[K]);
        } else {
          scanExpr(D->Inits[I]);
        }
      }
      break;
    }
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumRHS; ++I) {
        const TerraSymbol *Dest =
            I < A->NumLHS ? asVar(A->LHS[I]) : nullptr;
        if (const ApplyExpr *AC = asAllocCall(A->RHS[I])) {
          if (Dest)
            recordAlloc(Dest, A->RHS[I]->loc());
          for (unsigned K = 0; K != AC->NumArgs; ++K)
            scanExpr(AC->Args[K]);
        } else {
          scanExpr(A->RHS[I]);
        }
      }
      for (unsigned I = 0; I != A->NumLHS; ++I)
        scanLHS(A->LHS[I]);
      break;
    }
    case TerraNode::NK_If: {
      const auto *I = cast<IfStmt>(S);
      for (unsigned K = 0; K != I->NumClauses; ++K) {
        scanExpr(I->Conds[K]);
        scanStmt(I->Blocks[K]);
      }
      scanStmt(I->ElseBlock);
      break;
    }
    case TerraNode::NK_While: {
      const auto *W = cast<WhileStmt>(S);
      scanExpr(W->Cond);
      scanStmt(W->Body);
      break;
    }
    case TerraNode::NK_ForNum: {
      const auto *FS = cast<ForNumStmt>(S);
      scanExpr(FS->Lo);
      scanExpr(FS->Hi);
      scanExpr(FS->Step);
      scanStmt(FS->Body);
      break;
    }
    case TerraNode::NK_Return:
      scanExpr(cast<ReturnStmt>(S)->Val);
      break;
    case TerraNode::NK_ExprStmt:
      scanExpr(cast<ExprStmt>(S)->E);
      break;
    default:
      break;
    }
  }

  std::map<const TerraSymbol *, PtrInfo> Vars;
  bool SawFree = false;
};

struct HeapOp;

/// TA003: forward may-analysis, bit = "maybe freed on some path".
class MaybeFreedProblem : public DataflowProblem {
public:
  MaybeFreedProblem(unsigned NumBits,
                    const std::vector<std::vector<HeapOp>> &Ops)
      : DataflowProblem(Direction::Forward, Meet::Union, NumBits),
        Ops(Ops) {}

  void transfer(const CFGBlock &B, BitVector &State) const override;

  const std::vector<std::vector<HeapOp>> &Ops;
};

/// TA004: forward must-analysis, bit = "owns a live allocation on all
/// paths".
class MustOwnProblem : public DataflowProblem {
public:
  MustOwnProblem(unsigned NumBits,
                 const std::vector<std::vector<HeapOp>> &Ops)
      : DataflowProblem(Direction::Forward, Meet::Intersect, NumBits),
        Ops(Ops) {}

  void transfer(const CFGBlock &B, BitVector &State) const override;

  const std::vector<std::vector<HeapOp>> &Ops;
};

/// Walks an expression in evaluation order, invoking callbacks at frees and
/// at pointee uses of tracked pointers. Returns nothing; state mutation is
/// done by the callbacks.
template <typename FreeFn, typename UseFn>
void walkHeapOps(const HeapFacts &Facts, const TerraExpr *E, FreeFn OnFree,
                 UseFn OnUse) {
  if (!E)
    return;
  E = skipCasts(E);
  switch (E->kind()) {
  case TerraNode::NK_Apply: {
    const auto *A = cast<ApplyExpr>(E);
    if (const TerraSymbol *Sym = freedVar(A)) {
      if (int Bit = Facts.bitOf(Sym); Bit >= 0)
        OnFree(Sym, (unsigned)Bit, A->loc());
      return;
    }
    walkHeapOps(Facts, A->Callee, OnFree, OnUse);
    for (unsigned I = 0; I != A->NumArgs; ++I)
      walkHeapOps(Facts, A->Args[I], OnFree, OnUse);
    return;
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    if (U->Op == UnOpKind::Deref)
      if (const TerraSymbol *Sym = asVar(U->Operand))
        if (int Bit = Facts.bitOf(Sym); Bit >= 0) {
          OnUse(Sym, (unsigned)Bit, U->loc());
          return;
        }
    walkHeapOps(Facts, U->Operand, OnFree, OnUse);
    return;
  }
  case TerraNode::NK_Index: {
    const auto *Ix = cast<IndexExpr>(E);
    if (const TerraSymbol *Sym = asVar(Ix->Base)) {
      if (int Bit = Facts.bitOf(Sym); Bit >= 0)
        OnUse(Sym, (unsigned)Bit, Ix->loc());
    } else {
      walkHeapOps(Facts, Ix->Base, OnFree, OnUse);
    }
    walkHeapOps(Facts, Ix->Idx, OnFree, OnUse);
    return;
  }
  case TerraNode::NK_Select: {
    const auto *Sel = cast<SelectExpr>(E);
    if (const TerraSymbol *Sym = asVar(Sel->Base)) {
      // Only a pointer base is a pointee access; struct values are fine.
      if (int Bit = Facts.bitOf(Sym); Bit >= 0)
        OnUse(Sym, (unsigned)Bit, Sel->loc());
    } else {
      walkHeapOps(Facts, Sel->Base, OnFree, OnUse);
    }
    return;
  }
  case TerraNode::NK_BinOp:
    walkHeapOps(Facts, cast<BinOpExpr>(E)->LHS, OnFree, OnUse);
    walkHeapOps(Facts, cast<BinOpExpr>(E)->RHS, OnFree, OnUse);
    return;
  case TerraNode::NK_MethodCall: {
    const auto *M = cast<MethodCallExpr>(E);
    walkHeapOps(Facts, M->Obj, OnFree, OnUse);
    for (unsigned I = 0; I != M->NumArgs; ++I)
      walkHeapOps(Facts, M->Args[I], OnFree, OnUse);
    return;
  }
  case TerraNode::NK_Constructor: {
    const auto *C = cast<ConstructorExpr>(E);
    for (unsigned I = 0; I != C->NumInits; ++I)
      walkHeapOps(Facts, C->Inits[I], OnFree, OnUse);
    return;
  }
  case TerraNode::NK_Intrinsic: {
    const auto *I = cast<IntrinsicExpr>(E);
    for (unsigned K = 0; K != I->NumArgs; ++K)
      walkHeapOps(Facts, I->Args[K], OnFree, OnUse);
    return;
  }
  default:
    return;
  }
}

/// Applies one element to the heap state for either problem.
///   OnFree(sym,bit,loc) — free(p) executed
///   OnUse(sym,bit,loc)  — pointee access of p
///   OnAssign(sym,bit,isAlloc) — whole-variable (re)assignment
template <typename FreeFn, typename UseFn, typename AssignFn>
void simulateElement(const HeapFacts &Facts, const CFGElement &El,
                     FreeFn OnFree, UseFn OnUse, AssignFn OnAssign) {
  if (El.Cond) {
    walkHeapOps(Facts, El.Cond, OnFree, OnUse);
    return;
  }
  const TerraStmt *S = El.Stmt;
  switch (S->kind()) {
  case TerraNode::NK_VarDecl: {
    const auto *D = cast<VarDeclStmt>(S);
    for (unsigned I = 0; I != D->NumInits; ++I) {
      const ApplyExpr *AC = asAllocCall(D->Inits[I]);
      if (AC)
        for (unsigned K = 0; K != AC->NumArgs; ++K)
          walkHeapOps(Facts, AC->Args[K], OnFree, OnUse);
      else
        walkHeapOps(Facts, D->Inits[I], OnFree, OnUse);
      if (I < D->NumNames)
        if (int Bit = Facts.bitOf(D->Names[I].Sym); Bit >= 0)
          OnAssign(D->Names[I].Sym, (unsigned)Bit, AC != nullptr);
    }
    break;
  }
  case TerraNode::NK_Assign: {
    const auto *A = cast<AssignStmt>(S);
    for (unsigned I = 0; I != A->NumRHS; ++I) {
      if (const ApplyExpr *AC = asAllocCall(A->RHS[I])) {
        for (unsigned K = 0; K != AC->NumArgs; ++K)
          walkHeapOps(Facts, AC->Args[K], OnFree, OnUse);
      } else {
        walkHeapOps(Facts, A->RHS[I], OnFree, OnUse);
      }
    }
    for (unsigned I = 0; I != A->NumLHS; ++I) {
      if (const TerraSymbol *Sym = asVar(A->LHS[I])) {
        bool IsAlloc = I < A->NumRHS && asAllocCall(A->RHS[I]);
        if (int Bit = Facts.bitOf(Sym); Bit >= 0)
          OnAssign(Sym, (unsigned)Bit, IsAlloc);
      } else {
        walkHeapOps(Facts, A->LHS[I], OnFree, OnUse);
      }
    }
    break;
  }
  case TerraNode::NK_Return:
    walkHeapOps(Facts, cast<ReturnStmt>(S)->Val, OnFree, OnUse);
    break;
  case TerraNode::NK_ExprStmt:
    walkHeapOps(Facts, cast<ExprStmt>(S)->E, OnFree, OnUse);
    break;
  case TerraNode::NK_ForNum: {
    const auto *FS = cast<ForNumStmt>(S);
    walkHeapOps(Facts, FS->Lo, OnFree, OnUse);
    walkHeapOps(Facts, FS->Hi, OnFree, OnUse);
    walkHeapOps(Facts, FS->Step, OnFree, OnUse);
    break;
  }
  default:
    break;
  }
}

/// One tracked-pointer event inside a block, extracted once so the solver
/// iterations and the report pass replay plain records instead of
/// re-walking expression trees.
struct HeapOp {
  enum Kind : uint8_t { Free, Use, Assign } K;
  bool IsAlloc = false;
  unsigned Bit = 0;
  const TerraSymbol *Sym = nullptr;
  SourceLoc Loc;
};

std::vector<std::vector<HeapOp>> collectBlockOps(const CFG &G,
                                                 const HeapFacts &Facts) {
  std::vector<std::vector<HeapOp>> Ops(G.size());
  for (const CFGBlock &B : G.blocks()) {
    std::vector<HeapOp> &Dst = Ops[B.Id];
    for (const CFGElement &El : B.Elems)
      simulateElement(
          Facts, El,
          [&](const TerraSymbol *Sym, unsigned Bit, SourceLoc Loc) {
            Dst.push_back({HeapOp::Free, false, Bit, Sym, Loc});
          },
          [&](const TerraSymbol *Sym, unsigned Bit, SourceLoc Loc) {
            Dst.push_back({HeapOp::Use, false, Bit, Sym, Loc});
          },
          [&](const TerraSymbol *Sym, unsigned Bit, bool IsAlloc) {
            Dst.push_back({HeapOp::Assign, IsAlloc, Bit, Sym, SourceLoc()});
          });
  }
  return Ops;
}

void MaybeFreedProblem::transfer(const CFGBlock &B, BitVector &State) const {
  for (const HeapOp &Op : Ops[B.Id]) {
    if (Op.K == HeapOp::Free)
      State.set(Op.Bit);
    else if (Op.K == HeapOp::Assign)
      State.reset(Op.Bit);
  }
}

void MustOwnProblem::transfer(const CFGBlock &B, BitVector &State) const {
  for (const HeapOp &Op : Ops[B.Id]) {
    if (Op.K == HeapOp::Free)
      State.reset(Op.Bit);
    else if (Op.K == HeapOp::Assign) {
      if (Op.IsAlloc)
        State.set(Op.Bit);
      else
        State.reset(Op.Bit);
    }
  }
}

} // namespace

void terracpp::analysis::checkHeapSafety(const TerraFunction *F,
                                         const CFG &G,
                                         std::vector<Finding> &Out) {
  // Most kernels only *use* pointers; without an allocator-shaped call
  // anywhere in the body, no heap finding is possible and the escape scan
  // and both dataflow solves can be skipped. This keeps the analyzer
  // cheaper than the typechecker on ordinary numeric code.
  bool AnyHeapCall = false;
  walkNestedStmts(F->Body, [&](const TerraStmt *S) {
    if (AnyHeapCall)
      return;
    switch (S->kind()) {
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumInits; ++I)
        AnyHeapCall |= exprHasHeapCall(D->Inits[I]);
      break;
    }
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        AnyHeapCall |= exprHasHeapCall(A->RHS[I]);
      for (unsigned I = 0; I != A->NumLHS; ++I)
        AnyHeapCall |= exprHasHeapCall(A->LHS[I]);
      break;
    }
    case TerraNode::NK_Return:
      AnyHeapCall |= exprHasHeapCall(cast<ReturnStmt>(S)->Val);
      break;
    case TerraNode::NK_ExprStmt:
      AnyHeapCall |= exprHasHeapCall(cast<ExprStmt>(S)->E);
      break;
    case TerraNode::NK_If: {
      const auto *I = cast<IfStmt>(S);
      for (unsigned K = 0; K != I->NumClauses; ++K)
        AnyHeapCall |= exprHasHeapCall(I->Conds[K]);
      break;
    }
    case TerraNode::NK_While:
      AnyHeapCall |= exprHasHeapCall(cast<WhileStmt>(S)->Cond);
      break;
    case TerraNode::NK_ForNum: {
      const auto *FS = cast<ForNumStmt>(S);
      AnyHeapCall |= exprHasHeapCall(FS->Lo) || exprHasHeapCall(FS->Hi) ||
                     exprHasHeapCall(FS->Step);
      break;
    }
    default:
      break;
    }
  });
  if (!AnyHeapCall)
    return;

  HeapFacts Facts(F);
  if (Facts.numBits() == 0)
    return;
  if (!Facts.sawFree() && !Facts.hasAlloc())
    return;

  const std::vector<bool> &Reach = G.reachableFromEntry();
  std::vector<std::vector<HeapOp>> Ops = collectBlockOps(G, Facts);

  // TA003: deref/free of a maybe-freed pointer.
  {
    MaybeFreedProblem P(Facts.numBits(), Ops);
    DataflowResult R = solveDataflow(G, P);
    for (const CFGBlock &B : G.blocks()) {
      if (!Reach[B.Id])
        continue;
      BitVector State = R.In[B.Id];
      for (const HeapOp &Op : Ops[B.Id]) {
        switch (Op.K) {
        case HeapOp::Free:
          if (State.test(Op.Bit))
            Out.push_back({"TA003", Op.Loc,
                           "pointer '" + *Op.Sym->Name +
                               "' may already have been freed "
                               "(double free)",
                           false, {}});
          State.set(Op.Bit);
          break;
        case HeapOp::Use:
          if (State.test(Op.Bit))
            Out.push_back({"TA003", Op.Loc,
                           "pointer '" + *Op.Sym->Name +
                               "' may be used after free",
                           false, {}});
          break;
        case HeapOp::Assign:
          State.reset(Op.Bit);
          break;
        }
      }
    }
  }

  // TA004: a local that owns an allocation on every path reaching the exit,
  // with no escapes anywhere, leaks on every terminating execution.
  if (Reach[G.exit().Id]) {
    MustOwnProblem P(Facts.numBits(), Ops);
    DataflowResult R = solveDataflow(G, P);
    const BitVector &AtExit = R.In[G.exit().Id];
    for (const auto &[Sym, Info] : Facts.vars()) {
      if (Info.Escaped || Info.IsParam || !Info.HasAlloc)
        continue;
      if (AtExit.test(Info.Bit))
        Out.push_back({"TA004", Info.FirstAlloc,
                       "allocation stored in '" + *Sym->Name +
                           "' is never freed (leaks on every path)",
                       false, {}});
    }
  }
}
