#include "core/TerraPasses.h"

#include "analysis/CFG.h"
#include "analysis/Interval.h"
#include "core/TerraType.h"

#include <cmath>

using namespace terracpp;

namespace {

bool isBoolLit(const TerraExpr *E, bool &Out) {
  const auto *L = dyn_cast<LitExpr>(E);
  if (!L || L->LK != LitExpr::LK_Bool)
    return false;
  Out = L->BoolVal;
  return true;
}

/// True when \p S contains a break that would bind to an enclosing loop
/// (does not descend into nested loops, whose breaks bind there).
bool containsLoopBreak(const TerraStmt *S) {
  if (!S)
    return false;
  switch (S->kind()) {
  case TerraNode::NK_Break:
    return true;
  case TerraNode::NK_Block: {
    const auto *B = cast<BlockStmt>(S);
    for (unsigned I = 0; I != B->NumStmts; ++I)
      if (containsLoopBreak(B->Stmts[I]))
        return true;
    return false;
  }
  case TerraNode::NK_If: {
    const auto *I = cast<IfStmt>(S);
    for (unsigned K = 0; K != I->NumClauses; ++K)
      if (containsLoopBreak(I->Blocks[K]))
        return true;
    return containsLoopBreak(I->ElseBlock);
  }
  default:
    return false;
  }
}

/// True when control cannot flow past \p S: a return/break, a block
/// containing one, an if whose every branch (including a required else)
/// terminates, or a `while true` with no break. Statements after a
/// terminating one are unreachable and dropped by the folder, which keeps
/// the verifier's unreachable-code check from firing on folded trees.
bool stmtTerminates(const TerraStmt *S) {
  switch (S->kind()) {
  case TerraNode::NK_Return:
  case TerraNode::NK_Break:
    return true;
  case TerraNode::NK_Block: {
    const auto *B = cast<BlockStmt>(S);
    for (unsigned I = 0; I != B->NumStmts; ++I)
      if (stmtTerminates(B->Stmts[I]))
        return true;
    return false;
  }
  case TerraNode::NK_If: {
    const auto *I = cast<IfStmt>(S);
    if (!I->ElseBlock)
      return false;
    for (unsigned K = 0; K != I->NumClauses; ++K)
      if (!stmtTerminates(I->Blocks[K]))
        return false;
    return stmtTerminates(I->ElseBlock);
  }
  case TerraNode::NK_While: {
    const auto *W = cast<WhileStmt>(S);
    bool C;
    return isBoolLit(W->Cond, C) && C && !containsLoopBreak(W->Body);
  }
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

bool isIntLit(const TerraExpr *E, int64_t &Out) {
  const auto *L = dyn_cast<LitExpr>(E);
  if (!L || L->LK != LitExpr::LK_Int)
    return false;
  Out = L->IntVal;
  return true;
}

bool isFloatLit(const TerraExpr *E, double &Out) {
  const auto *L = dyn_cast<LitExpr>(E);
  if (!L || L->LK != LitExpr::LK_Float)
    return false;
  Out = L->FloatVal;
  return true;
}

class Folder {
public:
  explicit Folder(TerraContext &Ctx) : Ctx(Ctx) {}

  void foldExpr(TerraExpr *&E);
  void foldStmt(TerraStmt *&S);
  void foldBlock(BlockStmt *B);

private:
  /// An integer literal of \p Ty holding \p V wrapped to that type, so a
  /// folded cast or operation means what it does at run time.
  LitExpr *makeInt(int64_t V, Type *Ty, SourceLoc Loc) {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Int;
    if (const auto *P = dyn_cast<PrimType>(Ty))
      V = P->wrapInt(V);
    L->IntVal = V;
    L->LitTy = Ty;
    L->Ty = Ty;
    return L;
  }
  LitExpr *makeFloat(double V, Type *Ty, SourceLoc Loc) {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Float;
    L->FloatVal = V;
    L->LitTy = Ty;
    L->Ty = Ty;
    return L;
  }
  LitExpr *makeBool(bool V, Type *Ty, SourceLoc Loc) {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Bool;
    L->BoolVal = V;
    L->LitTy = Ty;
    L->Ty = Ty;
    return L;
  }

  TerraContext &Ctx;
};

void Folder::foldExpr(TerraExpr *&E) {
  if (!E)
    return;
  switch (E->kind()) {
  case TerraNode::NK_BinOp: {
    auto *B = cast<BinOpExpr>(E);
    foldExpr(B->LHS);
    foldExpr(B->RHS);
    int64_t LI, RI;
    double LF, RF;
    Type *Ty = B->Ty;
    if (!Ty || Ty->isVector())
      return;
    if (isIntLit(B->LHS, LI) && isIntLit(B->RHS, RI)) {
      switch (B->Op) {
      // Wrapping arithmetic, as the engines compute it.
      case BinOpKind::Add:
        E = makeInt(int64_t(uint64_t(LI) + uint64_t(RI)), Ty, E->loc());
        return;
      case BinOpKind::Sub:
        E = makeInt(int64_t(uint64_t(LI) - uint64_t(RI)), Ty, E->loc());
        return;
      case BinOpKind::Mul:
        E = makeInt(int64_t(uint64_t(LI) * uint64_t(RI)), Ty, E->loc());
        return;
      case BinOpKind::Div:
        if (RI != 0 && (RI != -1 || LI != INT64_MIN))
          E = makeInt(LI / RI, Ty, E->loc());
        return;
      case BinOpKind::Mod:
        if (RI != 0 && (RI != -1 || LI != INT64_MIN))
          E = makeInt(LI % RI, Ty, E->loc());
        return;
      case BinOpKind::Lt:
        E = makeBool(LI < RI, Ty, E->loc());
        return;
      case BinOpKind::Le:
        E = makeBool(LI <= RI, Ty, E->loc());
        return;
      case BinOpKind::Gt:
        E = makeBool(LI > RI, Ty, E->loc());
        return;
      case BinOpKind::Ge:
        E = makeBool(LI >= RI, Ty, E->loc());
        return;
      case BinOpKind::Eq:
        E = makeBool(LI == RI, Ty, E->loc());
        return;
      case BinOpKind::Ne:
        E = makeBool(LI != RI, Ty, E->loc());
        return;
      default:
        return;
      }
    }
    if (isFloatLit(B->LHS, LF) && isFloatLit(B->RHS, RF)) {
      switch (B->Op) {
      case BinOpKind::Add:
        E = makeFloat(LF + RF, Ty, E->loc());
        return;
      case BinOpKind::Sub:
        E = makeFloat(LF - RF, Ty, E->loc());
        return;
      case BinOpKind::Mul:
        E = makeFloat(LF * RF, Ty, E->loc());
        return;
      case BinOpKind::Div:
        E = makeFloat(LF / RF, Ty, E->loc());
        return;
      default:
        return;
      }
    }
    return;
  }
  case TerraNode::NK_UnOp: {
    auto *U = cast<UnOpExpr>(E);
    foldExpr(U->Operand);
    int64_t I;
    double F;
    if (U->Op == UnOpKind::Neg && U->Ty && !U->Ty->isVector()) {
      if (isIntLit(U->Operand, I)) {
        E = makeInt(-I, U->Ty, E->loc());
        return;
      }
      if (isFloatLit(U->Operand, F)) {
        E = makeFloat(-F, U->Ty, E->loc());
        return;
      }
    }
    if (U->Op == UnOpKind::Not) {
      if (const auto *L = dyn_cast<LitExpr>(U->Operand);
          L && L->LK == LitExpr::LK_Bool) {
        E = makeBool(!L->BoolVal, U->Ty, E->loc());
        return;
      }
    }
    return;
  }
  case TerraNode::NK_Cast: {
    auto *C = cast<CastExpr>(E);
    foldExpr(C->Operand);
    // Fold numeric casts of literals.
    Type *To = C->Ty;
    const auto *L = dyn_cast<LitExpr>(C->Operand);
    if (!L || !To || To->isVector() || To->isPointer())
      return;
    if (L->LK == LitExpr::LK_Int && To->isFloat()) {
      E = makeFloat(static_cast<double>(L->IntVal), To, E->loc());
      return;
    }
    if (L->LK == LitExpr::LK_Int && To->isIntegral()) {
      E = makeInt(L->IntVal, To, E->loc());
      return;
    }
    if (L->LK == LitExpr::LK_Float && To->isFloat()) {
      double V = L->FloatVal;
      if (To->size() == 4)
        V = static_cast<float>(V);
      E = makeFloat(V, To, E->loc());
      return;
    }
    return;
  }
  case TerraNode::NK_Apply: {
    auto *A = cast<ApplyExpr>(E);
    foldExpr(A->Callee);
    for (unsigned I = 0; I != A->NumArgs; ++I)
      foldExpr(A->Args[I]);
    return;
  }
  case TerraNode::NK_Index: {
    auto *X = cast<IndexExpr>(E);
    foldExpr(X->Base);
    foldExpr(X->Idx);
    return;
  }
  case TerraNode::NK_Select: {
    foldExpr(cast<SelectExpr>(E)->Base);
    return;
  }
  case TerraNode::NK_Constructor: {
    auto *C = cast<ConstructorExpr>(E);
    for (unsigned I = 0; I != C->NumInits; ++I)
      foldExpr(C->Inits[I]);
    return;
  }
  case TerraNode::NK_Intrinsic: {
    auto *N = cast<IntrinsicExpr>(E);
    for (unsigned I = 0; I != N->NumArgs; ++I)
      foldExpr(N->Args[I]);
    return;
  }
  default:
    return;
  }
}

void Folder::foldBlock(BlockStmt *B) {
  // Fold each statement, drop everything after a terminating statement, and
  // resolve constant conditionals.
  std::vector<TerraStmt *> Out;
  for (unsigned I = 0; I != B->NumStmts; ++I) {
    TerraStmt *S = B->Stmts[I];
    foldStmt(S);
    if (!S)
      continue;
    Out.push_back(S);
    if (stmtTerminates(S))
      break; // Unreachable code after terminator.
  }
  if (Out.size() != B->NumStmts) {
    B->Stmts = Ctx.copyArray(Out);
    B->NumStmts = Out.size();
  } else {
    for (unsigned I = 0; I != B->NumStmts; ++I)
      B->Stmts[I] = Out[I];
  }
}

void Folder::foldStmt(TerraStmt *&S) {
  switch (S->kind()) {
  case TerraNode::NK_Block:
    foldBlock(cast<BlockStmt>(S));
    return;
  case TerraNode::NK_VarDecl: {
    auto *D = cast<VarDeclStmt>(S);
    for (unsigned I = 0; I != D->NumInits; ++I)
      foldExpr(D->Inits[I]);
    return;
  }
  case TerraNode::NK_Assign: {
    auto *A = cast<AssignStmt>(S);
    for (unsigned I = 0; I != A->NumLHS; ++I)
      foldExpr(A->LHS[I]);
    for (unsigned I = 0; I != A->NumRHS; ++I)
      foldExpr(A->RHS[I]);
    return;
  }
  case TerraNode::NK_If: {
    auto *I2 = cast<IfStmt>(S);
    for (unsigned K = 0; K != I2->NumClauses; ++K) {
      foldExpr(I2->Conds[K]);
      foldBlock(I2->Blocks[K]);
    }
    if (I2->ElseBlock)
      foldBlock(I2->ElseBlock);
    // Dead-branch elimination for constant conditions (staging residue): a
    // false clause disappears, a true clause becomes the else of everything
    // before it. Nothing structurally unreachable survives, which the
    // verifier's CFG check relies on.
    std::vector<TerraExpr *> Conds;
    std::vector<BlockStmt *> Blocks;
    BlockStmt *Else = I2->ElseBlock;
    bool ChangedClauses = false;
    for (unsigned K = 0; K != I2->NumClauses; ++K) {
      bool C;
      if (!isBoolLit(I2->Conds[K], C)) {
        Conds.push_back(I2->Conds[K]);
        Blocks.push_back(I2->Blocks[K]);
        continue;
      }
      ChangedClauses = true;
      if (C) {
        Else = I2->Blocks[K]; // Later clauses and the old else are dead.
        break;
      }
      // False clause: drop it.
    }
    if (ChangedClauses) {
      if (Conds.empty()) {
        S = Else; // May be null: `if false then ... end` vanishes.
      } else {
        I2->Conds = Ctx.copyArray(Conds);
        I2->Blocks = Ctx.copyArray(Blocks);
        I2->NumClauses = (unsigned)Conds.size();
        I2->ElseBlock = Else;
      }
    }
    return;
  }
  case TerraNode::NK_While: {
    auto *W = cast<WhileStmt>(S);
    foldExpr(W->Cond);
    foldBlock(W->Body);
    // `while false` (staging residue) never runs.
    bool C;
    if (isBoolLit(W->Cond, C) && !C)
      S = nullptr;
    return;
  }
  case TerraNode::NK_ForNum: {
    auto *F = cast<ForNumStmt>(S);
    foldExpr(F->Lo);
    foldExpr(F->Hi);
    if (F->Step)
      foldExpr(F->Step);
    foldBlock(F->Body);
    return;
  }
  case TerraNode::NK_Return: {
    auto *R = cast<ReturnStmt>(S);
    if (R->Val)
      foldExpr(R->Val);
    return;
  }
  case TerraNode::NK_ExprStmt:
    foldExpr(cast<ExprStmt>(S)->E);
    return;
  default:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

class Verifier {
public:
  Verifier(DiagnosticEngine &Diags) : Diags(Diags) {}
  bool OK = true;

  void require(bool Cond, SourceLoc Loc, const char *Msg) {
    if (Cond)
      return;
    Diags.error(Loc, std::string("verifier: ") + Msg);
    OK = false;
  }

  void visitExpr(const TerraExpr *E) {
    if (!E)
      return;
    require(E->Ty != nullptr, E->loc(), "expression has no type");
    require(!isa<EscapeExpr>(E), E->loc(), "escape survived specialization");
    require(!isa<MethodCallExpr>(E), E->loc(),
            "method call survived typechecking");
    switch (E->kind()) {
    case TerraNode::NK_Select:
      visitExpr(cast<SelectExpr>(E)->Base);
      require(cast<SelectExpr>(E)->FieldIndex >= 0, E->loc(),
              "unresolved field");
      break;
    case TerraNode::NK_Apply: {
      const auto *A = cast<ApplyExpr>(E);
      visitExpr(A->Callee);
      for (unsigned I = 0; I != A->NumArgs; ++I)
        visitExpr(A->Args[I]);
      break;
    }
    case TerraNode::NK_BinOp:
      visitExpr(cast<BinOpExpr>(E)->LHS);
      visitExpr(cast<BinOpExpr>(E)->RHS);
      break;
    case TerraNode::NK_UnOp:
      visitExpr(cast<UnOpExpr>(E)->Operand);
      break;
    case TerraNode::NK_Index:
      visitExpr(cast<IndexExpr>(E)->Base);
      visitExpr(cast<IndexExpr>(E)->Idx);
      break;
    case TerraNode::NK_Cast:
      visitExpr(cast<CastExpr>(E)->Operand);
      break;
    case TerraNode::NK_Constructor: {
      const auto *C = cast<ConstructorExpr>(E);
      for (unsigned I = 0; I != C->NumInits; ++I)
        visitExpr(C->Inits[I]);
      break;
    }
    case TerraNode::NK_Intrinsic: {
      const auto *N = cast<IntrinsicExpr>(E);
      for (unsigned I = 0; I != N->NumArgs; ++I)
        visitExpr(N->Args[I]);
      break;
    }
    default:
      break;
    }
  }

  void visitStmt(const TerraStmt *S) {
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      const auto *B = cast<BlockStmt>(S);
      for (unsigned I = 0; I != B->NumStmts; ++I)
        visitStmt(B->Stmts[I]);
      break;
    }
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumNames; ++I) {
        require(D->Names[I].Sym != nullptr, S->loc(), "unbound declaration");
        require(D->Names[I].Sym->DeclaredType != nullptr, S->loc(),
                "declaration without a type");
      }
      for (unsigned I = 0; I != D->NumInits; ++I)
        visitExpr(D->Inits[I]);
      break;
    }
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumLHS; ++I)
        visitExpr(A->LHS[I]);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        visitExpr(A->RHS[I]);
      break;
    }
    case TerraNode::NK_If: {
      const auto *I2 = cast<IfStmt>(S);
      for (unsigned K = 0; K != I2->NumClauses; ++K) {
        visitExpr(I2->Conds[K]);
        visitStmt(I2->Blocks[K]);
      }
      if (I2->ElseBlock)
        visitStmt(I2->ElseBlock);
      break;
    }
    case TerraNode::NK_While:
      visitExpr(cast<WhileStmt>(S)->Cond);
      visitStmt(cast<WhileStmt>(S)->Body);
      break;
    case TerraNode::NK_ForNum: {
      const auto *F = cast<ForNumStmt>(S);
      require(F->Var.Sym && F->Var.Sym->DeclaredType, S->loc(),
              "loop variable untyped");
      visitExpr(F->Lo);
      visitExpr(F->Hi);
      if (F->Step)
        visitExpr(F->Step);
      visitStmt(F->Body);
      break;
    }
    case TerraNode::NK_Return:
      if (cast<ReturnStmt>(S)->Val)
        visitExpr(cast<ReturnStmt>(S)->Val);
      break;
    case TerraNode::NK_Break:
      break;
    case TerraNode::NK_ExprStmt:
      visitExpr(cast<ExprStmt>(S)->E);
      break;
    case TerraNode::NK_EscapeStmt:
      require(false, S->loc(), "escape statement survived specialization");
      break;
    default:
      require(false, S->loc(), "unknown statement kind");
    }
  }

private:
  DiagnosticEngine &Diags;
};

} // namespace

namespace {

/// Replaces branch conditions the interval analysis proved constant
/// (TerraFunction::RangeFacts) with boolean literals, so the constant
/// folder prunes the dead branch like any other staging residue. Must run
/// before the Folder: the fact table is keyed on the pre-fold nodes. Only
/// pure conditions are entered into ConstCond, so dropping the evaluation
/// cannot change observable behavior on any tier.
class FactCondFolder {
public:
  FactCondFolder(TerraContext &Ctx, const analysis::FactTable &Facts)
      : Ctx(Ctx), Facts(Facts) {}

  void visitStmt(TerraStmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      auto *B = cast<BlockStmt>(S);
      for (unsigned I = 0; I != B->NumStmts; ++I)
        visitStmt(B->Stmts[I]);
      return;
    }
    case TerraNode::NK_If: {
      auto *I = cast<IfStmt>(S);
      for (unsigned K = 0; K != I->NumClauses; ++K) {
        rewrite(I->Conds[K]);
        visitStmt(I->Blocks[K]);
      }
      visitStmt(I->ElseBlock);
      return;
    }
    case TerraNode::NK_While: {
      auto *W = cast<WhileStmt>(S);
      rewrite(W->Cond);
      visitStmt(W->Body);
      return;
    }
    case TerraNode::NK_ForNum:
      visitStmt(cast<ForNumStmt>(S)->Body);
      return;
    default:
      return;
    }
  }

private:
  void rewrite(TerraExpr *&Cond) {
    auto It = Facts.ConstCond.find(Cond);
    if (It == Facts.ConstCond.end())
      return;
    auto *L = Ctx.make<LitExpr>(Cond->loc());
    L->LK = LitExpr::LK_Bool;
    L->BoolVal = It->second;
    L->LitTy = Ctx.types().boolType();
    L->Ty = L->LitTy;
    Cond = L;
  }

  TerraContext &Ctx;
  const analysis::FactTable &Facts;
};

} // namespace

void terracpp::runMidendPasses(TerraContext &Ctx, TerraFunction *F) {
  if (!F->Body)
    return;
  if (F->RangeFacts && !F->RangeFacts->ConstCond.empty()) {
    FactCondFolder FC(Ctx, *F->RangeFacts);
    FC.visitStmt(F->Body);
  }
  Folder Fo(Ctx);
  Fo.foldBlock(F->Body);
}

bool terracpp::verifyFunction(DiagnosticEngine &Diags, TerraFunction *F) {
  if (!F->Body)
    return true; // Extern / host wrapper.
  Verifier V(Diags);
  V.visitStmt(F->Body);

  // After midend cleanup no nonempty block may be unreachable: the folder
  // removes statements after terminators and resolves constant branches, so
  // anything left unreachable indicates a pass bug that would confuse the
  // backends (and the dataflow solver, which ignores dead blocks).
  if (V.OK) {
    if (std::unique_ptr<analysis::CFG> G = analysis::CFG::build(F)) {
      const std::vector<bool> &Reach = G->reachableFromEntry();
      for (const analysis::CFGBlock &B : G->blocks())
        if (!B.empty() && !Reach[B.Id])
          V.require(false, B.Elems.front().loc(),
                    "unreachable code survived midend cleanup");
    }
  }
  return V.OK;
}
