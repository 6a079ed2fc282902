//===- TerraBytecode.cpp - AST -> register bytecode compiler --------------===//
//
// Compiles a typechecked, midend-run Terra function into the tier-0 format
// described in TerraBytecode.h, with the native backend's semantics
// (canonical int64/double forms, wrap-on-store re-canonicalization,
// short-circuit and/or, exclusive for-loop limits, parallel assignment).
// compile() returns null only past the register-file or frame limits, or on
// IR the typechecker does not produce; every bail() names its site.
//
//===----------------------------------------------------------------------===//

#include "core/TerraBytecode.h"

#include "analysis/Interval.h"
#include "core/TerraAST.h"
#include "core/TerraType.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

using namespace terracpp;
using namespace terracpp::bytecode;

namespace {

bool isScalarTy(const Type *T) {
  if (!T)
    return false;
  if (T->isPointer() || T->isFunction())
    return true;
  if (const auto *P = dyn_cast<PrimType>(T))
    return P->primKind() != PrimType::Void;
  return false;
}

bool isSignedPK(PrimType::PrimKind PK) {
  return PK >= PrimType::Int8 && PK <= PrimType::Int64;
}

bool isFloatPK(PrimType::PrimKind PK) {
  return PK == PrimType::Float32 || PK == PrimType::Float64;
}

RetKind retKindOf(const Type *T) {
  if (T->isPointer() || T->isFunction())
    return RetKind::Ptr;
  switch (cast<PrimType>(T)->primKind()) {
  case PrimType::Bool:
    return RetKind::Bool;
  case PrimType::Int8:
    return RetKind::I8;
  case PrimType::Int16:
    return RetKind::I16;
  case PrimType::Int32:
    return RetKind::I32;
  case PrimType::Int64:
    return RetKind::I64;
  case PrimType::UInt8:
    return RetKind::U8;
  case PrimType::UInt16:
    return RetKind::U16;
  case PrimType::UInt32:
    return RetKind::U32;
  case PrimType::UInt64:
    return RetKind::U64;
  case PrimType::Float32:
    return RetKind::F32;
  case PrimType::Float64:
    return RetKind::F64;
  case PrimType::Void:
    return RetKind::None;
  }
  return RetKind::None;
}

/// Lane shape of a vector type whose elements are primitive values (the
/// only vectors the typechecker builds); null for anything else.
const PrimType *laneType(const Type *T) {
  const auto *VT = dyn_cast_or_null<VectorType>(T);
  if (!VT)
    return nullptr;
  const auto *P = dyn_cast<PrimType>(VT->element());
  return P && P->primKind() != PrimType::Void ? P : nullptr;
}

/// The lane a constant index selects in a vector of \p N lanes, or -1 when
/// the index is not a literal in range (then it is a runtime index).
int constLane(const TerraExpr *Idx, uint64_t N) {
  if (const auto *C = dyn_cast<CastExpr>(Idx))
    if (C->Ty && C->Ty->isIntegral() && C->Operand->Ty &&
        C->Operand->Ty->isIntegral())
      Idx = C->Operand;
  const auto *L = dyn_cast<LitExpr>(Idx);
  if (!L || L->LK != LitExpr::LK_Int || L->IntVal < 0 ||
      static_cast<uint64_t>(L->IntVal) >= N)
    return -1;
  return static_cast<int>(L->IntVal);
}

//===----------------------------------------------------------------------===//
// Pre-pass: find locals, address-taken roots, and unsupported constructs
//===----------------------------------------------------------------------===//

struct Prepass {
  /// Every local with its declaration site.
  std::vector<std::pair<const TerraSymbol *, SourceLoc>> Decls;
  std::set<const TerraSymbol *> AddrTaken;
  BailSite Why;
  bool Bailed = false;

  void bail(const char *Reason, SourceLoc Loc) {
    if (Bailed)
      return;
    Bailed = true;
    Why = {Reason, Loc};
  }

  void declare(const TerraSymbol *S, SourceLoc Loc) {
    if (!S || !S->DeclaredType) {
      bail("untyped local", Loc);
      return;
    }
    if (S->DeclaredType->isVector() && !laneType(S->DeclaredType)) {
      bail("vector of non-primitive lanes", Loc);
      return;
    }
    Decls.push_back({S, Loc});
  }

  /// &lvalue pins the root variable of the lvalue chain to the frame.
  void markAddrRoot(const TerraExpr *E) {
    while (E) {
      if (const auto *S = dyn_cast<SelectExpr>(E)) {
        E = S->Base;
        continue;
      }
      if (const auto *X = dyn_cast<IndexExpr>(E)) {
        if (X->Base->Ty && X->Base->Ty->isPointer())
          return; // Address lives behind a pointer, not in a local.
        E = X->Base;
        continue;
      }
      if (const auto *C = dyn_cast<CastExpr>(E)) {
        E = C->Operand;
        continue;
      }
      if (const auto *U = dyn_cast<UnOpExpr>(E)) {
        if (U->Op == UnOpKind::Deref)
          return;
        return;
      }
      if (const auto *V = dyn_cast<VarExpr>(E)) {
        AddrTaken.insert(V->Sym);
        return;
      }
      return; // GlobalRef and friends: storage is already memory.
    }
  }

  void walkExpr(const TerraExpr *E) {
    if (!E || Bailed)
      return;
    switch (E->kind()) {
    case TerraNode::NK_Lit:
    case TerraNode::NK_Var:
    case TerraNode::NK_FuncLit:
    case TerraNode::NK_GlobalRef:
      return;
    case TerraNode::NK_Select:
      walkExpr(cast<SelectExpr>(E)->Base);
      return;
    case TerraNode::NK_Apply: {
      const auto *A = cast<ApplyExpr>(E);
      walkExpr(A->Callee);
      for (unsigned I = 0; I != A->NumArgs; ++I)
        walkExpr(A->Args[I]);
      return;
    }
    case TerraNode::NK_BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      walkExpr(B->LHS);
      walkExpr(B->RHS);
      return;
    }
    case TerraNode::NK_UnOp: {
      const auto *U = cast<UnOpExpr>(E);
      if (U->Op == UnOpKind::AddrOf)
        markAddrRoot(U->Operand);
      walkExpr(U->Operand);
      return;
    }
    case TerraNode::NK_Index: {
      const auto *X = cast<IndexExpr>(E);
      // Lane registers are selected at compile time, so a vector local
      // indexed at runtime keeps its lanes in the frame.
      if (const auto *V = dyn_cast<VarExpr>(X->Base))
        if (const auto *VT = dyn_cast_or_null<VectorType>(V->Ty))
          if (constLane(X->Idx, VT->length()) < 0)
            AddrTaken.insert(V->Sym);
      walkExpr(X->Base);
      walkExpr(X->Idx);
      return;
    }
    case TerraNode::NK_Constructor: {
      const auto *C = cast<ConstructorExpr>(E);
      for (unsigned I = 0; I != C->NumInits; ++I)
        walkExpr(C->Inits[I]);
      return;
    }
    case TerraNode::NK_Cast:
      walkExpr(cast<CastExpr>(E)->Operand);
      return;
    case TerraNode::NK_Intrinsic: {
      const auto *N = cast<IntrinsicExpr>(E);
      for (unsigned I = 0; I != N->NumArgs; ++I)
        walkExpr(N->Args[I]);
      return;
    }
    default:
      // MethodCall, Escape: never in typechecked trees.
      bail("unexpected expression", E->loc());
      return;
    }
  }

  void walkStmt(const TerraStmt *S) {
    if (!S || Bailed)
      return;
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      const auto *B = cast<BlockStmt>(S);
      for (unsigned I = 0; I != B->NumStmts; ++I)
        walkStmt(B->Stmts[I]);
      return;
    }
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumNames; ++I)
        declare(D->Names[I].Sym, S->loc());
      for (unsigned I = 0; I != D->NumInits; ++I)
        walkExpr(D->Inits[I]);
      return;
    }
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        walkExpr(A->RHS[I]);
      for (unsigned I = 0; I != A->NumLHS; ++I)
        walkExpr(A->LHS[I]);
      return;
    }
    case TerraNode::NK_If: {
      const auto *I2 = cast<IfStmt>(S);
      for (unsigned K = 0; K != I2->NumClauses; ++K) {
        walkExpr(I2->Conds[K]);
        walkStmt(I2->Blocks[K]);
      }
      walkStmt(I2->ElseBlock);
      return;
    }
    case TerraNode::NK_While: {
      const auto *W = cast<WhileStmt>(S);
      walkExpr(W->Cond);
      walkStmt(W->Body);
      return;
    }
    case TerraNode::NK_ForNum: {
      const auto *Fo = cast<ForNumStmt>(S);
      declare(Fo->Var.Sym, S->loc());
      if (Fo->Var.Sym && Fo->Var.Sym->DeclaredType &&
          !isa<PrimType>(Fo->Var.Sym->DeclaredType))
        bail("non-primitive 'for' variable", S->loc());
      walkExpr(Fo->Lo);
      walkExpr(Fo->Hi);
      walkExpr(Fo->Step);
      walkStmt(Fo->Body);
      return;
    }
    case TerraNode::NK_Return:
      walkExpr(cast<ReturnStmt>(S)->Val);
      return;
    case TerraNode::NK_Break:
      return;
    case TerraNode::NK_ExprStmt:
      walkExpr(cast<ExprStmt>(S)->E);
      return;
    default:
      bail("unexpected statement", S->loc());
      return;
    }
  }
};

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

/// Storage of one local. A scalar in a register uses Reg; a vector in
/// registers uses lanes Reg .. Reg + N - 1.
struct LocalInfo {
  bool InFrame = false;
  uint16_t Reg = 0;
  uint32_t FrameOff = 0;
  Type *Ty = nullptr;
};

/// The registers holding the lanes of a vector value, lane 0 first. Lanes
/// may share a register (a broadcast) or be a local's own lane registers.
using Lanes = std::vector<int>;

class BCCompiler {
public:
  BCCompiler(TerraContext &Ctx, const TerraFunction *F) : Ctx(Ctx), Src(F) {}

  std::shared_ptr<const Function> run();

  BailSite Why;

private:
  TerraContext &Ctx;
  const TerraFunction *Src;
  Function Out;
  bool Bailed = false;
  SourceLoc CurLoc; ///< Statement being compiled (bail site).

  std::map<const TerraSymbol *, LocalInfo> Locals;
  /// Registers for locals; later locals live in the frame, so temporaries
  /// always keep most of the register file.
  static constexpr unsigned MaxPersistentRegs = 4000;
  static constexpr uint16_t NoReg = 0xFFFF;
  uint16_t PersistentRegs = 0;
  uint16_t RegTop = 0, RegMax = 0;
  uint32_t FrameTop = 0, FrameMax = 0;
  std::vector<std::vector<size_t>> BreakStack;

  int bail(const char *Reason) {
    if (!Bailed)
      Why = {Reason, CurLoc};
    Bailed = true;
    return -1;
  }

  size_t emit(Op O, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
              int64_t Imm = 0) {
    Out.Code.push_back({O, A, B, C, Imm});
    return Out.Code.size() - 1;
  }
  size_t here() const { return Out.Code.size(); }
  void patch(size_t At, size_t Target) {
    Out.Code[At].Imm = static_cast<int64_t>(Target);
  }

  int tempReg() {
    if (RegTop == NoReg) // 0xFFFF is the "no register" sentinel.
      return bail("register cap");
    uint16_t R = RegTop++;
    if (RegTop > RegMax)
      RegMax = RegTop;
    return R;
  }
  uint32_t allocScratch(uint64_t Size, uint32_t Align = 16) {
    uint64_t Off = (uint64_t(FrameTop) + Align - 1) & ~uint64_t(Align - 1);
    if (Off + Size > UINT32_MAX) {
      bail("frame cap");
      return 0;
    }
    FrameTop = static_cast<uint32_t>(Off + Size);
    if (FrameTop > FrameMax)
      FrameMax = FrameTop;
    return static_cast<uint32_t>(Off);
  }

  struct Mark {
    uint16_t Regs;
    uint32_t Frame;
  };
  Mark mark() const { return {RegTop, FrameTop}; }
  void release(Mark M) {
    RegTop = M.Regs;
    FrameTop = M.Frame;
  }

  int64_t trapIdx(const std::string &Msg, SourceLoc Loc) {
    Out.Traps.push_back({Msg, Loc});
    return static_cast<int64_t>(Out.Traps.size() - 1);
  }

  // Interval-analysis facts (TerraFunction::RangeFacts): a proven fact lets
  // the compiler skip the runtime guard in front of a division or shift.
  bool provenNonZeroDivisor(const BinOpExpr *B) const {
    return Src->RangeFacts && Src->RangeFacts->NonZeroDivisor.count(B);
  }
  bool provenInRangeShift(const BinOpExpr *B) const {
    return Src->RangeFacts && Src->RangeFacts->InRangeShift.count(B);
  }

  // Typed memory access.
  bool emitLoad(int Dst, const Type *Ty, int Addr, int64_t Off);
  bool emitStore(const Type *Ty, int Addr, int64_t Off, int Val);
  /// Re-canonicalizes the int64 in Src into Dst per PK (storeFromInt+load).
  void emitWrapTo(PrimType::PrimKind PK, int Dst, int Src);

  // One scalar operation on canonical registers; each returns the fresh
  // result register (-1 on failure). Vector code calls them once per lane.
  // \p Into, when given, is the result register instead of a fresh one.
  int emitPrimBinOp(BinOpKind BK, const PrimType *P, int L, int R,
                    SourceLoc Loc, const BinOpExpr *Facts, int Into = -1);
  int emitPrimCast(const PrimType *PF, const PrimType *PT, int Srv,
                   int Into = -1);
  int emitNeg(PrimType::PrimKind PK, int V, int Into = -1);
  int emitNot(int V, int Into = -1);
  int emitMinMax(bool IsMin, PrimType::PrimKind PK, int A, int B,
                 int Into = -1);

  // Vectors, lowered to lanes.
  /// The local \p E names when it keeps its lanes in registers.
  const LocalInfo *laneLocal(const TerraExpr *E) const;
  /// Whether a vector expression already lives in memory (compileAddr).
  bool vectorInMemory(const TerraExpr *E) const;
  /// Lanes of \p E. With \p Into (a lane local's registers), the final
  /// lane-wise operation writes straight into them when no later lane
  /// still reads a register it overwrites.
  bool compileLanes(const TerraExpr *E, Lanes &Out,
                    const Lanes *Into = nullptr);
  bool loadLanes(const VectorType *VT, int Addr, Lanes &Out,
                 const Lanes *Into = nullptr);
  bool storeLanes(const VectorType *VT, int Addr, const Lanes &L);
  /// The lane registers of a local that keeps its lanes in registers.
  static Lanes laneRegs(const LocalInfo &L) {
    Lanes R(cast<VectorType>(L.Ty)->length());
    for (size_t I = 0; I != R.size(); ++I)
      R[I] = L.Reg + static_cast<int>(I);
    return R;
  }
  /// Copies lanes into a local's lane registers (parallel-move safe).
  bool moveLanes(const LocalInfo &L, Lanes Val);
  /// Copies lanes held in local registers into fresh temporaries.
  bool detachLanes(Lanes &L);

  int compileScalar(const TerraExpr *E);
  bool compileScalarInto(const TerraExpr *E, int Dst);
  int compileAddr(const TerraExpr *E);
  int compileAggValue(const TerraExpr *E);
  bool compileAggInto(const TerraExpr *E, int DstAddr, const Type *Ty);
  int compileCall(const ApplyExpr *A);
  int compileBinOp(const BinOpExpr *B, const TerraExpr *E);
  int compileCast(const CastExpr *C);
  bool storeToLValue(const TerraExpr *L, int Val);
  bool compileStmt(const TerraStmt *S);
  bool compileBlock(const BlockStmt *B);
};

bool BCCompiler::emitLoad(int Dst, const Type *Ty, int Addr, int64_t Off) {
  if (Dst < 0 || Addr < 0)
    return false;
  Op O;
  if (Ty->isPointer() || Ty->isFunction()) {
    O = Op::LdP;
  } else {
    const auto *P = dyn_cast<PrimType>(Ty);
    if (!P)
      return bail("load of a non-scalar type") >= 0;
    switch (P->primKind()) {
    case PrimType::Bool:
    case PrimType::UInt8:
      O = Op::LdU8;
      break;
    case PrimType::Int8:
      O = Op::LdI8;
      break;
    case PrimType::Int16:
      O = Op::LdI16;
      break;
    case PrimType::UInt16:
      O = Op::LdU16;
      break;
    case PrimType::Int32:
      O = Op::LdI32;
      break;
    case PrimType::UInt32:
      O = Op::LdU32;
      break;
    case PrimType::Int64:
      O = Op::LdI64;
      break;
    case PrimType::UInt64:
      O = Op::LdU64;
      break;
    case PrimType::Float32:
      O = Op::LdF32;
      break;
    case PrimType::Float64:
      O = Op::LdF64;
      break;
    default:
      return bail("load of a non-scalar type") >= 0;
    }
  }
  emit(O, static_cast<uint16_t>(Dst), static_cast<uint16_t>(Addr), 0, Off);
  return true;
}

bool BCCompiler::emitStore(const Type *Ty, int Addr, int64_t Off, int Val) {
  if (Addr < 0 || Val < 0)
    return false;
  Op O;
  if (Ty->isPointer() || Ty->isFunction()) {
    O = Op::StP;
  } else {
    const auto *P = dyn_cast<PrimType>(Ty);
    if (!P)
      return bail("store of a non-scalar type") >= 0;
    switch (P->primKind()) {
    case PrimType::Bool:
    case PrimType::Int8:
    case PrimType::UInt8:
      O = Op::StI8;
      break;
    case PrimType::Int16:
    case PrimType::UInt16:
      O = Op::StI16;
      break;
    case PrimType::Int32:
    case PrimType::UInt32:
      O = Op::StI32;
      break;
    case PrimType::Int64:
    case PrimType::UInt64:
      O = Op::StI64;
      break;
    case PrimType::Float32:
      O = Op::StF32;
      break;
    case PrimType::Float64:
      O = Op::StF64;
      break;
    default:
      return bail("store of a non-scalar type") >= 0;
    }
  }
  emit(O, static_cast<uint16_t>(Addr), static_cast<uint16_t>(Val), 0, Off);
  return true;
}

void BCCompiler::emitWrapTo(PrimType::PrimKind PK, int Dst, int Src) {
  if (Dst < 0 || Src < 0)
    return;
  uint16_t D = static_cast<uint16_t>(Dst), S = static_cast<uint16_t>(Src);
  switch (PK) {
  case PrimType::Int8:
    emit(Op::WrapI8, D, S);
    return;
  case PrimType::Int16:
    emit(Op::WrapI16, D, S);
    return;
  case PrimType::Int32:
    emit(Op::WrapI32, D, S);
    return;
  case PrimType::UInt8:
    emit(Op::WrapU8, D, S);
    return;
  case PrimType::UInt16:
    emit(Op::WrapU16, D, S);
    return;
  case PrimType::UInt32:
    emit(Op::WrapU32, D, S);
    return;
  case PrimType::Bool:
    emit(Op::WrapBool, D, S);
    return;
  default: // 64-bit kinds are already canonical.
    if (D != S)
      emit(Op::Mov, D, S);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Addresses (lvalues)
//===----------------------------------------------------------------------===//

int BCCompiler::compileAddr(const TerraExpr *E) {
  if (Bailed)
    return -1;
  switch (E->kind()) {
  case TerraNode::NK_Var: {
    const auto *V = cast<VarExpr>(E);
    auto It = Locals.find(V->Sym);
    if (It == Locals.end() || !It->second.InFrame)
      return bail("address of a register local");
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emit(Op::FrameAddr, static_cast<uint16_t>(Dst), 0, 0, It->second.FrameOff);
    return Dst;
  }
  case TerraNode::NK_GlobalRef: {
    TerraGlobal *G = cast<GlobalRefExpr>(E)->Global;
    if (!G || !G->Storage)
      return bail("global without storage");
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emit(Op::ConstP, static_cast<uint16_t>(Dst), 0, 0,
         static_cast<int64_t>(reinterpret_cast<uintptr_t>(G->Storage)));
    return Dst;
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    if (U->Op != UnOpKind::Deref)
      return bail("address of a non-lvalue");
    int P = compileScalar(U->Operand);
    if (P < 0)
      return -1;
    emit(Op::TrapIfNull, static_cast<uint16_t>(P), 0, 0,
         trapIdx("null pointer dereference", E->loc()));
    return P;
  }
  case TerraNode::NK_Index: {
    const auto *X = cast<IndexExpr>(E);
    // Index first, then base address.
    int Idx = compileScalar(X->Idx);
    if (Idx < 0)
      return -1;
    int Base = X->Base->Ty->isPointer() ? compileScalar(X->Base)
                                        : compileAddr(X->Base);
    if (Base < 0)
      return -1;
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emit(Op::PtrAdd, static_cast<uint16_t>(Dst), static_cast<uint16_t>(Base),
         static_cast<uint16_t>(Idx), static_cast<int64_t>(E->Ty->size()));
    return Dst;
  }
  case TerraNode::NK_Select: {
    const auto *S = cast<SelectExpr>(E);
    int Base = compileAddr(S->Base);
    if (Base < 0)
      return -1;
    const auto *ST = dyn_cast<StructType>(S->Base->Ty);
    if (!ST || S->FieldIndex < 0)
      return bail("field of a non-struct");
    uint64_t Off = ST->fields()[S->FieldIndex].Offset;
    if (Off == 0)
      return Base;
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emit(Op::PtrAddImm, static_cast<uint16_t>(Dst),
         static_cast<uint16_t>(Base), 0, static_cast<int64_t>(Off));
    return Dst;
  }
  case TerraNode::NK_Apply:
  case TerraNode::NK_Constructor:
  case TerraNode::NK_Cast:
    // An rvalue aggregate (mk(a).y, arr(a)[2]): materialize it in frame
    // scratch and address that.
    if (!isScalarTy(E->Ty))
      return compileAggValue(E);
    return bail("address of a scalar rvalue");
  default:
    if (laneType(E->Ty) && !vectorInMemory(E))
      return compileAggValue(E); // Computed vector lanes.
    return bail("address of a non-lvalue");
  }
}

//===----------------------------------------------------------------------===//
// Aggregate values
//===----------------------------------------------------------------------===//

int BCCompiler::compileAggValue(const TerraExpr *E) {
  if (Bailed)
    return -1;
  if (const auto *VT = dyn_cast_or_null<VectorType>(E->Ty))
    if (!vectorInMemory(E)) { // Computed lanes: materialize in scratch.
      Lanes L;
      if (!compileLanes(E, L))
        return -1;
      uint32_t Off = allocScratch(VT->size());
      int A = tempReg();
      if (A < 0 || Bailed)
        return -1;
      emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, Off);
      return storeLanes(VT, A, L) ? A : -1;
    }
  switch (E->kind()) {
  case TerraNode::NK_Constructor: {
    uint32_t Off = allocScratch(E->Ty->size());
    int A = tempReg();
    if (A < 0 || Bailed)
      return -1;
    emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, Off);
    if (!compileAggInto(E, A, E->Ty))
      return -1;
    return A;
  }
  case TerraNode::NK_Apply:
    return compileCall(cast<ApplyExpr>(E));
  case TerraNode::NK_Cast: {
    const auto *C = cast<CastExpr>(E);
    if (C->Operand->Ty == C->Ty)
      return compileAggValue(C->Operand);
    return bail("aggregate conversion");
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    if (U->Op != UnOpKind::Deref)
      return bail("aggregate operator");
    return compileAddr(E);
  }
  default:
    return compileAddr(E); // Var/Global/Select/Index lvalues.
  }
}

bool BCCompiler::compileAggInto(const TerraExpr *E, int DstAddr,
                                const Type *Ty) {
  if (DstAddr < 0 || Bailed)
    return false;
  if (const auto *VT = dyn_cast<VectorType>(Ty))
    if (!vectorInMemory(E)) {
      Lanes L;
      return compileLanes(E, L) && storeLanes(VT, DstAddr, L);
    }
  if (const auto *C = dyn_cast<ConstructorExpr>(E)) {
    const auto *ST = dyn_cast<StructType>(C->Ty);
    if (!ST)
      return bail("constructor of a non-struct") >= 0;
    emit(Op::MemZero, static_cast<uint16_t>(DstAddr), 0, 0,
         static_cast<int64_t>(ST->size()));
    for (unsigned I = 0; I != C->NumInits; ++I) {
      int Idx = static_cast<int>(I);
      if (C->FieldNames && C->FieldNames[I])
        Idx = ST->fieldIndex(*C->FieldNames[I]);
      if (Idx < 0 || static_cast<size_t>(Idx) >= ST->fields().size())
        return bail("constructor field out of range") >= 0;
      uint64_t FOff = ST->fields()[Idx].Offset;
      const TerraExpr *Init = C->Inits[I];
      Mark M = mark();
      if (isScalarTy(Init->Ty)) {
        int V = compileScalar(Init);
        if (!emitStore(Init->Ty, DstAddr, static_cast<int64_t>(FOff), V))
          return false;
      } else {
        int FA = tempReg();
        if (FA < 0)
          return false;
        emit(Op::PtrAddImm, static_cast<uint16_t>(FA),
             static_cast<uint16_t>(DstAddr), 0, static_cast<int64_t>(FOff));
        if (!compileAggInto(Init, FA, Init->Ty))
          return false;
      }
      release(M);
    }
    return true;
  }
  int Srv = compileAggValue(E);
  if (Srv < 0)
    return false;
  emit(Op::MemCpy, static_cast<uint16_t>(DstAddr),
       static_cast<uint16_t>(Srv), 0, static_cast<int64_t>(Ty->size()));
  return true;
}

//===----------------------------------------------------------------------===//
// Vectors: each operation becomes one scalar op per lane
//===----------------------------------------------------------------------===//

const LocalInfo *BCCompiler::laneLocal(const TerraExpr *E) const {
  const auto *V = dyn_cast<VarExpr>(E);
  if (!V || !laneType(E->Ty))
    return nullptr;
  auto It = Locals.find(V->Sym);
  return It != Locals.end() && !It->second.InFrame ? &It->second : nullptr;
}

bool BCCompiler::vectorInMemory(const TerraExpr *E) const {
  switch (E->kind()) {
  case TerraNode::NK_Var:
    return !laneLocal(E);
  case TerraNode::NK_GlobalRef:
  case TerraNode::NK_Select:
  case TerraNode::NK_Index:
  case TerraNode::NK_Apply:
    return true;
  case TerraNode::NK_UnOp:
    return cast<UnOpExpr>(E)->Op == UnOpKind::Deref;
  default:
    return false;
  }
}

bool BCCompiler::loadLanes(const VectorType *VT, int Addr, Lanes &Out,
                           const Lanes *Into) {
  Out.clear();
  if (Addr < 0)
    return false;
  if (Into && std::find(Into->begin(), Into->end(), Addr) != Into->end())
    Into = nullptr; // The address itself is a destination lane.
  const Type *ET = VT->element();
  for (uint64_t I = 0; I != VT->length(); ++I) {
    int D = Into ? (*Into)[I] : tempReg();
    if (D < 0 || !emitLoad(D, ET, Addr, static_cast<int64_t>(I * ET->size())))
      return false;
    Out.push_back(D);
  }
  return true;
}

bool BCCompiler::storeLanes(const VectorType *VT, int Addr, const Lanes &L) {
  const Type *ET = VT->element();
  for (uint64_t I = 0; I != VT->length(); ++I)
    if (!emitStore(ET, Addr, static_cast<int64_t>(I * ET->size()), L[I]))
      return false;
  return true;
}

bool BCCompiler::detachLanes(Lanes &L) {
  for (size_t I = 0; I != L.size(); ++I) {
    int Old = L[I];
    if (Old >= PersistentRegs)
      continue; // Already a temporary.
    int T = tempReg();
    if (T < 0)
      return false;
    emit(Op::Mov, static_cast<uint16_t>(T), static_cast<uint16_t>(Old));
    for (size_t J = I; J != L.size(); ++J)
      if (L[J] == Old)
        L[J] = T;
  }
  return true;
}

bool BCCompiler::moveLanes(const LocalInfo &L, Lanes Val) {
  int Lo = L.Reg, Hi = L.Reg + static_cast<int>(Val.size());
  // Lane I is written before lane J > I reads its source: a source inside
  // the destination at another position must be copied out first.
  for (size_t I = 0; I != Val.size(); ++I)
    if (Val[I] >= Lo && Val[I] < Hi && Val[I] != Lo + static_cast<int>(I)) {
      if (!detachLanes(Val))
        return false;
      break;
    }
  for (size_t I = 0; I != Val.size(); ++I)
    if (Val[I] != Lo + static_cast<int>(I))
      emit(Op::Mov, static_cast<uint16_t>(Lo + I),
           static_cast<uint16_t>(Val[I]));
  return true;
}

bool BCCompiler::compileLanes(const TerraExpr *E, Lanes &Out,
                              const Lanes *Into) {
  const PrimType *EP = laneType(E->Ty);
  if (Bailed || !EP)
    return bail("lanes of a non-vector") >= 0;
  const auto *VT = cast<VectorType>(E->Ty);
  unsigned N = static_cast<unsigned>(VT->length());
  Out.clear();
  if (const LocalInfo *L = laneLocal(E)) {
    Out = laneRegs(*L);
    return true;
  }
  // Applies LaneOp over operand lanes A (and B), into Into's
  // registers unless writing lane I would clobber an operand lane J > I.
  auto EachLane = [&](const Lanes &A, const Lanes *B, auto LaneOp) {
    const Lanes *Dst = Into;
    for (unsigned I = 0; Dst && I != N; ++I)
      for (unsigned J = I + 1; Dst && J != N; ++J)
        if (A[J] == (*Dst)[I] || (B && (*B)[J] == (*Dst)[I]))
          Dst = nullptr;
    for (unsigned I = 0; I != N; ++I) {
      int D = LaneOp(A[I], B ? (*B)[I] : -1, Dst ? (*Dst)[I] : -1);
      if (D < 0)
        return false;
      Out.push_back(D);
    }
    return true;
  };
  switch (E->kind()) {
  case TerraNode::NK_BinOp: {
    const auto *B = cast<BinOpExpr>(E);
    const PrimType *OP = laneType(B->LHS->Ty);
    Lanes L, R;
    if (!OP || !laneType(B->RHS->Ty))
      return bail("vector operator on non-vector operands") >= 0;
    if (!compileLanes(B->LHS, L) || !compileLanes(B->RHS, R))
      return false;
    return EachLane(L, &R, [&](int X, int Y, int D) {
      return emitPrimBinOp(B->Op, OP, X, Y, E->loc(), nullptr, D);
    });
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    if (U->Op == UnOpKind::Deref)
      break; // In memory.
    if (U->Op != UnOpKind::Neg && U->Op != UnOpKind::Not)
      return bail("vector operator") >= 0;
    Lanes V;
    if (!compileLanes(U->Operand, V))
      return false;
    return EachLane(V, nullptr, [&](int X, int, int D) {
      return U->Op == UnOpKind::Neg ? emitNeg(EP->primKind(), X, D)
                                    : emitNot(X, D);
    });
  }
  case TerraNode::NK_Cast: {
    const auto *C = cast<CastExpr>(E);
    const Type *From = C->Operand->Ty;
    if (const PrimType *FP = laneType(From)) { // Lane-wise conversion.
      Lanes V;
      if (!compileLanes(C->Operand, V))
        return false;
      return EachLane(V, nullptr, [&](int X, int, int D) {
        return FP == EP ? X : emitPrimCast(FP, EP, X, D);
      });
    }
    const auto *FP = dyn_cast_or_null<PrimType>(From);
    if (!FP)
      return bail("vector conversion") >= 0;
    int V = compileScalar(C->Operand); // Broadcast.
    if (V >= 0 && FP != EP)
      V = emitPrimCast(FP, EP, V);
    if (V < 0)
      return false;
    Out.assign(N, V);
    return true;
  }
  case TerraNode::NK_Intrinsic: {
    const auto *In = cast<IntrinsicExpr>(E);
    if ((In->IK != IntrinsicKind::Min && In->IK != IntrinsicKind::Max) ||
        In->NumArgs != 2)
      return bail("vector intrinsic") >= 0;
    Lanes A, B;
    if (!compileLanes(In->Args[0], A) || !compileLanes(In->Args[1], B))
      return false;
    return EachLane(A, &B, [&](int X, int Y, int D) {
      return emitMinMax(In->IK == IntrinsicKind::Min, EP->primKind(), X, Y,
                        D);
    });
  }
  case TerraNode::NK_Apply:
    return loadLanes(VT, compileCall(cast<ApplyExpr>(E)), Out, Into);
  case TerraNode::NK_Var:
  case TerraNode::NK_GlobalRef:
  case TerraNode::NK_Select:
  case TerraNode::NK_Index:
    break;
  default:
    return bail("vector expression") >= 0;
  }
  return loadLanes(VT, compileAddr(E), Out, Into);
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

int BCCompiler::compileCall(const ApplyExpr *A) {
  CallSite CS;
  CS.Loc = A->loc();
  if (const auto *FL = dyn_cast<FuncLitExpr>(A->Callee)) {
    if (!FL->Fn)
      return bail("call of an unresolved function");
    CS.Callee = FL->Fn;
  } else {
    // Indirect: the function value is evaluated before the arguments and
    // resolved to its callee when the call runs.
    int V = compileScalar(A->Callee);
    if (V < 0)
      return -1;
    CS.CalleeReg = static_cast<uint16_t>(V);
  }
  for (unsigned I = 0; I != A->NumArgs; ++I) {
    const TerraExpr *Arg = A->Args[I];
    if (!Arg->Ty)
      return bail("untyped argument");
    int R = isScalarTy(Arg->Ty) ? compileScalar(Arg) : compileAggValue(Arg);
    if (R < 0)
      return -1;
    CS.Args.push_back({static_cast<uint16_t>(R), !isScalarTy(Arg->Ty)});
    CS.ArgTypes.push_back(Arg->Ty);
  }
  CS.ArgsFrameOff = allocScratch(CS.Args.size() * sizeof(void *), 8);
  Type *RT = A->Ty;
  CS.RetTy = RT;
  int Dst = -2;
  bool AggRet = false;
  if (RT && !RT->isVoid()) {
    uint64_t Sz = RT->size();
    CS.RetFrameOff = allocScratch(Sz < 8 ? 8 : Sz);
    if (isScalarTy(RT)) {
      Dst = tempReg();
      if (Dst < 0)
        return -1;
      CS.DstReg = static_cast<uint16_t>(Dst);
      CS.RetLoad = retKindOf(RT);
    } else {
      AggRet = true;
    }
  }
  if (Bailed)
    return -1;
  Out.Calls.push_back(std::move(CS));
  emit(Op::Call, 0, 0, 0, static_cast<int64_t>(Out.Calls.size() - 1));
  if (AggRet) {
    int Addr = tempReg();
    if (Addr < 0)
      return -1;
    emit(Op::FrameAddr, static_cast<uint16_t>(Addr), 0, 0,
         Out.Calls.back().RetFrameOff);
    return Addr;
  }
  return Dst;
}

//===----------------------------------------------------------------------===//
// Binary operators
//===----------------------------------------------------------------------===//

int BCCompiler::compileBinOp(const BinOpExpr *B, const TerraExpr *E) {
  Type *OpTy = B->LHS->Ty;
  if (!OpTy || !B->RHS->Ty)
    return bail("untyped operand");

  // Short-circuit boolean and/or.
  if ((B->Op == BinOpKind::And || B->Op == BinOpKind::Or) && OpTy->isBool()) {
    int Dst = tempReg();
    if (Dst < 0 || !compileScalarInto(B->LHS, Dst))
      return -1;
    size_t J = emit(B->Op == BinOpKind::And ? Op::JmpIfFalse : Op::JmpIfTrue,
                    static_cast<uint16_t>(Dst), 0, 0, -1);
    if (!compileScalarInto(B->RHS, Dst))
      return -1;
    patch(J, here());
    return Dst;
  }

  // Pointer arithmetic and comparison.
  if (OpTy->isPointer() || B->RHS->Ty->isPointer()) {
    int L = compileScalar(B->LHS);
    int R = compileScalar(B->RHS);
    if (L < 0 || R < 0)
      return -1;
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    uint16_t D = static_cast<uint16_t>(Dst), UL = static_cast<uint16_t>(L),
             UR = static_cast<uint16_t>(R);
    if (OpTy->isPointer() && B->RHS->Ty->isPointer()) {
      switch (B->Op) {
      case BinOpKind::Sub:
        emit(Op::PtrDiff, D, UL, UR,
             static_cast<int64_t>(cast<PointerType>(OpTy)->pointee()->size()));
        return Dst;
      case BinOpKind::Eq:
        emit(Op::EqI, D, UL, UR);
        return Dst;
      case BinOpKind::Ne:
        emit(Op::NeI, D, UL, UR);
        return Dst;
      default:
        return bail("pointer operator");
      }
    }
    // ptr +/- int (typechecker normalized the int side to int64).
    if (!E->Ty->isPointer())
      return bail("pointer arithmetic");
    int64_t ES =
        static_cast<int64_t>(cast<PointerType>(E->Ty)->pointee()->size());
    uint16_t Ptr = OpTy->isPointer() ? UL : UR;
    uint16_t Off = OpTy->isPointer() ? UR : UL;
    switch (B->Op) {
    case BinOpKind::Add:
      emit(Op::PtrAdd, D, Ptr, Off, ES);
      return Dst;
    case BinOpKind::Sub:
      emit(Op::PtrSub, D, Ptr, Off, ES);
      return Dst;
    default:
      return bail("pointer operator");
    }
  }

  const auto *P = dyn_cast<PrimType>(OpTy);
  if (!P)
    return bail("operator on non-primitive operands");
  int L = compileScalar(B->LHS);
  int R = compileScalar(B->RHS);
  if (L < 0 || R < 0)
    return -1;
  return emitPrimBinOp(B->Op, P, L, R, E->loc(), B);
}

/// \p Facts is the scalar source node whose interval facts may elide the
/// div/shift guards; vector lanes pass null and always keep their guards.
int BCCompiler::emitPrimBinOp(BinOpKind BK, const PrimType *P, int L, int R,
                              SourceLoc Loc, const BinOpExpr *Facts,
                              int Into) {
  PrimType::PrimKind PK = P->primKind();
  int Dst = Into >= 0 ? Into : tempReg();
  if (Dst < 0)
    return -1;
  uint16_t D = static_cast<uint16_t>(Dst), UL = static_cast<uint16_t>(L),
           UR = static_cast<uint16_t>(R);

  if (isFloatPK(PK)) {
    bool F32 = PK == PrimType::Float32;
    switch (BK) {
    case BinOpKind::Add:
      emit(F32 ? Op::AddF32 : Op::AddF, D, UL, UR);
      return Dst;
    case BinOpKind::Sub:
      emit(F32 ? Op::SubF32 : Op::SubF, D, UL, UR);
      return Dst;
    case BinOpKind::Mul:
      emit(F32 ? Op::MulF32 : Op::MulF, D, UL, UR);
      return Dst;
    case BinOpKind::Div:
      emit(F32 ? Op::DivF32 : Op::DivF, D, UL, UR);
      return Dst;
    case BinOpKind::Lt:
      emit(F32 ? Op::LtF32 : Op::LtF, D, UL, UR);
      return Dst;
    case BinOpKind::Le:
      emit(F32 ? Op::LeF32 : Op::LeF, D, UL, UR);
      return Dst;
    case BinOpKind::Gt:
      emit(F32 ? Op::GtF32 : Op::GtF, D, UL, UR);
      return Dst;
    case BinOpKind::Ge:
      emit(F32 ? Op::GeF32 : Op::GeF, D, UL, UR);
      return Dst;
    case BinOpKind::Eq:
      emit(F32 ? Op::EqF32 : Op::EqF, D, UL, UR);
      return Dst;
    case BinOpKind::Ne:
      emit(F32 ? Op::NeF32 : Op::NeF, D, UL, UR);
      return Dst;
    default:
      return bail("float operator");
    }
  }
  if (PK == PrimType::Bool) {
    switch (BK) {
    case BinOpKind::Eq:
      emit(Op::EqI, D, UL, UR);
      return Dst;
    case BinOpKind::Ne:
      emit(Op::NeI, D, UL, UR);
      return Dst;
    default:
      return bail("bool operator");
    }
  }

  bool Signed = isSignedPK(PK);
  switch (BK) {
  case BinOpKind::Add:
    emit(Op::AddI, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Sub:
    emit(Op::SubI, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Mul:
    emit(Op::MulI, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Div:
    if (!(Facts && provenNonZeroDivisor(Facts)))
      emit(Op::TrapIfZero, UR, 0, 0,
           trapIdx("integer division by zero", Loc));
    emit(Signed ? Op::DivI : Op::DivU, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Mod:
    if (!(Facts && provenNonZeroDivisor(Facts)))
      emit(Op::TrapIfZero, UR, 0, 0,
           trapIdx("integer modulo by zero", Loc));
    emit(Signed ? Op::ModI : Op::ModU, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Shl:
  case BinOpKind::Shr:
    if (!(Facts && provenInRangeShift(Facts)))
      emit(Op::TrapIfShiftGE, UR, static_cast<uint16_t>(P->size() * 8), 0,
           trapIdx("shift amount out of range", Loc));
    if (BK == BinOpKind::Shl)
      emit(Op::ShlI, D, UL, UR);
    else
      emit(Signed ? Op::ShrI : Op::ShrU, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Lt:
    emit(Signed ? Op::LtI : Op::LtU, D, UL, UR);
    return Dst;
  case BinOpKind::Le:
    emit(Signed ? Op::LeI : Op::LeU, D, UL, UR);
    return Dst;
  case BinOpKind::Gt:
    emit(Signed ? Op::GtI : Op::GtU, D, UL, UR);
    return Dst;
  case BinOpKind::Ge:
    emit(Signed ? Op::GeI : Op::GeU, D, UL, UR);
    return Dst;
  case BinOpKind::Eq:
    emit(Op::EqI, D, UL, UR);
    return Dst;
  case BinOpKind::Ne:
    emit(Op::NeI, D, UL, UR);
    return Dst;
  default:
    return bail("integer operator");
  }
}

//===----------------------------------------------------------------------===//
// Casts
//===----------------------------------------------------------------------===//

int BCCompiler::compileCast(const CastExpr *C) {
  Type *From = C->Operand->Ty;
  Type *To = C->Ty;
  if (!From || !To)
    return bail("untyped conversion");
  if (From->isArray() && To->isPointer())
    return compileAddr(C->Operand);
  if (From == To)
    return compileScalar(C->Operand);
  if ((From->isPointer() || From->isFunction()) &&
      (To->isPointer() || To->isFunction()))
    return compileScalar(C->Operand);
  if (From->isPointer() && To->isIntegral()) {
    int V = compileScalar(C->Operand);
    if (V < 0)
      return -1;
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emitWrapTo(cast<PrimType>(To)->primKind(), Dst, V);
    return Dst;
  }
  if (From->isIntegral() && To->isPointer())
    return compileScalar(C->Operand); // Canonical int64 bits are the pointer.

  const auto *PF = dyn_cast<PrimType>(From);
  const auto *PT = dyn_cast<PrimType>(To);
  if (!PF || !PT)
    return bail("conversion between non-primitive types");
  int Srv = compileScalar(C->Operand);
  if (Srv < 0)
    return -1;
  return emitPrimCast(PF, PT, Srv);
}

/// Converts between distinct primitive types as castScalar does:
/// integers (and bool) through int64, floats through double.
int BCCompiler::emitPrimCast(const PrimType *PF, const PrimType *PT,
                             int Srv, int Into) {
  PrimType::PrimKind FK = PF->primKind(), TK = PT->primKind();
  uint16_t S = static_cast<uint16_t>(Srv);

  if (PF->isIntegralPrim() || FK == PrimType::Bool) {
    int Dst = Into >= 0 ? Into : tempReg();
    if (Dst < 0)
      return -1;
    uint16_t D = static_cast<uint16_t>(Dst);
    if (TK == PrimType::Float64) {
      emit(Op::I2F, D, S);
      return Dst;
    }
    if (TK == PrimType::Float32) {
      emit(Op::I2F32, D, S);
      return Dst;
    }
    emitWrapTo(TK, Dst, Srv);
    return Dst;
  }
  if (isFloatPK(FK)) {
    // Widen a float source to double first (exact).
    if (FK == PrimType::Float32) {
      int W = TK == PrimType::Float64 && Into >= 0 ? Into : tempReg();
      if (W < 0)
        return -1;
      emit(Op::F32ToF, static_cast<uint16_t>(W), S);
      Srv = W;
      S = static_cast<uint16_t>(W);
      if (TK == PrimType::Float64)
        return Srv;
    }
    int Dst = Into >= 0 ? Into : tempReg();
    if (Dst < 0)
      return -1;
    uint16_t D = static_cast<uint16_t>(Dst);
    switch (TK) {
    case PrimType::Float32:
      emit(Op::FToF32, D, S);
      return Dst;
    case PrimType::Bool:
      emit(Op::F2Bool, D, S);
      return Dst;
    case PrimType::Int8:
      emit(Op::F2I8, D, S);
      return Dst;
    case PrimType::Int16:
      emit(Op::F2I16, D, S);
      return Dst;
    case PrimType::Int32:
      emit(Op::F2I32, D, S);
      return Dst;
    case PrimType::Int64:
      emit(Op::F2I64, D, S);
      return Dst;
    case PrimType::UInt8:
      emit(Op::F2U8, D, S);
      return Dst;
    case PrimType::UInt16:
      emit(Op::F2U16, D, S);
      return Dst;
    case PrimType::UInt32:
      emit(Op::F2U32, D, S);
      return Dst;
    case PrimType::UInt64:
      emit(Op::F2U64, D, S);
      return Dst;
    default:
      return bail("float conversion");
    }
  }
  return bail("primitive conversion");
}

int BCCompiler::emitNeg(PrimType::PrimKind PK, int V, int Into) {
  int Dst = Into >= 0 ? Into : tempReg();
  if (Dst < 0)
    return -1;
  uint16_t D = static_cast<uint16_t>(Dst), S = static_cast<uint16_t>(V);
  if (PK == PrimType::Float64) {
    emit(Op::NegF, D, S);
  } else if (PK == PrimType::Float32) {
    emit(Op::NegF32, D, S);
  } else {
    emit(Op::NegI, D, S);
    emitWrapTo(PK, Dst, Dst);
  }
  return Dst;
}

int BCCompiler::emitNot(int V, int Into) {
  int Dst = Into >= 0 ? Into : tempReg();
  if (Dst < 0)
    return -1;
  emit(Op::NotB, static_cast<uint16_t>(Dst), static_cast<uint16_t>(V));
  return Dst;
}

int BCCompiler::emitMinMax(bool IsMin, PrimType::PrimKind PK, int A, int B,
                           int Into) {
  int Dst = Into >= 0 ? Into : tempReg();
  if (Dst < 0)
    return -1;
  Op O;
  // Integer kinds of every signedness compare as signed int64.
  if (PK == PrimType::Float64)
    O = IsMin ? Op::MinF : Op::MaxF;
  else if (PK == PrimType::Float32)
    O = IsMin ? Op::MinF32 : Op::MaxF32;
  else
    O = IsMin ? Op::MinI : Op::MaxI;
  emit(O, static_cast<uint16_t>(Dst), static_cast<uint16_t>(A),
       static_cast<uint16_t>(B));
  return Dst;
}

//===----------------------------------------------------------------------===//
// Scalar expressions
//===----------------------------------------------------------------------===//

int BCCompiler::compileScalar(const TerraExpr *E) {
  if (Bailed || !E || !E->Ty)
    return bail("untyped expression");
  switch (E->kind()) {
  case TerraNode::NK_Lit: {
    const auto *L = cast<LitExpr>(E);
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    uint16_t D = static_cast<uint16_t>(Dst);
    switch (L->LK) {
    case LitExpr::LK_Int: {
      const auto *P = dyn_cast<PrimType>(E->Ty);
      if (!P)
        return bail("integer literal of non-primitive type");
      PrimType::PrimKind PK = P->primKind();
      if (PK == PrimType::Float64) {
        double V = static_cast<double>(L->IntVal);
        int64_t Bits;
        memcpy(&Bits, &V, 8);
        emit(Op::ConstF, D, 0, 0, Bits);
        return Dst;
      }
      if (PK == PrimType::Float32) {
        float V = static_cast<float>(L->IntVal);
        int64_t Bits = 0;
        memcpy(&Bits, &V, 4);
        emit(Op::ConstF32, D, 0, 0, Bits);
        return Dst;
      }
      int64_t V = L->IntVal;
      switch (PK) { // Canonicalize at compile time.
      case PrimType::Bool:
        V = V != 0;
        break;
      case PrimType::Int8:
        V = static_cast<int8_t>(V);
        break;
      case PrimType::Int16:
        V = static_cast<int16_t>(V);
        break;
      case PrimType::Int32:
        V = static_cast<int32_t>(V);
        break;
      case PrimType::UInt8:
        V = static_cast<uint8_t>(V);
        break;
      case PrimType::UInt16:
        V = static_cast<uint16_t>(V);
        break;
      case PrimType::UInt32:
        V = static_cast<uint32_t>(V);
        break;
      default:
        break;
      }
      emit(Op::ConstI, D, 0, 0, V);
      return Dst;
    }
    case LitExpr::LK_Float: {
      const auto *P = dyn_cast<PrimType>(E->Ty);
      if (!P)
        return bail("float literal of non-primitive type");
      if (P->primKind() == PrimType::Float32) {
        float V = static_cast<float>(L->FloatVal);
        int64_t Bits = 0;
        memcpy(&Bits, &V, 4);
        emit(Op::ConstF32, D, 0, 0, Bits);
        return Dst;
      }
      int64_t Bits;
      memcpy(&Bits, &L->FloatVal, 8);
      emit(Op::ConstF, D, 0, 0, Bits);
      if (P->primKind() == PrimType::Float64)
        return Dst;
      // A float literal of integer or bool type converts as a cast does.
      return emitPrimCast(cast<PrimType>(Ctx.types().float64()), P, Dst, Dst);
    }
    case LitExpr::LK_Bool:
      emit(Op::ConstI, D, 0, 0, L->BoolVal ? 1 : 0);
      return Dst;
    case LitExpr::LK_String: {
      const char *Data = Ctx.internStringData(*L->StrVal);
      emit(Op::ConstP, D, 0, 0,
           static_cast<int64_t>(reinterpret_cast<uintptr_t>(Data)));
      return Dst;
    }
    case LitExpr::LK_Pointer:
      emit(Op::ConstP, D, 0, 0,
           static_cast<int64_t>(reinterpret_cast<uintptr_t>(L->PtrVal)));
      return Dst;
    }
    return bail("literal");
  }
  case TerraNode::NK_Var: {
    const auto *V = cast<VarExpr>(E);
    auto It = Locals.find(V->Sym);
    if (It == Locals.end())
      return bail("undeclared local");
    if (!It->second.InFrame)
      return It->second.Reg;
    int A = compileAddr(E);
    int Dst = tempReg();
    if (A < 0 || Dst < 0 || !emitLoad(Dst, E->Ty, A, 0))
      return -1;
    return Dst;
  }
  case TerraNode::NK_GlobalRef:
  case TerraNode::NK_Select: {
    int A = compileAddr(E);
    int Dst = tempReg();
    if (A < 0 || Dst < 0 || !emitLoad(Dst, E->Ty, A, 0))
      return -1;
    return Dst;
  }
  case TerraNode::NK_Index: {
    const auto *X = cast<IndexExpr>(E);
    if (const auto *VT = dyn_cast<VectorType>(X->Base->Ty)) {
      int Lane = constLane(X->Idx, VT->length());
      if (const LocalInfo *L = laneLocal(X->Base))
        return Lane < 0 ? bail("runtime index into register lanes")
                        : L->Reg + Lane;
      if (Lane >= 0 && !vectorInMemory(X->Base)) {
        Lanes V;
        return compileLanes(X->Base, V) ? V[Lane] : -1;
      }
    }
    if (X->Base->IsLValue || X->Base->Ty->isPointer()) {
      int A = compileAddr(E);
      int Dst = tempReg();
      if (A < 0 || Dst < 0 || !emitLoad(Dst, E->Ty, A, 0))
        return -1;
      return Dst;
    }
    // Rvalue aggregate base: evaluate it, then the index.
    int Base = compileAggValue(X->Base);
    if (Base < 0)
      return -1;
    int Idx = compileScalar(X->Idx);
    if (Idx < 0)
      return -1;
    int Addr = tempReg();
    int Dst = tempReg();
    if (Addr < 0 || Dst < 0)
      return -1;
    emit(Op::PtrAdd, static_cast<uint16_t>(Addr),
         static_cast<uint16_t>(Base), static_cast<uint16_t>(Idx),
         static_cast<int64_t>(E->Ty->size()));
    if (!emitLoad(Dst, E->Ty, Addr, 0))
      return -1;
    return Dst;
  }
  case TerraNode::NK_FuncLit: {
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    // Resolved at execution time: under tiered execution a materialized
    // function value must be a machine address (native code may call the
    // same bits), which cannot be known at bytecode-compile time.
    emit(Op::FnLit, static_cast<uint16_t>(Dst), 0, 0,
         static_cast<int64_t>(
             reinterpret_cast<uintptr_t>(cast<FuncLitExpr>(E)->Fn)));
    return Dst;
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    switch (U->Op) {
    case UnOpKind::AddrOf:
      return compileAddr(U->Operand);
    case UnOpKind::Deref: {
      int P = compileScalar(U->Operand);
      if (P < 0)
        return -1;
      emit(Op::TrapIfNull, static_cast<uint16_t>(P), 0, 0,
           trapIdx("null pointer dereference", E->loc()));
      int Dst = tempReg();
      if (Dst < 0 || !emitLoad(Dst, E->Ty, P, 0))
        return -1;
      return Dst;
    }
    case UnOpKind::Not: {
      int V = compileScalar(U->Operand);
      return V < 0 ? -1 : emitNot(V);
    }
    case UnOpKind::Neg: {
      const auto *P = dyn_cast<PrimType>(E->Ty);
      if (!P)
        return bail("negation of a non-primitive");
      int V = compileScalar(U->Operand);
      return V < 0 ? -1 : emitNeg(P->primKind(), V);
    }
    }
    return bail("unary operator");
  }
  case TerraNode::NK_BinOp:
    return compileBinOp(cast<BinOpExpr>(E), E);
  case TerraNode::NK_Cast:
    return compileCast(cast<CastExpr>(E));
  case TerraNode::NK_Apply: {
    int R = compileCall(cast<ApplyExpr>(E));
    return R == -2 ? bail("void call used as a value") : R;
  }
  case TerraNode::NK_Intrinsic: {
    const auto *N = cast<IntrinsicExpr>(E);
    switch (N->IK) {
    case IntrinsicKind::Sizeof: {
      if (!N->TyRef.Resolved)
        return bail("unresolved sizeof");
      int Dst = tempReg();
      if (Dst < 0)
        return -1;
      emit(Op::ConstI, static_cast<uint16_t>(Dst), 0, 0,
           static_cast<int64_t>(N->TyRef.Resolved->size()));
      return Dst;
    }
    case IntrinsicKind::Min:
    case IntrinsicKind::Max: {
      const auto *P = dyn_cast<PrimType>(E->Ty);
      if (!P || N->NumArgs != 2)
        return bail("min/max of non-primitives");
      int A = compileScalar(N->Args[0]);
      int B = compileScalar(N->Args[1]);
      if (A < 0 || B < 0)
        return -1;
      return emitMinMax(N->IK == IntrinsicKind::Min, P->primKind(), A, B);
    }
    case IntrinsicKind::Prefetch:
      // Evaluate the address for effect parity, then ignore (the VM has no
      // meaningful prefetch; the native backend lowers it for real).
      return compileScalar(N->Args[0]);
    }
    return bail("intrinsic");
  }
  default:
    return bail("scalar expression");
  }
}

bool BCCompiler::compileScalarInto(const TerraExpr *E, int Dst) {
  int R = compileScalar(E);
  if (R < 0 || Dst < 0)
    return false;
  if (R != Dst)
    emit(Op::Mov, static_cast<uint16_t>(Dst), static_cast<uint16_t>(R));
  return true;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool BCCompiler::storeToLValue(const TerraExpr *L, int Val) {
  if (Val < 0)
    return false;
  if (const auto *X = dyn_cast<IndexExpr>(L))
    if (const LocalInfo *LL = laneLocal(X->Base)) {
      int Lane = constLane(X->Idx, cast<VectorType>(LL->Ty)->length());
      if (Lane < 0)
        return bail("runtime index into register lanes") >= 0;
      if (LL->Reg + Lane != Val)
        emit(Op::Mov, static_cast<uint16_t>(LL->Reg + Lane),
             static_cast<uint16_t>(Val));
      return true;
    }
  if (const auto *V = dyn_cast<VarExpr>(L)) {
    auto It = Locals.find(V->Sym);
    if (It == Locals.end())
      return bail("undeclared local") >= 0;
    if (!It->second.InFrame) {
      if (It->second.Reg != Val)
        emit(Op::Mov, It->second.Reg, static_cast<uint16_t>(Val));
      return true;
    }
  }
  int A = compileAddr(L);
  if (A < 0)
    return false;
  return emitStore(L->Ty, A, 0, Val);
}

bool BCCompiler::compileBlock(const BlockStmt *B) {
  if (!B)
    return !Bailed;
  for (unsigned I = 0; I != B->NumStmts; ++I) {
    Mark M = mark();
    if (!compileStmt(B->Stmts[I]))
      return false;
    release(M);
  }
  return true;
}

bool BCCompiler::compileStmt(const TerraStmt *S) {
  if (Bailed)
    return false;
  CurLoc = S->loc();
  switch (S->kind()) {
  case TerraNode::NK_Block:
    return compileBlock(cast<BlockStmt>(S));
  case TerraNode::NK_VarDecl: {
    const auto *D = cast<VarDeclStmt>(S);
    for (unsigned I = 0; I != D->NumNames; ++I) {
      auto It = Locals.find(D->Names[I].Sym);
      if (It == Locals.end())
        return bail("undeclared local") >= 0;
      LocalInfo &L = It->second;
      Mark M = mark();
      if (I < D->NumInits) {
        if (!L.InFrame && L.Ty->isVector()) {
          Lanes V, Own = laneRegs(L);
          if (!compileLanes(D->Inits[I], V, &Own) || !moveLanes(L, V))
            return false;
        } else if (!L.InFrame) {
          if (!compileScalarInto(D->Inits[I], L.Reg))
            return false;
        } else if (isScalarTy(L.Ty)) {
          int V = compileScalar(D->Inits[I]);
          int A = tempReg();
          if (V < 0 || A < 0)
            return false;
          emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
          if (!emitStore(L.Ty, A, 0, V))
            return false;
        } else {
          int A = tempReg();
          if (A < 0)
            return false;
          emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
          if (!compileAggInto(D->Inits[I], A, L.Ty))
            return false;
        }
      } else {
        if (!L.InFrame) {
          uint64_t N =
              L.Ty->isVector() ? cast<VectorType>(L.Ty)->length() : 1;
          for (uint64_t K = 0; K != N; ++K)
            emit(Op::ConstI, static_cast<uint16_t>(L.Reg + K), 0, 0, 0);
        } else {
          int A = tempReg();
          if (A < 0)
            return false;
          emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
          emit(Op::MemZero, static_cast<uint16_t>(A), 0, 0,
               static_cast<int64_t>(L.Ty->size()));
        }
      }
      release(M);
    }
    return true;
  }
  case TerraNode::NK_Assign: {
    const auto *A = cast<AssignStmt>(S);
    if (A->NumLHS != A->NumRHS)
      return bail("assignment arity") >= 0;
    // Parallel semantics: all RHS evaluated into fresh temps before stores.
    struct RV {
      bool Scalar;
      int Reg;
      Lanes Vec; ///< Vector values stay in lane registers.
    };
    std::vector<RV> Vals;
    for (unsigned I = 0; I != A->NumRHS; ++I) {
      const TerraExpr *R = A->RHS[I];
      if (laneType(R->Ty)) {
        // A single store may write the destination lanes directly.
        const LocalInfo *Target =
            A->NumLHS == 1 ? laneLocal(A->LHS[0]) : nullptr;
        Lanes V, Own = Target ? laneRegs(*Target) : Lanes();
        if (!compileLanes(R, V, Target ? &Own : nullptr) ||
            (A->NumRHS > 1 && !detachLanes(V)))
          return false;
        Vals.push_back({false, -1, std::move(V)});
      } else if (isScalarTy(R->Ty)) {
        int T = tempReg();
        if (T < 0 || !compileScalarInto(R, T))
          return false;
        Vals.push_back({true, T, {}});
      } else {
        int V = compileAggValue(R);
        if (V < 0)
          return false;
        uint32_t Off = allocScratch(R->Ty->size());
        int T = tempReg();
        if (T < 0)
          return false;
        emit(Op::FrameAddr, static_cast<uint16_t>(T), 0, 0, Off);
        emit(Op::MemCpy, static_cast<uint16_t>(T), static_cast<uint16_t>(V),
             0, static_cast<int64_t>(R->Ty->size()));
        Vals.push_back({false, T, {}});
      }
    }
    for (unsigned I = 0; I != A->NumLHS; ++I) {
      const TerraExpr *L = A->LHS[I];
      if (!Vals[I].Vec.empty()) {
        if (const LocalInfo *LL = laneLocal(L)) {
          if (!moveLanes(*LL, Vals[I].Vec))
            return false;
        } else if (!storeLanes(cast<VectorType>(L->Ty), compileAddr(L),
                               Vals[I].Vec)) {
          return false;
        }
      } else if (Vals[I].Scalar) {
        if (!storeToLValue(L, Vals[I].Reg))
          return false;
      } else {
        int Addr = compileAddr(L);
        if (Addr < 0)
          return false;
        emit(Op::MemCpy, static_cast<uint16_t>(Addr),
             static_cast<uint16_t>(Vals[I].Reg), 0,
             static_cast<int64_t>(L->Ty->size()));
      }
    }
    return true;
  }
  case TerraNode::NK_If: {
    const auto *I2 = cast<IfStmt>(S);
    std::vector<size_t> EndJumps;
    for (unsigned K = 0; K != I2->NumClauses; ++K) {
      int C = compileScalar(I2->Conds[K]);
      if (C < 0)
        return false;
      size_t J = emit(Op::JmpIfFalse, static_cast<uint16_t>(C), 0, 0, -1);
      if (!compileBlock(I2->Blocks[K]))
        return false;
      EndJumps.push_back(emit(Op::Jmp, 0, 0, 0, -1));
      patch(J, here());
    }
    if (I2->ElseBlock && !compileBlock(I2->ElseBlock))
      return false;
    for (size_t J : EndJumps)
      patch(J, here());
    return true;
  }
  case TerraNode::NK_While: {
    const auto *W = cast<WhileStmt>(S);
    size_t Head = here();
    int C = compileScalar(W->Cond);
    if (C < 0)
      return false;
    size_t Exit = emit(Op::JmpIfFalse, static_cast<uint16_t>(C), 0, 0, -1);
    BreakStack.emplace_back();
    if (!compileBlock(W->Body))
      return false;
    emit(Op::JmpBack, 0, 0, 0, static_cast<int64_t>(Head));
    patch(Exit, here());
    for (size_t J : BreakStack.back())
      patch(J, here());
    BreakStack.pop_back();
    return true;
  }
  case TerraNode::NK_ForNum: {
    const auto *Fo = cast<ForNumStmt>(S);
    auto It = Locals.find(Fo->Var.Sym);
    if (It == Locals.end())
      return bail("undeclared 'for' variable") >= 0;
    LocalInfo &L = It->second;
    const auto *P = dyn_cast<PrimType>(L.Ty);
    if (!P)
      return bail("non-primitive 'for' variable") >= 0;
    PrimType::PrimKind PK = P->primKind();
    // The loop counts in int64. Lo/Hi/Step are typed as the loop variable:
    // integral registers already hold their int64 values; a float
    // variable counts on their truncated values and round-trips through
    // the variable each iteration, as the C backend does.
    bool FloatVar = isFloatPK(PK);
    Op ToVar = PK == PrimType::Float32 ? Op::I2F32 : Op::I2F;
    const auto *I64 = cast<PrimType>(Ctx.types().int64());
    auto CountInto = [&](const TerraExpr *X, int Dst) {
      if (!FloatVar)
        return compileScalarInto(X, Dst);
      int V = compileScalar(X);
      return V >= 0 && emitPrimCast(P, I64, V, Dst) >= 0;
    };

    int IReg = tempReg(), HiReg = tempReg(), StepReg = tempReg(),
        CondReg = tempReg();
    if (CondReg < 0)
      return false;
    if (!CountInto(Fo->Lo, IReg) || !CountInto(Fo->Hi, HiReg))
      return false;
    if (Fo->Step) {
      if (!CountInto(Fo->Step, StepReg))
        return false;
      emit(Op::TrapIfZero, static_cast<uint16_t>(StepReg), 0, 0,
           trapIdx("'for' step is zero", S->loc()));
    } else {
      emit(Op::ConstI, static_cast<uint16_t>(StepReg), 0, 0, 1);
    }

    size_t Head = here();
    emit(Op::ForCond, static_cast<uint16_t>(CondReg),
         static_cast<uint16_t>(IReg), static_cast<uint16_t>(HiReg), StepReg);
    size_t Exit = emit(Op::JmpIfFalse, static_cast<uint16_t>(CondReg), 0, 0,
                       -1);
    // Publish the canonical counter into the loop variable.
    if (!L.InFrame && FloatVar) {
      emit(ToVar, L.Reg, static_cast<uint16_t>(IReg));
    } else if (!L.InFrame) {
      emitWrapTo(PK, L.Reg, IReg);
    } else {
      Mark M = mark();
      int A = tempReg();
      int V = FloatVar ? tempReg() : IReg;
      if (A < 0 || V < 0)
        return false;
      if (FloatVar)
        emit(ToVar, static_cast<uint16_t>(V), static_cast<uint16_t>(IReg));
      emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
      if (!emitStore(L.Ty, A, 0, V))
        return false;
      release(M);
    }
    BreakStack.emplace_back();
    if (!compileBlock(Fo->Body))
      return false;
    // Reload (body may mutate the variable), then advance.
    if (!L.InFrame && !FloatVar) {
      emit(Op::AddI, static_cast<uint16_t>(IReg), L.Reg,
           static_cast<uint16_t>(StepReg));
    } else {
      Mark M = mark();
      int V = L.Reg;
      if (L.InFrame) {
        int A = tempReg();
        V = tempReg();
        if (V < 0)
          return false;
        emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
        if (!emitLoad(V, L.Ty, A, 0))
          return false;
      }
      if (FloatVar && (V = emitPrimCast(P, I64, V)) < 0)
        return false;
      emit(Op::AddI, static_cast<uint16_t>(IReg), static_cast<uint16_t>(V),
           static_cast<uint16_t>(StepReg));
      release(M);
    }
    emit(Op::JmpBack, 0, 0, 0, static_cast<int64_t>(Head));
    patch(Exit, here());
    for (size_t J : BreakStack.back())
      patch(J, here());
    BreakStack.pop_back();
    return true;
  }
  case TerraNode::NK_Return: {
    const auto *R = cast<ReturnStmt>(S);
    Type *RT = Src->FnTy->result();
    if (R->Val && RT && !RT->isVoid()) {
      int V = isScalarTy(RT) ? compileScalar(R->Val)
                             : compileAggValue(R->Val);
      if (V < 0)
        return false;
      emit(Op::RetVal, static_cast<uint16_t>(V));
    } else {
      emit(Op::Ret);
    }
    return true;
  }
  case TerraNode::NK_Break: {
    if (BreakStack.empty())
      return bail("'break' outside a loop") >= 0;
    BreakStack.back().push_back(emit(Op::Jmp, 0, 0, 0, -1));
    return true;
  }
  case TerraNode::NK_ExprStmt: {
    const TerraExpr *E = cast<ExprStmt>(S)->E;
    if (!E->Ty)
      return bail("untyped expression statement") >= 0;
    if (E->Ty->isVoid()) {
      if (const auto *A = dyn_cast<ApplyExpr>(E))
        return compileCall(A) != -1 && !Bailed;
      if (const auto *N = dyn_cast<IntrinsicExpr>(E))
        if (N->IK == IntrinsicKind::Prefetch && N->NumArgs >= 1)
          return compileScalar(N->Args[0]) >= 0;
      return bail("void expression statement") >= 0;
    }
    if (isScalarTy(E->Ty))
      return compileScalar(E) >= 0;
    return compileAggValue(E) >= 0;
  }
  default:
    return bail("unexpected statement") >= 0;
  }
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::shared_ptr<const Function> BCCompiler::run() {
  if (!Src->Body || !Src->FnTy || Src->IsExtern || Src->HostClosure)
    return nullptr;

  Prepass Pre;
  for (unsigned I = 0; I != Src->NumParams; ++I)
    Pre.declare(Src->Params[I], Src->Body->loc());
  Pre.walkStmt(Src->Body);
  if (Pre.Bailed) {
    Why = Pre.Why;
    return nullptr;
  }

  // Assign storage: scalars and vectors that never have their address
  // taken live in registers (one per lane) while the persistent budget
  // lasts; everything else lives in the byte-addressed frame.
  for (auto &D : Pre.Decls) {
    if (Locals.count(D.first))
      continue;
    LocalInfo L;
    L.Ty = D.first->DeclaredType;
    bool Vec = laneType(L.Ty) != nullptr;
    uint64_t N = Vec ? cast<VectorType>(L.Ty)->length() : 1;
    if ((isScalarTy(L.Ty) || Vec) && !Pre.AddrTaken.count(D.first) &&
        PersistentRegs + N <= MaxPersistentRegs) {
      L.Reg = PersistentRegs;
      PersistentRegs += static_cast<uint16_t>(N);
    } else {
      L.InFrame = true;
      CurLoc = D.second; // The frame-cap bail site.
      L.FrameOff = allocScratch(L.Ty->size());
    }
    Locals[D.first] = L;
  }
  // Everything allocated so far is persistent; scratch goes above it.
  RegTop = RegMax = PersistentRegs;
  FrameMax = FrameTop;

  Out.Src = Src;
  Out.Name = Src->Name;
  for (unsigned I = 0; I != Src->NumParams; ++I) {
    const LocalInfo &L = Locals[Src->Params[I]];
    Function::Param P;
    P.Ty = Src->Params[I]->DeclaredType;
    P.InFrame = L.InFrame;
    P.Reg = L.Reg;
    P.FrameOff = L.FrameOff;
    if (!L.InFrame && P.Ty->isVector()) {
      // Vector arguments arrive in the frame; load them into their lanes.
      P.InFrame = true;
      P.FrameOff = allocScratch(P.Ty->size());
      Mark M = mark();
      Lanes V, Own = laneRegs(L);
      int A = tempReg();
      if (A < 0)
        return nullptr;
      emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, P.FrameOff);
      if (!loadLanes(cast<VectorType>(P.Ty), A, V, &Own))
        return nullptr;
      release(M);
    }
    Out.Params.push_back(P);
  }
  Type *RT = Src->FnTy->result();
  if (RT && !RT->isVoid()) {
    Out.Ret = isScalarTy(RT) ? retKindOf(RT) : RetKind::Agg;
    Out.RetBytes = static_cast<uint32_t>(RT->size());
  }

  if (!compileBlock(Src->Body) || Bailed)
    return nullptr;
  if (RT && !RT->isVoid()) {
    emit(Op::Trap, 0, 0, 0,
         trapIdx("control reached end of non-void function '" + Src->Name +
                     "'",
                 Src->Body->loc()));
  } else {
    emit(Op::Ret);
  }

  Out.NumRegs = RegMax;
  Out.FrameBytes = FrameMax;
  return std::make_shared<const Function>(std::move(Out));
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

namespace terracpp {
namespace bytecode {

const char *opName(Op O) {
  static const char *Names[] = {
#define TERRACPP_BYTECODE_NAME(N) #N,
      TERRACPP_BYTECODE_OPS(TERRACPP_BYTECODE_NAME)
#undef TERRACPP_BYTECODE_NAME
  };
  unsigned I = static_cast<unsigned>(O);
  return I < NumOps ? Names[I] : "<bad-op>";
}

std::shared_ptr<const Function> compile(TerraContext &Ctx,
                                        const TerraFunction *F,
                                        BailSite *Why) {
  BCCompiler C(Ctx, F);
  std::shared_ptr<const Function> Out = C.run();
  if (!Out && Why)
    *Why = C.Why;
  return Out;
}

std::string disassemble(const Function &F) {
  std::ostringstream OS;
  OS << "function " << F.Name << ": regs=" << F.NumRegs
     << " frame=" << F.FrameBytes << " insns=" << F.Code.size() << "\n";
  for (size_t I = 0; I != F.Code.size(); ++I) {
    const Insn &In = F.Code[I];
    OS << "  " << I << ":\t" << opName(In.Code) << "\tA=" << In.A
       << " B=" << In.B << " C=" << In.C << " Imm=" << In.Imm;
    if (In.Code == Op::Call &&
        static_cast<size_t>(In.Imm) < F.Calls.size()) {
      const CallSite &CS = F.Calls[In.Imm];
      OS << " ; call ";
      if (CS.Callee)
        OS << CS.Callee->Name;
      else
        OS << "*r" << CS.CalleeReg; // Indirect: the function value's register.
      OS << "/" << CS.Args.size();
    }
    if ((In.Code == Op::Trap || In.Code == Op::TrapIfNull ||
         In.Code == Op::TrapIfZero || In.Code == Op::TrapIfShiftGE) &&
        static_cast<size_t>(In.Imm) < F.Traps.size())
      OS << " ; \"" << F.Traps[In.Imm].first << "\"";
    OS << "\n";
  }
  return OS.str();
}

} // namespace bytecode
} // namespace terracpp
