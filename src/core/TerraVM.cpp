//===- TerraVM.cpp - Tier-0 register bytecode interpreter -----------------===//

#include "core/TerraVM.h"

#include "core/TerraAST.h"
#include "core/TerraCompiler.h"
#include "core/TerraType.h"

#include <cstring>
#include <memory>

// Computed-goto dispatch wants the GCC/Clang labels-as-values extension;
// everything else falls back to a for/switch loop with identical handlers.
#if defined(__GNUC__) || defined(__clang__)
#define TERRACPP_VM_CGOTO 1
#endif

using namespace terracpp;
using namespace terracpp::bytecode;

namespace {

template <typename T> inline T ld(const void *P) {
  T V;
  memcpy(&V, P, sizeof(T));
  return V;
}
template <typename T> inline void st(void *P, T V) { memcpy(P, &V, sizeof(T)); }

inline uint8_t *addr(const Slot &Base, int64_t Off) {
  return static_cast<uint8_t *>(Base.P) + Off;
}

bool fail(vm::ExecEnv &S, SourceLoc Loc, const std::string &Msg) {
  if (!S.Failed)
    S.Ctx.diags().error(Loc, "terra interpreter: " + Msg);
  S.Failed = true;
  return false;
}

/// Canonicalizes the FFI bytes at \p Src (C layout of \p Ty) into a register
/// slot: integers widen to int64/uint64, floats stay in their own width.
bool loadCanonical(Slot &Dst, const Type *Ty, const void *Src) {
  if (Ty->isPointer() || Ty->isFunction()) {
    memcpy(&Dst.P, Src, sizeof(void *));
    return true;
  }
  const auto *P = dyn_cast<PrimType>(Ty);
  if (!P)
    return false;
  switch (P->primKind()) {
  case PrimType::Bool:
    Dst.U = ld<uint8_t>(Src) ? 1 : 0;
    return true;
  case PrimType::Int8:
    Dst.I = ld<int8_t>(Src);
    return true;
  case PrimType::Int16:
    Dst.I = ld<int16_t>(Src);
    return true;
  case PrimType::Int32:
    Dst.I = ld<int32_t>(Src);
    return true;
  case PrimType::Int64:
    Dst.I = ld<int64_t>(Src);
    return true;
  case PrimType::UInt8:
    Dst.U = ld<uint8_t>(Src);
    return true;
  case PrimType::UInt16:
    Dst.U = ld<uint16_t>(Src);
    return true;
  case PrimType::UInt32:
    Dst.U = ld<uint32_t>(Src);
    return true;
  case PrimType::UInt64:
    Dst.U = ld<uint64_t>(Src);
    return true;
  case PrimType::Float32:
    Dst.F = ld<float>(Src);
    return true;
  case PrimType::Float64:
    Dst.D = ld<double>(Src);
    return true;
  case PrimType::Void:
    return false;
  }
  return false;
}

/// Moves a call result staged at \p Src (C layout) into \p Dst canonically.
void loadRet(Slot &Dst, RetKind K, const void *Src) {
  switch (K) {
  case RetKind::I8:
    Dst.I = ld<int8_t>(Src);
    return;
  case RetKind::I16:
    Dst.I = ld<int16_t>(Src);
    return;
  case RetKind::I32:
    Dst.I = ld<int32_t>(Src);
    return;
  case RetKind::I64:
    Dst.I = ld<int64_t>(Src);
    return;
  case RetKind::U8:
    Dst.U = ld<uint8_t>(Src);
    return;
  case RetKind::U16:
    Dst.U = ld<uint16_t>(Src);
    return;
  case RetKind::U32:
    Dst.U = ld<uint32_t>(Src);
    return;
  case RetKind::U64:
    Dst.U = ld<uint64_t>(Src);
    return;
  case RetKind::Bool:
    Dst.U = ld<uint8_t>(Src) ? 1 : 0;
    return;
  case RetKind::F32:
    Dst.F = ld<float>(Src);
    return;
  case RetKind::F64:
    Dst.D = ld<double>(Src);
    return;
  case RetKind::Ptr:
    memcpy(&Dst.P, Src, sizeof(void *));
    return;
  case RetKind::None:
  case RetKind::Agg:
    return;
  }
}

/// Writes the function result from its canonical slot through the FFI Ret
/// pointer with the exact size and layout of the declared return type.
void writeRet(const Function &F, const Slot &V, void *Ret) {
  if (!Ret)
    return;
  switch (F.Ret) {
  case RetKind::None:
    return;
  case RetKind::I8:
    st<int8_t>(Ret, static_cast<int8_t>(V.I));
    return;
  case RetKind::I16:
    st<int16_t>(Ret, static_cast<int16_t>(V.I));
    return;
  case RetKind::I32:
    st<int32_t>(Ret, static_cast<int32_t>(V.I));
    return;
  case RetKind::I64:
    st<int64_t>(Ret, V.I);
    return;
  case RetKind::U8:
    st<uint8_t>(Ret, static_cast<uint8_t>(V.U));
    return;
  case RetKind::U16:
    st<uint16_t>(Ret, static_cast<uint16_t>(V.U));
    return;
  case RetKind::U32:
    st<uint32_t>(Ret, static_cast<uint32_t>(V.U));
    return;
  case RetKind::U64:
    st<uint64_t>(Ret, V.U);
    return;
  case RetKind::Bool:
    st<uint8_t>(Ret, V.U ? 1 : 0);
    return;
  case RetKind::F32:
    st<float>(Ret, V.F);
    return;
  case RetKind::F64:
    st<double>(Ret, V.D);
    return;
  case RetKind::Ptr:
    memcpy(Ret, &V.P, sizeof(void *));
    return;
  case RetKind::Agg:
    memcpy(Ret, V.P, F.RetBytes);
    return;
  }
}

bool runOne(const Function &F, void **Args, void *Ret, vm::ExecEnv &S);

/// One out-of-line call. Stages argument pointers in FFI convention in the
/// call site's frame scratch (scalars point at their canonical slot — the
/// low bytes are the C layout of every scalar type on a little-endian host;
/// aggregates pass their address), picks the fastest engine that can run
/// the callee, and canonicalizes the scalar result back into the
/// destination register.
bool doCall(const CallSite &CS, Slot *R, uint8_t *Frame, vm::ExecEnv &S) {
  void **ArgPtrs = vm::stageCallArgs(CS, R, Frame);
  void *RetPtr = (CS.RetTy && !CS.RetTy->isVoid()) ? Frame + CS.RetFrameOff
                                                   : nullptr;
  auto *Callee = const_cast<TerraFunction *>(CS.Callee);
  if (!Callee) {
    // Indirect call: the function value is the TerraFunction itself, or a
    // machine address under tiered execution that maps back to it.
    void *V = R[CS.CalleeReg].P;
    if (!V)
      return fail(S, CS.Loc, "null function pointer call");
    Callee = S.Comp.tierManager() ? S.Comp.functionForRawPtr(V)
                                  : static_cast<TerraFunction *>(V);
    if (!Callee)
      return fail(S, CS.Loc,
                  "call through unknown function pointer in interpreter");
  }
  if (Callee->IsExtern) {
    Callee->Extern->Invoke(Callee->Extern->Addr, ArgPtrs, CS.ArgTypes, RetPtr);
  } else if (Callee->HostClosure) {
    if (!S.Comp.invokeHostClosure(Callee->HostClosureId, ArgPtrs, RetPtr)) {
      // The host side already reported the failure; add no diagnostic.
      S.Failed = true;
      return false;
    }
  } else if (Callee->Bytecode && !Callee->Tier) {
    // Pure tier-0 callee: recurse directly, sharing the depth budget.
    if (!runOne(*Callee->Bytecode, ArgPtrs, RetPtr, S))
      return false;
  } else {
    // Tiered functions go through their dispatcher Entry so call counting
    // and native promotion see every call; functions reached through
    // function-pointer values compile lazily first. Entry thunks signal
    // failure through diagnostics, not a return value.
    if (!Callee->Entry && !S.Comp.ensureCompiled(Callee)) {
      S.Failed = true;
      return false;
    }
    if (!Callee->Entry)
      return fail(S, CS.Loc,
                  "function '" + Callee->Name + "' has no entry point");
    unsigned Before = S.Ctx.diags().errorCount();
    Callee->Entry(ArgPtrs, RetPtr);
    if (S.Ctx.diags().errorCount() != Before) {
      S.Failed = true;
      return false;
    }
  }
  if (CS.DstReg != 0xFFFF && RetPtr)
    loadRet(R[CS.DstReg], CS.RetLoad, RetPtr);
  return true;
}

bool runOne(const Function &F, void **Args, void *Ret, vm::ExecEnv &S) {
  vm::CallDepthScope DepthScope;
  if (DepthScope.exceeded())
    return vm::failStackOverflow(S);

  // One allocation per invocation: registers, then the 32-aligned frame.
  size_t RegBytes = static_cast<size_t>(F.NumRegs) * sizeof(Slot);
  size_t Bytes = RegBytes + F.FrameBytes + 64;
  std::unique_ptr<uint8_t[]> Buf(new uint8_t[Bytes]);
  memset(Buf.get(), 0, Bytes);
  Slot *R = reinterpret_cast<Slot *>(Buf.get());
  uint8_t *Frame = reinterpret_cast<uint8_t *>(
      (reinterpret_cast<uintptr_t>(Buf.get() + RegBytes) + 31) &
      ~static_cast<uintptr_t>(31));

  for (size_t I = 0, N = F.Params.size(); I != N; ++I) {
    const Function::Param &P = F.Params[I];
    if (P.InFrame) {
      memcpy(Frame + P.FrameOff, Args[I], P.Ty->size());
    } else if (!loadCanonical(R[P.Reg], P.Ty, Args[I])) {
      return fail(S, SourceLoc(), "unsupported parameter type in VM");
    }
  }

  const Insn *Code = F.Code.data();
  const Insn *pc = Code;
  uint64_t BackEdges = 0;
  int64_t TrapAt = -1;

#define VM_RETURN(V)                                                          \
  do {                                                                        \
    S.BackEdges += BackEdges;                                                 \
    return (V);                                                               \
  } while (0)
#define VM_TRAP(Idx)                                                          \
  do {                                                                        \
    TrapAt = (Idx);                                                           \
    goto trap_exit;                                                           \
  } while (0)

#ifdef TERRACPP_VM_CGOTO
  static const void *JumpTable[] = {
#define TERRACPP_VM_LABEL(N) &&L_##N,
      TERRACPP_BYTECODE_OPS(TERRACPP_VM_LABEL)
#undef TERRACPP_VM_LABEL
  };
#define VM_CASE(N) L_##N
#define VM_DISPATCH() goto *JumpTable[static_cast<unsigned>(pc->Code)]
#define VM_NEXT                                                               \
  do {                                                                        \
    ++pc;                                                                     \
    VM_DISPATCH();                                                            \
  } while (0)
#define VM_JUMP(T)                                                            \
  do {                                                                        \
    pc = Code + (T);                                                          \
    VM_DISPATCH();                                                            \
  } while (0)
  VM_DISPATCH();
#else
#define VM_CASE(N) case Op::N
#define VM_NEXT                                                               \
  do {                                                                        \
    ++pc;                                                                     \
    goto next_insn;                                                           \
  } while (0)
#define VM_JUMP(T)                                                            \
  do {                                                                        \
    pc = Code + (T);                                                          \
    goto next_insn;                                                           \
  } while (0)
next_insn:
  switch (pc->Code) {
#endif

  VM_CASE(ConstI) : R[pc->A].I = pc->Imm;
  VM_NEXT;
  VM_CASE(ConstF) : memcpy(&R[pc->A].D, &pc->Imm, 8);
  VM_NEXT;
  VM_CASE(ConstF32) : memcpy(&R[pc->A].F, &pc->Imm, 4);
  VM_NEXT;
  VM_CASE(ConstP) : R[pc->A].P =
      reinterpret_cast<void *>(static_cast<uintptr_t>(pc->Imm));
  VM_NEXT;
  VM_CASE(FnLit) : {
    auto *Fn =
        reinterpret_cast<TerraFunction *>(static_cast<uintptr_t>(pc->Imm));
    if (S.Comp.tierManager()) {
      // Tiered execution: a materialized function value is a machine
      // address everywhere (native code may call the same bits), so taking
      // the value promotes the function.
      void *P = S.Comp.nativePointer(Fn);
      if (!P) {
        fail(S, SourceLoc(),
             "cannot take the address of function '" + Fn->Name + "'");
        VM_RETURN(false);
      }
      R[pc->A].P = P;
    } else {
      R[pc->A].P = Fn;
    }
  }
  VM_NEXT;
  VM_CASE(Mov) : R[pc->A] = R[pc->B];
  VM_NEXT;
  VM_CASE(FrameAddr) : R[pc->A].P = Frame + pc->Imm;
  VM_NEXT;

  VM_CASE(AddI) : R[pc->A].U = R[pc->B].U + R[pc->C].U;
  VM_NEXT;
  VM_CASE(SubI) : R[pc->A].U = R[pc->B].U - R[pc->C].U;
  VM_NEXT;
  VM_CASE(MulI) : R[pc->A].U = R[pc->B].U * R[pc->C].U;
  VM_NEXT;
  // Division is unguarded: the compiler emits a TrapIfZero on the divisor
  // register first, unless interval analysis proved the divisor nonzero.
  VM_CASE(DivI) : R[pc->A].I = R[pc->B].I / R[pc->C].I;
  VM_NEXT;
  VM_CASE(ModI) : R[pc->A].I = R[pc->B].I % R[pc->C].I;
  VM_NEXT;
  VM_CASE(DivU) : R[pc->A].U = R[pc->B].U / R[pc->C].U;
  VM_NEXT;
  VM_CASE(ModU) : R[pc->A].U = R[pc->B].U % R[pc->C].U;
  VM_NEXT;
  // Shifts mask the amount to the slot width: amounts >= the static type's
  // width trap via the preceding TrapIfShiftGE, so the mask only shields the
  // host from UB, it never changes a defined result.
  VM_CASE(ShlI) : R[pc->A].U = R[pc->B].U << (R[pc->C].U & 63);
  VM_NEXT;
  VM_CASE(ShrI) : R[pc->A].I = R[pc->B].I >> (R[pc->C].U & 63);
  VM_NEXT;
  VM_CASE(ShrU) : R[pc->A].U = R[pc->B].U >> (R[pc->C].U & 63);
  VM_NEXT;
  VM_CASE(NegI) : R[pc->A].U = 0 - R[pc->B].U;
  VM_NEXT;

  VM_CASE(AddF) : R[pc->A].D = R[pc->B].D + R[pc->C].D;
  VM_NEXT;
  VM_CASE(SubF) : R[pc->A].D = R[pc->B].D - R[pc->C].D;
  VM_NEXT;
  VM_CASE(MulF) : R[pc->A].D = R[pc->B].D * R[pc->C].D;
  VM_NEXT;
  VM_CASE(DivF) : R[pc->A].D = R[pc->B].D / R[pc->C].D;
  VM_NEXT;
  VM_CASE(NegF) : R[pc->A].D = -R[pc->B].D;
  VM_NEXT;
  VM_CASE(AddF32) : R[pc->A].F = R[pc->B].F + R[pc->C].F;
  VM_NEXT;
  VM_CASE(SubF32) : R[pc->A].F = R[pc->B].F - R[pc->C].F;
  VM_NEXT;
  VM_CASE(MulF32) : R[pc->A].F = R[pc->B].F * R[pc->C].F;
  VM_NEXT;
  VM_CASE(DivF32) : R[pc->A].F = R[pc->B].F / R[pc->C].F;
  VM_NEXT;
  VM_CASE(NegF32) : R[pc->A].F = -R[pc->B].F;
  VM_NEXT;

  VM_CASE(NotB) : R[pc->A].U = R[pc->B].U ? 0 : 1;
  VM_NEXT;
  VM_CASE(LtI) : R[pc->A].U = R[pc->B].I < R[pc->C].I;
  VM_NEXT;
  VM_CASE(LeI) : R[pc->A].U = R[pc->B].I <= R[pc->C].I;
  VM_NEXT;
  VM_CASE(GtI) : R[pc->A].U = R[pc->B].I > R[pc->C].I;
  VM_NEXT;
  VM_CASE(GeI) : R[pc->A].U = R[pc->B].I >= R[pc->C].I;
  VM_NEXT;
  VM_CASE(LtU) : R[pc->A].U = R[pc->B].U < R[pc->C].U;
  VM_NEXT;
  VM_CASE(LeU) : R[pc->A].U = R[pc->B].U <= R[pc->C].U;
  VM_NEXT;
  VM_CASE(GtU) : R[pc->A].U = R[pc->B].U > R[pc->C].U;
  VM_NEXT;
  VM_CASE(GeU) : R[pc->A].U = R[pc->B].U >= R[pc->C].U;
  VM_NEXT;
  VM_CASE(EqI) : R[pc->A].U = R[pc->B].U == R[pc->C].U;
  VM_NEXT;
  VM_CASE(NeI) : R[pc->A].U = R[pc->B].U != R[pc->C].U;
  VM_NEXT;
  VM_CASE(LtF) : R[pc->A].U = R[pc->B].D < R[pc->C].D;
  VM_NEXT;
  VM_CASE(LeF) : R[pc->A].U = R[pc->B].D <= R[pc->C].D;
  VM_NEXT;
  VM_CASE(GtF) : R[pc->A].U = R[pc->B].D > R[pc->C].D;
  VM_NEXT;
  VM_CASE(GeF) : R[pc->A].U = R[pc->B].D >= R[pc->C].D;
  VM_NEXT;
  VM_CASE(EqF) : R[pc->A].U = R[pc->B].D == R[pc->C].D;
  VM_NEXT;
  VM_CASE(NeF) : R[pc->A].U = R[pc->B].D != R[pc->C].D;
  VM_NEXT;
  VM_CASE(LtF32) : R[pc->A].U = R[pc->B].F < R[pc->C].F;
  VM_NEXT;
  VM_CASE(LeF32) : R[pc->A].U = R[pc->B].F <= R[pc->C].F;
  VM_NEXT;
  VM_CASE(GtF32) : R[pc->A].U = R[pc->B].F > R[pc->C].F;
  VM_NEXT;
  VM_CASE(GeF32) : R[pc->A].U = R[pc->B].F >= R[pc->C].F;
  VM_NEXT;
  VM_CASE(EqF32) : R[pc->A].U = R[pc->B].F == R[pc->C].F;
  VM_NEXT;
  VM_CASE(NeF32) : R[pc->A].U = R[pc->B].F != R[pc->C].F;
  VM_NEXT;

  VM_CASE(MinI) : R[pc->A].I =
      R[pc->B].I < R[pc->C].I ? R[pc->B].I : R[pc->C].I;
  VM_NEXT;
  VM_CASE(MaxI) : R[pc->A].I =
      R[pc->B].I > R[pc->C].I ? R[pc->B].I : R[pc->C].I;
  VM_NEXT;
  VM_CASE(MinU) : R[pc->A].U =
      R[pc->B].U < R[pc->C].U ? R[pc->B].U : R[pc->C].U;
  VM_NEXT;
  VM_CASE(MaxU) : R[pc->A].U =
      R[pc->B].U > R[pc->C].U ? R[pc->B].U : R[pc->C].U;
  VM_NEXT;
  VM_CASE(MinF) : R[pc->A].D =
      R[pc->B].D < R[pc->C].D ? R[pc->B].D : R[pc->C].D;
  VM_NEXT;
  VM_CASE(MaxF) : R[pc->A].D =
      R[pc->B].D > R[pc->C].D ? R[pc->B].D : R[pc->C].D;
  VM_NEXT;
  VM_CASE(MinF32) : R[pc->A].F =
      R[pc->B].F < R[pc->C].F ? R[pc->B].F : R[pc->C].F;
  VM_NEXT;
  VM_CASE(MaxF32) : R[pc->A].F =
      R[pc->B].F > R[pc->C].F ? R[pc->B].F : R[pc->C].F;
  VM_NEXT;

  VM_CASE(WrapI8) : R[pc->A].I = static_cast<int8_t>(R[pc->B].U);
  VM_NEXT;
  VM_CASE(WrapI16) : R[pc->A].I = static_cast<int16_t>(R[pc->B].U);
  VM_NEXT;
  VM_CASE(WrapI32) : R[pc->A].I = static_cast<int32_t>(R[pc->B].U);
  VM_NEXT;
  VM_CASE(WrapU8) : R[pc->A].U = static_cast<uint8_t>(R[pc->B].U);
  VM_NEXT;
  VM_CASE(WrapU16) : R[pc->A].U = static_cast<uint16_t>(R[pc->B].U);
  VM_NEXT;
  VM_CASE(WrapU32) : R[pc->A].U = static_cast<uint32_t>(R[pc->B].U);
  VM_NEXT;
  VM_CASE(WrapBool) : R[pc->A].U = R[pc->B].U != 0;
  VM_NEXT;
  VM_CASE(I2F) : R[pc->A].D = static_cast<double>(R[pc->B].I);
  VM_NEXT;
  VM_CASE(I2F32) : R[pc->A].F = static_cast<float>(R[pc->B].I);
  VM_NEXT;
  VM_CASE(F2I8) : R[pc->A].I = static_cast<int8_t>(R[pc->B].D);
  VM_NEXT;
  VM_CASE(F2I16) : R[pc->A].I = static_cast<int16_t>(R[pc->B].D);
  VM_NEXT;
  VM_CASE(F2I32) : R[pc->A].I = static_cast<int32_t>(R[pc->B].D);
  VM_NEXT;
  VM_CASE(F2I64) : R[pc->A].I = static_cast<int64_t>(R[pc->B].D);
  VM_NEXT;
  VM_CASE(F2U8) : R[pc->A].U = static_cast<uint8_t>(R[pc->B].D);
  VM_NEXT;
  VM_CASE(F2U16) : R[pc->A].U = static_cast<uint16_t>(R[pc->B].D);
  VM_NEXT;
  VM_CASE(F2U32) : R[pc->A].U = static_cast<uint32_t>(R[pc->B].D);
  VM_NEXT;
  VM_CASE(F2U64) : R[pc->A].U = static_cast<uint64_t>(R[pc->B].D);
  VM_NEXT;
  VM_CASE(F2Bool) : R[pc->A].U = R[pc->B].D != 0;
  VM_NEXT;
  VM_CASE(F32ToF) : R[pc->A].D = static_cast<double>(R[pc->B].F);
  VM_NEXT;
  VM_CASE(FToF32) : R[pc->A].F = static_cast<float>(R[pc->B].D);
  VM_NEXT;

  VM_CASE(LdI8) : R[pc->A].I = ld<int8_t>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdI16) : R[pc->A].I = ld<int16_t>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdI32) : R[pc->A].I = ld<int32_t>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdI64) : R[pc->A].I = ld<int64_t>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdU8) : R[pc->A].U = ld<uint8_t>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdU16) : R[pc->A].U = ld<uint16_t>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdU32) : R[pc->A].U = ld<uint32_t>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdU64) : R[pc->A].U = ld<uint64_t>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdF32) : R[pc->A].F = ld<float>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdF64) : R[pc->A].D = ld<double>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(LdP) : R[pc->A].P = ld<void *>(addr(R[pc->B], pc->Imm));
  VM_NEXT;
  VM_CASE(StI8) : st<uint8_t>(addr(R[pc->A], pc->Imm),
                              static_cast<uint8_t>(R[pc->B].U));
  VM_NEXT;
  VM_CASE(StI16) : st<uint16_t>(addr(R[pc->A], pc->Imm),
                                static_cast<uint16_t>(R[pc->B].U));
  VM_NEXT;
  VM_CASE(StI32) : st<uint32_t>(addr(R[pc->A], pc->Imm),
                                static_cast<uint32_t>(R[pc->B].U));
  VM_NEXT;
  VM_CASE(StI64) : st<uint64_t>(addr(R[pc->A], pc->Imm), R[pc->B].U);
  VM_NEXT;
  VM_CASE(StF32) : st<float>(addr(R[pc->A], pc->Imm), R[pc->B].F);
  VM_NEXT;
  VM_CASE(StF64) : st<double>(addr(R[pc->A], pc->Imm), R[pc->B].D);
  VM_NEXT;
  VM_CASE(StP) : st<void *>(addr(R[pc->A], pc->Imm), R[pc->B].P);
  VM_NEXT;
  VM_CASE(MemCpy) : memcpy(R[pc->A].P, R[pc->B].P,
                           static_cast<size_t>(pc->Imm));
  VM_NEXT;
  VM_CASE(MemZero) : memset(R[pc->A].P, 0, static_cast<size_t>(pc->Imm));
  VM_NEXT;

  VM_CASE(PtrAdd) : R[pc->A].P =
      static_cast<uint8_t *>(R[pc->B].P) + R[pc->C].I * pc->Imm;
  VM_NEXT;
  VM_CASE(PtrSub) : R[pc->A].P =
      static_cast<uint8_t *>(R[pc->B].P) - R[pc->C].I * pc->Imm;
  VM_NEXT;
  VM_CASE(PtrDiff) : R[pc->A].I =
      (static_cast<uint8_t *>(R[pc->B].P) -
       static_cast<uint8_t *>(R[pc->C].P)) /
      pc->Imm;
  VM_NEXT;
  VM_CASE(PtrAddImm) : R[pc->A].P =
      static_cast<uint8_t *>(R[pc->B].P) + pc->Imm;
  VM_NEXT;

  VM_CASE(TrapIfNull) : if (!R[pc->A].P) VM_TRAP(pc->Imm);
  VM_NEXT;
  VM_CASE(TrapIfZero) : if (R[pc->A].I == 0) VM_TRAP(pc->Imm);
  VM_NEXT;
  VM_CASE(TrapIfShiftGE) : if (R[pc->A].U >= pc->B) VM_TRAP(pc->Imm);
  VM_NEXT;
  VM_CASE(ForCond) : R[pc->A].U = R[pc->Imm].I > 0
                                      ? R[pc->B].I < R[pc->C].I
                                      : R[pc->B].I > R[pc->C].I;
  VM_NEXT;

  VM_CASE(Jmp) : VM_JUMP(pc->Imm);
  VM_CASE(JmpIfFalse) : if (!R[pc->A].U) VM_JUMP(pc->Imm);
  VM_NEXT;
  VM_CASE(JmpIfTrue) : if (R[pc->A].U) VM_JUMP(pc->Imm);
  VM_NEXT;
  VM_CASE(JmpBack) : ++BackEdges;
  VM_JUMP(pc->Imm);

  VM_CASE(Call) : if (!doCall(F.Calls[pc->Imm], R, Frame, S))
      VM_RETURN(false);
  VM_NEXT;
  VM_CASE(Ret) : VM_RETURN(true);
  VM_CASE(RetVal) : if (F.Ret == RetKind::Agg) {
    if (Ret)
      memcpy(Ret, R[pc->A].P, F.RetBytes);
  }
  else writeRet(F, R[pc->A], Ret);
  VM_RETURN(true);
  VM_CASE(Trap) : VM_TRAP(pc->Imm);

#ifndef TERRACPP_VM_CGOTO
  }
  // Unreachable: every opcode either advances via goto or returns.
  VM_RETURN(false);
#endif

trap_exit:
  S.BackEdges += BackEdges;
  const auto &T = F.Traps[static_cast<size_t>(TrapAt)];
  return fail(S, T.second, T.first);

#undef VM_CASE
#undef VM_NEXT
#undef VM_JUMP
#undef VM_DISPATCH
#undef VM_TRAP
#undef VM_RETURN
}

} // namespace

namespace terracpp {
namespace vm {

unsigned &callDepth() {
  static thread_local unsigned Depth = 0;
  return Depth;
}

void **stageCallArgs(const bytecode::CallSite &CS, bytecode::Slot *R,
                     uint8_t *Frame) {
  auto **ArgPtrs = reinterpret_cast<void **>(Frame + CS.ArgsFrameOff);
  for (size_t I = 0, N = CS.Args.size(); I != N; ++I) {
    const CallSite::Arg &A = CS.Args[I];
    ArgPtrs[I] = A.ByAddr ? R[A.Reg].P : static_cast<void *>(&R[A.Reg]);
  }
  return ArgPtrs;
}

bool failStackOverflow(ExecEnv &Env) {
  return fail(Env, SourceLoc(), "terra call stack overflow in interpreter");
}

bool run(const bytecode::Function &F, void **Args, void *Ret, ExecEnv &Env) {
  return runOne(F, Args, Ret, Env);
}

bool execCallSite(const bytecode::Function &F, uint64_t Idx,
                  bytecode::Slot *R, uint8_t *Frame, ExecEnv &Env) {
  return doCall(F.Calls[static_cast<size_t>(Idx)], R, Frame, Env);
}

void execTrap(const bytecode::Function &F, uint64_t Idx, ExecEnv &Env) {
  const auto &T = F.Traps[static_cast<size_t>(Idx)];
  fail(Env, T.second, T.first);
}

bool execFnLit(TerraFunction *Fn, bytecode::Slot &Dst, ExecEnv &Env) {
  if (Env.Comp.tierManager()) {
    void *P = Env.Comp.nativePointer(Fn);
    if (!P)
      return fail(Env, SourceLoc(),
                  "cannot take the address of function '" + Fn->Name + "'");
    Dst.P = P;
  } else {
    Dst.P = Fn;
  }
  return true;
}

void loadCallResult(bytecode::Slot &Dst, bytecode::RetKind K,
                    const void *Src) {
  loadRet(Dst, K, Src);
}

} // namespace vm
} // namespace terracpp
