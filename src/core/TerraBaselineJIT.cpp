//===- TerraBaselineJIT.cpp - Tier-0.5 x86-64 template JIT ----------------===//
//
// One-pass emission from register bytecode to x86-64. The compiled frame:
//
//   [rsp + 0            .. FrameRound)   byte-addressed frame (32-aligned)
//   [rsp + FrameRound   .. +8*NumRegs)   Slot register file R
//   [rsp + ZeroBytes    .. +24)          saved Args / Ret / Env pointers
//
// rsp is 32-aligned for the whole body (so every call site satisfies the
// SysV 16-byte rule), rbp links the caller frame for the epilogue, rbx
// counts loop back edges (the promotion profile signal, returned in rax),
// and the four most-referenced virtual registers are pinned in r12-r15 with
// their memory slots as spill homes. Everything that is not straight-line
// arithmetic — calls, traps, function literals, memcpy — goes through the
// extern "C" helpers below into the same VM routines the interpreter uses,
// which is what keeps trap messages, source locations, and FFI dispatch
// bit-identical across tiers.
//
//===----------------------------------------------------------------------===//

#include "core/TerraBaselineJIT.h"

#include "core/Assembler.h"
#include "core/TerraAST.h"
#include "core/TerraCompiler.h"
#include "core/TerraType.h"
#include "core/TerraVM.h"
#include "support/Telemetry.h"

#include <cstring>
#include <vector>

using namespace terracpp;
using namespace terracpp::bytecode;
using namespace terracpp::x64;

//===----------------------------------------------------------------------===//
// Out-of-line runtime helpers (addresses baked into emitted code)
//===----------------------------------------------------------------------===//

namespace {
/// Sentinel distinguishing "emission failed, stop trying" from "untried".
void *const BaselineFailed = reinterpret_cast<void *>(uintptr_t(1));
} // namespace

extern "C" {

/// Executes call site \p Idx. Returns 1 to continue, 0 to unwind (the
/// emitted code jumps to its epilogue; failure state lives in Env).
uint64_t terracppBaselineCall(const bytecode::Function *F, uint64_t Idx,
                              Slot *R, uint8_t *Frame, vm::ExecEnv *Env) {
  const CallSite &CS = F->Calls[static_cast<size_t>(Idx)];
  TerraFunction *Callee = CS.Callee;
  // Baseline-to-baseline fast path for pure-bytecode callees outside tiered
  // mode. Tiered callees must go through their dispatcher Entry (inside
  // vm::execCallSite) so call counting sees them.
  if (Callee && !Callee->IsExtern && !Callee->HostClosure && !Callee->Tier &&
      Callee->Bytecode) {
    void *E = Callee->BaselineEntry.load(std::memory_order_acquire);
    if (!E) {
      if (BaselineJIT *BJ = Env->Comp.baseline())
        E = reinterpret_cast<void *>(BJ->entryFor(Callee));
    }
    if (E && E != BaselineFailed) {
      // The nested activation's frame goes on the native stack; charge the
      // shared depth budget (weighted by frame size) so deep guest
      // recursion fails with the interpreter's diagnostic instead of
      // overrunning the host stack.
      vm::CallDepthScope DepthScope(BaselineJIT::depthUnits(Callee));
      if (DepthScope.exceeded()) {
        vm::failStackOverflow(*Env);
        return 0;
      }
      void **ArgPtrs = vm::stageCallArgs(CS, R, Frame);
      void *RetPtr = (CS.RetTy && !CS.RetTy->isVoid())
                         ? Frame + CS.RetFrameOff
                         : nullptr;
      Env->BackEdges +=
          reinterpret_cast<BaselineJIT::Fn>(E)(ArgPtrs, RetPtr, Env);
      if (Env->Failed)
        return 0;
      if (CS.DstReg != 0xFFFF && RetPtr)
        vm::loadCallResult(R[CS.DstReg], CS.RetLoad, RetPtr);
      return 1;
    }
  }
  return vm::execCallSite(*F, Idx, R, Frame, *Env) ? 1 : 0;
}

uint64_t terracppBaselineTrap(const bytecode::Function *F, uint64_t Idx,
                              vm::ExecEnv *Env) {
  vm::execTrap(*F, Idx, *Env);
  return 0;
}

uint64_t terracppBaselineFnLit(TerraFunction *Fn, Slot *Dst,
                               vm::ExecEnv *Env) {
  return vm::execFnLit(Fn, *Dst, *Env) ? 1 : 0;
}

} // extern "C"

//===----------------------------------------------------------------------===//
// Emitter
//===----------------------------------------------------------------------===//

namespace {

/// Operand shape of an opcode: which of A/B/C (and Imm, for ForCond) name
/// virtual registers. Drives the pinning census.
enum class Shape { A, AB, ABC, ForCond, None };

Shape shapeOf(Op O) {
  switch (O) {
  case Op::AddI: case Op::SubI: case Op::MulI: case Op::DivI: case Op::ModI:
  case Op::DivU: case Op::ModU: case Op::AddF: case Op::SubF: case Op::MulF:
  case Op::DivF: case Op::AddF32: case Op::SubF32: case Op::MulF32:
  case Op::DivF32: case Op::LtI: case Op::LeI: case Op::GtI: case Op::GeI:
  case Op::LtU: case Op::LeU: case Op::GtU: case Op::GeU: case Op::EqI:
  case Op::NeI: case Op::LtF: case Op::LeF: case Op::GtF: case Op::GeF:
  case Op::EqF: case Op::NeF: case Op::LtF32: case Op::LeF32: case Op::GtF32:
  case Op::GeF32: case Op::EqF32: case Op::NeF32: case Op::MinI:
  case Op::MaxI: case Op::MinU: case Op::MaxU: case Op::MinF: case Op::MaxF:
  case Op::MinF32: case Op::MaxF32: case Op::PtrAdd: case Op::PtrSub:
  case Op::PtrDiff: case Op::ShlI: case Op::ShrI: case Op::ShrU:
    return Shape::ABC;
  case Op::Mov: case Op::NegI: case Op::NegF: case Op::NegF32: case Op::NotB:
  case Op::DivIK: case Op::ModIK:
  case Op::WrapI8: case Op::WrapI16: case Op::WrapI32: case Op::WrapU8:
  case Op::WrapU16: case Op::WrapU32: case Op::WrapBool: case Op::I2F:
  case Op::I2F32: case Op::F2I8: case Op::F2I16: case Op::F2I32:
  case Op::F2I64: case Op::F2U8: case Op::F2U16: case Op::F2U32:
  case Op::F2U64: case Op::F2Bool: case Op::F32ToF: case Op::FToF32:
  case Op::LdI8: case Op::LdI16: case Op::LdI32: case Op::LdI64:
  case Op::LdU8: case Op::LdU16: case Op::LdU32: case Op::LdU64:
  case Op::LdF32: case Op::LdF64: case Op::LdP: case Op::StI8:
  case Op::StI16: case Op::StI32: case Op::StI64: case Op::StF32:
  case Op::StF64: case Op::StP: case Op::MemCpy: case Op::PtrAddImm:
    return Shape::AB;
  case Op::ConstI: case Op::ConstF: case Op::ConstF32: case Op::ConstP:
  case Op::FnLit: case Op::FrameAddr: case Op::MemZero: case Op::TrapIfNull:
  case Op::TrapIfZero: case Op::TrapIfShiftGE: case Op::JmpIfFalse:
  case Op::JmpIfTrue: case Op::RetVal:
    return Shape::A;
  case Op::ForCond:
    return Shape::ForCond;
  case Op::Jmp: case Op::JmpBack: case Op::Call: case Op::Ret: case Op::Trap:
    return Shape::None;
  }
  return Shape::None;
}

/// Multiplier and shift that divide by a constant \p D, 2 <= D < 2^62:
/// n / D == hi64(M * n) (+ n when M < 0) >> S, rounded toward zero
/// (Granlund & Montgomery, PLDI 1994; Hacker's Delight §10-1, widened to
/// 64 bits).
struct DivMagic {
  int64_t M;
  unsigned S;
};

DivMagic divMagic(uint64_t D) {
  const uint64_t Two63 = uint64_t(1) << 63;
  // |nc|: the largest n with n % D == D - 1.
  uint64_t ANc = Two63 - 1 - Two63 % D;
  unsigned P = 63;
  uint64_t Q1 = Two63 / ANc, R1 = Two63 - Q1 * ANc;
  uint64_t Q2 = Two63 / D, R2 = Two63 - Q2 * D;
  uint64_t Delta;
  do {
    ++P;
    Q1 *= 2;
    R1 *= 2;
    if (R1 >= ANc) {
      ++Q1;
      R1 -= ANc;
    }
    Q2 *= 2;
    R2 *= 2;
    if (R2 >= D) {
      ++Q2;
      R2 -= D;
    }
    Delta = D - R2;
  } while (Q1 < Delta || (Q1 == Delta && R1 == 0));
  return {static_cast<int64_t>(Q2 + 1), P - 64};
}

class Emitter {
public:
  explicit Emitter(const bytecode::Function &F) : F(F) {}

  /// Emits the whole function; false = bailout (unsupported construct).
  bool emit();

  const std::vector<uint8_t> &code() const { return A.code(); }

  /// Native-stack bytes one activation consumes (valid after emit()).
  uint32_t stackBytes() const { return static_cast<uint32_t>(Total); }

private:
  using Label = Assembler::Label;

  /// Cap on one activation's native-stack footprint (frame + register file
  /// + saved pointers). The prologue grows the stack with a single unprobed
  /// `sub rsp, Total`; a decrement larger than the kernel's stack guard gap
  /// (1 MiB on Linux by default) could jump clean over the guard pages and
  /// the following `rep stosq` would corrupt an adjacent mapping instead of
  /// faulting (stack clash). 256 KiB keeps every decrement far inside the
  /// gap; bigger activations bail to the VM, whose frames live on the heap.
  static constexpr uint32_t MaxStackBytes = 256u << 10;
  static constexpr int NumPinRegs = 4;
  static constexpr Reg PinRegs[NumPinRegs] = {R12, R13, R14, R15};

  bool layoutAndPin();
  bool emitPrologue();
  void emitDivByConst(const Insn &I);
  void emitEpilogue();
  bool emitParam(const bytecode::Function::Param &P, size_t Index);
  bool emitInsn(const Insn &I);
  void emitTrapStubs();

  int pinOf(uint16_t VReg) const {
    for (int I = 0; I != NumPinned; ++I)
      if (PinVReg[I] == VReg)
        return I;
    return -1;
  }
  int32_t slotOff(uint16_t VReg) const {
    return OffR + 8 * static_cast<int32_t>(VReg);
  }
  void loadSlot(Reg D, uint16_t VReg) {
    int P = pinOf(VReg);
    if (P >= 0)
      A.movRR(D, PinRegs[P]);
    else
      A.loadRM(D, RSP, slotOff(VReg));
  }
  void storeSlot(uint16_t VReg, Reg S) {
    int P = pinOf(VReg);
    if (P >= 0)
      A.movRR(PinRegs[P], S);
    else
      A.storeMR(RSP, slotOff(VReg), S);
  }
  void loadSlotX(Xmm D, uint16_t VReg) {
    int P = pinOf(VReg);
    if (P >= 0)
      A.movqXR(D, PinRegs[P]);
    else
      A.movsdXM(D, RSP, slotOff(VReg));
  }
  void storeSlotX(uint16_t VReg, Xmm S) {
    int P = pinOf(VReg);
    if (P >= 0)
      A.movqRX(PinRegs[P], S);
    else
      A.movsdMX(RSP, slotOff(VReg), S);
  }
  void storeSlotImm(uint16_t VReg, int64_t Imm) {
    int P = pinOf(VReg);
    if (P >= 0) {
      A.movRI(PinRegs[P], Imm);
    } else if (Imm >= INT32_MIN && Imm <= INT32_MAX) {
      A.storeMI32(RSP, slotOff(VReg), static_cast<int32_t>(Imm));
    } else {
      A.movRI(RAX, Imm);
      A.storeMR(RSP, slotOff(VReg), RAX);
    }
  }
  /// Spills pinned registers to their slots around helper calls that read
  /// or write the register file in memory.
  void flushPins() {
    for (int I = 0; I != NumPinned; ++I)
      A.storeMR(RSP, slotOff(PinVReg[I]), PinRegs[I]);
  }
  void reloadPins() {
    for (int I = 0; I != NumPinned; ++I)
      A.loadRM(PinRegs[I], RSP, slotOff(PinVReg[I]));
  }
  void callHelper(const void *Fn) {
    A.movRI(RAX, reinterpret_cast<int64_t>(Fn));
    A.callR(RAX);
  }
  Label trapLabel(int64_t TrapIdx) {
    for (const auto &[Idx, L] : TrapStubs)
      if (Idx == TrapIdx)
        return L;
    Label L = A.newLabel();
    TrapStubs.emplace_back(TrapIdx, L);
    return L;
  }
  /// setcc + zero-extend into a full canonical bool slot value.
  void boolResult(uint16_t Dst, CC C) {
    A.setcc(C, RAX);
    A.movzx8RR(RAX, RAX);
    storeSlot(Dst, RAX);
  }

  const bytecode::Function &F;
  Assembler A;

  int32_t FrameRound = 0, OffR = 0, ZeroBytes = 0, Total = 0;
  int32_t OffSavedArgs = 0, OffSavedRet = 0, OffSavedEnv = 0;

  uint16_t PinVReg[NumPinRegs] = {};
  int NumPinned = 0;

  std::vector<Label> InsnLabel;
  Label Epilogue = 0;
  std::vector<std::pair<int64_t, Label>> TrapStubs;
};

constexpr Reg Emitter::PinRegs[];

bool Emitter::layoutAndPin() {
  uint64_t RegBytes = uint64_t(F.NumRegs) * 8;
  uint64_t Round = (uint64_t(F.FrameBytes) + 31) & ~uint64_t(31);
  if (Round + RegBytes + 24 > MaxStackBytes)
    return false; // Large activations stay on the VM's heap buffer.
  FrameRound = static_cast<int32_t>(Round);
  OffR = FrameRound;
  ZeroBytes = FrameRound + static_cast<int32_t>(RegBytes);
  OffSavedArgs = ZeroBytes;
  OffSavedRet = ZeroBytes + 8;
  OffSavedEnv = ZeroBytes + 16;
  Total = ZeroBytes + 24;

  // Pin the most statically referenced virtual registers in r12-r15.
  std::vector<uint32_t> Count(F.NumRegs, 0);
  auto Note = [&](uint16_t R) {
    if (R < Count.size())
      ++Count[R];
  };
  for (const Insn &I : F.Code) {
    switch (shapeOf(I.Code)) {
    case Shape::ABC:
      Note(I.A); Note(I.B); Note(I.C);
      break;
    case Shape::AB:
      Note(I.A); Note(I.B);
      break;
    case Shape::A:
      Note(I.A);
      break;
    case Shape::ForCond:
      Note(I.A); Note(I.B); Note(I.C);
      Note(static_cast<uint16_t>(I.Imm));
      break;
    case Shape::None:
      break;
    }
  }
  for (int Slot = 0; Slot != NumPinRegs; ++Slot) {
    uint32_t Best = 0, BestCount = 2; // Require >= 3 static references.
    bool Found = false;
    for (uint32_t R = 0; R != Count.size(); ++R)
      if (Count[R] > BestCount) {
        Best = R;
        BestCount = Count[R];
        Found = true;
      }
    if (!Found)
      break;
    PinVReg[NumPinned++] = static_cast<uint16_t>(Best);
    Count[Best] = 0;
  }
  return true;
}

bool Emitter::emitPrologue() {
  A.push(RBP);
  A.movRR(RBP, RSP);
  A.push(RBX);
  A.push(R12);
  A.push(R13);
  A.push(R14);
  A.push(R15);
  A.subRI(RSP, Total);
  A.andRI8(RSP, -32); // 32-aligned frame; calls see rsp % 16 == 0.
  A.storeMR(RSP, OffSavedArgs, RDI);
  A.storeMR(RSP, OffSavedRet, RSI);
  A.storeMR(RSP, OffSavedEnv, RDX);
  // Zero the frame and register file, as the VM's memset does.
  A.leaRM(RDI, RSP, 0);
  A.xor32RR(RAX, RAX);
  A.movRI(RCX, ZeroBytes / 8);
  A.repStosq();
  for (size_t I = 0, N = F.Params.size(); I != N; ++I)
    if (!emitParam(F.Params[I], I))
      return false;
  for (int I = 0; I != NumPinned; ++I)
    A.loadRM(PinRegs[I], RSP, slotOff(PinVReg[I]));
  A.xor32RR(RBX, RBX); // Back-edge counter.
  return true;
}

void Emitter::emitEpilogue() {
  A.bind(Epilogue);
  A.movRR(RAX, RBX);
  A.leaRM(RSP, RBP, -40);
  A.pop(R15);
  A.pop(R14);
  A.pop(R13);
  A.pop(R12);
  A.pop(RBX);
  A.pop(RBP);
  A.ret();
}

/// Canonical widening of one FFI argument, mirroring the VM's loadCanonical.
bool Emitter::emitParam(const bytecode::Function::Param &P, size_t Index) {
  int32_t ArgIdx = static_cast<int32_t>(8 * Index);
  A.loadRM(RAX, RSP, OffSavedArgs);
  A.loadRM(RCX, RAX, ArgIdx); // rcx = Args[Index]
  if (P.InFrame) {
    A.leaRM(RDI, RSP, static_cast<int32_t>(P.FrameOff));
    A.movRR(RSI, RCX);
    A.movRI(RDX, static_cast<int64_t>(P.Ty->size()));
    callHelper(reinterpret_cast<const void *>(&memcpy));
    return true;
  }
  int32_t Off = slotOff(P.Reg); // Always the memory slot; pins load later.
  if (P.Ty->isPointer() || P.Ty->isFunction()) {
    A.loadRM(RAX, RCX, 0);
    A.storeMR(RSP, Off, RAX);
    return true;
  }
  const auto *Prim = dyn_cast<PrimType>(P.Ty);
  if (!Prim)
    return false;
  switch (Prim->primKind()) {
  case PrimType::Bool:
    A.movzx8RM(RAX, RCX, 0);
    A.test32RR(RAX, RAX);
    A.setcc(CC::NE, RAX);
    A.movzx8RR(RAX, RAX);
    break;
  case PrimType::Int8:
    A.movsx8RM(RAX, RCX, 0);
    break;
  case PrimType::Int16:
    A.movsx16RM(RAX, RCX, 0);
    break;
  case PrimType::Int32:
    A.movsx32RM(RAX, RCX, 0);
    break;
  case PrimType::Int64:
  case PrimType::UInt64:
    A.loadRM(RAX, RCX, 0);
    break;
  case PrimType::UInt8:
    A.movzx8RM(RAX, RCX, 0);
    break;
  case PrimType::UInt16:
    A.movzx16RM(RAX, RCX, 0);
    break;
  case PrimType::UInt32:
  case PrimType::Float32:
    A.load32RM(RAX, RCX, 0);
    break;
  case PrimType::Float64:
    A.loadRM(RAX, RCX, 0);
    break;
  case PrimType::Void:
    return false;
  }
  A.storeMR(RSP, Off, RAX);
  return true;
}

void Emitter::emitTrapStubs() {
  for (const auto &[TrapIdx, L] : TrapStubs) {
    A.bind(L);
    A.movRI(RDI, reinterpret_cast<int64_t>(&F));
    A.movRI(RSI, TrapIdx);
    A.loadRM(RDX, RSP, OffSavedEnv);
    callHelper(reinterpret_cast<const void *>(&terracppBaselineTrap));
    A.jmp(Epilogue);
  }
}

/// DivIK/ModIK without idiv: shifts for a power-of-two |d|, else the
/// multiply-high sequence. The quotient is computed for |d| and negated
/// for d < 0; the remainder n - q*|d| is the same for d and -d.
void Emitter::emitDivByConst(const Insn &I) {
  uint64_t AD = I.Imm < 0 ? 0 - static_cast<uint64_t>(I.Imm)
                          : static_cast<uint64_t>(I.Imm);
  loadSlot(RCX, I.B); // n
  if ((AD & (AD - 1)) == 0) {
    // q = (n + (n < 0 ? |d| - 1 : 0)) >> k
    uint8_t K = static_cast<uint8_t>(__builtin_ctzll(AD));
    A.movRR(RAX, RCX);
    A.sarRI(RAX, 63);
    A.shrRI(RAX, static_cast<uint8_t>(64 - K));
    A.addRR(RAX, RCX);
    A.sarRI(RAX, K);
  } else {
    DivMagic Mg = divMagic(AD);
    A.movRI(RAX, Mg.M);
    A.imulR(RCX); // rdx = hi64(M * n)
    if (Mg.M < 0)
      A.addRR(RDX, RCX);
    if (Mg.S)
      A.sarRI(RDX, static_cast<uint8_t>(Mg.S));
    A.movRR(RAX, RDX);
    A.shrRI(RAX, 63); // +1 rounds a negative quotient toward zero
    A.addRR(RAX, RDX);
  }
  if (I.Code == Op::DivIK) {
    if (I.Imm < 0)
      A.negR(RAX);
    storeSlot(I.A, RAX);
    return;
  }
  if (AD <= INT32_MAX) {
    A.imulRRI(RAX, RAX, static_cast<int32_t>(AD));
  } else {
    A.movRI(RDX, static_cast<int64_t>(AD));
    A.imulRR(RAX, RDX);
  }
  A.subRR(RCX, RAX);
  storeSlot(I.A, RCX);
}

bool Emitter::emitInsn(const Insn &I) {
  auto FitsDisp = [](int64_t V) {
    return V >= INT32_MIN && V <= INT32_MAX;
  };
  switch (I.Code) {
  case Op::ConstI:
  case Op::ConstF:
  case Op::ConstP:
    storeSlotImm(I.A, I.Imm);
    return true;
  case Op::ConstF32:
    // Only the low four slot bytes carry the value.
    storeSlotImm(I.A, static_cast<int64_t>(static_cast<uint32_t>(I.Imm)));
    return true;
  case Op::FnLit:
    flushPins();
    A.movRI(RDI, I.Imm); // TerraFunction *
    A.leaRM(RSI, RSP, slotOff(I.A));
    A.loadRM(RDX, RSP, OffSavedEnv);
    callHelper(reinterpret_cast<const void *>(&terracppBaselineFnLit));
    A.test32RR(RAX, RAX);
    A.jcc(CC::E, Epilogue);
    reloadPins();
    return true;
  case Op::Mov:
    loadSlot(RAX, I.B);
    storeSlot(I.A, RAX);
    return true;
  case Op::FrameAddr:
    if (!FitsDisp(I.Imm))
      return false;
    A.leaRM(RAX, RSP, static_cast<int32_t>(I.Imm));
    storeSlot(I.A, RAX);
    return true;
  case Op::AddI:
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.addRR(RAX, RCX);
    storeSlot(I.A, RAX);
    return true;
  case Op::SubI:
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.subRR(RAX, RCX);
    storeSlot(I.A, RAX);
    return true;
  case Op::MulI:
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.imulRR(RAX, RCX);
    storeSlot(I.A, RAX);
    return true;
  case Op::DivI:
  case Op::ModI:
    // No zero guard here: a TrapIfZero precedes unless analysis elided it.
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.cqo();
    A.idivR(RCX);
    storeSlot(I.A, I.Code == Op::DivI ? RAX : RDX);
    return true;
  case Op::DivIK:
  case Op::ModIK:
    emitDivByConst(I);
    return true;
  case Op::DivU:
  case Op::ModU:
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.xor32RR(RDX, RDX);
    A.divR(RCX);
    storeSlot(I.A, I.Code == Op::DivU ? RAX : RDX);
    return true;
  case Op::ShlI:
  case Op::ShrI:
  case Op::ShrU:
    // Hardware masks cl to 6 bits for 64-bit shifts — exactly the VM's
    // `& 63` semantics.
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    if (I.Code == Op::ShlI)
      A.shlRCl(RAX);
    else if (I.Code == Op::ShrI)
      A.sarRCl(RAX);
    else
      A.shrRCl(RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::NegI:
    loadSlot(RAX, I.B);
    A.negR(RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::AddF: case Op::SubF: case Op::MulF: case Op::DivF:
  case Op::MinF: case Op::MaxF:
    loadSlotX(XMM0, I.B);
    loadSlotX(XMM1, I.C);
    switch (I.Code) {
    case Op::AddF: A.addsd(XMM0, XMM1); break;
    case Op::SubF: A.subsd(XMM0, XMM1); break;
    case Op::MulF: A.mulsd(XMM0, XMM1); break;
    case Op::DivF: A.divsd(XMM0, XMM1); break;
    case Op::MinF: A.minsd(XMM0, XMM1); break;
    default:       A.maxsd(XMM0, XMM1); break;
    }
    storeSlotX(I.A, XMM0);
    return true;
  case Op::AddF32: case Op::SubF32: case Op::MulF32: case Op::DivF32:
  case Op::MinF32: case Op::MaxF32:
    loadSlotX(XMM0, I.B);
    loadSlotX(XMM1, I.C);
    switch (I.Code) {
    case Op::AddF32: A.addss(XMM0, XMM1); break;
    case Op::SubF32: A.subss(XMM0, XMM1); break;
    case Op::MulF32: A.mulss(XMM0, XMM1); break;
    case Op::DivF32: A.divss(XMM0, XMM1); break;
    case Op::MinF32: A.minss(XMM0, XMM1); break;
    default:         A.maxss(XMM0, XMM1); break;
    }
    storeSlotX(I.A, XMM0);
    return true;
  case Op::NegF:
    loadSlot(RAX, I.B);
    A.movRI(RCX, INT64_MIN); // Sign-bit flip: exact IEEE negate.
    A.xorRR(RAX, RCX);
    storeSlot(I.A, RAX);
    return true;
  case Op::NegF32:
    loadSlot(RAX, I.B);
    A.xor32RI(RAX, INT32_MIN);
    storeSlot(I.A, RAX);
    return true;
  case Op::NotB:
    loadSlot(RAX, I.B);
    A.testRR(RAX, RAX);
    boolResult(I.A, CC::E);
    return true;
  case Op::LtI: case Op::LeI: case Op::GtI: case Op::GeI:
  case Op::LtU: case Op::LeU: case Op::GtU: case Op::GeU:
  case Op::EqI: case Op::NeI: {
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.cmpRR(RAX, RCX);
    CC C;
    switch (I.Code) {
    case Op::LtI: C = CC::L; break;
    case Op::LeI: C = CC::LE; break;
    case Op::GtI: C = CC::G; break;
    case Op::GeI: C = CC::GE; break;
    case Op::LtU: C = CC::B; break;
    case Op::LeU: C = CC::BE; break;
    case Op::GtU: C = CC::A; break;
    case Op::GeU: C = CC::AE; break;
    case Op::EqI: C = CC::E; break;
    default:      C = CC::NE; break;
    }
    boolResult(I.A, C);
    return true;
  }
  case Op::LtF: case Op::LeF: case Op::LtF32: case Op::LeF32: {
    // b < c  ==  c > b: compare (c, b) so unordered falls out as false.
    bool F32 = I.Code == Op::LtF32 || I.Code == Op::LeF32;
    loadSlotX(XMM0, I.C);
    loadSlotX(XMM1, I.B);
    F32 ? A.ucomiss(XMM0, XMM1) : A.ucomisd(XMM0, XMM1);
    boolResult(I.A, (I.Code == Op::LtF || I.Code == Op::LtF32) ? CC::A
                                                               : CC::AE);
    return true;
  }
  case Op::GtF: case Op::GeF: case Op::GtF32: case Op::GeF32: {
    bool F32 = I.Code == Op::GtF32 || I.Code == Op::GeF32;
    loadSlotX(XMM0, I.B);
    loadSlotX(XMM1, I.C);
    F32 ? A.ucomiss(XMM0, XMM1) : A.ucomisd(XMM0, XMM1);
    boolResult(I.A, (I.Code == Op::GtF || I.Code == Op::GtF32) ? CC::A
                                                               : CC::AE);
    return true;
  }
  case Op::EqF: case Op::EqF32:
    loadSlotX(XMM0, I.B);
    loadSlotX(XMM1, I.C);
    I.Code == Op::EqF32 ? A.ucomiss(XMM0, XMM1) : A.ucomisd(XMM0, XMM1);
    A.setcc(CC::E, RAX);
    A.setcc(CC::NP, RCX); // Unordered (NaN) compares unequal.
    A.movzx8RR(RAX, RAX);
    A.movzx8RR(RCX, RCX);
    A.and32RR(RAX, RCX);
    storeSlot(I.A, RAX);
    return true;
  case Op::NeF: case Op::NeF32:
    loadSlotX(XMM0, I.B);
    loadSlotX(XMM1, I.C);
    I.Code == Op::NeF32 ? A.ucomiss(XMM0, XMM1) : A.ucomisd(XMM0, XMM1);
    A.setcc(CC::NE, RAX);
    A.setcc(CC::P, RCX);
    A.movzx8RR(RAX, RAX);
    A.movzx8RR(RCX, RCX);
    A.or32RR(RAX, RCX);
    storeSlot(I.A, RAX);
    return true;
  case Op::MinI: case Op::MaxI: case Op::MinU: case Op::MaxU: {
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.cmpRR(RAX, RCX);
    CC C;
    switch (I.Code) {
    case Op::MinI: C = CC::G; break;
    case Op::MaxI: C = CC::L; break;
    case Op::MinU: C = CC::A; break;
    default:       C = CC::B; break;
    }
    A.cmovcc(C, RAX, RCX);
    storeSlot(I.A, RAX);
    return true;
  }
  case Op::WrapI8:
    loadSlot(RAX, I.B);
    A.movsx8RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::WrapI16:
    loadSlot(RAX, I.B);
    A.movsx16RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::WrapI32:
    loadSlot(RAX, I.B);
    A.movsx32RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::WrapU8:
    loadSlot(RAX, I.B);
    A.movzx8RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::WrapU16:
    loadSlot(RAX, I.B);
    A.movzx16RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::WrapU32:
    loadSlot(RAX, I.B);
    A.mov32RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::WrapBool:
    loadSlot(RAX, I.B);
    A.testRR(RAX, RAX);
    boolResult(I.A, CC::NE);
    return true;
  case Op::I2F:
    loadSlot(RAX, I.B);
    A.cvtsi2sd(XMM0, RAX);
    storeSlotX(I.A, XMM0);
    return true;
  case Op::I2F32:
    loadSlot(RAX, I.B);
    A.cvtsi2ss(XMM0, RAX);
    storeSlotX(I.A, XMM0);
    return true;
  case Op::F2I8:
    loadSlotX(XMM0, I.B);
    A.cvttsd2si32(RAX, XMM0);
    A.movsx8RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::F2I16:
    loadSlotX(XMM0, I.B);
    A.cvttsd2si32(RAX, XMM0);
    A.movsx16RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::F2I32:
    loadSlotX(XMM0, I.B);
    A.cvttsd2si32(RAX, XMM0);
    A.movsx32RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::F2I64:
    loadSlotX(XMM0, I.B);
    A.cvttsd2si64(RAX, XMM0);
    storeSlot(I.A, RAX);
    return true;
  case Op::F2U8:
    loadSlotX(XMM0, I.B);
    A.cvttsd2si32(RAX, XMM0);
    A.movzx8RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::F2U16:
    loadSlotX(XMM0, I.B);
    A.cvttsd2si32(RAX, XMM0);
    A.movzx16RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::F2U32:
    loadSlotX(XMM0, I.B);
    A.cvttsd2si64(RAX, XMM0);
    A.mov32RR(RAX, RAX);
    storeSlot(I.A, RAX);
    return true;
  case Op::F2U64: {
    // The compiler's two-branch sequence: values below 2^63 convert
    // directly; larger ones shift down by 2^63 and restore the top bit.
    loadSlotX(XMM0, I.B);
    A.movRI(RCX, 0x43E0000000000000LL); // (double)2^63
    A.movqXR(XMM1, RCX);
    A.ucomisd(XMM0, XMM1);
    Label Big = A.newLabel(), Done = A.newLabel();
    A.jcc(CC::AE, Big);
    A.cvttsd2si64(RAX, XMM0);
    A.jmp(Done);
    A.bind(Big);
    A.subsd(XMM0, XMM1);
    A.cvttsd2si64(RAX, XMM0);
    A.movRI(RCX, INT64_MIN);
    A.xorRR(RAX, RCX);
    A.bind(Done);
    storeSlot(I.A, RAX);
    return true;
  }
  case Op::F2Bool:
    loadSlotX(XMM0, I.B);
    A.xorpd(XMM1, XMM1);
    A.ucomisd(XMM0, XMM1);
    A.setcc(CC::NE, RAX);
    A.setcc(CC::P, RCX); // NaN != 0 is true.
    A.movzx8RR(RAX, RAX);
    A.movzx8RR(RCX, RCX);
    A.or32RR(RAX, RCX);
    storeSlot(I.A, RAX);
    return true;
  case Op::F32ToF:
    loadSlotX(XMM0, I.B);
    A.cvtss2sd(XMM0, XMM0);
    storeSlotX(I.A, XMM0);
    return true;
  case Op::FToF32:
    loadSlotX(XMM0, I.B);
    A.cvtsd2ss(XMM0, XMM0);
    storeSlotX(I.A, XMM0);
    return true;
  case Op::LdI8: case Op::LdI16: case Op::LdI32: case Op::LdI64:
  case Op::LdU8: case Op::LdU16: case Op::LdU32: case Op::LdU64:
  case Op::LdF32: case Op::LdF64: case Op::LdP: {
    if (!FitsDisp(I.Imm))
      return false;
    int32_t D = static_cast<int32_t>(I.Imm);
    loadSlot(RAX, I.B);
    switch (I.Code) {
    case Op::LdI8:  A.movsx8RM(RCX, RAX, D); break;
    case Op::LdI16: A.movsx16RM(RCX, RAX, D); break;
    case Op::LdI32: A.movsx32RM(RCX, RAX, D); break;
    case Op::LdU8:  A.movzx8RM(RCX, RAX, D); break;
    case Op::LdU16: A.movzx16RM(RCX, RAX, D); break;
    case Op::LdU32: case Op::LdF32: A.load32RM(RCX, RAX, D); break;
    default:        A.loadRM(RCX, RAX, D); break;
    }
    storeSlot(I.A, RCX);
    return true;
  }
  case Op::StI8: case Op::StI16: case Op::StI32: case Op::StI64:
  case Op::StF32: case Op::StF64: case Op::StP: {
    if (!FitsDisp(I.Imm))
      return false;
    int32_t D = static_cast<int32_t>(I.Imm);
    loadSlot(RAX, I.A);
    loadSlot(RCX, I.B);
    switch (I.Code) {
    case Op::StI8:  A.store8MR(RAX, D, RCX); break;
    case Op::StI16: A.store16MR(RAX, D, RCX); break;
    case Op::StI32: case Op::StF32: A.store32MR(RAX, D, RCX); break;
    default:        A.storeMR(RAX, D, RCX); break;
    }
    return true;
  }
  case Op::MemCpy:
    loadSlot(RDI, I.A);
    loadSlot(RSI, I.B);
    A.movRI(RDX, I.Imm);
    callHelper(reinterpret_cast<const void *>(&memcpy));
    return true;
  case Op::MemZero:
    loadSlot(RDI, I.A);
    A.xor32RR(RSI, RSI);
    A.movRI(RDX, I.Imm);
    callHelper(reinterpret_cast<const void *>(&memset));
    return true;
  case Op::PtrAdd:
  case Op::PtrSub:
    loadSlot(RAX, I.C);
    if (FitsDisp(I.Imm)) {
      A.imulRRI(RAX, RAX, static_cast<int32_t>(I.Imm));
    } else {
      A.movRI(RCX, I.Imm);
      A.imulRR(RAX, RCX);
    }
    loadSlot(RCX, I.B);
    if (I.Code == Op::PtrAdd) {
      A.addRR(RAX, RCX);
      storeSlot(I.A, RAX);
    } else {
      A.subRR(RCX, RAX);
      storeSlot(I.A, RCX);
    }
    return true;
  case Op::PtrDiff:
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.subRR(RAX, RCX);
    A.movRI(RCX, I.Imm);
    A.cqo();
    A.idivR(RCX);
    storeSlot(I.A, RAX);
    return true;
  case Op::PtrAddImm:
    if (!FitsDisp(I.Imm))
      return false;
    loadSlot(RAX, I.B);
    A.leaRM(RAX, RAX, static_cast<int32_t>(I.Imm));
    storeSlot(I.A, RAX);
    return true;
  case Op::TrapIfNull:
  case Op::TrapIfZero:
    loadSlot(RAX, I.A);
    A.testRR(RAX, RAX);
    A.jcc(CC::E, trapLabel(I.Imm));
    return true;
  case Op::TrapIfShiftGE:
    loadSlot(RAX, I.A);
    A.movRI(RCX, I.B);
    A.cmpRR(RAX, RCX);
    A.jcc(CC::AE, trapLabel(I.Imm));
    return true;
  case Op::ForCond:
    loadSlot(RAX, I.B);
    loadSlot(RCX, I.C);
    A.cmpRR(RAX, RCX);
    A.setcc(CC::L, RDX);
    A.setcc(CC::G, RSI);
    A.movzx8RR(RDX, RDX);
    A.movzx8RR(RSI, RSI);
    loadSlot(RAX, static_cast<uint16_t>(I.Imm)); // Loop step register.
    A.testRR(RAX, RAX);
    A.cmovcc(CC::LE, RDX, RSI); // step <= 0: iterate while B > C.
    storeSlot(I.A, RDX);
    return true;
  case Op::Jmp:
    A.jmp(InsnLabel[static_cast<size_t>(I.Imm)]);
    return true;
  case Op::JmpIfFalse:
  case Op::JmpIfTrue:
    loadSlot(RAX, I.A);
    A.testRR(RAX, RAX);
    A.jcc(I.Code == Op::JmpIfFalse ? CC::E : CC::NE,
          InsnLabel[static_cast<size_t>(I.Imm)]);
    return true;
  case Op::JmpBack:
    A.addRI(RBX, 1);
    A.jmp(InsnLabel[static_cast<size_t>(I.Imm)]);
    return true;
  case Op::Call:
    flushPins();
    A.movRI(RDI, reinterpret_cast<int64_t>(&F));
    A.movRI(RSI, I.Imm);
    A.leaRM(RDX, RSP, OffR);
    A.leaRM(RCX, RSP, 0);
    A.loadRM(R8, RSP, OffSavedEnv);
    callHelper(reinterpret_cast<const void *>(&terracppBaselineCall));
    A.test32RR(RAX, RAX);
    A.jcc(CC::E, Epilogue);
    reloadPins();
    return true;
  case Op::Ret:
    A.jmp(Epilogue);
    return true;
  case Op::RetVal: {
    A.loadRM(RCX, RSP, OffSavedRet);
    A.testRR(RCX, RCX);
    A.jcc(CC::E, Epilogue); // Null Ret: nothing to write.
    switch (F.Ret) {
    case RetKind::I8:
    case RetKind::U8:
      loadSlot(RAX, I.A);
      A.store8MR(RCX, 0, RAX);
      break;
    case RetKind::I16:
    case RetKind::U16:
      loadSlot(RAX, I.A);
      A.store16MR(RCX, 0, RAX);
      break;
    case RetKind::I32:
    case RetKind::U32:
    case RetKind::F32:
      loadSlot(RAX, I.A);
      A.store32MR(RCX, 0, RAX);
      break;
    case RetKind::I64:
    case RetKind::U64:
    case RetKind::F64:
    case RetKind::Ptr:
      loadSlot(RAX, I.A);
      A.storeMR(RCX, 0, RAX);
      break;
    case RetKind::Bool:
      loadSlot(RAX, I.A);
      A.testRR(RAX, RAX);
      A.setcc(CC::NE, RAX);
      A.store8MR(RCX, 0, RAX);
      break;
    case RetKind::Agg:
      loadSlot(RSI, I.A); // Slot holds the source address.
      A.movRR(RDI, RCX);
      A.movRI(RDX, static_cast<int64_t>(F.RetBytes));
      callHelper(reinterpret_cast<const void *>(&memcpy));
      break;
    case RetKind::None:
      break;
    }
    A.jmp(Epilogue);
    return true;
  }
  case Op::Trap:
    A.jmp(trapLabel(I.Imm));
    return true;
  }
  return false; // Future opcodes bail to the VM.
}

bool Emitter::emit() {
  if (!layoutAndPin())
    return false;
  Epilogue = A.newLabel();
  InsnLabel.reserve(F.Code.size());
  for (size_t I = 0, N = F.Code.size(); I != N; ++I)
    InsnLabel.push_back(A.newLabel());
  if (!emitPrologue())
    return false;
  for (size_t I = 0, N = F.Code.size(); I != N; ++I) {
    A.bind(InsnLabel[I]);
    if (!emitInsn(F.Code[I]))
      return false;
  }
  emitEpilogue();
  emitTrapStubs();
  return A.finalize();
}

} // namespace

//===----------------------------------------------------------------------===//
// BaselineJIT
//===----------------------------------------------------------------------===//

BaselineJIT::BaselineJIT(telemetry::Registry &Metrics)
    : MEmitUs(Metrics.histogram("jit.baseline_emit_us")),
      MCodeBytes(Metrics.gauge("jit.baseline_code_bytes")),
      MFunctions(Metrics.counter("jit.baseline_functions")),
      MBailouts(Metrics.counter("jit.baseline_bailouts")) {}

bool BaselineJIT::supported() {
#if defined(__x86_64__) && !defined(__ILP32__)
  return true;
#else
  return false;
#endif
}

bool BaselineJIT::emitBytesForTest(const TerraFunction *F,
                                   std::vector<uint8_t> &Out) {
  if (!supported() || !F->Bytecode)
    return false;
  Emitter Em(*F->Bytecode);
  if (!Em.emit())
    return false;
  Out.assign(Em.code().begin(), Em.code().end());
  return true;
}

BaselineJIT::Fn BaselineJIT::entryFor(TerraFunction *F) {
  void *E = F->BaselineEntry.load(std::memory_order_acquire);
  if (!E) {
    if (!supported() || !F->Bytecode) {
      E = BaselineFailed;
    } else {
      telemetry::ScopedTimerUs T(MEmitUs);
      Emitter Em(*F->Bytecode);
      void *P = nullptr;
      if (Em.emit()) {
        P = Code.publish(Em.code().data(), Em.code().size());
        // Before the entry is visible: depthUnits readers acquire
        // BaselineEntry first. Racing emitters store the same value.
        F->BaselineStackBytes.store(Em.stackBytes(),
                                    std::memory_order_relaxed);
      }
      E = P ? P : BaselineFailed;
    }
    // CAS-publish; a racing emitter's loss just wastes buffer bytes. The
    // CodeBuffer's mprotect ordered all code writes before this store.
    void *Expected = nullptr;
    if (F->BaselineEntry.compare_exchange_strong(Expected, E,
                                                 std::memory_order_release,
                                                 std::memory_order_acquire)) {
      if (E == BaselineFailed) {
        MBailouts.inc();
      } else {
        MFunctions.inc();
        MCodeBytes.set(static_cast<int64_t>(Code.bytesPublished()));
      }
    } else {
      E = Expected;
    }
  }
  return E == BaselineFailed ? nullptr : reinterpret_cast<Fn>(E);
}

unsigned BaselineJIT::depthUnits(const TerraFunction *F) {
  uint32_t Bytes = F->BaselineStackBytes.load(std::memory_order_relaxed);
  return 1 + Bytes / (16u << 10);
}
