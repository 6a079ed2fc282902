//===- TerraBytecode.h - Register bytecode for typed Terra IR ---*- C++ -*-===//
//
// The tier-0 execution format (DESIGN.md §10). A bytecode::Function is a
// compact, contiguous program compiled from a typechecked + midend-run
// Terra function: fixed-width 16-byte instructions over an array of 8-byte
// untyped register slots, plus a byte-addressed frame for aggregates and
// address-taken locals. The VM (TerraVM.h) executes it with a computed-goto
// dispatch loop, and the baseline JIT (TerraBaselineJIT.h) emits machine
// code from it; both give the native backend's results bit for bit, with
// integer values kept in the canonical register forms below.
//
// Canonical register forms:
//   * signed integers  — sign-extended into Slot.I
//   * unsigned + bool  — zero-extended into Slot.U (bool is 0/1)
//   * float            — Slot.F (operations run in float precision)
//   * double           — Slot.D
//   * pointers         — Slot.P (function values hold TerraFunction* under
//                        the plain interp backend, or the promoted machine
//                        address under tiered execution — see Op::FnLit)
//
// Vectors have no opcodes of their own: the compiler lowers each
// vector(T,N) operation to N scalar ops over lane registers (one canonical
// slot per lane). Vector locals whose address is never taken, and that are
// only indexed by constants, keep their lanes in registers; every other
// vector value lives in the frame like an aggregate.
//
// The compiler covers every construct the typechecker produces. Call
// arguments are staged through per-call-site frame scratch, locals past the
// persistent-register budget live in the frame, and only a function past
// the uint16_t register file or the uint32_t frame fails to compile: the
// caller reports that as an error diagnostic naming the function and the
// bail site. There is no fallback engine.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRABYTECODE_H
#define TERRACPP_CORE_TERRABYTECODE_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace terracpp {

class TerraContext;
class TerraFunction;
class Type;

namespace bytecode {

/// One untyped 8-byte register. The compiler tracks which member is live;
/// all engines on one platform agree on layout (little-endian), so &Slot
/// doubles as the FFI value pointer for scalar call arguments.
union Slot {
  int64_t I;
  uint64_t U;
  double D;
  float F;
  void *P;
};

// X-macro over every opcode; the VM builds its computed-goto table from the
// same list so the two can never get out of sync.
//
// Operand conventions: A = destination register, B/C = source registers,
// Imm = 64-bit immediate (constant bits, byte offset, jump target, call or
// trap index) unless noted otherwise.
#define TERRACPP_BYTECODE_OPS(X)                                              \
  X(ConstI)     /* r[A].I = Imm (pre-canonicalized by the compiler) */        \
  X(ConstF)     /* r[A].D = bitcast<double>(Imm) */                           \
  X(ConstF32)   /* r[A].F = bitcast<float>(low 32 bits of Imm) */             \
  X(ConstP)     /* r[A].P = (void *)Imm */                                    \
  X(FnLit)      /* r[A].P = value of function (TerraFunction *)Imm: the     \
                   TerraFunction* itself, or its promoted machine address   \
                   under tiered execution */                                 \
  X(Mov)        /* r[A] = r[B] */                                             \
  X(FrameAddr)  /* r[A].P = frame + Imm */                                    \
  X(AddI)       /* r[A].I = r[B].I + r[C].I (wrapping) */                     \
  X(SubI)       /* r[A].I = r[B].I - r[C].I (wrapping) */                     \
  X(MulI)       /* r[A].I = r[B].I * r[C].I (wrapping) */                     \
  X(DivI)       /* r[A].I = r[B].I / r[C].I (unguarded: a TrapIfZero on C   \
                   precedes unless the compiler proved r[C] nonzero) */      \
  X(ModI)       /* r[A].I = r[B].I % r[C].I (unguarded, as DivI) */           \
  X(DivU)       /* r[A].U = r[B].U / r[C].U (unguarded, as DivI) */           \
  X(ModU)       /* r[A].U = r[B].U % r[C].U (unguarded, as DivI) */           \
  X(DivIK)      /* r[A].I = r[B].I / Imm (constant divisor, 2 <= |Imm| <    \
                   2^62: needs no guard) */                                  \
  X(ModIK)      /* r[A].I = r[B].I % Imm (as DivIK) */                        \
  X(ShlI)       /* r[A].U = r[B].U << (r[C].U & 63) */                        \
  X(ShrI)       /* r[A].I = r[B].I >> (r[C].U & 63) (arithmetic) */           \
  X(ShrU)       /* r[A].U = r[B].U >> (r[C].U & 63) (logical) */              \
  X(NegI)       /* r[A].I = -r[B].I (wrapping) */                             \
  X(AddF)       /* r[A].D = r[B].D + r[C].D */                                \
  X(SubF)       /* r[A].D = r[B].D - r[C].D */                                \
  X(MulF)       /* r[A].D = r[B].D * r[C].D */                                \
  X(DivF)       /* r[A].D = r[B].D / r[C].D */                                \
  X(NegF)       /* r[A].D = -r[B].D */                                        \
  X(AddF32)     /* r[A].F = r[B].F + r[C].F */                                \
  X(SubF32)     /* r[A].F = r[B].F - r[C].F */                                \
  X(MulF32)     /* r[A].F = r[B].F * r[C].F */                                \
  X(DivF32)     /* r[A].F = r[B].F / r[C].F */                                \
  X(NegF32)     /* r[A].F = -r[B].F */                                        \
  X(NotB)       /* r[A].U = r[B].U ? 0 : 1 */                                 \
  X(LtI)        /* r[A].U = r[B].I < r[C].I (signed) */                       \
  X(LeI)        /* r[A].U = r[B].I <= r[C].I */                               \
  X(GtI)        /* r[A].U = r[B].I > r[C].I */                                \
  X(GeI)        /* r[A].U = r[B].I >= r[C].I */                               \
  X(LtU)        /* r[A].U = r[B].U < r[C].U (unsigned) */                     \
  X(LeU)        /* r[A].U = r[B].U <= r[C].U */                               \
  X(GtU)        /* r[A].U = r[B].U > r[C].U */                                \
  X(GeU)        /* r[A].U = r[B].U >= r[C].U */                               \
  X(EqI)        /* r[A].U = r[B].U == r[C].U (sign-agnostic; pointers too) */ \
  X(NeI)        /* r[A].U = r[B].U != r[C].U */                               \
  X(LtF)        /* r[A].U = r[B].D < r[C].D */                                \
  X(LeF)        /* r[A].U = r[B].D <= r[C].D */                               \
  X(GtF)        /* r[A].U = r[B].D > r[C].D */                                \
  X(GeF)        /* r[A].U = r[B].D >= r[C].D */                               \
  X(EqF)        /* r[A].U = r[B].D == r[C].D */                               \
  X(NeF)        /* r[A].U = r[B].D != r[C].D */                               \
  X(LtF32)      /* r[A].U = r[B].F < r[C].F */                                \
  X(LeF32)      /* r[A].U = r[B].F <= r[C].F */                               \
  X(GtF32)      /* r[A].U = r[B].F > r[C].F */                                \
  X(GeF32)      /* r[A].U = r[B].F >= r[C].F */                               \
  X(EqF32)      /* r[A].U = r[B].F == r[C].F */                               \
  X(NeF32)      /* r[A].U = r[B].F != r[C].F */                               \
  X(MinI)       /* r[A].I = min signed */                                     \
  X(MaxI)       /* r[A].I = max signed */                                     \
  X(MinU)       /* r[A].U = min unsigned */                                   \
  X(MaxU)       /* r[A].U = max unsigned */                                   \
  X(MinF)       /* r[A].D = r[B].D < r[C].D ? B : C */                        \
  X(MaxF)       /* r[A].D = r[B].D > r[C].D ? B : C */                        \
  X(MinF32)     /* r[A].F = r[B].F < r[C].F ? B : C */                        \
  X(MaxF32)     /* r[A].F = r[B].F > r[C].F ? B : C */                        \
  X(WrapI8)     /* r[A].I = (int8)r[B].I (truncate, sign-extend) */           \
  X(WrapI16)    /* r[A].I = (int16)r[B].I */                                  \
  X(WrapI32)    /* r[A].I = (int32)r[B].I */                                  \
  X(WrapU8)     /* r[A].U = (uint8)r[B].U (truncate, zero-extend) */          \
  X(WrapU16)    /* r[A].U = (uint16)r[B].U */                                 \
  X(WrapU32)    /* r[A].U = (uint32)r[B].U */                                 \
  X(WrapBool)   /* r[A].U = r[B].I != 0 */                                    \
  X(I2F)        /* r[A].D = (double)r[B].I */                                 \
  X(I2F32)      /* r[A].F = (float)r[B].I */                                  \
  X(F2I8)       /* r[A].I = (int8)r[B].D */                                   \
  X(F2I16)      /* r[A].I = (int16)r[B].D */                                  \
  X(F2I32)      /* r[A].I = (int32)r[B].D */                                  \
  X(F2I64)      /* r[A].I = (int64)r[B].D */                                  \
  X(F2U8)       /* r[A].U = (uint8)r[B].D */                                  \
  X(F2U16)      /* r[A].U = (uint16)r[B].D */                                 \
  X(F2U32)      /* r[A].U = (uint32)r[B].D */                                 \
  X(F2U64)      /* r[A].U = (uint64)r[B].D */                                 \
  X(F2Bool)     /* r[A].U = r[B].D != 0 */                                    \
  X(F32ToF)     /* r[A].D = (double)r[B].F (exact) */                         \
  X(FToF32)     /* r[A].F = (float)r[B].D */                                  \
  X(LdI8)       /* r[A].I = *(int8 *)(r[B].P + Imm), sign-extended */         \
  X(LdI16)      /* ... */                                                     \
  X(LdI32)                                                                    \
  X(LdI64)                                                                    \
  X(LdU8)       /* r[A].U = *(uint8 *)(r[B].P + Imm), zero-extended */        \
  X(LdU16)                                                                    \
  X(LdU32)                                                                    \
  X(LdU64)                                                                    \
  X(LdF32)      /* r[A].F = *(float *)(r[B].P + Imm) */                       \
  X(LdF64)      /* r[A].D = *(double *)(r[B].P + Imm) */                      \
  X(LdP)        /* r[A].P = *(void **)(r[B].P + Imm) */                       \
  X(StI8)       /* *(int8 *)(r[A].P + Imm) = (int8)r[B].I */                  \
  X(StI16)                                                                    \
  X(StI32)                                                                    \
  X(StI64)                                                                    \
  X(StF32)      /* *(float *)(r[A].P + Imm) = r[B].F */                       \
  X(StF64)      /* *(double *)(r[A].P + Imm) = r[B].D */                      \
  X(StP)        /* *(void **)(r[A].P + Imm) = r[B].P */                       \
  X(MemCpy)     /* memcpy(r[A].P, r[B].P, Imm) */                             \
  X(MemZero)    /* memset(r[A].P, 0, Imm) */                                  \
  X(PtrAdd)     /* r[A].P = r[B].P + r[C].I * Imm (Imm = element size) */     \
  X(PtrSub)     /* r[A].P = r[B].P - r[C].I * Imm */                          \
  X(PtrDiff)    /* r[A].I = (r[B].P - r[C].P) / Imm */                        \
  X(PtrAddImm)  /* r[A].P = r[B].P + Imm (field offsets) */                    \
  X(TrapIfNull) /* if (!r[A].P) trap[Imm] */                                  \
  X(TrapIfZero) /* if (!r[A].I) trap[Imm] (div/mod guard, for-loop step) */   \
  X(TrapIfShiftGE) /* if (r[A].U >= B) trap[Imm] (B = type bit width) */      \
  X(ForCond)    /* r[A].U = r[Imm].I > 0 ? r[B].I < r[C].I                    \
                                         : r[B].I > r[C].I */                 \
  X(Jmp)        /* ip = Imm */                                                \
  X(JmpIfFalse) /* if (!r[A].U) ip = Imm */                                   \
  X(JmpIfTrue)  /* if (r[A].U) ip = Imm */                                    \
  X(JmpBack)    /* ++backedges; ip = Imm (loop latch) */                      \
  X(Call)       /* invoke Calls[Imm] */                                       \
  X(Ret)        /* return (void, or result already staged) */                 \
  X(RetVal)     /* write r[A] (or *r[A].P for aggregates) to Ret; return */   \
  X(Trap)       /* abort execution with Traps[Imm] */

enum class Op : uint16_t {
#define TERRACPP_BYTECODE_ENUM(Name) Name,
  TERRACPP_BYTECODE_OPS(TERRACPP_BYTECODE_ENUM)
#undef TERRACPP_BYTECODE_ENUM
};

/// Number of opcodes (size of the dispatch table).
constexpr unsigned NumOps = 0
#define TERRACPP_BYTECODE_COUNT(Name) +1
    TERRACPP_BYTECODE_OPS(TERRACPP_BYTECODE_COUNT)
#undef TERRACPP_BYTECODE_COUNT
    ;

const char *opName(Op O);

/// Fixed-width instruction. 16 bytes; the whole program is one contiguous
/// std::vector<Insn> with no per-op heap allocation.
struct Insn {
  Op Code;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  int64_t Imm = 0;
};

static_assert(sizeof(Insn) == 16, "instructions must stay compact");

/// How the VM writes the function result through the FFI Ret pointer.
enum class RetKind : uint8_t {
  None,  ///< void
  I8, I16, I32, I64, U8, U16, U32, U64, Bool, F32, F64, Ptr,
  Agg,   ///< RetVal register holds the address; memcpy RetBytes.
};

/// One out-of-line call site (Terra-to-Terra, extern, or host closure).
/// Kept out of the instruction stream so Insn stays fixed-width.
struct CallSite {
  /// The static callee; null for an indirect call, whose function value
  /// (a TerraFunction*, or its promoted machine address under tiered
  /// execution) is read from CalleeReg when the call executes.
  TerraFunction *Callee = nullptr;
  uint16_t CalleeReg = 0xFFFF;
  /// Per-argument: source register and whether it holds the value address
  /// (aggregates) rather than the value itself (scalars).
  struct Arg {
    uint16_t Reg;
    bool ByAddr;
  };
  std::vector<Arg> Args;
  /// Static call-site argument types (extern printf dispatch needs them).
  std::vector<Type *> ArgTypes;
  Type *RetTy = nullptr;       ///< Null or void type for no result.
  RetKind RetLoad = RetKind::None; ///< How to move Ret bytes into DstReg.
  uint16_t DstReg = 0xFFFF;    ///< Scalar result register; 0xFFFF = none.
  uint32_t RetFrameOff = 0;    ///< Frame scratch the callee writes into.
  /// Frame scratch holding the Args.size() FFI argument pointers the
  /// engines stage when the call executes.
  uint32_t ArgsFrameOff = 0;
  SourceLoc Loc;
};

/// A compiled function. Immutable after compile(); shared between the
/// owning TerraFunction and any in-flight executions.
struct Function {
  const TerraFunction *Src = nullptr;
  std::string Name;
  std::vector<Insn> Code;
  uint32_t NumRegs = 0;
  uint32_t FrameBytes = 0;

  struct Param {
    uint16_t Reg = 0;      ///< Scalar destination register.
    uint32_t FrameOff = 0; ///< Aggregate destination (when InFrame).
    Type *Ty = nullptr;
    bool InFrame = false;
  };
  std::vector<Param> Params;

  RetKind Ret = RetKind::None;
  uint32_t RetBytes = 0; ///< For RetKind::Agg.

  std::vector<CallSite> Calls;
  std::vector<std::pair<std::string, SourceLoc>> Traps;
};

/// Where and why compile() gave up on a function.
struct BailSite {
  std::string Reason;
  SourceLoc Loc;
};

/// Compiles a typechecked, midend-run function to bytecode. Returns null
/// when the function needs more than the uint16_t register file or the
/// uint32_t frame, or holds IR the typechecker does not produce; the first
/// bail site is stored through \p Why when given. Never reports
/// diagnostics. With \p Inline, small direct callees are compiled in place
/// of their calls (DESIGN.md §10); the tiered backend passes false so every
/// call is counted.
std::shared_ptr<const Function> compile(TerraContext &Ctx,
                                        const TerraFunction *F,
                                        BailSite *Why = nullptr,
                                        bool Inline = true);

/// Human-readable disassembly (tests, --dump-bytecode debugging).
std::string disassemble(const Function &F);

} // namespace bytecode
} // namespace terracpp

#endif // TERRACPP_CORE_TERRABYTECODE_H
