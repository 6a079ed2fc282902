//===- TerraVM.h - Tier-0 register bytecode interpreter ---------*- C++ -*-===//
//
// Executes bytecode::Function programs (TerraBytecode.h) with a
// computed-goto dispatch loop. This is the tier-0 engine of the tiered
// execution pipeline: it runs immediately after codegen with no C compiler
// on the critical path, while profile counters (call counts here at the
// dispatcher, back edges accumulated in ExecEnv) drive background promotion
// to native code.
//
// Results are the native backend's, bit for bit; the baseline JIT shares the
// trap messages ("terra interpreter: ..." diagnostics), the extern calls
// (the libc table's invokers, core/Libc.h) and the depth limit. The
// differential tests in test_backends/test_fuzz pin this equivalence against
// native code and literal expected values.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAVM_H
#define TERRACPP_CORE_TERRAVM_H

#include "core/TerraBytecode.h"

#include <cstdint>

namespace terracpp {

class TerraContext;
class TerraCompiler;

namespace vm {

/// Per-invocation execution context. One ExecEnv spans an outermost entry
/// and all bytecode-to-bytecode recursion under it; calls that leave the VM
/// (externs, host closures, Entry thunks) get fresh state on re-entry. Call
/// depth is deliberately
/// NOT part of this state: it lives in a per-thread counter (callDepth())
/// so recursion that crosses dispatcher-thunk boundaries — where each hop
/// constructs a fresh ExecEnv — still runs into the depth limit instead of
/// growing the native stack without bound.
struct ExecEnv {
  ExecEnv(TerraContext &Ctx, TerraCompiler &Comp) : Ctx(Ctx), Comp(Comp) {}

  TerraContext &Ctx;
  TerraCompiler &Comp;
  /// Loop latch executions observed during this invocation; the caller
  /// flushes them into the function's TierState / telemetry.
  uint64_t BackEdges = 0;
  /// Set once a trap or callee failure aborted execution (the diagnostic,
  /// if any, has already been reported).
  bool Failed = false;
};

/// Depth budget shared by the interpreter tiers (VM and baseline JIT).
/// Ordinary activations cost one unit; baseline activations whose emitted
/// frame lives on the native stack are charged proportionally to its size
/// (BaselineJIT::depthUnits) so a full budget always fits a default-sized
/// thread stack.
constexpr unsigned MaxCallDepth = 400;

/// The current thread's guest call depth, in units. Shared across ExecEnv
/// instances (see above); manipulate it through CallDepthScope only.
unsigned &callDepth();

/// RAII charge of one guest activation against the thread's depth budget.
/// Construct, then test exceeded() before doing any real work: past the
/// limit the caller must report failStackOverflow() and unwind.
class CallDepthScope {
public:
  explicit CallDepthScope(unsigned Units = 1) : Units(Units) {
    callDepth() += Units;
  }
  ~CallDepthScope() { callDepth() -= Units; }
  CallDepthScope(const CallDepthScope &) = delete;
  CallDepthScope &operator=(const CallDepthScope &) = delete;
  bool exceeded() const { return callDepth() > MaxCallDepth; }

private:
  unsigned Units;
};

/// Reports the tier-invariant "terra call stack overflow" diagnostic, sets
/// Env.Failed, and returns false.
bool failStackOverflow(ExecEnv &Env);

/// Runs \p F over FFI-convention arguments: Args[i] points at the i-th
/// value with C layout, Ret at the result buffer (null for void). Returns
/// false when execution aborted (Env.Failed set; at most one "terra
/// interpreter: ..." diagnostic reported).
bool run(const bytecode::Function &F, void **Args, void *Ret, ExecEnv &Env);

// Out-of-line services for the baseline JIT (TerraBaselineJIT.cpp). The
// emitted machine code calls these for everything that is not straight-line
// arithmetic, so call dispatch, trap messages, and function-literal
// semantics stay byte-identical across the VM and baseline tiers.

/// Executes call site \p Idx of \p F over the register file / frame of a
/// running activation. False when the callee failed (Env.Failed set).
bool execCallSite(const bytecode::Function &F, uint64_t Idx,
                  bytecode::Slot *R, uint8_t *Frame, ExecEnv &Env);

/// Reports trap \p Idx of \p F (diagnostic with its source location).
void execTrap(const bytecode::Function &F, uint64_t Idx, ExecEnv &Env);

/// Materializes the value of function \p Fn into \p Dst (machine address
/// under tiered execution, the TerraFunction otherwise). False on failure.
bool execFnLit(TerraFunction *Fn, bytecode::Slot &Dst, ExecEnv &Env);

/// Writes the FFI argument pointers of call site \p CS into its frame
/// scratch (Frame + CS.ArgsFrameOff) and returns that array.
void **stageCallArgs(const bytecode::CallSite &CS, bytecode::Slot *R,
                     uint8_t *Frame);

/// Canonicalizes a staged call result into a register slot (VM loadRet).
void loadCallResult(bytecode::Slot &Dst, bytecode::RetKind K,
                    const void *Src);

} // namespace vm
} // namespace terracpp

#endif // TERRACPP_CORE_TERRAVM_H
