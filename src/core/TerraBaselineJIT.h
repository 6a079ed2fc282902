//===- TerraBaselineJIT.h - Tier-0.5 x86-64 template JIT --------*- C++ -*-===//
//
// One-pass native code emission straight from the register bytecode
// (DESIGN.md §11). This is the middle rung of the tier lattice
//
//   tree-walker -> bytecode VM -> baseline JIT -> cc-compiled native
//
// Emission is microseconds (no external compiler), so the baseline replaces
// the VM on a function's very first dispatch; the optimizing C backend
// still lands in the background exactly as before. Semantics are the VM's
// bit for bit: the same canonical Slot forms, the same out-of-line call/
// trap side tables (calls and traps run through vm::execCallSite /
// vm::execTrap so source locations and FFI behavior are tier-invariant),
// the same "terra interpreter: ..." diagnostics. Bytecode the emitter
// cannot handle bails permanently to the VM, mirroring how the VM bails to
// the tree-walker.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRABASELINEJIT_H
#define TERRACPP_CORE_TERRABASELINEJIT_H

#include "support/CodeBuffer.h"

#include <cstdint>
#include <vector>

namespace terracpp {

class TerraFunction;

namespace telemetry {
class Registry;
class Histogram;
class Gauge;
class Counter;
} // namespace telemetry

namespace vm {
struct ExecEnv;
} // namespace vm

/// Emits and caches baseline machine code per TerraFunction. Thread-safe:
/// entries are CAS-published on TerraFunction::BaselineEntry, and racing
/// emitters at worst waste a few hundred bytes of code buffer.
class BaselineJIT {
public:
  /// Emitted-function signature: the two entry-thunk arguments plus the
  /// execution environment for out-of-line helpers. Returns the number of
  /// loop back edges executed (profile signal for cc promotion). Failures
  /// are signaled through Env->Failed / diagnostics, never the return.
  using Fn = uint64_t (*)(void **Args, void *Ret, vm::ExecEnv *Env);

  explicit BaselineJIT(telemetry::Registry &Metrics);

  /// Returns the baseline entry for \p F, emitting it on first use. Null
  /// when \p F has no bytecode or uses a construct the emitter bails on;
  /// the failure is remembered, so callers can probe on every dispatch.
  Fn entryFor(TerraFunction *F);

  /// Depth units one activation of \p F's baseline code costs against
  /// vm::MaxCallDepth. Unlike VM frames (heap-allocated), baseline frames
  /// live on the native stack, so large frames are charged more — at 16 KiB
  /// per unit a full budget stays under ~6.5 MiB of native stack, inside a
  /// default 8 MiB thread stack. Every call of a BaselineJIT::Fn must sit
  /// under a vm::CallDepthScope charged with this value.
  static unsigned depthUnits(const TerraFunction *F);

  /// True iff the host architecture is supported (x86-64 only).
  static bool supported();

  /// Emits baseline code for \p F's bytecode into \p Out without publishing
  /// executable pages. Returns false when \p F has no bytecode or the
  /// emitter bails. Tests use this to assert properties of the exact
  /// instruction bytes (e.g. that analysis-elided guards are truly absent).
  static bool emitBytesForTest(const TerraFunction *F,
                               std::vector<uint8_t> &Out);

private:
  CodeBuffer Code;
  telemetry::Histogram &MEmitUs;  ///< jit.baseline_emit_us
  telemetry::Gauge &MCodeBytes;   ///< jit.baseline_code_bytes
  telemetry::Counter &MFunctions; ///< jit.baseline_functions
  telemetry::Counter &MBailouts;  ///< jit.baseline_bailouts
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRABASELINEJIT_H
