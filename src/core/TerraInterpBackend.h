//===- TerraInterpBackend.h - Interpreted execution backend -----*- C++ -*-===//
//
// Execution engine that runs typechecked Terra functions with no C compiler
// required: everything under BackendKind::Interp, and code not yet promoted
// under BackendKind::Tiered. Every function is compiled to register bytecode
// (TerraBytecode) and runs on one of two engines over it:
//
//  * the baseline x86-64 JIT (TerraBaselineJIT), when InterpKind::Baseline
//    and the emitter handles the function; otherwise
//  * the register-bytecode VM (TerraVM).
//
// A function the bytecode compiler rejects is a compile error naming the
// function and the bail site; there is no third engine to fall back to.
// Both engines implement the same separate-evaluation semantics as the
// native backend (Terra code never touches the host store) and report the
// same "terra interpreter: ..." diagnostics. Outside BackendKind::Tiered,
// values of function type hold a TerraFunction* (never a machine address),
// so interpreted code can call externs, host wrappers, and other
// interpreted functions uniformly.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAINTERPBACKEND_H
#define TERRACPP_CORE_TERRAINTERPBACKEND_H

#include "core/TerraAST.h"
#include "core/TerraCompiler.h"
#include "support/Telemetry.h"

#include <cstdint>

namespace terracpp {

class TerraInterpBackend {
public:
  TerraInterpBackend(TerraContext &Ctx, TerraCompiler &Compiler);

  /// Compiles \p F to bytecode unless it has some (or has no body). False,
  /// with an error diagnostic naming the function and the bail site, when
  /// the bytecode compiler rejects it.
  bool compileBytecode(TerraFunction *F);

  /// compileBytecode, then installs an interpretive Entry thunk.
  /// Idempotent; false when compileBytecode fails.
  bool prepare(TerraFunction *F);

  /// Runs \p F over FFI-convention arguments on baseline code when there
  /// is some, else on the bytecode VM. Traps and errors surface as
  /// diagnostics. Returns the tier that ran it (2 = baseline code, 0 = VM)
  /// and records it as the compiler's last call tier. When \p BackEdges is
  /// non-null it receives the loop back edges this call executed — the
  /// tiered dispatcher feeds it into promotion heuristics.
  int execute(const TerraFunction *F, void **Args, void *Ret,
              uint64_t *BackEdges = nullptr);

private:
  TerraContext &Ctx;
  TerraCompiler &Compiler;
  telemetry::Histogram &MDispatchUs; ///< vm.dispatch_us (outermost calls).
  telemetry::Counter &MBackEdges;    ///< vm.backedges.
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRAINTERPBACKEND_H
