//===- TerraInterpBackend.h - Interpreted execution backend -----*- C++ -*-===//
//
// Execution engine that runs typechecked Terra functions with no C compiler
// required: everything under BackendKind::Interp, and code not yet promoted
// under BackendKind::Tiered. It is the one dispatcher over three engines,
// each the fallback for constructs the one before does not handle:
//
//  * the baseline x86-64 JIT (TerraBaselineJIT), when InterpKind::Baseline;
//  * the register-bytecode VM (TerraBytecode/TerraVM), used whenever a
//    function compiles to bytecode; and
//  * the original tree-walking evaluator (TEval, in the .cpp) — the
//    reference implementation and the oracle for differential tests
//    (InterpKind::Tree pins every execution to it). Otherwise it runs only
//    functions past the bytecode compiler's size limits; each such
//    function bumps interp.tree_fallbacks.
//
// All engines implement the same separate-evaluation semantics as the
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
  TerraInterpBackend(TerraContext &Ctx, TerraCompiler &Compiler,
                     InterpKind Kind);

  /// Compiles \p F to bytecode unless it has some (or has no body). A
  /// function left without bytecode runs on the tree-walker: it counts in
  /// interp.tree_fallbacks and logs its bail site at debug level.
  void compileBytecode(TerraFunction *F);

  /// compileBytecode, then installs an interpretive Entry thunk.
  /// Idempotent.
  bool prepare(TerraFunction *F);

  /// Runs \p F over FFI-convention arguments on the first engine that
  /// handles it: baseline code, the bytecode VM, then the tree-walker.
  /// Traps and errors surface as diagnostics. Returns the tier that ran it
  /// (2 = baseline code, 0 = VM or tree-walker) and records it as the
  /// compiler's last call tier. When \p BackEdges is non-null it receives
  /// the loop back edges this call executed (0 on the tree-walker) — the
  /// tiered dispatcher feeds it into promotion heuristics.
  int execute(const TerraFunction *F, void **Args, void *Ret,
              uint64_t *BackEdges = nullptr);

private:
  TerraContext &Ctx;
  TerraCompiler &Compiler;
  const bool ForceTree;
  telemetry::Histogram &MDispatchUs; ///< vm.dispatch_us (outermost calls).
  telemetry::Counter &MBackEdges;    ///< vm.backedges.
  telemetry::Counter &MTreeFallbacks; ///< interp.tree_fallbacks.
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRAINTERPBACKEND_H
