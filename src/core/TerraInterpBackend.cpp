#include "core/TerraInterpBackend.h"

#include "core/TerraBaselineJIT.h"
#include "core/TerraCompiler.h"
#include "core/TerraVM.h"

using namespace terracpp;

//===----------------------------------------------------------------------===//
// TerraInterpBackend
//===----------------------------------------------------------------------===//

TerraInterpBackend::TerraInterpBackend(TerraContext &Ctx,
                                       TerraCompiler &Compiler)
    : Ctx(Ctx), Compiler(Compiler),
      MDispatchUs(Compiler.jit().metrics().histogram("vm.dispatch_us")),
      MBackEdges(Compiler.jit().metrics().counter("vm.backedges")) {}

int TerraInterpBackend::execute(const TerraFunction *F, void **Args, void *Ret,
                                uint64_t *BackEdges) {
  if (BackEdges)
    *BackEdges = 0;
  int Tier = 0;
  if (F->HostClosure) {
    // Host closures carry no Body; the engines below would have nothing to
    // run. (Reached when a closure lands in a tiered component.)
    Compiler.invokeHostClosure(F->HostClosureId, Args, Ret);
  } else if (!F->Bytecode) {
    // prepare() reported why; reaching here means a caller ignored that.
    Ctx.diags().error(SourceLoc(), "terra interpreter: function '" + F->Name +
                                       "' has no bytecode");
  } else {
    // Baseline machine code when available; same ExecEnv contract, same
    // telemetry stream as the VM.
    BaselineJIT::Fn Entry = nullptr;
    if (BaselineJIT *BJ = Compiler.baseline())
      Entry = BJ->entryFor(const_cast<TerraFunction *>(F));
    vm::ExecEnv Env(Ctx, Compiler);
    if (Entry) {
      Tier = 2;
      // The emitted frame lives on the native stack: charge the shared
      // depth budget before entering machine code. Recursion through
      // dispatcher entries comes back here with a fresh Env each hop; this
      // thread-shared scope is what bounds the stack those frames grow.
      vm::CallDepthScope DepthScope(BaselineJIT::depthUnits(F));
      if (DepthScope.exceeded()) {
        vm::failStackOverflow(Env);
      } else {
        telemetry::ScopedTimerUs T(MDispatchUs);
        Env.BackEdges += Entry(Args, Ret, &Env);
      }
    } else {
      telemetry::ScopedTimerUs T(MDispatchUs);
      vm::run(*F->Bytecode, Args, Ret, Env);
    }
    if (Env.BackEdges) {
      MBackEdges.inc(Env.BackEdges);
      if (BackEdges)
        *BackEdges = Env.BackEdges;
    }
  }
  Compiler.noteLastCallTier(Tier);
  return Tier;
}

bool TerraInterpBackend::compileBytecode(TerraFunction *F) {
  if (F->Bytecode || !F->Body || F->IsExtern || F->HostClosure)
    return true;
  bytecode::BailSite Why;
  F->Bytecode = bytecode::compile(Ctx, F, &Why);
  if (F->Bytecode)
    return true;
  Ctx.diags().error(Why.Loc, "terra interpreter: cannot compile function '" +
                                 F->Name + "' to bytecode: " + Why.Reason);
  return false;
}

bool TerraInterpBackend::prepare(TerraFunction *F) {
  if (!compileBytecode(F))
    return false;
  if (F->Entry)
    return true;
  TerraInterpBackend *Self = this;
  F->Entry = [Self, F](void **Args, void *Ret) { Self->execute(F, Args, Ret); };
  return true;
}
