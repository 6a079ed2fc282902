#include "core/Engine.h"

#include "analysis/Analysis.h"
#include "core/LuaStdlib.h"
#include "core/Parser.h"
#include "support/EnvParse.h"
#include "support/Subprocess.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace terracpp;
using namespace terracpp::lua;

/// True when a `cc` binary exists somewhere on PATH. Cached: the PATH scan
/// happens once per process, and the answer feeds only the *default*
/// backend choice.
static bool ccOnPath() {
  static const bool Found = !findOnPath("cc").empty();
  return Found;
}

BackendKind Engine::defaultBackend() {
  // No C compiler installed: run on the compiler-free tiers instead of
  // failing every first call. Choices are in BackendKind's order.
  BackendKind Probe = ccOnPath() ? BackendKind::Native : BackendKind::Interp;
  return static_cast<BackendKind>(
      envcfg::parseChoice("TERRACPP_BACKEND", {"native", "tiered", "interp"},
                          static_cast<size_t>(Probe)));
}

InterpKind Engine::defaultInterp() {
  // Choices are in InterpKind's order.
  return static_cast<InterpKind>(envcfg::parseChoice(
      "TERRACPP_INTERP", {"baseline", "vm"},
      static_cast<size_t>(InterpKind::Baseline)));
}

Engine::Engine(BackendKind Backend) : Diags(&SM) {
  TCtx = std::make_unique<TerraContext>(Diags);
  I = std::make_unique<Interp>(*TCtx, Diags);
  Comp = std::make_unique<TerraCompiler>(*TCtx, *I, Backend, defaultInterp());
  // Wire the interpreter to the compiler.
  TerraCompiler *CompP = Comp.get();
  I->hooks().Typecheck = [CompP](TerraFunction *F) {
    return CompP->typechecker().check(F);
  };
  I->hooks().CallTerra = [CompP](TerraFunction *F, std::vector<Value> &Args,
                                 std::vector<Value> &Results, SourceLoc Loc) {
    return CompP->callFromHost(F, Args, Results, Loc);
  };
  installStdlib(*I, *Comp);
}

Engine::~Engine() = default;

bool Engine::run(const std::string &Source, const std::string &Name) {
  uint32_t BufferId = SM.addBuffer(Name, Source);
  const Block *Chunk;
  {
    trace::TraceSpan Span("parse", "frontend");
    Span.arg("chunk", Name);
    telemetry::ScopedTimerUs T(
        telemetry::Registry::global().histogram("frontend.parse_us"));
    Parser P(*TCtx, SM.bufferContents(BufferId), BufferId, Diags);
    Chunk = P.parseChunk();
  }
  if (!Chunk || Diags.hasErrors())
    return false;
  trace::TraceSpan Span("run_chunk", "frontend");
  Span.arg("chunk", Name);
  return I->runChunk(Chunk);
}

bool Engine::runFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    Diags.error(SourceLoc(), "cannot open file " + Path);
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return run(SS.str(), Path);
}

Value Engine::global(const std::string &Name) {
  Cell C = I->globalEnv()->lookup(TCtx->intern(Name));
  return C ? *C : Value::nil();
}

void Engine::setGlobal(const std::string &Name, Value V) {
  I->globalEnv()->define(TCtx->intern(Name), std::move(V));
}

TerraFunction *Engine::terraFunction(const std::string &GlobalName) {
  Value V = global(GlobalName);
  return V.isTerraFn() ? V.asTerraFn() : nullptr;
}

std::vector<std::string> Engine::terraFunctionNames() {
  std::vector<std::string> Names;
  I->globalEnv()->forEachLocal([&](const std::string &Name, const Value &V) {
    if (V.isTerraFn())
      Names.push_back(Name);
  });
  std::sort(Names.begin(), Names.end());
  return Names;
}

void *Engine::rawPointer(const std::string &GlobalName) {
  TerraFunction *F = terraFunction(GlobalName);
  if (!F) {
    Diags.error(SourceLoc(),
                "no terra function named '" + GlobalName + "'");
    return nullptr;
  }
  return rawPointer(F);
}

void *Engine::rawPointer(TerraFunction *F) {
  // Under tiered execution this forces promotion to native code: a raw
  // pointer handed to the host must be a machine address, never a tier-0
  // handle.
  return Comp->nativePointer(F);
}

bool Engine::compileAll(const std::vector<TerraFunction *> &Fns) {
  return Comp->compileAll(Fns);
}

bool Engine::call(const Value &Fn, std::vector<Value> Args,
                  std::vector<Value> &Results) {
  return I->call(Fn, std::move(Args), Results, SourceLoc());
}

unsigned Engine::analyzeAll(analysis::AnalysisReport *Report) {
  analysis::AnalyzeOptions Opts;
  Opts.Lints = Comp->analyzeLints();
  Opts.Werror = Comp->analyzeWerror();

  // Collect every typechecked definition and analyze them as a single
  // component, so the interprocedural pass sees all call edges regardless
  // of which functions share a compilation root.
  std::vector<TerraFunction *> Fns;
  for (const auto &FPtr : TCtx->functions()) {
    TerraFunction *F = FPtr.get();
    if (F->IsExtern || F->HostClosure || !F->Body || F->AnalysisDone ||
        F->State == TerraFunction::SK_Declared)
      continue;
    // Typecheck errors keep their own diagnostics; the checkers need a
    // typed tree, so such functions are skipped.
    if (!Comp->typechecker().check(F))
      continue;
    Fns.push_back(F);
  }
  analysis::AnalysisReport R = analysis::analyzeComponent(Diags, Fns, Opts);
  unsigned N = R.NumFindings;
  if (Report)
    *Report = std::move(R);
  return N;
}
