//===- Engine.h - Public facade for the terracpp system ---------*- C++ -*-===//
//
// The Engine owns one complete Lua/Terra universe: source manager,
// diagnostics, Terra context, host interpreter, and compiler. It is the
// entry point applications use:
//
//   terracpp::Engine E;
//   E.run("terra add(a: int, b: int): int return a + b end");
//   auto *Add = (int32_t(*)(int32_t, int32_t))E.rawPointer("add");
//
// Substrate libraries (auto-tuner, Orion, class system, DataTable) are
// built on the Engine plus the C++ staging API in StagingAPI.h.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_ENGINE_H
#define TERRACPP_CORE_ENGINE_H

#include "core/LuaInterp.h"
#include "core/TerraCompiler.h"

#include <memory>
#include <string>

namespace terracpp {

namespace analysis {
struct AnalysisReport;
} // namespace analysis

class Engine {
public:
  /// Execution is two choices, each resolved once. \p Backend says when cc
  /// runs; an explicit argument is used as given. What runs code cc has not
  /// compiled always comes from defaultInterp().
  explicit Engine(BackendKind Backend = defaultBackend());
  ~Engine();
  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// TERRACPP_BACKEND={native,tiered,interp}. Unset (or invalid, with a
  /// one-time warning): Native when a cc is on PATH, else Interp.
  static BackendKind defaultBackend();
  /// TERRACPP_INTERP={baseline,vm,tree}. Unset (or invalid, with a
  /// one-time warning): Baseline.
  static InterpKind defaultInterp();

  /// Parses and runs a combined Lua/Terra chunk. False on error (see
  /// errors()).
  bool run(const std::string &Source, const std::string &Name = "chunk");
  bool runFile(const std::string &Path);

  /// Reads/writes a global host variable.
  lua::Value global(const std::string &Name);
  void setGlobal(const std::string &Name, lua::Value V);

  /// Looks up a global holding a Terra function.
  TerraFunction *terraFunction(const std::string &GlobalName);

  /// Names of globals currently bound to Terra functions, sorted. This is
  /// the callable surface a compiled script exposes (the terrad server
  /// reports it per compile handle).
  std::vector<std::string> terraFunctionNames();

  /// Compiles the named Terra function and returns its native code address
  /// (null in interp backend or on error). Cast to the correct signature.
  void *rawPointer(const std::string &GlobalName);
  void *rawPointer(TerraFunction *F);

  /// Batch-compiles every function's connected component through the JIT's
  /// parallel pipeline (TerraCompiler::compileAll). Returns true only if
  /// all succeeded; individual results are observable via each function's
  /// RawPtr.
  bool compileAll(const std::vector<TerraFunction *> &Fns);

  /// Calls a host value (closure or Terra function) with host-value args.
  bool call(const lua::Value &Fn, std::vector<lua::Value> Args,
            std::vector<lua::Value> &Results);

  /// Typechecks and statically analyzes every defined Terra function
  /// (terracpp --analyze) without generating code. Returns the number of
  /// analysis findings reported; functions that fail to typecheck are
  /// skipped after their type errors are reported. When \p Report is
  /// non-null it receives the full structured report (machine-readable
  /// findings for --analyze-json).
  unsigned analyzeAll(analysis::AnalysisReport *Report = nullptr);

  DiagnosticEngine &diags() { return Diags; }
  TerraContext &context() { return *TCtx; }
  lua::Interp &interp() { return *I; }
  TerraCompiler &compiler() { return *Comp; }
  SourceManager &sourceManager() { return SM; }

  /// All diagnostics rendered as one string; clears nothing.
  std::string errors() const { return Diags.renderAll(); }

private:
  SourceManager SM;
  DiagnosticEngine Diags;
  std::unique_ptr<TerraContext> TCtx;
  std::unique_ptr<lua::Interp> I;
  std::unique_ptr<TerraCompiler> Comp;
};

} // namespace terracpp

#endif // TERRACPP_CORE_ENGINE_H
