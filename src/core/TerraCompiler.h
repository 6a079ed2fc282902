//===- TerraCompiler.h - Compilation driver + FFI ---------------*- C++ -*-===//
//
// Orchestrates the lazy compilation pipeline (paper §4.1/§5): when a Terra
// function is first called, its whole connected component is typechecked
// (Fig. 4), midend passes run, and the component is compiled by the selected
// backend. Also implements the FFI (paper §4.2): host values convert to
// Terra values at call boundaries, Terra results convert back, and host
// closures can be wrapped as callable Terra functions.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRACOMPILER_H
#define TERRACPP_CORE_TERRACOMPILER_H

#include "core/LuaValue.h"
#include "core/TerraAST.h"
#include "core/TerraJIT.h"
#include "core/TerraTier.h"
#include "core/TerraTypecheck.h"

#include <atomic>
#include <map>
#include <memory>

namespace terracpp {

class TerraInterpBackend;
class BaselineJIT;

/// When cc compiles Terra code (CBackend -> system cc -> dlopen).
enum class BackendKind {
  Native, ///< At each component's first call.
  Tiered, ///< In the background: code starts on the interpreter and hot
          ///< components are promoted to native code.
  Interp, ///< Never: no C compiler required.
};

/// What runs code cc has not compiled. Both run the function's bytecode;
/// the baseline JIT leaves functions its emitter does not handle to the VM.
enum class InterpKind {
  Baseline, ///< Baseline x86-64 JIT over the bytecode VM.
  VM,       ///< Register-bytecode VM.
};

class TerraCompiler {
public:
  TerraCompiler(TerraContext &Ctx, lua::Interp &I,
                BackendKind Backend = BackendKind::Native,
                InterpKind Interpreter = InterpKind::Baseline);
  ~TerraCompiler();

  Typechecker &typechecker() { return TC; }
  JITEngine &jit() { return JIT; }
  BackendKind backend() const { return Backend; }
  InterpKind interpKind() const { return Interpreter; }

  /// The tier-promotion manager; null unless the backend is Tiered.
  TierManager *tierManager() { return Tiers.get(); }

  /// The baseline JIT (tier 0.5); null unless the interpreter is Baseline
  /// on a supported architecture and the backend is not Native.
  BaselineJIT *baseline() { return Baseline.get(); }

  /// The tier (0 = interpreted/VM, 2 = baseline JIT, 1 = cc-native) that
  /// executed the most recent host-initiated call; -1 before any call.
  /// Monitoring only (terrad echoes it in call responses); approximate
  /// under concurrency.
  int lastCallTier() const {
    return LastCallTier.load(std::memory_order_relaxed);
  }

  /// Records which tier ran a dispatch (TerraInterpBackend::execute).
  void noteLastCallTier(int T) {
    LastCallTier.store(T, std::memory_order_relaxed);
  }

  /// Static-analysis policy for the compile pipeline. Lints default to the
  /// TERRACPP_ANALYZE environment setting; the missing-return check always
  /// runs (it is a backend invariant).
  void setAnalyzeLints(bool On) { AnalyzeLints = On; }
  bool analyzeLints() const { return AnalyzeLints; }
  void setAnalyzeWerror(bool On) { AnalyzeWerror = On; }
  bool analyzeWerror() const { return AnalyzeWerror; }

  /// Typechecks, optimizes, and compiles F (and its connected component).
  /// Under BackendKind::Tiered "compiled" means runnable: the function gets
  /// a tier-0 dispatcher entry immediately and native code arrives in the
  /// background. Idempotent; false on failure.
  bool ensureCompiled(TerraFunction *F);

  /// Returns \p F's native machine-code address, compiling synchronously if
  /// needed (under BackendKind::Tiered this forces promotion of the
  /// function's component, waiting for an in-flight background job). Null
  /// on failure. This is what function-pointer marshalling and
  /// Engine::rawPointer use — native code must never receive a tier-0
  /// handle as a function pointer.
  void *nativePointer(TerraFunction *F);

  /// Reverse of nativePointer: maps a machine address it returned back to
  /// the function; null for unknown addresses. Under BackendKind::Tiered
  /// materialized function values are machine addresses everywhere (so
  /// native code can call the same bits), and the tier-0 engines use this
  /// to dispatch indirect calls through them.
  TerraFunction *functionForRawPtr(const void *P) const {
    auto It = RawToFn.find(P);
    return It == RawToFn.end() ? nullptr : It->second;
  }

  /// Batch variant of ensureCompiled: typechecks and generates code for
  /// every root's connected component serially (the frontend is
  /// single-threaded), then pushes all resulting C modules through the
  /// JIT's parallel job pool at once. Functions already compiled or staged
  /// by an earlier root are skipped. Candidates fail independently —
  /// callers that can tolerate partial success (the autotuner) should test
  /// each function's RawPtr afterwards. Returns true only if every root
  /// compiled.
  bool compileAll(const std::vector<TerraFunction *> &Roots);

  /// Calls a Terra function with host values across the FFI.
  bool callFromHost(TerraFunction *F, std::vector<lua::Value> &Args,
                    std::vector<lua::Value> &Results, SourceLoc Loc);

  /// Converts one host value into the bytes of a Terra value of type \p Ty
  /// at \p Dst (paper §4.2 FFI conversions). False on conversion failure.
  bool marshalValue(const lua::Value &V, Type *Ty, void *Dst, SourceLoc Loc);

  /// Converts Terra bytes back into a host value.
  lua::Value unmarshalValue(Type *Ty, const void *Src);

  /// Wraps a host closure as a Terra function of type \p FnTy
  /// (terralib.cast). The wrapper is compiled lazily like any function.
  TerraFunction *wrapHostClosure(std::shared_ptr<lua::Closure> C,
                                 FunctionType *FnTy, std::string Name);

  /// Binds libc table entry \p C as an extern function.
  TerraFunction *createExtern(const libc::Function &C);

  /// Invoked by the generated-code trampoline for host-closure wrappers.
  bool invokeHostClosure(uint64_t Id, void **Args, void *Ret);

  /// saveobj: writes the named functions (and their components) to a .c,
  /// .o, or .so file with unmangled exported names.
  bool saveObject(const std::string &Path,
                  const std::vector<std::pair<std::string, TerraFunction *>>
                      &Exports);

  /// Cumulative pipeline timings (for bench_compile).
  struct Stats {
    double TypecheckSeconds = 0;
    double CodegenSeconds = 0;
    unsigned ModulesCompiled = 0;
    unsigned FunctionsCompiled = 0;
  };
  const Stats &stats() const { return Timing; }
  double backendCompilerSeconds() const { return JIT.compilerSeconds(); }

  /// Runs terracheck over every not-yet-analyzed function of a typechecked
  /// component (between typechecking and the midend). Returns false when a
  /// mandatory finding — or any finding under Werror — failed the compile;
  /// the offending functions are marked SK_Error.
  bool analyzeComponent(const std::vector<TerraFunction *> &Component);

private:
  /// Collects the not-yet-compiled connected component rooted at F. Under
  /// BackendKind::Tiered membership is keyed on RawPtr rather than
  /// isCompiled(): a tier-0 function has an Entry but no native address, so
  /// dependent modules must re-emit its definition (benign under
  /// RTLD_LOCAL) instead of baking an address that does not exist.
  void collectComponent(TerraFunction *F,
                        std::vector<TerraFunction *> &Component);

  /// Tier-0 installation for a freshly generated component: parks the C
  /// source with the TierManager, compiles each function to bytecode, and
  /// installs the tiered dispatcher Entry (native code once promoted,
  /// TerraInterpBackend::execute before). False when a function has no
  /// bytecode (the error is reported).
  bool installTier0(std::string Source, bool Cacheable,
                    const std::vector<TerraFunction *> &Component);

  TerraContext &Ctx;
  lua::Interp &I;
  BackendKind Backend;
  InterpKind Interpreter;
  Typechecker TC;
  JITEngine JIT;
  /// Declared after JIT: destroyed first, joining the promotion worker
  /// while the JIT it uses is still alive.
  std::unique_ptr<TierManager> Tiers;
  std::unique_ptr<TerraInterpBackend> InterpBackend;
  std::unique_ptr<BaselineJIT> Baseline;
  std::atomic<int> LastCallTier{-1};
  std::map<const void *, TerraFunction *> RawToFn;

  struct HostClosureInfo {
    std::shared_ptr<lua::Closure> Closure;
    FunctionType *FnTy;
  };
  std::map<uint64_t, HostClosureInfo> HostClosures;
  uint64_t NextHostClosureId = 1;
  Stats Timing;
  bool AnalyzeLints;
  bool AnalyzeWerror = false;
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRACOMPILER_H
