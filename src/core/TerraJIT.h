//===- TerraJIT.h - Compile-and-load driver for the C backend ---*- C++ -*-===//
//
// Takes C source emitted by CBackend, compiles it to a shared object with
// the system C compiler, loads it with dlopen, and resolves each function's
// raw pointer and FFI entry thunk. Loaded modules live as long as the
// engine. This is the offline substitute for LLVM's MCJIT (DESIGN.md §4).
//
// Two properties make it fast under autotuner-style workloads (paper §6.1,
// where one search compiles dozens of kernel variants):
//
//  * Content-addressed caching: compiled shared objects are stored in a
//    persistent cache ($TERRACPP_CACHE_DIR, default ~/.cache/terracpp)
//    keyed by hash(C source + flags + compiler identity). An identical
//    specialization — same process or a later run — dlopens the cached .so
//    with zero compiler invocations. Set TERRACPP_CACHE=off to disable.
//    The compiler identity (`cc --version`) is probed once per process per
//    compiler file, and the scratch directory is created only when cc runs,
//    so a cache hit spawns no process and creates no file.
//
//  * Parallel batch compilation: addModules() fans each module's cc
//    invocation out to a worker pool (TERRACPP_COMPILE_JOBS concurrent
//    jobs, default hardware concurrency) via posix_spawn, then loads the
//    results serially on the calling thread.
//
// addModule/addModules are thread-safe: independent engines, or threads
// sharing one engine, can compile concurrently.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRAJIT_H
#define TERRACPP_CORE_TERRAJIT_H

#include "core/TerraAST.h"
#include "support/Diagnostics.h"
#include "support/Telemetry.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace terracpp {

class ThreadPool;

class JITEngine {
public:
  explicit JITEngine(DiagnosticEngine &Diags);
  ~JITEngine();
  JITEngine(const JITEngine &) = delete;
  JITEngine &operator=(const JITEngine &) = delete;

  /// One generated translation unit: its C source and the functions whose
  /// RawPtr/Entry resolve into it. Cacheable=false marks modules that bake
  /// process-local addresses (CBackend::lastModuleBakedAddresses) and must
  /// bypass the persistent cache.
  struct ModuleJob {
    std::string CSource;
    std::vector<TerraFunction *> Fns;
    bool Cacheable = true;
  };

  /// Compiles \p CSource and fills RawPtr/Entry for each function in
  /// \p Fns. False on failure (compiler errors are attached to the
  /// diagnostic).
  bool addModule(const std::string &CSource,
                 const std::vector<TerraFunction *> &Fns,
                 bool Cacheable = true);

  /// Compiles every job, running the C compiler invocations concurrently
  /// on the job pool, then loads the results in order on this thread.
  /// Jobs fail independently; returns true only if all succeeded.
  bool addModules(std::vector<ModuleJob> Jobs);

  /// One symbol pair resolved by compileAndResolve: the raw function
  /// pointer and its FFI entry thunk (symbol + "_entry",
  /// void(*)(void **Args, void *Ret)).
  struct ResolvedFn {
    void *Raw = nullptr;
    void *Entry = nullptr;
  };

  /// Compiles \p CSource and resolves each mangled symbol in \p Syms to its
  /// raw/entry pointer pair, without touching any TerraFunction. Unlike
  /// addModule this never reports through the DiagnosticEngine — failures
  /// land in \p Err — so it is safe from the tier-promotion worker while
  /// the main thread runs user code. Thread-safe.
  bool compileAndResolve(const std::string &CSource, bool Cacheable,
                         const std::vector<std::string> &Syms,
                         std::vector<ResolvedFn> &Out, std::string &Err);

  /// Writes \p CSource to \p Path as C (ext .c), a relocatable object
  /// (.o), or a shared library (.so), chosen by extension — the saveobj
  /// feature (paper §2).
  bool saveObject(const std::string &Path, const std::string &CSource);

  /// The source of the most recently added module (for tests/debugging).
  const std::string &lastModuleSource() const { return LastSource; }

  /// Pipeline counters (for bench_compile / bench_gemm reporting). This is
  /// a point-in-time snapshot assembled from the engine's telemetry
  /// registry; the registry itself (see metrics()) is the source of truth.
  struct Stats {
    unsigned ModulesLoaded = 0;     ///< Successful addModule(s) loads.
    unsigned CompilerLaunches = 0;  ///< Actual cc invocations.
    unsigned CacheHits = 0;         ///< Loads served from the cache.
    unsigned CacheMisses = 0;       ///< Cacheable lookups that compiled.
    unsigned CacheBypassed = 0;     ///< Uncacheable modules (baked addrs).
    unsigned CacheEvicted = 0;      ///< Entries removed by the size bound.
    unsigned MaxQueueDepth = 0;     ///< High-water mark of in-flight jobs.
    double CompilerSeconds = 0;     ///< Summed cc wall time across jobs.
    double BatchWallSeconds = 0;    ///< Wall time blocked in addModules.
  };
  Stats stats() const;

  /// The engine's private metrics registry. Per-instance (not global) so
  /// concurrent engines in one process keep independent counts; includes
  /// latency histograms (jit.cc_us, jit.link_us, jit.batch_wall_us,
  /// jit.cc_identity_us) beyond what the Stats snapshot exposes.
  telemetry::Registry &metrics() { return Reg; }
  const telemetry::Registry &metrics() const { return Reg; }

  /// Summed compiler wall time so far (kept for existing callers).
  double compilerSeconds() const { return stats().CompilerSeconds; }

  /// Extra flags for the C compiler (defaults to -O3 -march=native).
  void setOptFlags(std::string Flags) { OptFlags = std::move(Flags); }

  /// Resolved TERRACPP_COMPILE_JOBS (>= 1).
  unsigned compileJobs() const { return Jobs; }

  /// True once a compiler spawn failed with ENOENT (the cc binary does not
  /// exist). The TierManager uses this to pin functions at the baseline
  /// tier instead of retrying a compiler that is not installed.
  bool ccUnavailable() const {
    return CcMissing.load(std::memory_order_relaxed);
  }

  /// Resolved cache directory; empty when caching is disabled.
  const std::string &cacheDir() const { return CacheDir; }

  /// Resolved TERRACPP_CACHE_MAX_MB in bytes; 0 = unbounded.
  uint64_t cacheMaxBytes() const { return CacheMaxBytes; }

  /// The engine's scratch directory, or empty while it has not been
  /// created (nothing was compiled). Tests use this to check the directory
  /// is made only when cc runs and removed with the engine.
  const std::string &scratchDirForTest() const { return TempDir; }

private:
  /// Result of producing one shared object, off or on the pool.
  struct CompileOutcome {
    bool OK = false;
    bool FromCache = false;
    std::string SoPath;   ///< Where the loadable .so landed.
    std::string Message;  ///< Compiler stderr / failure description.
    double Seconds = 0;   ///< Wall time inside the C compiler.
  };

  CompileOutcome compileSource(const std::string &CSource, bool Cacheable,
                               bool SkipCacheLookup);
  bool loadModule(const ModuleJob &Job, CompileOutcome &Outcome);
  bool runCompiler(const std::string &SrcPath, const std::string &OutPath,
                   const std::string &ExtraFlags, std::string &ErrOut,
                   double &Seconds);
  std::string cacheKey(const std::string &CSource,
                       const std::string &ExtraFlags);
  /// Evicts least-recently-used .so entries (by mtime; hits refresh it)
  /// until the cache is within TERRACPP_CACHE_MAX_MB. \p Protect is the
  /// just-published entry, never evicted.
  void enforceCacheLimit(const std::string &Protect);
  const std::string &compilerIdentity();
  /// Creates the scratch directory on first call; returns its path.
  const std::string &scratchDir();
  ThreadPool &pool();
  void noteDiag(DiagKind Kind, const std::string &Message);

  DiagnosticEngine &Diags;
  std::string TempDir; ///< Empty until scratchDir() creates it.
  std::once_flag TempDirOnce;
  std::string OptFlags = "-O3 -march=native -fno-math-errno "
                         "-fno-semantic-interposition";
  std::string CacheDir;  ///< Empty => caching disabled.
  uint64_t CacheMaxBytes = 0; ///< 0 => unbounded.
  unsigned Jobs = 1;
  std::vector<void *> Handles;
  std::string LastSource;
  std::string CompilerId; ///< `cc --version` first line; lazily filled
                          ///< from the process-wide identity memo.

  std::unique_ptr<ThreadPool> Pool; ///< Lazily created on first batch.
  std::atomic<unsigned> ModuleCounter{0};
  std::atomic<unsigned> InFlight{0};
  std::atomic<bool> CcMissing{false}; ///< cc spawn hit ENOENT.
  mutable std::mutex Mutex; ///< Guards Handles, Diags, Pool init, LastSource.

  /// Per-engine metrics. Declared before the metric references below so the
  /// references can bind in the constructor initializer list. Updates are
  /// lock-free; stats() snapshots them.
  telemetry::Registry Reg;
  telemetry::Counter &MModulesLoaded;
  telemetry::Counter &MCompilerLaunches;
  telemetry::Counter &MCacheHits;
  telemetry::Counter &MCacheMisses;
  telemetry::Counter &MCacheBypassed;
  telemetry::Counter &MCacheEvicted;
  telemetry::Gauge &MQueueDepthHwm;
  telemetry::Histogram &MCcUs;
  telemetry::Histogram &MLinkUs;
  telemetry::Histogram &MBatchWallUs;
  telemetry::Histogram &MCcIdentityUs; ///< `cc --version` probes (memo misses).
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRAJIT_H
