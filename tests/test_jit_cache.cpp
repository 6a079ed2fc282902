//===- test_jit_cache.cpp - Parallel content-addressed JIT pipeline -------===//
//
// Covers the compilation pipeline added for the autotuner workload (paper
// §6.1 compiles dozens of kernel variants per search):
//   * cache-key stability — identical source+flags reuse a cached .so with
//     zero compiler launches; different flags miss;
//   * corrupted-cache-entry recovery — a truncated/garbage .so is evicted
//     and rebuilt from source;
//   * thread-safety — many threads pushing modules through one JITEngine,
//     and independent Engines compiling concurrently in one process;
//   * the batch compileAll API;
//   * the TERRACPP_CACHE_MAX_MB size bound — LRU eviction by mtime, with
//     hits refreshing recency — and cross-process cache sharing (two
//     processes, one TERRACPP_CACHE_DIR, no corruption or double-publish);
//   * the spawn-free warm path — `cc --version` is probed once per process
//     per compiler file (a fake `cc` script on a private PATH counts the
//     probes), and the scratch directory exists only once cc has run.
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "core/Engine.h"
#include "core/TerraJIT.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace terracpp;

namespace {

/// Every test here drives the real cc pipeline; skip the whole battery
/// when no C compiler is installed (the baseline/interp tiers cover that
/// configuration elsewhere).
#define REQUIRE_CC()                                                           \
  if (Engine::defaultBackend() == BackendKind::Interp)                         \
  GTEST_SKIP() << "no C compiler on PATH"

/// Points TERRACPP_CACHE_DIR at a fresh private directory for one test and
/// restores the previous environment afterwards. Keeps concurrently
/// running test processes from sharing cache state.
class ScopedCacheDir {
public:
  ScopedCacheDir() {
    char Template[] = "/tmp/terracpp-cachetest-XXXXXX";
    Dir = mkdtemp(Template);
    const char *Old = getenv("TERRACPP_CACHE_DIR");
    if (Old)
      Saved = Old;
    HadOld = Old != nullptr;
    setenv("TERRACPP_CACHE_DIR", Dir.c_str(), 1);
  }
  ~ScopedCacheDir() {
    if (HadOld)
      setenv("TERRACPP_CACHE_DIR", Saved.c_str(), 1);
    else
      unsetenv("TERRACPP_CACHE_DIR");
    for (const std::string &F : entries())
      ::unlink((Dir + "/" + F).c_str());
    ::rmdir(Dir.c_str());
  }

  const std::string &path() const { return Dir; }

  std::vector<std::string> entries() const {
    std::vector<std::string> Out;
    if (DIR *D = ::opendir(Dir.c_str())) {
      while (struct dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          Out.push_back(Name);
      }
      ::closedir(D);
    }
    return Out;
  }

private:
  std::string Dir;
  std::string Saved;
  bool HadOld = false;
};

/// A `cc` shell script in a private directory. `--version` appends one line
/// to a log, so tests can count identity probes, then prints the given
/// version line (or the real compiler's, when it is empty); every other
/// invocation execs the real cc found on PATH at construction.
class FakeCc {
public:
  explicit FakeCc(const std::string &Version) : RealCc(findOnPath("cc")) {
    char Template[] = "/tmp/terracpp-fakecc-XXXXXX";
    Dir = mkdtemp(Template);
    write(Version);
  }
  ~FakeCc() {
    ::unlink((Dir + "/cc").c_str());
    ::unlink(log().c_str());
    ::rmdir(Dir.c_str());
  }

  /// Rewrites the script in place: a new size and mtime, same path.
  void write(const std::string &Version) {
    std::string Script = "#!/bin/sh\n"
                         "if [ \"$1\" = --version ]; then\n"
                         "  echo probe >> '" + log() + "'\n";
    Script += Version.empty() ? "  exec '" + RealCc + "' --version\n"
                              : "  echo '" + Version + "'\n  exit 0\n";
    Script += "fi\nexec '" + RealCc + "' \"$@\"\n";
    std::string Path = Dir + "/cc";
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out << Script;
    }
    ::chmod(Path.c_str(), 0755);
  }

  /// PATH with this directory in front of the current one.
  std::string path() const { return Dir + ":" + getenv("PATH"); }

  /// Number of `cc --version` runs so far.
  unsigned probes() const {
    std::ifstream In(log());
    unsigned N = 0;
    for (std::string Line; std::getline(In, Line);)
      ++N;
    return N;
  }

private:
  std::string log() const { return Dir + "/probes.log"; }

  std::string RealCc;
  std::string Dir;
};

const char *ProbeSource = "int terracpp_cache_probe(void) { return 42; }\n";

TEST(JITCache, SameSourceAndFlagsHitsCache) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  DiagnosticEngine D1;
  JITEngine J1(D1);
  ASSERT_TRUE(J1.addModule(ProbeSource, {}));
  JITEngine::Stats S1 = J1.stats();
  EXPECT_EQ(S1.CacheMisses, 1u);
  EXPECT_EQ(S1.CacheHits, 0u);
  EXPECT_EQ(S1.CompilerLaunches, 1u);

  // A second engine (fresh process state as far as the cache is concerned)
  // compiling the identical module must not launch the compiler at all.
  DiagnosticEngine D2;
  JITEngine J2(D2);
  ASSERT_TRUE(J2.addModule(ProbeSource, {}));
  JITEngine::Stats S2 = J2.stats();
  EXPECT_EQ(S2.CacheHits, 1u);
  EXPECT_EQ(S2.CacheMisses, 0u);
  EXPECT_EQ(S2.CompilerLaunches, 0u);
  EXPECT_EQ(S2.CompilerSeconds, 0.0);
}

TEST(JITCache, DifferentFlagsMiss) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  DiagnosticEngine D1;
  JITEngine J1(D1);
  ASSERT_TRUE(J1.addModule(ProbeSource, {}));

  DiagnosticEngine D2;
  JITEngine J2(D2);
  J2.setOptFlags("-O1");
  ASSERT_TRUE(J2.addModule(ProbeSource, {}));
  JITEngine::Stats S2 = J2.stats();
  EXPECT_EQ(S2.CacheHits, 0u);
  EXPECT_EQ(S2.CacheMisses, 1u);
  EXPECT_EQ(S2.CompilerLaunches, 1u);

  // Both variants now coexist as distinct entries.
  unsigned SoCount = 0;
  for (const std::string &E : Cache.entries())
    if (E.size() > 3 && E.compare(E.size() - 3, 3, ".so") == 0)
      ++SoCount;
  EXPECT_EQ(SoCount, 2u);
}

TEST(JITCache, UncacheableModuleBypassesCache) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  DiagnosticEngine D;
  JITEngine J(D);
  ASSERT_TRUE(J.addModule(ProbeSource, {}, /*Cacheable=*/false));
  JITEngine::Stats S = J.stats();
  EXPECT_EQ(S.CacheBypassed, 1u);
  EXPECT_EQ(S.CacheHits + S.CacheMisses, 0u);
  EXPECT_TRUE(Cache.entries().empty());
}

TEST(JITCache, CorruptedEntryIsEvictedAndRebuilt) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  {
    DiagnosticEngine D;
    JITEngine J(D);
    ASSERT_TRUE(J.addModule(ProbeSource, {}));
  }
  // Truncate/garbage every cached .so — simulates a torn write from a
  // killed process.
  for (const std::string &E : Cache.entries()) {
    std::ofstream Out(Cache.path() + "/" + E,
                      std::ios::binary | std::ios::trunc);
    Out << "this is not an ELF shared object";
  }

  DiagnosticEngine D;
  JITEngine J(D);
  ASSERT_TRUE(J.addModule(ProbeSource, {}));
  EXPECT_FALSE(D.hasErrors());
  JITEngine::Stats S = J.stats();
  EXPECT_EQ(S.CacheHits, 1u);        // Looked like a hit...
  EXPECT_EQ(S.CompilerLaunches, 1u); // ...but had to rebuild.

  // And the rebuilt entry is loadable again without a compile.
  DiagnosticEngine D3;
  JITEngine J3(D3);
  ASSERT_TRUE(J3.addModule(ProbeSource, {}));
  EXPECT_EQ(J3.stats().CompilerLaunches, 0u);
}

TEST(JITCache, CompileErrorAttachesCompilerStderr) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  DiagnosticEngine D;
  JITEngine J(D);
  EXPECT_FALSE(J.addModule("this is not C at all\n", {}));
  ASSERT_TRUE(D.hasErrors());
  // The cc diagnostic text must be in the engine, not on the terminal.
  EXPECT_NE(D.renderAll().find("error"), std::string::npos);
}

TEST(JITCache, ThreadedAddModuleStress) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  DiagnosticEngine D;
  JITEngine J(D);
  constexpr int Threads = 4, ModulesPerThread = 6;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      for (int M = 0; M != ModulesPerThread; ++M) {
        // Unique source per module: every compile is a genuine miss.
        std::string Src = "int stress_fn_" + std::to_string(T) + "_" +
                          std::to_string(M) + "(void) { return " +
                          std::to_string(T * 100 + M) + "; }\n";
        if (!J.addModule(Src, {}))
          ++Failures;
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_FALSE(D.hasErrors());
  EXPECT_EQ(J.stats().ModulesLoaded,
            static_cast<unsigned>(Threads * ModulesPerThread));
}

TEST(JITCache, ConcurrentEnginesCompileIndependently) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  // These tests exercise the native batch pipeline specifically; the
  // explicit backend keeps them doing so whatever TERRACPP_BACKEND says.
  std::atomic<int> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 2; ++T)
    Workers.emplace_back([&, T] {
      Engine E(BackendKind::Native);
      std::string Name = "conc" + std::to_string(T);
      std::string Src = "terra " + Name + "(x: int): int return x * " +
                        std::to_string(T + 2) + " end";
      if (!E.run(Src)) {
        ++Failures;
        return;
      }
      auto *Fn = reinterpret_cast<int32_t (*)(int32_t)>(E.rawPointer(Name));
      if (!Fn || Fn(21) != 21 * (T + 2))
        ++Failures;
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Failures.load(), 0);
}

TEST(JITCache, CompileAllBatchesAFamily) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  Engine E(BackendKind::Native);
  constexpr int N = 8;
  std::string Src;
  for (int I = 0; I != N; ++I)
    Src += "terra batch" + std::to_string(I) + "(x: int): int return x + " +
           std::to_string(I) + " end\n";
  ASSERT_TRUE(E.run(Src)) << E.errors();

  std::vector<TerraFunction *> Fns;
  for (int I = 0; I != N; ++I)
    Fns.push_back(E.terraFunction("batch" + std::to_string(I)));
  ASSERT_TRUE(E.compileAll(Fns)) << E.errors();
  for (int I = 0; I != N; ++I) {
    ASSERT_NE(Fns[I]->RawPtr, nullptr);
    auto *F = reinterpret_cast<int32_t (*)(int32_t)>(Fns[I]->RawPtr);
    EXPECT_EQ(F(10), 10 + I);
  }
  // One module per root went through the pipeline.
  EXPECT_GE(E.compiler().jit().stats().ModulesLoaded, static_cast<unsigned>(N));

  // An identical family in a fresh engine is served entirely from cache.
  Engine E2(BackendKind::Native);
  ASSERT_TRUE(E2.run(Src)) << E2.errors();
  std::vector<TerraFunction *> Fns2;
  for (int I = 0; I != N; ++I)
    Fns2.push_back(E2.terraFunction("batch" + std::to_string(I)));
  ASSERT_TRUE(E2.compileAll(Fns2)) << E2.errors();
  JITEngine::Stats S2 = E2.compiler().jit().stats();
  EXPECT_EQ(S2.CompilerLaunches, 0u);
  EXPECT_EQ(S2.CacheHits, static_cast<unsigned>(N));
}

TEST(JITCache, CompileAllUsesWorkerPool) {
  REQUIRE_CC();
  // On single-core machines the default job count is 1 and addModules
  // stays serial; force a pool so the parallel path is always exercised.
  ScopedCacheDir Cache;
  setenv("TERRACPP_COMPILE_JOBS", "4", 1);
  {
    Engine E(BackendKind::Native);
    constexpr int N = 12;
    std::string Src;
    for (int I = 0; I != N; ++I)
      Src += "terra pool" + std::to_string(I) + "(x: int): int return x - " +
             std::to_string(I) + " end\n";
    ASSERT_TRUE(E.run(Src)) << E.errors();
    ASSERT_EQ(E.compiler().jit().compileJobs(), 4u);

    std::vector<TerraFunction *> Fns;
    for (int I = 0; I != N; ++I)
      Fns.push_back(E.terraFunction("pool" + std::to_string(I)));
    ASSERT_TRUE(E.compileAll(Fns)) << E.errors();
    for (int I = 0; I != N; ++I) {
      ASSERT_NE(Fns[I]->RawPtr, nullptr);
      auto *F = reinterpret_cast<int32_t (*)(int32_t)>(Fns[I]->RawPtr);
      EXPECT_EQ(F(100), 100 - I);
    }
    JITEngine::Stats S = E.compiler().jit().stats();
    EXPECT_EQ(S.CacheMisses, static_cast<unsigned>(N));
    EXPECT_GE(S.MaxQueueDepth, 2u); // Jobs genuinely overlapped in flight.
  }
  unsetenv("TERRACPP_COMPILE_JOBS");
}

static uint64_t fileSize(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? uint64_t(St.st_size) : 0;
}

// TERRACPP_CACHE_MAX_MB bounds the on-disk cache; the just-published entry
// is never evicted, older entries go first.
TEST(JITCache, CacheSizeBoundEvictsOldEntries) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  // 0.001 MB is smaller than any .so: every publish evicts everything else.
  ScopedEnv Bound("TERRACPP_CACHE_MAX_MB", "0.001");

  const char *SrcA = "int terracpp_bound_a(void) { return 1; }\n";
  const char *SrcB = "int terracpp_bound_b(void) { return 2; }\n";

  DiagnosticEngine D1;
  JITEngine J1(D1);
  EXPECT_GT(J1.cacheMaxBytes(), 0u);
  ASSERT_TRUE(J1.addModule(SrcA, {}));
  // The sole entry is the protected just-published one; nothing to evict.
  EXPECT_EQ(J1.stats().CacheEvicted, 0u);
  EXPECT_EQ(Cache.entries().size(), 1u);

  DiagnosticEngine D2;
  JITEngine J2(D2);
  ASSERT_TRUE(J2.addModule(SrcB, {}));
  EXPECT_GE(J2.stats().CacheEvicted, 1u); // A's entry was evicted...
  EXPECT_EQ(Cache.entries().size(), 1u);

  DiagnosticEngine D3;
  JITEngine J3(D3);
  ASSERT_TRUE(J3.addModule(SrcA, {})); // ...so A recompiles from scratch.
  EXPECT_EQ(J3.stats().CacheMisses, 1u);
  EXPECT_EQ(J3.stats().CacheHits, 0u);
}

// A cache hit refreshes the entry's mtime, so eviction is LRU rather than
// oldest-created.
TEST(JITCache, CacheHitRefreshesLruOrder) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  const char *SrcA = "int terracpp_lru_a(void) { return 1; }\n";
  const char *SrcB = "int terracpp_lru_b(void) { return 2; }\n";
  const char *SrcC = "int terracpp_lru_c(void) { return 3; }\n";

  DiagnosticEngine D1;
  JITEngine J1(D1);
  ASSERT_TRUE(J1.addModule(SrcA, {}));
  std::vector<std::string> AfterA = Cache.entries();
  ASSERT_EQ(AfterA.size(), 1u);
  std::string EntryA = AfterA[0];
  ASSERT_TRUE(J1.addModule(SrcB, {}));
  ASSERT_EQ(Cache.entries().size(), 2u);

  // Touch A (cache hit from a fresh engine): A becomes most-recently-used.
  DiagnosticEngine D2;
  JITEngine J2(D2);
  ASSERT_TRUE(J2.addModule(SrcA, {}));
  ASSERT_EQ(J2.stats().CacheHits, 1u);

  // Bound the cache to ~2.2 entries and publish C: B (the LRU entry) must
  // be the one evicted; A survives despite being created first.
  uint64_t EntryBytes = fileSize(Cache.path() + "/" + EntryA);
  ASSERT_GT(EntryBytes, 0u);
  char Mb[32];
  snprintf(Mb, sizeof(Mb), "%.6f", 2.2 * EntryBytes / (1024.0 * 1024.0));
  ScopedEnv Bound("TERRACPP_CACHE_MAX_MB", Mb);

  DiagnosticEngine D3;
  JITEngine J3(D3);
  ASSERT_TRUE(J3.addModule(SrcC, {}));
  EXPECT_GE(J3.stats().CacheEvicted, 1u);
  std::vector<std::string> Left = Cache.entries();
  EXPECT_EQ(Left.size(), 2u);
  bool AAlive = false;
  for (const std::string &E : Left)
    AAlive |= E == EntryA;
  EXPECT_TRUE(AAlive) << "LRU eviction removed the recently-hit entry";
}

// Two processes sharing one TERRACPP_CACHE_DIR must not corrupt it or
// double-publish: concurrent compiles of the same source converge on one
// entry that later engines load with zero compiler launches.
TEST(JITCache, CrossProcessCacheSharing) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  const char *Shared = "int terracpp_xproc_probe(void) { return 7; }\n";

  pid_t Kids[2];
  for (pid_t &Kid : Kids) {
    Kid = fork();
    ASSERT_GE(Kid, 0);
    if (Kid == 0) {
      // Child: compile the shared source and report success via exit code.
      DiagnosticEngine D;
      JITEngine J(D);
      bool OK = J.addModule(Shared, {});
      _exit(OK ? 0 : 1);
    }
  }
  for (pid_t Kid : Kids) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Kid, &Status, 0), Kid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "child compile failed";
  }

  // Exactly one entry, and it is loadable without launching the compiler.
  EXPECT_EQ(Cache.entries().size(), 1u);
  DiagnosticEngine D;
  JITEngine J(D);
  ASSERT_TRUE(J.addModule(Shared, {}));
  EXPECT_EQ(J.stats().CacheHits, 1u);
  EXPECT_EQ(J.stats().CompilerLaunches, 0u);
}

TEST(JITCache, CompileAllSharedCalleeAcrossRoots) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  Engine E(BackendKind::Native);
  ASSERT_TRUE(E.run("terra shared(x: int): int return x * 3 end\n"
                    "terra rootA(x: int): int return shared(x) + 1 end\n"
                    "terra rootB(x: int): int return shared(x) + 2 end\n"))
      << E.errors();
  std::vector<TerraFunction *> Fns{E.terraFunction("rootA"),
                                   E.terraFunction("rootB")};
  ASSERT_TRUE(E.compileAll(Fns)) << E.errors();
  auto *A = reinterpret_cast<int32_t (*)(int32_t)>(Fns[0]->RawPtr);
  auto *B = reinterpret_cast<int32_t (*)(int32_t)>(Fns[1]->RawPtr);
  ASSERT_TRUE(A && B);
  EXPECT_EQ(A(5), 16);
  EXPECT_EQ(B(5), 17);
}

//===----------------------------------------------------------------------===//
// Spawn-free warm path: identity memo and lazy scratch directory
//===----------------------------------------------------------------------===//

/// Probes this engine ran itself (memo misses), from its registry.
uint64_t identityProbes(JITEngine &J) {
  return J.metrics().histogram("jit.cc_identity_us").snapshot().Count;
}

std::string uniqueSource(const std::string &Tag, int I) {
  return "int terracpp_" + Tag + "_" + std::to_string(I) + "(void) { return " +
         std::to_string(I) + "; }\n";
}

TEST(JITCache, IdentityProbedOncePerCompilerFile) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  FakeCc Fake("fake-cc 1.0");
  ScopedEnv Path("PATH", Fake.path());
  for (int I = 0; I != 4; ++I) {
    DiagnosticEngine D;
    JITEngine J(D);
    ASSERT_TRUE(J.addModule(uniqueSource("seq", I), {})) << D.renderAll();
    EXPECT_EQ(J.stats().CompilerLaunches, 1u);
    EXPECT_EQ(identityProbes(J), I == 0 ? 1u : 0u);
  }
  EXPECT_EQ(Fake.probes(), 1u);
}

TEST(JITCache, RewrittenCompilerIsReprobedAndMisses) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  FakeCc Fake("fake-cc 1.0");
  ScopedEnv Path("PATH", Fake.path());
  {
    DiagnosticEngine D;
    JITEngine J(D);
    ASSERT_TRUE(J.addModule(ProbeSource, {})) << D.renderAll();
  }
  ASSERT_EQ(Fake.probes(), 1u);

  // A rebuilt compiler at the same path must not be served the old
  // identity: it is probed again, and its different --version misses.
  Fake.write("fake-cc 2.0 (rebuilt)");
  {
    DiagnosticEngine D;
    JITEngine J(D);
    ASSERT_TRUE(J.addModule(ProbeSource, {})) << D.renderAll();
    EXPECT_EQ(J.stats().CacheHits, 0u);
    EXPECT_EQ(J.stats().CacheMisses, 1u);
  }
  EXPECT_EQ(Fake.probes(), 2u);

  // The new identity is memoized in turn.
  DiagnosticEngine D;
  JITEngine J(D);
  ASSERT_TRUE(J.addModule(ProbeSource, {})) << D.renderAll();
  EXPECT_EQ(J.stats().CacheHits, 1u);
  EXPECT_EQ(Fake.probes(), 2u);
}

TEST(JITCache, PathSwitchReprobes) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  FakeCc A("fake-cc 1.0"), B("fake-cc 1.0");
  {
    ScopedEnv Path("PATH", A.path());
    DiagnosticEngine D;
    JITEngine J(D);
    ASSERT_TRUE(J.addModule(ProbeSource, {})) << D.renderAll();
  }
  {
    ScopedEnv Path("PATH", B.path());
    DiagnosticEngine D;
    JITEngine J(D);
    ASSERT_TRUE(J.addModule(ProbeSource, {})) << D.renderAll();
    // Same --version text, so the same cache key: only the probe repeats.
    EXPECT_EQ(J.stats().CacheHits, 1u);
    EXPECT_EQ(J.stats().CompilerLaunches, 0u);
  }
  EXPECT_EQ(A.probes(), 1u);
  EXPECT_EQ(B.probes(), 1u);
}

TEST(JITCache, ThreadedIdentityProbe) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  FakeCc Fake("fake-cc 1.0");
  ScopedEnv Path("PATH", Fake.path());
  constexpr int Threads = 8;
  std::atomic<int> Ready{0}, Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      DiagnosticEngine D;
      JITEngine J(D);
      // Start every compile at once so the engines race for the probe.
      ++Ready;
      while (Ready.load() != Threads)
        std::this_thread::yield();
      if (!J.addModule(uniqueSource("threaded", T), {}))
        ++Failures;
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Fake.probes(), 1u);
}

// The memo changes when the identity is read, not what it is: entries
// published before it (here by an engine that probed the real cc through
// another path) still hit, through both a probing and a memoized engine.
TEST(JITCache, MemoizedIdentityKeepsCacheKeys) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  {
    DiagnosticEngine D;
    JITEngine J(D);
    ASSERT_TRUE(J.addModule(ProbeSource, {})) << D.renderAll();
  }
  FakeCc Fake(""); // Reports the real compiler's --version.
  ScopedEnv Path("PATH", Fake.path());
  for (int I = 0; I != 2; ++I) {
    DiagnosticEngine D;
    JITEngine J(D);
    ASSERT_TRUE(J.addModule(ProbeSource, {})) << D.renderAll();
    EXPECT_EQ(J.stats().CacheHits, 1u);
    EXPECT_EQ(J.stats().CompilerLaunches, 0u);
    EXPECT_EQ(identityProbes(J), I == 0 ? 1u : 0u);
  }
  EXPECT_EQ(Fake.probes(), 1u);
}

bool isDir(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

TEST(JITCache, ScratchDirCreatedByCompileAndRemovedWithEngine) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  std::string Scratch;
  {
    DiagnosticEngine D;
    JITEngine J(D);
    EXPECT_TRUE(J.scratchDirForTest().empty());
    ASSERT_TRUE(J.addModule(ProbeSource, {})) << D.renderAll();
    Scratch = J.scratchDirForTest();
    ASSERT_FALSE(Scratch.empty());
    EXPECT_TRUE(isDir(Scratch));
  }
  EXPECT_FALSE(isDir(Scratch)) << Scratch << " outlived its engine";
}

TEST(JITCache, CacheHitNativeEngineCreatesNoScratchDir) {
  REQUIRE_CC();
  ScopedCacheDir Cache;
  for (int Pass = 0; Pass != 2; ++Pass) {
    Engine E(BackendKind::Native);
    ASSERT_TRUE(E.run("terra warm7(x: int): int return x * 7 end"))
        << E.errors();
    std::vector<lua::Value> Results;
    ASSERT_TRUE(E.call(E.global("warm7"), {lua::Value::number(6)}, Results))
        << E.errors();
    ASSERT_FALSE(Results.empty());
    EXPECT_EQ(Results[0].asNumber(), 42);
    JITEngine &J = E.compiler().jit();
    if (Pass == 0) {
      EXPECT_FALSE(J.scratchDirForTest().empty());
      continue;
    }
    // The warm engine spawned nothing and created nothing.
    EXPECT_EQ(J.stats().CompilerLaunches, 0u);
    EXPECT_GE(J.stats().CacheHits, 1u);
    EXPECT_EQ(identityProbes(J), 0u);
    EXPECT_TRUE(J.scratchDirForTest().empty());
  }
}

TEST(JITCache, InterpEngineCreatesNoScratchDir) {
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.run("terra interp1(x: int): int return x + 1 end"))
      << E.errors();
  std::vector<lua::Value> Results;
  ASSERT_TRUE(E.call(E.global("interp1"), {lua::Value::number(41)}, Results))
      << E.errors();
  ASSERT_FALSE(Results.empty());
  EXPECT_EQ(Results[0].asNumber(), 42);
  EXPECT_TRUE(E.compiler().jit().scratchDirForTest().empty());
}

TEST(JITCache, CacheMaxMbRejectsGarbage) {
  ScopedEnv Bound("TERRACPP_CACHE_MAX_MB", "abc");
  DiagnosticEngine D;
  JITEngine J(D);
  EXPECT_EQ(J.cacheMaxBytes(), 0u); // Malformed: unbounded, with a warning.
  ScopedEnv Half("TERRACPP_CACHE_MAX_MB", "0.5");
  DiagnosticEngine D2;
  JITEngine J2(D2);
  EXPECT_EQ(J2.cacheMaxBytes(), 512u * 1024u);
}

} // namespace
