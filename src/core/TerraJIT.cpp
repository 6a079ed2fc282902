#include "core/TerraJIT.h"

#include "support/ContentHash.h"
#include "support/EnvParse.h"
#include "support/Subprocess.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <dlfcn.h>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

using namespace terracpp;

//===----------------------------------------------------------------------===//
// Filesystem helpers (no shell involved)
//===----------------------------------------------------------------------===//

static bool writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << Contents;
  return static_cast<bool>(Out);
}

/// mkdir -p: creates every component of \p Path that does not exist yet.
static bool makeDirs(const std::string &Path) {
  std::string Partial;
  size_t I = 0;
  while (I < Path.size()) {
    size_t Next = Path.find('/', I + 1);
    Partial = Path.substr(0, Next == std::string::npos ? Path.size() : Next);
    if (!Partial.empty() && ::mkdir(Partial.c_str(), 0755) != 0 &&
        errno != EEXIST)
      return false;
    if (Next == std::string::npos)
      break;
    I = Next;
  }
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

/// Removes a scratch directory and its (flat) contents.
static void removeTree(const std::string &Path) {
  DIR *D = ::opendir(Path.c_str());
  if (D) {
    while (struct dirent *E = ::readdir(D)) {
      if (strcmp(E->d_name, ".") == 0 || strcmp(E->d_name, "..") == 0)
        continue;
      std::string Child = Path + "/" + E->d_name;
      if (::unlink(Child.c_str()) != 0)
        removeTree(Child); // Unexpected subdirectory; recurse.
    }
    ::closedir(D);
  }
  ::rmdir(Path.c_str());
}

static bool copyFile(const std::string &From, const std::string &To) {
  std::ifstream In(From, std::ios::binary);
  if (!In)
    return false;
  std::ofstream Out(To, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  Out << In.rdbuf();
  return static_cast<bool>(Out);
}

static std::string resolveCacheDir() {
  if (const char *Mode = getenv("TERRACPP_CACHE"))
    if (strcmp(Mode, "off") == 0 || strcmp(Mode, "0") == 0)
      return "";
  if (const char *Dir = getenv("TERRACPP_CACHE_DIR"))
    return Dir;
  if (const char *Xdg = getenv("XDG_CACHE_HOME"))
    return std::string(Xdg) + "/terracpp";
  if (const char *Home = getenv("HOME"))
    return std::string(Home) + "/.cache/terracpp";
  return "/tmp/terracpp-cache";
}

static uint64_t resolveCacheMaxBytes() {
  // Fractional megabytes are allowed; the 1 EiB ceiling keeps the byte count
  // inside uint64_t. Unset or malformed leaves the cache unbounded (0).
  constexpr double MaxMB = static_cast<double>(1ull << 40);
  double MB = envcfg::parsePositiveReal("TERRACPP_CACHE_MAX_MB", 0, MaxMB);
  return static_cast<uint64_t>(MB * 1024.0 * 1024.0);
}

static unsigned resolveCompileJobs() {
  unsigned HW = std::thread::hardware_concurrency();
  unsigned Default = HW ? HW : 1;
  return static_cast<unsigned>(
      envcfg::parseUInt("TERRACPP_COMPILE_JOBS", Default, 1, 256));
}

static uint64_t nanos(const struct timespec &T) {
  return static_cast<uint64_t>(T.tv_sec) * 1000000000u +
         static_cast<uint64_t>(T.tv_nsec);
}

//===----------------------------------------------------------------------===//
// Compiler identity memo
//===----------------------------------------------------------------------===//

namespace {

/// First lines of `cc --version` already probed by this process. Keyed by
/// the compiler file posix_spawnp would run and that file's stat, symlinks
/// followed: a changed PATH, a replaced binary or a re-pointed
/// /etc/alternatives link makes a new key and a fresh probe.
struct IdentityMemo {
  std::mutex M;
  std::unordered_map<std::string, std::string> ByKey;
};

IdentityMemo &identityMemo() {
  static IdentityMemo Memo;
  return Memo;
}

/// The memo key of the `cc` on the current PATH; empty when there is none.
std::string ccIdentityKey() {
  std::string Path = findOnPath("cc");
  struct stat St;
  if (Path.empty() || ::stat(Path.c_str(), &St) != 0)
    return "";
  // The numeric fields contain no ':', so the path can come last verbatim.
  return std::to_string(St.st_dev) + ":" + std::to_string(St.st_ino) + ":" +
         std::to_string(St.st_size) + ":" + std::to_string(nanos(St.st_mtim)) +
         ":" + std::to_string(nanos(St.st_ctim)) + ":" + Path;
}

} // namespace

//===----------------------------------------------------------------------===//
// JITEngine
//===----------------------------------------------------------------------===//

JITEngine::JITEngine(DiagnosticEngine &Diags)
    : Diags(Diags), MModulesLoaded(Reg.counter("jit.modules_loaded")),
      MCompilerLaunches(Reg.counter("jit.compiler_launches")),
      MCacheHits(Reg.counter("jit.cache.hits")),
      MCacheMisses(Reg.counter("jit.cache.misses")),
      MCacheBypassed(Reg.counter("jit.cache.bypassed")),
      MCacheEvicted(Reg.counter("jit.cache.evicted")),
      MQueueDepthHwm(Reg.gauge("jit.queue_depth_hwm")),
      MCcUs(Reg.histogram("jit.cc_us")), MLinkUs(Reg.histogram("jit.link_us")),
      MBatchWallUs(Reg.histogram("jit.batch_wall_us")),
      MCcIdentityUs(Reg.histogram("jit.cc_identity_us")) {
  Jobs = resolveCompileJobs();
  CacheDir = resolveCacheDir();
  CacheMaxBytes = resolveCacheMaxBytes();
  if (!CacheDir.empty() && !makeDirs(CacheDir))
    CacheDir.clear(); // Unusable cache location: run uncached.
}

JITEngine::~JITEngine() {
  for (void *H : Handles)
    dlclose(H);
  Pool.reset(); // Join workers before deleting their scratch space.
  if (TempDir.rfind("/tmp/terracpp-", 0) == 0) // Empty if never created.
    removeTree(TempDir);
}

const std::string &JITEngine::scratchDir() {
  // A per-engine scratch directory keeps concurrent engines (even in one
  // process) from clobbering each other's generated files. It is made on
  // first use, so engines served entirely from the cache never touch /tmp.
  std::call_once(TempDirOnce, [this] {
    char Template[] = "/tmp/terracpp-XXXXXX";
    const char *Dir = mkdtemp(Template);
    TempDir = Dir ? Dir : "/tmp";
  });
  return TempDir;
}

void JITEngine::noteDiag(DiagKind Kind, const std::string &Message) {
  // DiagnosticEngine is not itself thread-safe; Mutex serializes every
  // report that originates inside the JIT.
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Kind == DiagKind::Error)
    Diags.error(SourceLoc(), Message);
  else if (Kind == DiagKind::Warning)
    Diags.warning(SourceLoc(), Message);
  else
    Diags.note(SourceLoc(), Message);
}

const std::string &JITEngine::compilerIdentity() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!CompilerId.empty())
    return CompilerId;
  // Re-resolved per engine (PATH may have changed since the last one), but
  // probed at most once per process per compiler file. Concurrent engines
  // wait on the memo lock for the one probe instead of each spawning cc.
  // A file replaced mid-probe is harmless: its new stat is a new key.
  std::string Key = ccIdentityKey();
  IdentityMemo &Memo = identityMemo();
  std::lock_guard<std::mutex> MemoLock(Memo.M);
  auto It = Memo.ByKey.find(Key); // The empty key is never stored.
  if (It != Memo.ByKey.end()) {
    CompilerId = It->second;
    return CompilerId;
  }

  SpawnResult R;
  {
    telemetry::ScopedTimerUs ProbeT(MCcIdentityUs);
    R = runCommand({"cc", "--version"}, scratchDir());
  }
  std::string FirstLine = R.ok() ? R.Stdout : "";
  size_t NL = FirstLine.find('\n');
  if (NL != std::string::npos)
    FirstLine.resize(NL);
  if (FirstLine.empty()) {
    CompilerId = "unknown-cc"; // Not memoized: the next engine probes again.
    return CompilerId;
  }
  CompilerId = FirstLine;
  if (!Key.empty())
    Memo.ByKey.emplace(Key, FirstLine);
  return CompilerId;
}

std::string JITEngine::cacheKey(const std::string &CSource,
                                const std::string &ExtraFlags) {
  ContentHash H;
  H.updateField(compilerIdentity())
      .updateField(OptFlags)
      .updateField(ExtraFlags)
      .updateField(CSource);
  return H.hex();
}

bool JITEngine::runCompiler(const std::string &SrcPath,
                            const std::string &OutPath,
                            const std::string &ExtraFlags, std::string &ErrOut,
                            double &Seconds) {
  std::vector<std::string> Argv{"cc"};
  for (std::string &F : splitCommandFlags(OptFlags))
    Argv.push_back(std::move(F));
  for (std::string &F : splitCommandFlags(ExtraFlags))
    Argv.push_back(std::move(F));
  Argv.push_back(SrcPath);
  Argv.push_back("-o");
  Argv.push_back(OutPath);

  trace::TraceSpan Span("cc", "backend");
  Span.arg("out", OutPath);
  MCompilerLaunches.inc();
  Timer T;
  SpawnResult R = runCommand(Argv, scratchDir());
  Seconds = T.seconds();
  MCcUs.record(static_cast<uint64_t>(Seconds * 1e6));
  if (R.spawnFailed()) {
    // The compiler could not even start (e.g. no `cc` installed): report
    // the structured description rather than an empty stderr, and point at
    // the compiler-free tiers as the fallback.
    if (R.SpawnErrno == ENOENT)
      CcMissing.store(true, std::memory_order_relaxed);
    ErrOut = R.describe("cc") +
             "; the native backend needs a C compiler "
             "(set TERRACPP_BACKEND=interp to run without one)";
    return false;
  }
  ErrOut = R.Stderr;
  if (!R.ok() && ErrOut.empty())
    ErrOut = R.describe("cc");
  return R.ok();
}

JITEngine::CompileOutcome
JITEngine::compileSource(const std::string &CSource, bool Cacheable,
                         bool SkipCacheLookup) {
  CompileOutcome Out;
  const std::string ExtraFlags = "-shared -fPIC";
  bool UseCache = Cacheable && !CacheDir.empty();
  std::string CachePath;

  if (UseCache) {
    trace::TraceSpan Probe("cache_probe", "backend");
    CachePath = CacheDir + "/" + cacheKey(CSource, ExtraFlags) + ".so";
    if (!SkipCacheLookup && ::access(CachePath.c_str(), R_OK) == 0) {
      // Refresh the entry's mtime so the size bound evicts by actual
      // recency of use, not by age of first compile. Stamp the precise
      // time: the kernel's own "now" is a coarse clock that ticks every
      // few ms, so a hit right after another entry's publish would tie
      // with it.
      struct timespec Now[2];
      clock_gettime(CLOCK_REALTIME, &Now[0]);
      Now[1] = Now[0];
      ::utimensat(AT_FDCWD, CachePath.c_str(), Now, 0);
      Out.OK = true;
      Out.FromCache = true;
      Out.SoPath = CachePath;
      MCacheHits.inc();
      Probe.arg("result", "hit");
      return Out;
    }
    Probe.arg("result", SkipCacheLookup ? "skipped" : "miss");
  }

  unsigned Id = ModuleCounter++;
  std::string Base = scratchDir() + "/mod" + std::to_string(Id);
  std::string SrcPath = Base + ".c";
  std::string SoPath = Base + ".so";
  if (!writeFile(SrcPath, CSource)) {
    Out.Message = "cannot write generated source " + SrcPath;
    return Out;
  }

  std::string Err;
  double Seconds = 0;
  bool OK = runCompiler(SrcPath, SoPath, ExtraFlags, Err, Seconds);
  if (UseCache)
    MCacheMisses.inc();
  else if (!Cacheable)
    MCacheBypassed.inc();
  if (!OK) {
    Out.Message = Err;
    return Out;
  }

  Out.OK = true;
  Out.Seconds = Seconds;
  Out.Message = Err; // Warnings from a successful compile.
  Out.SoPath = SoPath;
  if (UseCache) {
    // Publish atomically: concurrent processes may compile the same key.
    std::string Tmp = CachePath + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(Id);
    if (copyFile(SoPath, Tmp) && ::rename(Tmp.c_str(), CachePath.c_str()) == 0) {
      Out.SoPath = CachePath;
      enforceCacheLimit(CachePath);
    } else {
      ::unlink(Tmp.c_str()); // Cache write failed; load the temp copy.
    }
  }
  return Out;
}

void JITEngine::enforceCacheLimit(const std::string &Protect) {
  if (CacheMaxBytes == 0 || CacheDir.empty())
    return;

  struct Entry {
    std::string Path;
    uint64_t Bytes;
    uint64_t MtimeNs; ///< Nanosecond resolution: entries touched within the
                      ///< same second must still order by recency.
  };
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  DIR *D = ::opendir(CacheDir.c_str());
  if (!D)
    return;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() < 4 || Name.compare(Name.size() - 3, 3, ".so") != 0)
      continue;
    std::string Path = CacheDir + "/" + Name;
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    Total += static_cast<uint64_t>(St.st_size);
    Entries.push_back(
        {std::move(Path), static_cast<uint64_t>(St.st_size), nanos(St.st_mtim)});
  }
  ::closedir(D);
  if (Total <= CacheMaxBytes)
    return;

  // Oldest mtime first; hits refresh mtime, so this is LRU. The entry we
  // just published is never a victim even if it alone exceeds the bound.
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.MtimeNs < B.MtimeNs; });
  unsigned Evicted = 0;
  for (const Entry &Victim : Entries) {
    if (Total <= CacheMaxBytes)
      break;
    if (Victim.Path == Protect)
      continue;
    if (::unlink(Victim.Path.c_str()) == 0) {
      Total -= Victim.Bytes;
      ++Evicted;
    }
  }
  if (Evicted)
    MCacheEvicted.inc(Evicted);
}

bool JITEngine::loadModule(const ModuleJob &Job, CompileOutcome &Outcome) {
  trace::TraceSpan Span("link", "backend");
  Span.arg("so", Outcome.SoPath);
  telemetry::ScopedTimerUs LinkT(MLinkUs);
  if (!Outcome.Message.empty())
    noteDiag(DiagKind::Warning,
             "C compiler diagnostics for generated module:\n" +
                 Outcome.Message);

  void *Handle = dlopen(Outcome.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle && Outcome.FromCache) {
    // Corrupted or truncated cache entry (e.g. a torn write from a killed
    // process): evict it and rebuild from source.
    const char *DLErr = dlerror();
    noteDiag(DiagKind::Warning,
             "evicting unloadable cached module " + Outcome.SoPath + ": " +
                 (DLErr ? DLErr : "unknown dlopen failure"));
    ::unlink(Outcome.SoPath.c_str());
    Outcome = compileSource(Job.CSource, Job.Cacheable,
                            /*SkipCacheLookup=*/true);
    if (!Outcome.OK) {
      noteDiag(DiagKind::Error,
               "C compiler failed for generated module:\n" + Outcome.Message);
      return false;
    }
    Handle = dlopen(Outcome.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  }
  if (!Handle) {
    const char *DLErr = dlerror();
    noteDiag(DiagKind::Error,
             std::string("dlopen failed for generated module: ") +
                 (DLErr ? DLErr : "unknown error"));
    return false;
  }

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Handles.push_back(Handle);
  }
  MModulesLoaded.inc();

  for (TerraFunction *F : Job.Fns) {
    std::string Name = F->mangledName();
    void *Sym = dlsym(Handle, Name.c_str());
    void *EntrySym = dlsym(Handle, (Name + "_entry").c_str());
    if (!Sym || !EntrySym) {
      noteDiag(DiagKind::Error,
               "dlsym failed for '" + Name + "' in generated module");
      return false;
    }
    F->RawPtr = Sym;
    using EntryFnC = void (*)(void **, void *);
    EntryFnC EP = reinterpret_cast<EntryFnC>(EntrySym);
    F->Entry = [EP](void **Args, void *Ret) { EP(Args, Ret); };
  }
  return true;
}

bool JITEngine::addModule(const std::string &CSource,
                          const std::vector<TerraFunction *> &Fns,
                          bool Cacheable) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    LastSource = CSource;
  }
  ModuleJob Job{CSource, Fns, Cacheable};
  CompileOutcome Outcome =
      compileSource(Job.CSource, Job.Cacheable, /*SkipCacheLookup=*/false);
  if (!Outcome.OK) {
    noteDiag(DiagKind::Error,
             "C compiler failed for generated module:\n" + Outcome.Message);
    return false;
  }
  return loadModule(Job, Outcome);
}

bool JITEngine::compileAndResolve(const std::string &CSource, bool Cacheable,
                                  const std::vector<std::string> &Syms,
                                  std::vector<ResolvedFn> &Out,
                                  std::string &Err) {
  trace::TraceSpan Span("compileAndResolve", "backend");
  CompileOutcome Outcome =
      compileSource(CSource, Cacheable, /*SkipCacheLookup=*/false);
  if (!Outcome.OK) {
    Err = "C compiler failed for generated module:\n" + Outcome.Message;
    return false;
  }

  void *Handle = dlopen(Outcome.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle && Outcome.FromCache) {
    // Same corrupted-cache-entry recovery as loadModule: evict and rebuild.
    ::unlink(Outcome.SoPath.c_str());
    Outcome = compileSource(CSource, Cacheable, /*SkipCacheLookup=*/true);
    if (!Outcome.OK) {
      Err = "C compiler failed for generated module:\n" + Outcome.Message;
      return false;
    }
    Handle = dlopen(Outcome.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  }
  if (!Handle) {
    const char *DLErr = dlerror();
    Err = std::string("dlopen failed for generated module: ") +
          (DLErr ? DLErr : "unknown error");
    return false;
  }

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Handles.push_back(Handle);
  }
  MModulesLoaded.inc();

  Out.clear();
  Out.reserve(Syms.size());
  for (const std::string &Name : Syms) {
    ResolvedFn R;
    R.Raw = dlsym(Handle, Name.c_str());
    R.Entry = dlsym(Handle, (Name + "_entry").c_str());
    if (!R.Raw || !R.Entry) {
      Err = "dlsym failed for '" + Name + "' in generated module";
      return false;
    }
    Out.push_back(R);
  }
  return true;
}

bool JITEngine::addModules(std::vector<ModuleJob> Jobs_) {
  if (Jobs_.empty())
    return true;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    LastSource = Jobs_.back().CSource;
  }

  Timer Batch;
  std::vector<CompileOutcome> Outcomes(Jobs_.size());

  if (Jobs_.size() == 1 || Jobs <= 1) {
    for (size_t I = 0; I != Jobs_.size(); ++I)
      Outcomes[I] = compileSource(Jobs_[I].CSource, Jobs_[I].Cacheable,
                                  /*SkipCacheLookup=*/false);
  } else {
    ThreadPool &P = pool();
    Latch Done(Jobs_.size());
    for (size_t I = 0; I != Jobs_.size(); ++I) {
      unsigned Depth = ++InFlight;
      MQueueDepthHwm.max(Depth);
      P.enqueue([this, &Jobs_, &Outcomes, &Done, I] {
        Outcomes[I] = compileSource(Jobs_[I].CSource, Jobs_[I].Cacheable,
                                    /*SkipCacheLookup=*/false);
        --InFlight;
        Done.done();
      });
    }
    Done.wait();
  }

  // dlopen/dlsym and diagnostics run serially on the calling thread, in
  // submission order, so results are deterministic regardless of which
  // worker finished first.
  bool AllOK = true;
  for (size_t I = 0; I != Jobs_.size(); ++I) {
    if (!Outcomes[I].OK) {
      noteDiag(DiagKind::Error, "C compiler failed for generated module:\n" +
                                    Outcomes[I].Message);
      AllOK = false;
      continue;
    }
    if (!loadModule(Jobs_[I], Outcomes[I]))
      AllOK = false;
  }

  MBatchWallUs.record(static_cast<uint64_t>(Batch.seconds() * 1e6));
  return AllOK;
}

ThreadPool &JITEngine::pool() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(Jobs);
  return *Pool;
}

JITEngine::Stats JITEngine::stats() const {
  Stats S;
  S.ModulesLoaded = static_cast<unsigned>(MModulesLoaded.value());
  S.CompilerLaunches = static_cast<unsigned>(MCompilerLaunches.value());
  S.CacheHits = static_cast<unsigned>(MCacheHits.value());
  S.CacheMisses = static_cast<unsigned>(MCacheMisses.value());
  S.CacheBypassed = static_cast<unsigned>(MCacheBypassed.value());
  S.CacheEvicted = static_cast<unsigned>(MCacheEvicted.value());
  S.MaxQueueDepth = static_cast<unsigned>(MQueueDepthHwm.value());
  S.CompilerSeconds = static_cast<double>(MCcUs.snapshot().Sum) / 1e6;
  S.BatchWallSeconds = static_cast<double>(MBatchWallUs.snapshot().Sum) / 1e6;
  return S;
}

bool JITEngine::saveObject(const std::string &Path,
                           const std::string &CSource) {
  auto EndsWith = [&](const char *Suffix) {
    size_t N = strlen(Suffix);
    return Path.size() >= N && Path.compare(Path.size() - N, N, Suffix) == 0;
  };
  if (EndsWith(".c")) {
    if (!writeFile(Path, CSource)) {
      noteDiag(DiagKind::Error, "cannot write " + Path);
      return false;
    }
    return true;
  }
  std::string SrcPath =
      scratchDir() + "/save" + std::to_string(ModuleCounter++) + ".c";
  if (!writeFile(SrcPath, CSource)) {
    noteDiag(DiagKind::Error, "cannot write generated source " + SrcPath);
    return false;
  }
  const char *ExtraFlags = nullptr;
  if (EndsWith(".o"))
    ExtraFlags = "-c -fPIC";
  else if (EndsWith(".so"))
    ExtraFlags = "-shared -fPIC";
  else {
    noteDiag(DiagKind::Error, "saveobj: unsupported extension on " + Path +
                                  " (use .c, .o, or .so)");
    return false;
  }
  std::string Err;
  double Seconds = 0;
  bool OK = runCompiler(SrcPath, Path, ExtraFlags, Err, Seconds);
  if (!OK) {
    noteDiag(DiagKind::Error,
             "C compiler failed for saved object " + Path + ":\n" + Err);
    return false;
  }
  if (!Err.empty())
    noteDiag(DiagKind::Warning,
             "C compiler diagnostics for saved object " + Path + ":\n" + Err);
  return true;
}
