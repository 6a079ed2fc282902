//===- Scripts.cpp - Source -> first result over a staged corpus ----------===//
//
// Every program runs in a fresh Engine, three passes per run:
//
//   cold  Native backend, empty private cache: cc is on the critical path.
//   warm  Native backend, same sources again: every cacheable module is a
//         disk-cache hit, so the front end and the loader dominate.
//   nocc  Interp backend (bytecode + baseline JIT): no cc at all.
//
// A sample is the time from Engine construction to the checked first
// result. The traced variant drives the same work through each layer's
// public entry point in turn (Engine ctor, Engine::run, Typechecker::check,
// TerraCompiler::analyzeComponent, runMidendPasses + verifyFunction,
// TerraCompiler::ensureCompiled, the first Engine::call) and splits work
// that nests inside one call (C emission, cc, dlopen, baseline emission)
// out of it with the deltas of the counters the program already keeps.
// What ensureCompiled does besides those is its self time: under Native,
// jit.probe_us (the cache key, which includes the compiler identity each
// Engine reads once from `cc --version`, the cache lookup, and setting up
// the C backend); under Interp, baseline.prepare_us (bytecode compilation).
// Whatever no layer claims is `unattributed`.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"

#include "core/Engine.h"
#include "core/TerraPasses.h"
#include "core/TerraType.h"
#include "orion/OrionHosted.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdlib>
#include <map>

using namespace perfbench;
using namespace terracpp;

namespace {

/// Counter readings a layer split needs, taken before and after a call.
struct Counters {
  double CodegenUs = 0, CcUs = 0, LinkUs = 0, EmitUs = 0;
  double Loaded = 0;

  static Counters read(Engine &E) {
    telemetry::Registry &J = E.compiler().jit().metrics();
    Counters C;
    C.CodegenUs = static_cast<double>(telemetry::Registry::global()
                                          .histogram("frontend.codegen_us")
                                          .snapshot()
                                          .Sum);
    C.CcUs = static_cast<double>(J.histogram("jit.cc_us").snapshot().Sum);
    C.LinkUs = static_cast<double>(J.histogram("jit.link_us").snapshot().Sum);
    C.EmitUs = static_cast<double>(
        J.histogram("jit.baseline_emit_us").snapshot().Sum);
    C.Loaded = static_cast<double>(J.counter("jit.modules_loaded").value());
    return C;
  }
  Counters operator-(const Counters &O) const {
    return {CodegenUs - O.CodegenUs, CcUs - O.CcUs, LinkUs - O.LinkUs,
            EmitUs - O.EmitUs, Loaded - O.Loaded};
  }
  double nestedUs() const { return CodegenUs + CcUs + LinkUs + EmitUs; }
};

/// Per-layer microseconds (and sizes) of one program.
using Layers = std::map<std::string, double>;

struct Sample {
  double TotalUs = 0;
  Layers L;
  bool OK = false;
  unsigned Launches = 0, Hits = 0, Misses = 0, Bypassed = 0;
};

enum class Pass { Cold, Warm, NoCC };
const char *passName(Pass P) {
  return P == Pass::Cold ? "cold" : P == Pass::Warm ? "warm" : "nocc";
}

/// The not-yet-compiled callee closure of \p F, as the compile pipeline
/// forms it (TerraCompiler::ensureCompiled analyzes exactly this set).
void collectComponent(TerraFunction *F, std::vector<TerraFunction *> &Out) {
  if (F->isCompiled() || F->IsExtern ||
      std::find(Out.begin(), Out.end(), F) != Out.end())
    return;
  Out.push_back(F);
  for (TerraFunction *C : F->Callees)
    collectComponent(C, Out);
}

bool stage(Engine &E, const Program &P) {
  if (P.HostedOrion)
    orion::installHostedOrion(E);
  if (P.StagesL1Kernel) {
    TerraFunction *K = autotuner::generateKernel(
        E, E.context().types().float64(), P.L1);
    if (!K)
      return false;
    E.setGlobal("l1", lua::Value::terraFn(K));
  }
  return E.run(P.Source, P.Template);
}

bool callEntry(Engine &E, const Program &P, double &Out) {
  std::vector<lua::Value> Results;
  if (!E.call(E.global("entry"), {lua::Value::number(P.Arg)}, Results) ||
      Results.empty() || !Results[0].isNumber())
    return false;
  Out = Results[0].asNumber();
  return true;
}

/// Splits the nested work a call did out of its wall time: the deltas go to
/// their own layers, the rest is the call's self time under \p Self.
void attribute(Layers &L, const std::string &Self, double WallUs,
               const Counters &D) {
  L[Self] += WallUs - D.nestedUs();
  L["codegen.us"] += D.CodegenUs;
  L["jit.cc_us"] += D.CcUs;
  L["jit.load_us"] += D.LinkUs;
  L["baseline.emit_us"] += D.EmitUs;
}

Sample runProgram(const Program &P, Pass Ps, bool Traced) {
  Sample S;
  BackendKind Kind = Ps == Pass::NoCC ? BackendKind::Interp : BackendKind::Native;
  double Got = 0;
  double T0 = nowUs();
  auto E = std::make_unique<Engine>(Kind);
  if (!Traced) {
    S.OK = stage(*E, P) && callEntry(*E, P, Got);
    S.TotalUs = nowUs() - T0;
  } else {
    double T1 = nowUs();
    S.L["engine.init_us"] = T1 - T0;
    Counters C0 = Counters::read(*E);
    bool OK = stage(*E, P);
    double T2 = nowUs();
    Counters C1 = Counters::read(*E);
    attribute(S.L, "stage.run_us", T2 - T1, C1 - C0);
    if (C1.Loaded > C0.Loaded)
      S.L["codegen.c_bytes"] += E->compiler().jit().lastModuleSource().size();
    for (const std::string &Root : P.Roots) {
      TerraFunction *F = OK ? E->terraFunction(Root) : nullptr;
      if (!F) {
        OK = false;
        break;
      }
      double A = nowUs();
      OK = E->compiler().typechecker().check(F);
      double B = nowUs();
      S.L["typecheck.us"] += B - A;
      std::vector<TerraFunction *> Component;
      if (OK) {
        collectComponent(F, Component);
        OK = E->compiler().analyzeComponent(Component);
      }
      double C = nowUs();
      S.L["analyze.us"] += C - B;
      // The midend and its verifier, run here first so that ensureCompiled's
      // own pass over the component finds nothing left to fold.
      for (TerraFunction *Fn : Component)
        if (OK && !Fn->HostClosure) {
          runMidendPasses(E->context(), Fn);
          OK = verifyFunction(E->context().diags(), Fn);
        }
      S.L["midend.us"] += nowUs() - C;
      Counters D0 = Counters::read(*E);
      double D = nowUs();
      OK = OK && E->compiler().ensureCompiled(F);
      double End = nowUs();
      Counters D1 = Counters::read(*E);
      attribute(S.L, Kind == BackendKind::Native ? "jit.probe_us"
                                                 : "baseline.prepare_us",
                End - D, D1 - D0);
      if (D1.Loaded > D0.Loaded)
        S.L["codegen.c_bytes"] += E->compiler().jit().lastModuleSource().size();
      if (!OK)
        break;
    }
    Counters X0 = Counters::read(*E);
    double X = nowUs();
    OK = OK && callEntry(*E, P, Got);
    double T3 = nowUs();
    attribute(S.L, "exec.first_call_us", T3 - X, Counters::read(*E) - X0);
    S.TotalUs = T3 - T0;
    S.OK = OK;
  }
  S.OK = S.OK && sameValue(Got, P.Expected);
  JITEngine::Stats JS = E->compiler().jit().stats();
  S.Launches = JS.CompilerLaunches;
  S.Hits = JS.CacheHits;
  S.Misses = JS.CacheMisses;
  S.Bypassed = JS.CacheBypassed;
  if (Kind == BackendKind::Interp) {
    telemetry::Registry &J = E->compiler().jit().metrics();
    S.L["baseline.code_bytes"] =
        static_cast<double>(J.gauge("jit.baseline_code_bytes").value());
    S.L["baseline.functions"] =
        static_cast<double>(J.counter("jit.baseline_functions").value());
    S.L["baseline.bailouts"] =
        static_cast<double>(J.counter("jit.baseline_bailouts").value());
  }
  return S;
}

class ScriptsPhase : public Phase {
public:
  ScriptsPhase(const Options &O, std::string CacheDir)
      : O(O), CacheDir(std::move(CacheDir)) {}

  bool setup(Report &) override {
    Corpus = makeCorpus(O.Seed, O.P.ProgramsPerTemplate);
    // One cold pass (every program must miss the cache), then rounds of
    // warm and nocc; the traced run adds an untraced warm round to each
    // round, to measure the tracing overhead side by side.
    addRound(Pass::Cold, O.Trace);
    for (unsigned R = 0; R != O.P.HotRounds; ++R) {
      addRound(Pass::Warm, O.Trace);
      if (O.Trace)
        addRound(Pass::Warm, false);
      addRound(Pass::NoCC, O.Trace);
    }
    return true;
  }

  unsigned steps() const override { return static_cast<unsigned>(Items.size()); }

  void step(unsigned I, Report &R) override {
    // Read by each Engine's JIT at construction: the cold pass must never
    // see entries from an earlier run or from the user's own cache.
    setenv("TERRACPP_CACHE_DIR", CacheDir.c_str(), 1);
    const Item &It = Items[I];
    const Program &P = Corpus[It.Prog];
    Sample S = check(R, P, It.Ps, runProgram(P, It.Ps, It.Traced));
    if (It.Traced == O.Trace)
      Samples[static_cast<int>(It.Ps)].push_back(std::move(S));
    else
      WarmUntracedUs.push_back(S.TotalUs);
  }

  void finish(Report &R) override {
    for (Pass Ps : {Pass::Cold, Pass::Warm, Pass::NoCC}) {
      const std::vector<Sample> &V = Samples[static_cast<int>(Ps)];
      // Every program's own first-result time, in run order, for the
      // results document.
      json::Value Rows = json::Value::array();
      for (const Sample &S : V)
        Rows.push(json::Value::number(S.TotalUs / 1000));
      R.detail(std::string(passName(Ps)) + "_ms", std::move(Rows));
      if (!O.Trace)
        report(R, Ps, V);
      else
        reportLayers(R, Ps, V);
    }
    if (O.Trace) {
      std::vector<double> Traced;
      for (const Sample &S : Samples[static_cast<int>(Pass::Warm)])
        Traced.push_back(S.TotalUs);
      double Untraced = median(WarmUntracedUs);
      R.metric("trace.overhead_share", (median(Traced) - Untraced) / Untraced,
               "ratio");
    }
  }

private:
  struct Item {
    Pass Ps;
    unsigned Prog;
    bool Traced;
  };

  void addRound(Pass Ps, bool Traced) {
    for (unsigned P = 0; P != Corpus.size(); ++P)
      Items.push_back({Ps, P, Traced});
  }

  /// Counts the sample and any failure: a wrong or missing result, a cold
  /// sample that never ran cc (a cache must have served it, so it is not
  /// a cold measurement), or a warm sample that ran cc on a cacheable
  /// module.
  Sample check(Report &R, const Program &P, Pass Ps, Sample S) {
    R.attempted();
    std::string What = std::string(passName(Ps)) + " " + P.Template;
    if (!S.OK)
      R.wrong(What + ": wrong or missing first result");
    else if (Ps == Pass::Cold && S.Launches == 0)
      R.failed(What + ": cold sample launched no cc");
    else if (Ps == Pass::Warm && S.Launches > S.Bypassed)
      R.failed(What + ": warm sample compiled a cacheable module");
    return S;
  }

  /// Quantiles over programs, of each program's median over the pass's
  /// rounds (cold has one round), so a stray slow sample does not move p90.
  void report(Report &R, Pass Ps, const std::vector<Sample> &Samples) {
    size_t N = Corpus.size();
    std::vector<double> Ms;
    for (size_t P = 0; P != N; ++P) {
      std::vector<double> Rounds;
      for (size_t I = P; I < Samples.size(); I += N)
        Rounds.push_back(Samples[I].TotalUs / 1000);
      Ms.push_back(median(Rounds));
    }
    std::string Base = std::string("first_result_") + passName(Ps) + "_ms_";
    R.metric(Base + "p50", quantile(Ms, 0.5), "ms");
    R.metric(Base + "p90", quantile(Ms, 0.9), "ms");
  }

  /// Per-program means, so the layers of a pass add up to its mean traced
  /// first-result time.
  void reportLayers(Report &R, Pass Ps, const std::vector<Sample> &Samples) {
    double N = static_cast<double>(Samples.size());
    Layers Sum;
    double Total = 0, Launches = 0, Hits = 0, Lookups = 0, Bypassed = 0;
    for (const Sample &S : Samples) {
      for (const auto &KV : S.L)
        Sum[KV.first] += KV.second;
      Total += S.TotalUs;
      Launches += S.Launches;
      Hits += S.Hits;
      Lookups += S.Hits + S.Misses;
      Bypassed += S.Bypassed;
    }
    std::string Pre = std::string(passName(Ps)) + ".";
    static const char *TimeLayers[] = {
        "engine.init_us",   "stage.run_us",     "typecheck.us",
        "analyze.us",       "midend.us",        "codegen.us",
        "jit.probe_us",
        "jit.cc_us",        "jit.load_us",      "baseline.prepare_us",
        "baseline.emit_us", "exec.first_call_us"};
    // Layers that cannot run in this pass (cc under nocc, the baseline JIT
    // under native) are not reported; they are zero.
    bool Native = Ps != Pass::NoCC;
    double Attributed = 0;
    for (const char *Name : TimeLayers) {
      std::string L = Name;
      Attributed += Sum[L];
      bool NativeOnly = L.rfind("codegen.", 0) == 0 || L.rfind("jit.", 0) == 0;
      bool InterpOnly = L.rfind("baseline.", 0) == 0;
      if ((NativeOnly && !Native) || (InterpOnly && Native))
        continue;
      R.metric(Pre + L, Sum[L] / N, "us");
    }
    R.metric(Pre + "unattributed_share", (Total - Attributed) / Total, "ratio");
    if (Ps == Pass::NoCC) {
      R.metric(Pre + "baseline.code_bytes", Sum["baseline.code_bytes"] / N,
               "bytes");
      double Fns = Sum["baseline.functions"] + Sum["baseline.bailouts"];
      R.metric(Pre + "baseline.bailout_ratio",
               Fns ? Sum["baseline.bailouts"] / Fns : 0, "ratio");
      return;
    }
    R.metric(Pre + "codegen.c_bytes", Sum["codegen.c_bytes"] / N, "bytes");
    R.metric(Pre + "jit.cc_launches", Launches / N, "count");
    if (Ps == Pass::Warm) {
      R.metric(Pre + "jit.cache_hit_ratio", Lookups ? Hits / Lookups : 0,
               "ratio");
      R.metric(Pre + "jit.cache_lookups", Lookups / N, "count");
      R.metric(Pre + "jit.cache_bypassed", Bypassed / N, "count");
    }
  }

  const Options &O;
  std::string CacheDir;
  std::vector<Program> Corpus;
  std::vector<Item> Items;
  std::vector<Sample> Samples[3]; ///< Indexed by Pass.
  std::vector<double> WarmUntracedUs;
};

} // namespace

std::unique_ptr<Phase> perfbench::makeScriptsPhase(const Options &O,
                                                   const std::string &CacheDir) {
  return std::make_unique<ScriptsPhase>(O, CacheDir);
}
