//===- bench_compile.cpp - §4.1 ablation: staging pipeline costs ----------===//
//
// Measures the engineering claims of §4.1/§5: eager specialization is cheap
// (it happens at definition time), typechecking+linking are lazy (deferred
// to first call), and JIT compilation cost is dominated by the backend C
// compiler (the LLVM substitute, see DESIGN.md §4). Families of generated
// functions are pushed through each phase separately:
//
//   ParseAndSpecialize — host evaluation of a chunk of terra definitions
//                        (includes eager specialization, no typechecking);
//   TypecheckOnly      — typechecking the whole family;
//   FullCompile        — specialization + typecheck + native codegen + load
//                        (serial, content-addressed cache disabled);
//   BatchCompile       — same family through the parallel compileAll
//                        pipeline (cache disabled);
//   WarmCacheCompile   — the family served from the persistent cache.
//
// Before the google-benchmark suite runs, main() measures one serial vs
// batch vs warm-cache pass directly and writes BENCH_compile.json with the
// cache hit-rate and the parallel speedup, so the perf trajectory is
// tracked across PRs.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/TerraType.h"
#include "support/Telemetry.h"
#include "support/Timer.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace terracpp;
using Json = json::Value;

namespace {

/// A chunk defining N distinct terra functions of nontrivial size.
std::string functionFamily(int N) {
  std::ostringstream OS;
  for (int I = 0; I != N; ++I) {
    OS << "terra fam" << I << "(a: int, b: double): double\n"
       << "  var acc = b\n"
       << "  for k = 0, a do\n"
       << "    if k % 2 == 0 then acc = acc + " << I << " * 1.5\n"
       << "    else acc = acc - k end\n"
       << "  end\n"
       << "  return acc\n"
       << "end\n";
  }
  return OS.str();
}

/// Scoped environment override (TERRACPP_CACHE / TERRACPP_COMPILE_JOBS are
/// read at Engine construction).
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    const char *Old = getenv(Name);
    if (Old) {
      Saved = Old;
      HadOld = true;
    }
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
  }
  ~ScopedEnv() {
    if (HadOld)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::string Saved;
  bool HadOld = false;
};

std::vector<TerraFunction *> familyFunctions(Engine &E, int N) {
  std::vector<TerraFunction *> Fns;
  for (int I = 0; I != N; ++I)
    Fns.push_back(E.terraFunction("fam" + std::to_string(I)));
  return Fns;
}

void BM_ParseAndSpecialize(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  std::string Src = functionFamily(N);
  for (auto _ : State) {
    Engine E;
    bool OK = E.run(Src);
    if (!OK)
      State.SkipWithError("run failed");
    benchmark::DoNotOptimize(OK);
  }
  State.counters["fns/s"] =
      benchmark::Counter(static_cast<double>(N) * State.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParseAndSpecialize)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_TypecheckOnly(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  std::string Src = functionFamily(N);
  for (auto _ : State) {
    State.PauseTiming();
    Engine E;
    if (!E.run(Src)) {
      State.SkipWithError("run failed");
      return;
    }
    std::vector<TerraFunction *> Fns = familyFunctions(E, N);
    State.ResumeTiming();
    for (TerraFunction *F : Fns)
      if (!E.compiler().typechecker().check(F))
        State.SkipWithError("typecheck failed");
  }
  State.counters["fns/s"] =
      benchmark::Counter(static_cast<double>(N) * State.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TypecheckOnly)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

/// Serial one-component-at-a-time compilation with the persistent cache
/// disabled: the historical (pre-pipeline) cost of a cold compile.
void BM_FullCompile(benchmark::State &State) {
  ScopedEnv CacheOff("TERRACPP_CACHE", "off");
  int N = static_cast<int>(State.range(0));
  std::string Src = functionFamily(N);
  for (auto _ : State) {
    Engine E;
    if (!E.run(Src)) {
      State.SkipWithError("run failed");
      return;
    }
    for (TerraFunction *F : familyFunctions(E, N)) {
      if (!E.compiler().ensureCompiled(F)) {
        State.SkipWithError("compile failed");
        return;
      }
    }
    benchmark::DoNotOptimize(E.compiler().stats().FunctionsCompiled);
  }
  State.counters["fns/s"] =
      benchmark::Counter(static_cast<double>(N) * State.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullCompile)->Arg(8)->Unit(benchmark::kMillisecond);

/// The same cold family through the parallel batch pipeline.
void BM_BatchCompile(benchmark::State &State) {
  ScopedEnv CacheOff("TERRACPP_CACHE", "off");
  int N = static_cast<int>(State.range(0));
  std::string Src = functionFamily(N);
  for (auto _ : State) {
    Engine E;
    if (!E.run(Src)) {
      State.SkipWithError("run failed");
      return;
    }
    if (!E.compileAll(familyFunctions(E, N))) {
      State.SkipWithError("batch compile failed");
      return;
    }
    benchmark::DoNotOptimize(E.compiler().stats().FunctionsCompiled);
  }
  State.counters["fns/s"] =
      benchmark::Counter(static_cast<double>(N) * State.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchCompile)->Arg(8)->Unit(benchmark::kMillisecond);

/// The family served from the persistent content-addressed cache (the
/// first iteration populates it; steady state is pure dlopen).
void BM_WarmCacheCompile(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  std::string Src = functionFamily(N);
  for (auto _ : State) {
    Engine E;
    if (!E.run(Src)) {
      State.SkipWithError("run failed");
      return;
    }
    if (!E.compileAll(familyFunctions(E, N))) {
      State.SkipWithError("batch compile failed");
      return;
    }
    benchmark::DoNotOptimize(E.compiler().stats().FunctionsCompiled);
  }
  State.counters["fns/s"] =
      benchmark::Counter(static_cast<double>(N) * State.iterations(),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WarmCacheCompile)->Arg(8)->Unit(benchmark::kMillisecond);

/// Lazy typechecking: defining many functions but calling one should not
/// pay for the rest (paper: typechecking runs "only when a function is
/// called").
void BM_LazyFirstCall(benchmark::State &State) {
  int N = 64;
  std::string Src = functionFamily(N);
  for (auto _ : State) {
    Engine E;
    if (!E.run(Src)) {
      State.SkipWithError("run failed");
      return;
    }
    TerraFunction *F = E.terraFunction("fam0");
    if (!E.compiler().ensureCompiled(F))
      State.SkipWithError("compile failed");
    benchmark::DoNotOptimize(F->RawPtr);
  }
}
BENCHMARK(BM_LazyFirstCall)->Unit(benchmark::kMillisecond);

/// One direct serial/batch/warm comparison, written to BENCH_compile.json.
Json measurePipeline() {
  constexpr int N = 16;
  std::string Src = functionFamily(N);
  Json Report = Json::object();
  Report.set("family_size", Json::number(N));

  double SerialSeconds = 0, BatchSeconds = 0;
  {
    ScopedEnv CacheOff("TERRACPP_CACHE", "off");
    {
      Engine E;
      if (!E.run(Src))
        return Report.set("error", Json::string("run failed"));
      std::vector<TerraFunction *> Fns = familyFunctions(E, N);
      Timer T;
      for (TerraFunction *F : Fns)
        E.compiler().ensureCompiled(F);
      SerialSeconds = T.seconds();
    }
    {
      Engine E;
      E.run(Src);
      std::vector<TerraFunction *> Fns = familyFunctions(E, N);
      Timer T;
      E.compileAll(Fns);
      BatchSeconds = T.seconds();
      Report.set("compile_jobs",
                 Json::number(E.compiler().jit().compileJobs()));
      telemetry::addHostInfo(Report, E.compiler().jit().compileJobs());
    }
  }
  Report.set("serial_cold_seconds", Json::number(SerialSeconds));
  Report.set("batch_cold_seconds", Json::number(BatchSeconds));
  Report.set("parallel_speedup",
             Json::number(BatchSeconds > 0 ? SerialSeconds / BatchSeconds : 0));

  // Populate the cache, then measure a warm rerun in a fresh engine.
  {
    Engine E;
    E.run(Src);
    E.compileAll(familyFunctions(E, N));
  }
  {
    Engine E;
    E.run(Src);
    Timer T;
    E.compileAll(familyFunctions(E, N));
    double WarmSeconds = T.seconds();
    JITEngine::Stats S = E.compiler().jit().stats();
    unsigned Lookups = S.CacheHits + S.CacheMisses;
    double HitRate = Lookups ? static_cast<double>(S.CacheHits) / Lookups : 0;
    Report.set("warm_seconds", Json::number(WarmSeconds));
    Report.set("warm_cache_hits", Json::number(S.CacheHits));
    Report.set("warm_cache_misses", Json::number(S.CacheMisses));
    Report.set("warm_hit_rate", Json::number(HitRate));
    Report.set("warm_compiler_seconds", Json::number(S.CompilerSeconds));
  }
  return Report;
}

} // namespace

int main(int argc, char **argv) {
  Json Report = measurePipeline();
  // Process-wide telemetry snapshot (frontend phase latencies, thread-pool
  // queue waits) so a trajectory regression can be localized to a phase.
  Report.set("telemetry", telemetry::Registry::global().toJson());
  std::ofstream("BENCH_compile.json") << Report.dump() << "\n";
  fprintf(stderr, "BENCH_compile.json: %s\n", Report.dump().c_str());

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
