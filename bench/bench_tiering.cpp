//===- bench_tiering.cpp - Tiered execution performance (DESIGN.md §10) ---===//
//
// Quantifies the three claims behind the tiered pipeline:
//
//   1. Engine tiers — per-call throughput of one loop-heavy kernel on the
//      tree-walking evaluator, the tier-0 register-bytecode VM (target:
//      >= 10x the tree-walker), and promoted native code.
//   2. First-call latency — wall time from "script evaluated" to "first
//      call returned" on the native backend (blocks on the C compiler) vs
//      the tiered one (tier 0 answers immediately; target p50 <= 1ms
//      cold), with both cold and warm content-addressed caches for native.
//   3. Promotion under load — a call loop against one hot function on the
//      tiered backend: how many calls execute on tier 0 before the background
//      native compile lands, and per-call cost before/after the switch
//      (after == native parity).
//
// main() measures all three directly and writes BENCH_tiering.json, then
// runs the google-benchmark suite for steady-state per-tier numbers.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/TerraTier.h"
#include "support/Telemetry.h"
#include "support/Timer.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

using namespace terracpp;
using Json = json::Value;

namespace {

/// Scoped environment override (the interpreter and the tier thresholds
/// are read at Engine construction).
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

/// The measured kernel: integer + double arithmetic, branches, and a
/// counted loop — bytecode-eligible, loop-heavy, no memory traffic that
/// would hide dispatch cost. `salt` makes variants content-distinct so
/// cold-cache runs are genuinely cold.
std::string kernelSource(const std::string &Name, int Salt) {
  return "terra " + Name + "(n: int): double\n"
         "  var acc = 0.0\n"
         "  var k = " + std::to_string(Salt) + "\n"
         "  for i = 0, n do\n"
         "    k = (k * 1103515245 + 12345) % 2147483647\n"
         "    if k % 3 == 0 then acc = acc + i * 0.5\n"
         "    else acc = acc - k % 7 end\n"
         "  end\n"
         "  return acc\n"
         "end\n";
}

/// One entry-thunk call (shared convention across all tiers).
double callKernel(TerraFunction *F, int32_t N) {
  double Ret = 0;
  void *Args[1] = {&N};
  F->Entry(Args, &Ret);
  return Ret;
}

bool nativeAvailable() {
  return Engine::defaultBackend() != BackendKind::Interp;
}

/// Mean seconds per call of `kern(N)` over \p Iters calls.
double timePerCall(TerraFunction *F, int32_t N, int Iters) {
  callKernel(F, N); // Warm up (compile bytecode / load native code).
  Timer T;
  double Sink = 0;
  for (int I = 0; I != Iters; ++I)
    Sink += callKernel(F, N);
  benchmark::DoNotOptimize(Sink);
  return T.seconds() / Iters;
}

/// Claim 1: per-tier throughput on the same kernel.
void measureEngineTiers(Json &Report) {
  constexpr int32_t N = 20000;
  constexpr int Iters = 30;
  Json Tiers = Json::object();

  double TreeSec = 0, VMSec = 0, BaseSec = 0, BaseEmitUs = 0;
  {
    ScopedEnv Force("TERRACPP_INTERP", "tree");
    Engine E(BackendKind::Interp);
    E.run(kernelSource("kern", 1));
    TerraFunction *F = E.terraFunction("kern");
    E.compiler().ensureCompiled(F);
    TreeSec = timePerCall(F, N, std::max(Iters / 10, 3));
  }
  {
    // Pin to the VM: with the baseline JIT as the default interpreter, an
    // unconstrained Interp engine would measure tier 0.5, not tier 0.
    ScopedEnv Force("TERRACPP_INTERP", "vm");
    Engine E(BackendKind::Interp);
    E.run(kernelSource("kern", 1));
    TerraFunction *F = E.terraFunction("kern");
    E.compiler().ensureCompiled(F);
    VMSec = timePerCall(F, N, Iters);
  }
  {
    // Baseline JIT (tier 0.5): direct x86-64 emission from the bytecode.
    ScopedEnv Force("TERRACPP_INTERP", "baseline");
    Engine E(BackendKind::Interp);
    E.run(kernelSource("kern", 1));
    TerraFunction *F = E.terraFunction("kern");
    E.compiler().ensureCompiled(F);
    BaseSec = timePerCall(F, N, Iters * 10);
    // Emission latency (the "promotion to baseline" cost) from telemetry.
    BaseEmitUs = E.compiler()
                     .jit()
                     .metrics()
                     .histogram("jit.baseline_emit_us")
                     .snapshot()
                     .Mean;
  }
  Tiers.set("tree_walk_us_per_call", Json::number(TreeSec * 1e6));
  Tiers.set("tier0_vm_us_per_call", Json::number(VMSec * 1e6));
  Tiers.set("vm_speedup_vs_tree",
            Json::number(VMSec > 0 ? TreeSec / VMSec : 0));
  if (BaseSec > 0) {
    Tiers.set("baseline_us_per_call", Json::number(BaseSec * 1e6));
    Tiers.set("baseline_speedup_vs_vm", Json::number(VMSec / BaseSec));
    Tiers.set("baseline_emit_us", Json::number(BaseEmitUs));
  }
  if (nativeAvailable()) {
    Engine E(BackendKind::Native);
    E.run(kernelSource("kern", 1));
    TerraFunction *F = E.terraFunction("kern");
    E.compiler().ensureCompiled(F);
    double NativeSec = timePerCall(F, N, Iters * 10);
    Tiers.set("native_us_per_call", Json::number(NativeSec * 1e6));
    Tiers.set("native_speedup_vs_vm",
              Json::number(NativeSec > 0 ? VMSec / NativeSec : 0));
    if (NativeSec > 0 && BaseSec > 0)
      Tiers.set("baseline_slowdown_vs_native",
                Json::number(BaseSec / NativeSec));
  }
  Report.set("engine_tiers", std::move(Tiers));
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

/// Claim 2: definition-to-first-result latency per backend.
void measureFirstCall(Json &Report) {
  constexpr int Samples = 15;
  Json FirstCall = Json::object();

  auto sample = [](BackendKind BK, int Salt, bool CacheOff) {
    ScopedEnv Cache("TERRACPP_CACHE", CacheOff ? "off" : nullptr);
    Engine E(BK);
    // Distinct body per sample: a cold run never hits the cc cache.
    E.run(kernelSource("kern", Salt));
    TerraFunction *F = E.terraFunction("kern");
    // The timed region is definition-to-first-result: typecheck + codegen
    // + (native) the blocking cc invocation, then the call itself.
    Timer T;
    E.compiler().ensureCompiled(F);
    callKernel(F, 10);
    return T.seconds() * 1e6;
  };

  std::vector<double> Auto, Tier1Cold, Tier1Warm;
  for (int I = 0; I != Samples; ++I)
    Auto.push_back(sample(BackendKind::Tiered, 7000 + I, /*CacheOff=*/true));
  FirstCall.set("auto_cold_p50_us", Json::number(percentile(Auto, 0.5)));
  FirstCall.set("auto_cold_p95_us", Json::number(percentile(Auto, 0.95)));
  if (nativeAvailable()) {
    const BackendKind Native = BackendKind::Native;
    for (int I = 0; I != Samples; ++I)
      Tier1Cold.push_back(sample(Native, 8000 + I, /*CacheOff=*/true));
    // Warm: same sources again, served from the content-addressed cache.
    for (int I = 0; I != Samples; ++I)
      Tier1Warm.push_back(sample(Native, 9000 + I, /*CacheOff=*/false));
    for (int I = 0; I != Samples; ++I)
      Tier1Warm[I] = std::min(Tier1Warm[I],
                              sample(Native, 9000 + I, /*CacheOff=*/false));
    double AutoP50 = percentile(Auto, 0.5);
    double ColdP50 = percentile(Tier1Cold, 0.5);
    FirstCall.set("tier1_cold_p50_us", Json::number(ColdP50));
    FirstCall.set("tier1_cold_p95_us",
                  Json::number(percentile(Tier1Cold, 0.95)));
    FirstCall.set("tier1_warm_p50_us",
                  Json::number(percentile(Tier1Warm, 0.5)));
    FirstCall.set("tier0_first_call_speedup_vs_tier1_cold",
                  Json::number(AutoP50 > 0 ? ColdP50 / AutoP50 : 0));
  }
  Report.set("first_call_latency", std::move(FirstCall));
}

/// Claim 3: the promotion-under-load curve.
void measurePromotion(Json &Report) {
  if (!nativeAvailable())
    return;
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "8");
  ScopedEnv Cache("TERRACPP_CACHE", "off");
  Engine E(BackendKind::Tiered);
  E.run(kernelSource("kern", 424242));
  TerraFunction *F = E.terraFunction("kern");
  E.compiler().ensureCompiled(F);

  constexpr int32_t N = 20000;
  constexpr int MaxCalls = 100000;
  std::vector<double> Tier0Us, Tier1Us;
  int SwitchedAt = -1;
  Timer Wall;
  for (int I = 0; I != MaxCalls; ++I) {
    Timer T;
    callKernel(F, N);
    double Us = T.seconds() * 1e6;
    if (E.compiler().lastCallTier() == 1) {
      if (SwitchedAt < 0)
        SwitchedAt = I;
      Tier1Us.push_back(Us);
      if (Tier1Us.size() >= 200)
        break;
    } else {
      Tier0Us.push_back(Us);
    }
  }
  Json Promo = Json::object();
  Promo.set("call_threshold", Json::number(8));
  Promo.set("calls_on_tier0_before_switch", Json::number(SwitchedAt));
  Promo.set("wall_seconds_to_promotion", Json::number(Wall.seconds()));
  Promo.set("tier0_p50_us", Json::number(percentile(Tier0Us, 0.5)));
  Promo.set("tier1_p50_us", Json::number(percentile(Tier1Us, 0.5)));
  Promo.set("speedup_after_promotion",
            Json::number(percentile(Tier1Us, 0.5) > 0
                          ? percentile(Tier0Us, 0.5) / percentile(Tier1Us, 0.5)
                          : 0));
  if (TierManager *TM = E.compiler().tierManager()) {
    TierManager::Snapshot S = TM->snapshot();
    Promo.set("promotions", Json::number(S.Promotions));
    Promo.set("promotion_failures", Json::number(S.PromotionFailures));
  }
  Report.set("promotion_under_load", std::move(Promo));
}

//===----------------------------------------------------------------------===//
// Steady-state google-benchmark suite
//===----------------------------------------------------------------------===//

void runTierBenchmark(benchmark::State &State, const char *InterpMode,
                      BackendKind BK) {
  ScopedEnv Force("TERRACPP_INTERP", InterpMode);
  if (BK == BackendKind::Native && !nativeAvailable()) {
    State.SkipWithError("native backend unavailable");
    return;
  }
  Engine E(BK);
  if (!E.run(kernelSource("kern", 1))) {
    State.SkipWithError("run failed");
    return;
  }
  TerraFunction *F = E.terraFunction("kern");
  E.compiler().ensureCompiled(F);
  int32_t N = static_cast<int32_t>(State.range(0));
  callKernel(F, N);
  double Sink = 0;
  for (auto _ : State)
    Sink += callKernel(F, N);
  benchmark::DoNotOptimize(Sink);
  State.counters["iters/s"] = benchmark::Counter(
      static_cast<double>(N) * State.iterations(), benchmark::Counter::kIsRate);
}

void BM_TreeWalker(benchmark::State &State) {
  runTierBenchmark(State, "tree", BackendKind::Interp);
}
BENCHMARK(BM_TreeWalker)->Arg(1000)->Arg(20000)->Unit(benchmark::kMicrosecond);

void BM_Tier0VM(benchmark::State &State) {
  runTierBenchmark(State, "vm", BackendKind::Interp);
}
BENCHMARK(BM_Tier0VM)->Arg(1000)->Arg(20000)->Unit(benchmark::kMicrosecond);

void BM_BaselineJIT(benchmark::State &State) {
  runTierBenchmark(State, "baseline", BackendKind::Interp);
}
BENCHMARK(BM_BaselineJIT)
    ->Arg(1000)
    ->Arg(20000)
    ->Unit(benchmark::kMicrosecond);

void BM_Native(benchmark::State &State) {
  runTierBenchmark(State, nullptr, BackendKind::Native);
}
BENCHMARK(BM_Native)->Arg(1000)->Arg(20000)->Unit(benchmark::kMicrosecond);

} // namespace

int main(int argc, char **argv) {
  Json Report = Json::object();
  telemetry::addHostInfo(Report);
  measureEngineTiers(Report);
  measureFirstCall(Report);
  measurePromotion(Report);
  std::ofstream("BENCH_tiering.json") << Report.dump() << "\n";
  fprintf(stderr, "BENCH_tiering.json: %s\n", Report.dump().c_str());

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
