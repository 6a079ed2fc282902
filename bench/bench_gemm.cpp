//===- bench_gemm.cpp - Figure 6: GEMM performance vs. matrix size --------===//
//
// Regenerates paper Figure 6 (a: DGEMM, b: SGEMM): performance of matrix
// multiply as a function of matrix size for
//   Naive    — triple loop (paper "Naive");
//   Blocked  — cache-blocked triple loop (paper "Blocked");
//   TunedC   — hand-tuned vectorized register-blocked C++ (ATLAS/MKL role);
//   Terra    — the auto-tuned staged kernel (paper "Terra").
//
// The reproduction target is the *shape*: Terra lands far above Naive
// (paper: >65x) and within ~20% of the best hand-tuned native kernel.
// GFLOPS are reported as a benchmark counter; the matrix footprint in MB is
// in the benchmark name.
//
//===----------------------------------------------------------------------===//

#include "autotuner/Baselines.h"
#include "autotuner/Gemm.h"
#include "core/Engine.h"
#include "core/TerraType.h"
#include "support/Telemetry.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

using namespace terracpp;
using namespace terracpp::autotuner;
using Json = json::Value;

namespace {

/// Tuning runs recorded for BENCH_gemm.json (label -> result).
std::vector<std::pair<std::string, TuneResult>> &tuneLog() {
  static std::vector<std::pair<std::string, TuneResult>> Log;
  return Log;
}

Json tuneEntry(const std::string &Label, const TuneResult &R) {
  Json J = Json::object();
  unsigned Lookups = R.CacheHits + R.CacheMisses;
  double HitRate = Lookups ? static_cast<double>(R.CacheHits) / Lookups : 0;
  J.set("label", Json::string(Label))
      .set("candidates", Json::number(R.Candidates))
      .set("autotune_wall_seconds", Json::number(R.SearchSeconds))
      .set("compile_wall_seconds", Json::number(R.CompileWallSeconds))
      .set("compile_cpu_seconds", Json::number(R.CompileCpuSeconds))
      .set("compile_jobs", Json::number(R.CompileJobs))
      .set("cache_hits", Json::number(R.CacheHits))
      .set("cache_misses", Json::number(R.CacheMisses))
      .set("cache_hit_rate", Json::number(HitRate))
      .set("best_gflops", Json::number(R.BestGFlops))
      .set("best_params", Json::string(R.Best.str()));
  return J;
}

template <typename T> struct Workload {
  std::vector<T> A, B, C;
  int64_t N;

  explicit Workload(int64_t N) : N(N) {
    A.resize(N * N);
    B.resize(N * N);
    C.resize(N * N);
    for (int64_t I = 0; I != N * N; ++I) {
      A[I] = static_cast<T>((I * 37 % 97) / 97.0);
      B[I] = static_cast<T>((I * 71 % 89) / 89.0);
    }
  }
};

void setFlops(benchmark::State &State, int64_t N) {
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * N * N * N * State.iterations(), benchmark::Counter::kIsRate,
      benchmark::Counter::kIs1000);
  State.counters["MB"] = 3.0 * N * N * 8 / 1e6;
}

/// The tuned Terra multiply, compiled once per element type and reused
/// across sizes (the paper tunes once and reuses the kernel).
template <typename T> void *tunedTerraGemm() {
  static void *Fn = [] {
    static Engine E; // Owns the JIT'd code for the process lifetime.
    Type *Elem = sizeof(T) == 4
                     ? (Type *)E.context().types().float32()
                     : (Type *)E.context().types().float64();
    TuneResult R = tuneGemm(E, Elem, 384, /*Quick=*/false);
    if (!R.RawFn)
      fprintf(stderr, "terra gemm tuning failed:\n%s\n", E.errors().c_str());
    else
      fprintf(stderr, "tuned %s kernel: %s (%.2f GFLOPS on the tuning set)\n",
              sizeof(T) == 4 ? "SGEMM" : "DGEMM", R.Best.str().c_str(),
              R.BestGFlops);
    void *Raw = R.RawFn;
    tuneLog().emplace_back(sizeof(T) == 4 ? "sgemm_bench" : "dgemm_bench",
                           std::move(R));
    return Raw;
  }();
  return Fn;
}

template <typename T> void BM_Naive(benchmark::State &State) {
  Workload<T> W(State.range(0));
  for (auto _ : State) {
    memset(W.C.data(), 0, W.C.size() * sizeof(T));
    naiveGemm(W.A.data(), W.B.data(), W.C.data(), W.N);
    benchmark::DoNotOptimize(W.C.data());
  }
  setFlops(State, W.N);
}

template <typename T> void BM_Blocked(benchmark::State &State) {
  Workload<T> W(State.range(0));
  for (auto _ : State) {
    memset(W.C.data(), 0, W.C.size() * sizeof(T));
    blockedGemm(W.A.data(), W.B.data(), W.C.data(), W.N);
    benchmark::DoNotOptimize(W.C.data());
  }
  setFlops(State, W.N);
}

template <typename T> void BM_TunedC(benchmark::State &State) {
  Workload<T> W(State.range(0));
  for (auto _ : State) {
    memset(W.C.data(), 0, W.C.size() * sizeof(T));
    tunedGemm(W.A.data(), W.B.data(), W.C.data(), W.N);
    benchmark::DoNotOptimize(W.C.data());
  }
  setFlops(State, W.N);
}

template <typename T> void BM_Terra(benchmark::State &State) {
  auto *Fn = reinterpret_cast<void (*)(const T *, const T *, T *, int64_t)>(
      tunedTerraGemm<T>());
  if (!Fn) {
    State.SkipWithError("terra kernel unavailable");
    return;
  }
  Workload<T> W(State.range(0));
  for (auto _ : State) {
    memset(W.C.data(), 0, W.C.size() * sizeof(T));
    Fn(W.A.data(), W.B.data(), W.C.data(), W.N);
    benchmark::DoNotOptimize(W.C.data());
  }
  setFlops(State, W.N);
}

// Figure 6a: DGEMM. Sizes are multiples of every tuned block size; the
// footprint axis (3*N^2*8 bytes) spans ~1 MB to ~32 MB as in the paper.
constexpr int64_t Small = 192, Mid = 384, Large = 768, XLarge = 1152;

BENCHMARK(BM_Naive<double>)->Arg(Small)->Arg(Mid)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Blocked<double>)
    ->Arg(Small)
    ->Arg(Mid)
    ->Arg(Large)
    ->Arg(XLarge)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TunedC<double>)
    ->Arg(Small)
    ->Arg(Mid)
    ->Arg(Large)
    ->Arg(XLarge)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Terra<double>)
    ->Arg(Small)
    ->Arg(Mid)
    ->Arg(Large)
    ->Arg(XLarge)
    ->Unit(benchmark::kMillisecond);

// Figure 6b: SGEMM.
BENCHMARK(BM_Naive<float>)->Arg(Mid)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Blocked<float>)->Arg(Mid)->Arg(Large)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TunedC<float>)->Arg(Mid)->Arg(Large)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Terra<float>)->Arg(Mid)->Arg(Large)->Unit(benchmark::kMillisecond);

/// Scoped environment override (the JIT reads its knobs at Engine
/// construction).
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

TuneResult runSearch(const char *Label) {
  Engine E;
  TuneResult R = tuneGemm(E, E.context().types().float64(), 384,
                          /*Quick=*/false);
  tuneLog().emplace_back(Label, R);
  return R;
}

/// Measures the DGEMM autotune search three ways before the benchmark
/// suite runs: serial compilation without the cache (the pre-pipeline
/// baseline), the parallel pipeline, and a warm-cache rerun. The
/// search-wall-clock ratio is the acceptance metric for the pipeline.
void measureAutotunePipeline() {
  double SerialWall, ParallelWall;
  {
    ScopedEnv CacheOff("TERRACPP_CACHE", "off");
    {
      ScopedEnv OneJob("TERRACPP_COMPILE_JOBS", "1");
      SerialWall = runSearch("dgemm_serial_baseline").SearchSeconds;
    }
    ParallelWall = runSearch("dgemm_parallel").SearchSeconds;
  }
  // Cache on: the first run populates (or reuses) the persistent cache,
  // the second must be served almost entirely from it.
  runSearch("dgemm_cache_populate");
  runSearch("dgemm_warm_cache");
  fprintf(stderr,
          "autotune search: serial %.2fs, parallel %.2fs (%.2fx)\n",
          SerialWall, ParallelWall,
          ParallelWall > 0 ? SerialWall / ParallelWall : 0.0);
}

void writeReport() {
  Json Report = Json::object();
  double SerialWall = 0, ParallelWall = 0, WarmWall = 0;
  unsigned PoolSize = 0;
  Json Entries = Json::array();
  for (const auto &[Label, R] : tuneLog()) {
    Entries.push(tuneEntry(Label, R));
    if (Label == "dgemm_serial_baseline")
      SerialWall = R.SearchSeconds;
    else if (Label == "dgemm_parallel") {
      ParallelWall = R.SearchSeconds;
      PoolSize = R.CompileJobs;
    } else if (Label == "dgemm_warm_cache")
      WarmWall = R.SearchSeconds;
  }
  telemetry::addHostInfo(Report, PoolSize);
  Report.set("autotune_serial_wall_seconds", Json::number(SerialWall))
      .set("autotune_parallel_wall_seconds", Json::number(ParallelWall))
      .set("autotune_speedup_vs_serial",
           Json::number(ParallelWall > 0 ? SerialWall / ParallelWall : 0))
      .set("autotune_warm_cache_wall_seconds", Json::number(WarmWall))
      .set("runs", std::move(Entries));
  // Process-wide telemetry snapshot (frontend phases, autotuner variant
  // runs, thread-pool queue waits).
  Report.set("telemetry", telemetry::Registry::global().toJson());
  std::ofstream("BENCH_gemm.json") << Report.dump() << "\n";
  fprintf(stderr, "BENCH_gemm.json: %s\n", Report.dump().c_str());
}

} // namespace

int main(int argc, char **argv) {
  measureAutotunePipeline();

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  writeReport(); // After the suite so BM_Terra's tuning runs are included.
  return 0;
}
