//===- Kernels.cpp - Run time of the paper's generated kernels ------------===//
//
// Set-up stages and compiles the section-6 kernels; the measurement then
// only calls them, so the front end and cc do no timed work here:
//
//   dgemm    autotuner::generateGemm at the tuner's recorded winner
//            (NB=64 RM=4 RN=2 V=4, prefetch), N=384, checked against
//            autotuner::naiveGemm;
//   stencil  Orion's fluid-diffuse chain (20 Gauss-Jacobi steps, line
//            buffered, vectorized by 8) on a 1024x1024 image, checked
//            against a plain C++ loop;
//   scalar   three bytecode-eligible kernels (an LCG loop, and the
//            corpus's fixed-point mandelbrot and 16-wide sorting-network
//            templates at larger sizes) on BackendKind::Native and
//            BackendKind::Interp, each checked against C++.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"

#include "autotuner/Baselines.h"
#include "autotuner/Gemm.h"
#include "core/Engine.h"
#include "core/TerraType.h"
#include "orion/Orion.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

using namespace perfbench;
using namespace terracpp;

namespace {

constexpr int64_t GemmN = 384;
constexpr int64_t ImgW = 1024, ImgH = 1024;
constexpr int DiffuseSteps = 20;
constexpr float DiffA = 0.25f;

// Sizes of the scalar kernels' single calls.
constexpr int32_t LcgN = 200000;
constexpr int RenderW = 64, RenderH = 48, RenderIters = 24;
constexpr int SortWidth = 16, SortReps = 2000;

/// The LCG loop of the tiering benchmark, as a corpus-style program.
Program lcgProgram(int Arg) {
  Program P;
  P.Template = "lcg";
  P.Roots = {"entry"};
  P.Arg = Arg;
  P.Source = "terra entry(x: int): double\n"
             "  var acc = 0.0\n"
             "  var k: int64 = x\n"
             "  for i = 0, " + std::to_string(LcgN) + " do\n"
             "    k = (k * 1103515245 + 12345) % 2147483647\n"
             "    if k % 3 == 0 then acc = acc + i * 0.5\n"
             "    else acc = acc - k % 7 end\n"
             "  end\n"
             "  return acc\n"
             "end\n";
  double Acc = 0;
  int64_t K = Arg;
  for (int32_t I = 0; I < LcgN; ++I) {
    K = lcgNext(K);
    if (K % 3 == 0)
      Acc = Acc + I * 0.5;
    else
      Acc = Acc - static_cast<double>(K % 7);
  }
  P.Expected = Acc;
  return P;
}

/// Gauss-Jacobi diffusion with Orion's zero boundary, every step over the
/// whole image.
std::vector<float> refDiffuse(const std::vector<float> &X0) {
  std::vector<float> Cur = X0, Next(X0.size());
  auto At = [&](int64_t X, int64_t Y) {
    return X < 0 || X >= ImgW || Y < 0 || Y >= ImgH ? 0.0f : Cur[Y * ImgW + X];
  };
  for (int K = 0; K != DiffuseSteps; ++K) {
    for (int64_t Y = 0; Y < ImgH; ++Y)
      for (int64_t X = 0; X < ImgW; ++X)
        Next[Y * ImgW + X] =
            (X0[Y * ImgW + X] +
             DiffA * (At(X - 1, Y) + At(X + 1, Y) + At(X, Y - 1) + At(X, Y + 1))) /
            (1 + 4 * DiffA);
    std::swap(Cur, Next);
  }
  return Cur;
}

double maxAbsDiff(const float *A, const std::vector<float> &B) {
  double M = 0;
  for (size_t I = 0; I != B.size(); ++I)
    M = std::max(M, std::fabs(static_cast<double>(A[I]) - B[I]));
  return M;
}

/// One scalar kernel staged in an engine of its own: its entry(x), the
/// argument and the reference result.
struct ScalarCall {
  std::string Name;
  std::unique_ptr<Engine> E;
  TerraFunction *F = nullptr;
  int32_t Arg = 0;
  double Expected = 0;

  double call() const {
    double Ret = 0;
    int32_t X = Arg;
    void *Ptrs[1] = {&X};
    F->Entry(Ptrs, &Ret);
    return Ret;
  }
};

class KernelsPhase : public Phase {
public:
  KernelsPhase(const Options &O, std::string CacheDir)
      : O(O), CacheDir(std::move(CacheDir)) {}

  bool setup(Report &R) override {
    setenv("TERRACPP_CACHE_DIR", CacheDir.c_str(), 1);
    Rng G(O.Seed * 0x9e3779b97f4a7c15ull + 3);

    // DGEMM at the tuner's recorded winner.
    A.resize(GemmN * GemmN);
    B.resize(GemmN * GemmN);
    for (double &V : A)
      V = 2 * G.unit() - 1;
    for (double &V : B)
      V = 2 * G.unit() - 1;
    autotuner::KernelParams KP;
    KP.NB = 64;
    KP.RM = 4;
    KP.RN = 2;
    KP.V = 4;
    KP.Prefetch = true;
    GemmE = std::make_unique<Engine>(BackendKind::Native);
    double T0 = nowUs();
    TerraFunction *GF = autotuner::generateGemm(
        *GemmE, GemmE->context().types().float64(), KP);
    StageUs = nowUs() - T0;
    Gemm = GF ? reinterpret_cast<autotuner::GemmFn>(GemmE->rawPointer(GF))
              : nullptr;
    if (!Gemm) {
      R.failed("kernels: dgemm failed to compile: " + GemmE->errors());
      return false;
    }

    // Orion fluid diffuse.
    X0.resize(ImgW * ImgH);
    for (float &V : X0)
      V = static_cast<float>(G.unit());
    OrionE = std::make_unique<Engine>(BackendKind::Native);
    orion::Pipeline P;
    orion::Func In = P.input("x0"), Cur = In;
    for (int K = 0; K != DiffuseSteps; ++K) {
      orion::Expr Next =
          (In(0, 0) + orion::Expr(DiffA) *
                          (Cur(-1, 0) + Cur(1, 0) + Cur(0, -1) + Cur(0, 1))) /
          (1 + 4 * DiffA);
      orion::Func Step = P.define("d" + std::to_string(K), Next);
      if (K + 1 != DiffuseSteps)
        Step.setSchedule(orion::Schedule::LineBuffer);
      Cur = Step;
    }
    P.setOutput(Cur);
    T0 = nowUs();
    Stencil = P.compile(*OrionE, {8});
    OrionCompileUs = nowUs() - T0;
    if (!Stencil.valid() || !Stencil.prepare({X0.data()}, ImgW, ImgH)) {
      R.failed("kernels: diffuse pipeline failed: " + OrionE->errors());
      return false;
    }

    // The scalar suite on both backends, with seeded arguments: the LCG
    // loop, and the corpus's mandelbrot and sorting-network templates at
    // fixed, larger sizes.
    int64_t Salt = G.range(1, 1 << 20);
    std::vector<std::pair<std::string, Program>> Suite = {
        {"lcg", lcgProgram(G.range(1, 1 << 20))},
        {"render", mandelbrotProgram(RenderIters, RenderW, RenderH, Salt,
                                     G.range(0, 999))},
        {"sort", sortingNetworkProgram(SortWidth, SortReps, Salt,
                                       G.range(0, 999))}};
    for (BackendKind Kind : {BackendKind::Native, BackendKind::Interp})
      for (const auto &[Name, P] : Suite) {
        ScalarCall C{Name, std::make_unique<Engine>(Kind)};
        if (C.E->run(P.Source, P.Template))
          C.F = C.E->terraFunction("entry");
        if (!C.F || !C.E->compiler().ensureCompiled(C.F)) {
          R.failed("kernels: scalar " + Name + " failed: " + C.E->errors());
          return false;
        }
        C.Arg = P.Arg;
        C.Expected = P.Expected;
        (Kind == BackendKind::Native ? NativeCalls : NoccCalls)
            .push_back(std::move(C));
      }
    return true;
  }

  unsigned steps() const override { return O.P.KernelReps; }

  /// One call of every kernel; outputs are checked on the first and last.
  void step(unsigned Rep, Report &R) override {
    if (Rep == 0) {
      // The references are the benchmark's own work, not set-up.
      RefC.assign(GemmN * GemmN, 0.0);
      autotuner::naiveGemm(A.data(), B.data(), RefC.data(), GemmN);
      RefImg = refDiffuse(X0);
      C.resize(GemmN * GemmN);
    }
    bool Check = Rep == 0 || Rep + 1 == O.P.KernelReps;
    std::fill(C.begin(), C.end(), 0.0);
    double T0 = nowUs();
    Gemm(A.data(), B.data(), C.data(), GemmN);
    GemmMs.push_back((nowUs() - T0) / 1000);
    if (Check) {
      R.attempted();
      double Err = 0;
      for (size_t I = 0; I != C.size(); ++I)
        Err = std::max(Err, std::fabs(C[I] - RefC[I]));
      if (Err > 1e-9)
        R.wrong("kernels: dgemm differs from naiveGemm by " +
                std::to_string(Err));
    }

    T0 = nowUs();
    bool OK = Stencil.runPrepared();
    StencilMs.push_back((nowUs() - T0) / 1000);
    if (Check) {
      R.attempted();
      std::vector<float> Img(ImgW * ImgH);
      Stencil.readOutput(Img.data());
      double Err = maxAbsDiff(Img.data(), RefImg);
      if (!OK || Err > 1e-4)
        R.wrong("kernels: diffuse differs from reference by " +
                std::to_string(Err));
    }

    runScalar(R, NativeCalls, NativeUs);
    runScalar(R, NoccCalls, NoccUs);
  }

  void finish(Report &R) override {
    double GemmSec = median(GemmMs) / 1000;
    if (!O.Trace) {
      R.metric("dgemm_gflops", 2.0 * GemmN * GemmN * GemmN / GemmSec / 1e9,
               "GFLOP/s");
      R.metric("stencil_ms", median(StencilMs), "ms");
      R.metric("scalar_native_ms", suiteMs(NativeUs), "ms");
      R.metric("scalar_nocc_ms", suiteMs(NoccUs), "ms");
      return;
    }
    R.metric("exec.native.dgemm_us", median(GemmMs) * 1000, "us");
    R.metric("exec.native.stencil_us", median(StencilMs) * 1000, "us");
    for (auto &KV : NativeUs)
      R.metric("exec.native." + KV.first + "_us", median(KV.second), "us");
    for (auto &KV : NoccUs)
      R.metric("exec.nocc." + KV.first + "_us", median(KV.second), "us");
    R.metric("orion.compile_us", OrionCompileUs, "us");
    R.metric("autotuner.stage_us", StageUs, "us");
    double EmitUs = 0, Bytes = 0, Fns = 0, Bail = 0;
    for (const ScalarCall &C : NoccCalls) {
      telemetry::Registry &J = C.E->compiler().jit().metrics();
      EmitUs += static_cast<double>(
          J.histogram("jit.baseline_emit_us").snapshot().Sum);
      Bytes += static_cast<double>(J.gauge("jit.baseline_code_bytes").value());
      Fns += static_cast<double>(J.counter("jit.baseline_functions").value());
      Bail += static_cast<double>(J.counter("jit.baseline_bailouts").value());
    }
    R.metric("kernels.baseline.emit_us", EmitUs, "us");
    R.metric("kernels.baseline.code_bytes", Bytes, "bytes");
    R.metric("kernels.baseline.bailout_ratio",
             Fns + Bail ? Bail / (Fns + Bail) : 0, "ratio");
  }

private:
  static void runScalar(Report &R, const std::vector<ScalarCall> &Calls,
                        std::map<std::string, std::vector<double>> &Us) {
    for (const ScalarCall &C : Calls) {
      double T0 = nowUs();
      double Got = C.call();
      Us[C.Name].push_back(nowUs() - T0);
      R.attempted();
      if (Got != C.Expected)
        R.wrong("kernels: scalar " + C.Name + " returned " +
                std::to_string(Got) + ", expected " +
                std::to_string(C.Expected));
    }
  }

  /// One pass over the suite: the sum of each kernel's median call.
  static double suiteMs(const std::map<std::string, std::vector<double>> &Us) {
    double Sum = 0;
    for (const auto &KV : Us)
      Sum += median(KV.second);
    return Sum / 1000;
  }

  const Options &O;
  std::string CacheDir;
  std::vector<double> A, B;
  std::vector<float> X0;
  std::unique_ptr<Engine> GemmE, OrionE;
  autotuner::GemmFn Gemm = nullptr;
  orion::CompiledPipeline Stencil;
  std::vector<ScalarCall> NativeCalls, NoccCalls;
  double StageUs = 0, OrionCompileUs = 0;
  std::vector<double> RefC, C;
  std::vector<float> RefImg;
  std::vector<double> GemmMs, StencilMs;
  std::map<std::string, std::vector<double>> NativeUs, NoccUs;
};

} // namespace

std::unique_ptr<Phase> perfbench::makeKernelsPhase(const Options &O,
                                                   const std::string &CacheDir) {
  return std::make_unique<KernelsPhase>(O, CacheDir);
}
