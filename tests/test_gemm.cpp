//===- test_gemm.cpp - Staged GEMM generator tests (paper §6.1) -----------===//
//
// Verifies that the staged, register-blocked, vectorized L1 kernel and the
// blocked multiply built on it compute the same result as the naive triple
// loop, across a sweep of kernel parameters (register blocking RM/RN, vector
// width V, block size NB), and that the auto-tuner picks a working
// configuration.
//
//===----------------------------------------------------------------------===//

#include "autotuner/Baselines.h"
#include "autotuner/Gemm.h"
#include "core/Engine.h"
#include "core/TerraType.h"

#include "support/Timer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

using namespace terracpp;
using namespace terracpp::autotuner;

namespace {

bool nativeAvailable() {
  return Engine::defaultBackend() != BackendKind::Interp;
}

template <typename T>
void fillMatrices(int64_t N, std::vector<T> &A, std::vector<T> &B,
                  std::vector<T> &C) {
  A.resize(N * N);
  B.resize(N * N);
  C.assign(N * N, 0);
  for (int64_t I = 0; I != N * N; ++I) {
    A[I] = static_cast<T>((I * 13 % 23) - 11) / 7;
    B[I] = static_cast<T>((I * 7 % 19) - 9) / 5;
  }
}

template <typename T>
double maxAbsDiff(const std::vector<T> &X, const std::vector<T> &Y) {
  double M = 0;
  for (size_t I = 0; I != X.size(); ++I)
    M = std::max(M, std::fabs(static_cast<double>(X[I]) - Y[I]));
  return M;
}

using ParamTuple = std::tuple<int, int, int, int, bool>; // NB RM RN V pf

class GemmParamTest : public ::testing::TestWithParam<ParamTuple> {};

TEST_P(GemmParamTest, MatchesNaiveDouble) {
  if (!nativeAvailable())
    GTEST_SKIP() << "native backend unavailable";
  auto [NB, RM, RN, V, PF] = GetParam();
  KernelParams P{NB, RM, RN, V, PF};
  ASSERT_TRUE(P.valid());

  Engine E;
  TerraFunction *Fn = generateGemm(E, E.context().types().float64(), P);
  ASSERT_TRUE(E.compiler().ensureCompiled(Fn)) << E.errors();
  // rawPointer forces native promotion under tiered execution.
  auto *G = reinterpret_cast<void (*)(const double *, const double *,
                                      double *, int64_t)>(E.rawPointer(Fn));
  ASSERT_NE(G, nullptr) << E.errors();

  int64_t N = 2 * NB;
  std::vector<double> A, B, C, Ref;
  fillMatrices(N, A, B, C);
  Ref = C;
  G(A.data(), B.data(), C.data(), N);
  naiveGemm(A.data(), B.data(), Ref.data(), N);
  EXPECT_LT(maxAbsDiff(C, Ref), 1e-9) << "params: " << P.str();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmParamTest,
    ::testing::Values(ParamTuple{16, 2, 1, 2, false},
                      ParamTuple{16, 2, 2, 2, true},
                      ParamTuple{32, 4, 2, 2, true},
                      ParamTuple{32, 2, 2, 4, true},
                      ParamTuple{32, 4, 1, 4, false},
                      ParamTuple{64, 4, 2, 4, true},
                      ParamTuple{64, 8, 2, 2, true},
                      ParamTuple{64, 2, 4, 4, true},
                      ParamTuple{64, 1, 1, 1, false}));

TEST(Gemm, SinglePrecisionKernel) {
  if (!nativeAvailable())
    GTEST_SKIP();
  Engine E;
  KernelParams P{32, 4, 1, 8, true};
  TerraFunction *Fn = generateGemm(E, E.context().types().float32(), P);
  ASSERT_TRUE(E.compiler().ensureCompiled(Fn)) << E.errors();
  auto *G = reinterpret_cast<void (*)(const float *, const float *, float *,
                                      int64_t)>(E.rawPointer(Fn));
  ASSERT_NE(G, nullptr) << E.errors();
  int64_t N = 64;
  std::vector<float> A, B, C, Ref;
  fillMatrices(N, A, B, C);
  Ref = C;
  G(A.data(), B.data(), C.data(), N);
  naiveGemm(A.data(), B.data(), Ref.data(), N);
  EXPECT_LT(maxAbsDiff(C, Ref), 1e-2);
}

TEST(Gemm, TunedCBaselineMatchesNaive) {
  int64_t N = 128;
  std::vector<double> A, B, C, Ref;
  fillMatrices(N, A, B, C);
  Ref = C;
  tunedGemm(A.data(), B.data(), C.data(), N);
  naiveGemm(A.data(), B.data(), Ref.data(), N);
  EXPECT_LT(maxAbsDiff(C, Ref), 1e-9);
}

TEST(Gemm, BlockedBaselineMatchesNaive) {
  int64_t N = 96; // Not a multiple of the block size: exercises edges.
  std::vector<double> A, B, C, Ref;
  fillMatrices(N, A, B, C);
  Ref = C;
  blockedGemm(A.data(), B.data(), C.data(), N);
  naiveGemm(A.data(), B.data(), Ref.data(), N);
  EXPECT_LT(maxAbsDiff(C, Ref), 1e-9);
}

TEST(Gemm, AutotunerPicksWorkingConfig) {
  if (!nativeAvailable())
    GTEST_SKIP();
  Engine E;
  TuneResult R = tuneGemm(E, E.context().types().float64(), 128,
                          /*Quick=*/true);
  ASSERT_NE(R.Fn, nullptr) << E.errors();
  EXPECT_GT(R.BestGFlops, 0);
  EXPECT_TRUE(R.Best.valid());
  // The winning configuration must also be numerically correct.
  auto *G = reinterpret_cast<void (*)(const double *, const double *,
                                      double *, int64_t)>(R.RawFn);
  int64_t N = 128;
  std::vector<double> A, B, C, Ref;
  fillMatrices(N, A, B, C);
  Ref = C;
  G(A.data(), B.data(), C.data(), N);
  naiveGemm(A.data(), B.data(), Ref.data(), N);
  EXPECT_LT(maxAbsDiff(C, Ref), 1e-9);
}

TEST(Gemm, TunerBeatsNaiveSubstantially) {
  if (!nativeAvailable())
    GTEST_SKIP();
  // The paper's headline: the staged kernel is far faster than naive code.
  Engine E;
  TuneResult R = tuneGemm(E, E.context().types().float64(), 256,
                          /*Quick=*/true);
  ASSERT_NE(R.RawFn, nullptr) << E.errors();
  int64_t N = 256;
  std::vector<double> A, B, C;
  fillMatrices(N, A, B, C);
  auto *G = reinterpret_cast<void (*)(const double *, const double *,
                                      double *, int64_t)>(R.RawFn);

  Timer T1;
  G(A.data(), B.data(), C.data(), N);
  double Staged = T1.seconds();

  std::fill(C.begin(), C.end(), 0.0);
  Timer T2;
  naiveGemm(A.data(), B.data(), C.data(), N);
  double Naive = T2.seconds();

  EXPECT_LT(Staged * 1.5, Naive)
      << "staged kernel should clearly beat the naive loop";
}

} // namespace
