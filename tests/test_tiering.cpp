//===- test_tiering.cpp - Tiered execution (tier 0 -> tier 1) tests -------===//
//
// Exercises the profile-guided promotion pipeline (DESIGN.md §10): under
// BackendKind::Tiered every function starts on the interpreter, call and
// back-edge counters queue a background native compile, and the dispatcher
// atomically switches to machine code when it lands. These tests check:
//   * first calls execute on tier 0 without blocking on a C compiler;
//   * hot functions get promoted and produce identical results after the
//     switch;
//   * rawPointer() forces synchronous promotion (FFI / vtables);
//   * telemetry counters (promotions, per-tier calls, backlog) move;
//   * concurrent callers racing a promotion never observe a torn entry
//     (the Tiering* name puts this battery in the TSan CI job).
//
//===----------------------------------------------------------------------===//

#include "ScopedEnv.h"
#include "core/Engine.h"
#include "core/TerraBaselineJIT.h"
#include "core/TerraTier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace terracpp;
using lua::Value;

namespace {

bool nativeAvailable() {
  return Engine::defaultBackend() != BackendKind::Interp;
}

double callF(Engine &E, const char *Name, double Arg) {
  std::vector<Value> R;
  EXPECT_TRUE(E.call(E.global(Name), {Value::number(Arg)}, R)) << E.errors();
  return R.empty() ? 0.0 : R[0].asNumber();
}

/// Polls until \p Done returns true or ~5s pass.
template <typename Pred> bool waitFor(Pred Done) {
  for (int I = 0; I != 500; ++I) {
    if (Done())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Done();
}

TEST(Tiering, FirstCallRunsOnTier0WithoutNativeCompile) {
  if (!nativeAvailable())
    GTEST_SKIP();
  // Pin the VM: this test asserts about the tier-0 VM specifically
  // (test_baseline covers the tier-0.5 path).
  ScopedEnv VM("TERRACPP_INTERP", "vm");
  // A threshold far above what this test reaches: promotion never fires.
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "1000000");
  ScopedEnv BThresh("TERRACPP_TIER_BACKEDGE_THRESHOLD", "1000000000");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra f(x: int): int return x * 3 + 1 end"))
      << E.errors();
  EXPECT_EQ(callF(E, "f", 5), 16);
  EXPECT_EQ(E.compiler().lastCallTier(), 0);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->RawPtr, nullptr); // No native code was produced.
  ASSERT_NE(E.compiler().tierManager(), nullptr);
  TierManager::Snapshot S = E.compiler().tierManager()->snapshot();
  EXPECT_GE(S.Tier0Functions, 1u);
  EXPECT_GE(S.Tier0Calls, 1u);
  EXPECT_EQ(S.Promotions, 0u);
  // The generated C was parked, not compiled: zero compiler launches.
  EXPECT_EQ(E.compiler().jit().stats().CompilerLaunches, 0u);
}

TEST(Tiering, HotFunctionPromotesInBackground) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "3");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra f(x: int): int return x + 7 end")) << E.errors();
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(callF(E, "f", I), I + 7);
  TierManager *TM = E.compiler().tierManager();
  ASSERT_NE(TM, nullptr);
  ASSERT_TRUE(waitFor([&] { return TM->snapshot().Promotions >= 1; }))
      << "promotion never landed";
  // Once the native entry is published the dispatcher switches tiers, and
  // results stay identical.
  ASSERT_TRUE(waitFor([&] {
    if (callF(E, "f", 100) != 107)
      return true; // Fail fast: waitFor returns, EXPECT below catches it.
    return E.compiler().lastCallTier() == 1;
  }));
  EXPECT_EQ(callF(E, "f", 100), 107);
  EXPECT_EQ(E.compiler().lastCallTier(), 1);
  TierManager::Snapshot S = TM->snapshot();
  EXPECT_GE(S.PromotedFunctions, 1u);
  EXPECT_GE(S.Tier1Calls, 1u);
  EXPECT_EQ(S.PromotionFailures, 0u);
}

TEST(Tiering, BackEdgeCounterPromotesLoopHeavyFunction) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "1000000");
  ScopedEnv BThresh("TERRACPP_TIER_BACKEDGE_THRESHOLD", "1000");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra f(n: int): int\n"
                    "  var s = 0\n"
                    "  for i = 0, n do s = s + i end\n"
                    "  return s\n"
                    "end"))
      << E.errors();
  // One call, 5000 back edges: the loop counter alone must trigger
  // promotion even though the call count stays far below its threshold.
  EXPECT_EQ(callF(E, "f", 5000), 5000.0 * 4999 / 2);
  TierManager *TM = E.compiler().tierManager();
  ASSERT_NE(TM, nullptr);
  EXPECT_TRUE(waitFor([&] { return TM->snapshot().Promotions >= 1; }))
      << "back-edge promotion never landed";
}

TEST(Tiering, RawPointerForcesSynchronousPromotion) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "1000000");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra f(x: int): int return x - 2 end")) << E.errors();
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  void *Raw = E.rawPointer(F);
  ASSERT_NE(Raw, nullptr) << E.errors();
  EXPECT_EQ(reinterpret_cast<int32_t (*)(int32_t)>(Raw)(44), 42);
  // And the dispatcher now routes through native code too.
  EXPECT_EQ(callF(E, "f", 10), 8);
  EXPECT_EQ(E.compiler().lastCallTier(), 1);
}

TEST(Tiering, IdenticalResultsAcrossTheSwitch) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "4");
  Engine E(BackendKind::Tiered);
  // Mixed int/float arithmetic where tier divergence would show up.
  ASSERT_TRUE(E.run("terra f(x: double): double\n"
                    "  var a: float = x\n"
                    "  var s: double = 0\n"
                    "  for i = 0, 17 do s = s + a * i end\n"
                    "  return s / 7\n"
                    "end"))
      << E.errors();
  double First = callF(E, "f", 1.234567);
  TierManager *TM = E.compiler().tierManager();
  ASSERT_NE(TM, nullptr);
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(callF(E, "f", 1.234567), First);
  ASSERT_TRUE(waitFor([&] { return TM->snapshot().Promotions >= 1; }));
  ASSERT_TRUE(waitFor([&] {
    callF(E, "f", 1.234567);
    return E.compiler().lastCallTier() == 1;
  }));
  // Bit-identical across the tier switch.
  EXPECT_EQ(callF(E, "f", 1.234567), First);
}

TEST(Tiering, Tier0PinDisablesPromotion) {
  ScopedEnv Backend("TERRACPP_BACKEND", "interp");
  ScopedEnv VM("TERRACPP_INTERP", "vm");
  Engine E; // The default backend resolves to the interp engine.
  ASSERT_TRUE(E.run("terra f(x: int): int return x * x end")) << E.errors();
  for (int I = 0; I != 50; ++I)
    EXPECT_EQ(callF(E, "f", I), I * I);
  EXPECT_EQ(E.compiler().lastCallTier(), 0);
  EXPECT_EQ(E.compiler().tierManager(), nullptr);
  EXPECT_EQ(E.compiler().jit().stats().CompilerLaunches, 0u);
}

TEST(Tiering, ConcurrentCallersNeverObserveATornEntry) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "2");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra f(x: int): int\n"
                    "  var s = 0\n"
                    "  for i = 0, 64 do s = s + x end\n"
                    "  return s\n"
                    "end"))
      << E.errors();
  // Warm up on the main thread so typechecking/codegen are done before the
  // racers start; the race under test is dispatch vs. promotion.
  EXPECT_EQ(callF(E, "f", 1), 64);
  TerraFunction *F = E.terraFunction("f");
  ASSERT_NE(F, nullptr);
  ASSERT_TRUE(F->Entry);

  std::atomic<int> Wrong{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != 200; ++I) {
        int32_t X = T + I;
        int32_t Ret = 0;
        void *Args[1] = {&X};
        F->Entry(Args, &Ret);
        if (Ret != 64 * X)
          ++Wrong;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Wrong.load(), 0);
  TierManager *TM = E.compiler().tierManager();
  ASSERT_NE(TM, nullptr);
  // 800 calls with threshold 2: promotion fired while the racers ran.
  EXPECT_TRUE(waitFor([&] { return TM->snapshot().Promotions >= 1; }));
  TierManager::Snapshot S = TM->snapshot();
  EXPECT_EQ(S.PromotionFailures, 0u);
  // Every racer call landed on some tier: VM, baseline JIT, or native.
  EXPECT_GE(S.Tier0Calls + S.BaselineCalls + S.Tier1Calls, 800u);
}

TEST(Tiering, MissingCompilerPinsFunctionsAtBaselineTier) {
  if (!BaselineJIT::supported())
    GTEST_SKIP() << "baseline JIT not supported on this architecture";
  // An empty PATH makes every cc spawn fail with ENOENT. The engine is
  // forced onto the tiered backend so the promotion pipeline still
  // engages; promotion must fail once, pin at the baseline tier, and stop
  // retrying.
  ScopedEnv Path("PATH", "/terracpp-no-such-dir");
  ScopedEnv Base("TERRACPP_INTERP", "baseline");
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "2");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra f(x: int): int return x + 1 end")) << E.errors();
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(callF(E, "f", I), I + 1);
  TierManager *TM = E.compiler().tierManager();
  ASSERT_NE(TM, nullptr);
  ASSERT_TRUE(waitFor([&] { return TM->snapshot().CcUnavailable == 1; }))
      << "cc ENOENT never pinned the tier manager";
  // Calls keep succeeding — served by the baseline JIT.
  EXPECT_EQ(callF(E, "f", 41), 42);
  EXPECT_EQ(E.compiler().lastCallTier(), 2);
  TierManager::Snapshot S = TM->snapshot();
  EXPECT_GE(S.PromotionFailures, 1u);
  EXPECT_GE(S.BaselineCalls, 1u);
  // Once pinned, new hot functions never launch another compiler attempt.
  unsigned Launches = E.compiler().jit().stats().CompilerLaunches;
  ASSERT_TRUE(E.run("terra g(x: int): int return x * 2 end")) << E.errors();
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(callF(E, "g", I), I * 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(E.compiler().jit().stats().CompilerLaunches, Launches);
}

TEST(Tiering, DeepRecursionOnBaselineTierOverflowsGracefully) {
  if (!nativeAvailable())
    GTEST_SKIP();
  if (!BaselineJIT::supported())
    GTEST_SKIP() << "baseline JIT not supported on this architecture";
  // Under tiering, each recursion level re-enters the dispatcher thunk
  // (and TerraInterpBackend::execute) with a fresh ExecEnv — the
  // thread-shared depth budget must still trip and produce the
  // interpreter's diagnostic instead of overrunning the native stack. Thresholds far out of reach keep the function on the
  // baseline tier for the whole test (no promotion race).
  ScopedEnv Base("TERRACPP_INTERP", "baseline");
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "1000000000");
  ScopedEnv BThresh("TERRACPP_TIER_BACKEDGE_THRESHOLD", "1000000000");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra f(n: int): int\n"
                    "  if n == 0 then return 0 end\n"
                    "  return f(n - 1) + n\n"
                    "end",
                    "deep.t"))
      << E.errors();
  EXPECT_EQ(callF(E, "f", 100), 5050);
  EXPECT_EQ(E.compiler().lastCallTier(), 2);
  std::vector<Value> R;
  EXPECT_FALSE(E.call(E.global("f"), {Value::number(100000)}, R));
  EXPECT_NE(E.errors().find("call stack overflow"), std::string::npos)
      << E.errors();
  // Depth fully unwound: the engine still serves calls.
  EXPECT_EQ(callF(E, "f", 10), 55);
}

TEST(Tiering, SnapshotTracksBacklogAndFailureCounters) {
  if (!nativeAvailable())
    GTEST_SKIP();
  ScopedEnv Thresh("TERRACPP_TIER_CALL_THRESHOLD", "1000000");
  Engine E(BackendKind::Tiered);
  ASSERT_TRUE(E.run("terra a(x: int): int return x + 1 end\n"
                    "terra b(x: int): int return x + 2 end"))
      << E.errors();
  EXPECT_EQ(callF(E, "a", 1), 2);
  EXPECT_EQ(callF(E, "b", 1), 3);
  TierManager *TM = E.compiler().tierManager();
  ASSERT_NE(TM, nullptr);
  TierManager::Snapshot S = TM->snapshot();
  EXPECT_GE(S.Tier0Functions, 2u);
  EXPECT_EQ(S.PromotionBacklog, 0u);
  // Force one function native; the per-tier function gauges move.
  ASSERT_NE(E.rawPointer(E.terraFunction("a")), nullptr);
  TierManager::Snapshot S2 = TM->snapshot();
  EXPECT_GE(S2.PromotedFunctions, 1u);
  EXPECT_LT(S2.Tier0Functions, S.Tier0Functions);
}

} // namespace
