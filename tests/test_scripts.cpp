//===- test_scripts.cpp - Hosted example scripts run end to end -----------===//
//
// Runs the shipped .t example scripts through Engine::runFile and checks
// their self-reported results — integration coverage for the combined
// language at program scale.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "orion/OrionHosted.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace terracpp;

namespace {

bool nativeAvailable() {
  return Engine::defaultBackend() != BackendKind::Interp;
}

std::string scriptPath(const char *Name) {
  // CMake passes the source dir; fall back to a relative path for manual
  // runs from the repository root.
#ifdef TERRACPP_SOURCE_DIR
  return std::string(TERRACPP_SOURCE_DIR) + "/examples/scripts/" + Name;
#else
  return std::string("examples/scripts/") + Name;
#endif
}

TEST(Scripts, Mandelbrot) {
  if (!nativeAvailable())
    GTEST_SKIP();
  Engine E;
  ASSERT_TRUE(E.runFile(scriptPath("mandelbrot.t"))) << E.errors();
  lua::Value R = E.global("result");
  ASSERT_TRUE(R.isNumber());
  // The interior of the Mandelbrot set covers a stable fraction of this
  // viewport; the exact count is deterministic.
  EXPECT_GT(R.asNumber(), 100);
  EXPECT_LT(R.asNumber(), 64 * 48);
}

TEST(Scripts, SortingNetworks) {
  if (!nativeAvailable())
    GTEST_SKIP();
  Engine E;
  ASSERT_TRUE(E.runFile(scriptPath("sorting.t"))) << E.errors();
  EXPECT_EQ(E.global("result").asNumber(), 1);
}

TEST(Scripts, HostedOrion) {
  if (!nativeAvailable())
    GTEST_SKIP();
  Engine E;
  orion::installHostedOrion(E);
  ASSERT_TRUE(E.runFile(scriptPath("hosted_orion.t"))) << E.errors();
  EXPECT_GT(E.global("result").asNumber(), 0);
}

TEST(Scripts, MandelbrotOnInterpreterBackend) {
  // The same whole program must run on the fallback engine.
  Engine E(BackendKind::Interp);
  ASSERT_TRUE(E.runFile(scriptPath("mandelbrot.t"))) << E.errors();
  EXPECT_GT(E.global("result").asNumber(), 100);
}

} // namespace
