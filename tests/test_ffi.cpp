//===- test_ffi.cpp - FFI and separate-compilation tests (§4.2, §5) -------===//
//
// The paper's interoperability story: values convert between the host and
// Terra at call boundaries, Lua functions become callable Terra functions,
// and — the flagship claim — compiled Terra code runs with no host runtime
// at all: terralib.saveobj writes a shared library that this test dlopens
// and calls with the engine destroyed.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/TerraType.h"

#include <gtest/gtest.h>

#include <dlfcn.h>
#include <fstream>

using namespace terracpp;
using lua::Value;

namespace {

bool nativeAvailable() {
  return Engine::defaultBackend() != BackendKind::Interp;
}

TEST(FFI, NumberConversionsRoundTrip) {
  Engine E;
  ASSERT_TRUE(E.run("terra f8(x: int8): int8 return x end\n"
                    "terra fu(x: uint32): uint32 return x end\n"
                    "terra ff(x: float): float return x end"))
      << E.errors();
  std::vector<Value> R;
  ASSERT_TRUE(E.call(E.global("f8"), {Value::number(-5)}, R));
  EXPECT_EQ(R[0].asNumber(), -5);
  R.clear();
  ASSERT_TRUE(E.call(E.global("fu"), {Value::number(4e9)}, R));
  EXPECT_EQ(R[0].asNumber(), 4e9);
  R.clear();
  ASSERT_TRUE(E.call(E.global("ff"), {Value::number(0.5)}, R));
  EXPECT_EQ(R[0].asNumber(), 0.5);
}

TEST(FFI, BoolsAndStrings) {
  Engine E;
  ASSERT_TRUE(E.run(
      "str = terralib.includec('string.h')\n"
      "terra flip(b: bool): bool return not b end\n"
      "terra len(s: rawstring): int64 return str.strlen(s) end"))
      << E.errors();
  std::vector<Value> R;
  ASSERT_TRUE(E.call(E.global("flip"), {Value::boolean(true)}, R));
  EXPECT_FALSE(R[0].asBool());
  R.clear();
  // Host string -> rawstring at the boundary (paper §4.2).
  ASSERT_TRUE(E.call(E.global("len"), {Value::string("hello ffi")}, R));
  EXPECT_EQ(R[0].asNumber(), 9);
}

TEST(FFI, TablesConvertToStructs) {
  // Paper §4.2: "Lua tables can be converted into structs when they contain
  // the required fields."
  Engine E;
  ASSERT_TRUE(E.run("struct P { x : double; y : double }\n"
                    "terra mag2(p: P): double return p.x * p.x + p.y * p.y "
                    "end"))
      << E.errors();
  Value T = Value::newTable();
  T.asTable()->setStr("x", Value::number(3));
  T.asTable()->setStr("y", Value::number(4));
  std::vector<Value> R;
  ASSERT_TRUE(E.call(E.global("mag2"), {T}, R)) << E.errors();
  EXPECT_DOUBLE_EQ(R[0].asNumber(), 25.0);
}

TEST(FFI, StructReturnsComeBackAsCData) {
  Engine E;
  ASSERT_TRUE(E.run("struct P { x : double; y : double }\n"
                    "terra mk(a: double, b: double): P return P { a, b } end\n"
                    "terra getx(p: P): double return p.x end"))
      << E.errors();
  std::vector<Value> R;
  ASSERT_TRUE(E.call(E.global("mk"), {Value::number(7), Value::number(8)}, R));
  ASSERT_TRUE(R[0].isCData());
  // And cdata flows back in as an argument.
  std::vector<Value> R2;
  ASSERT_TRUE(E.call(E.global("getx"), {R[0]}, R2)) << E.errors();
  EXPECT_DOUBLE_EQ(R2[0].asNumber(), 7.0);
}

TEST(FFI, TerraFunctionAsFunctionPointerArgument) {
  // Function values marshalled through the FFI are machine addresses; the
  // pure interpreter backend cannot produce one.
  if (!nativeAvailable())
    GTEST_SKIP();
  Engine E;
  ASSERT_TRUE(E.run(
      "terra twice(x: int): int return x * 2 end\n"
      "terra apply(f: int -> int, x: int): int return f(x) end"))
      << E.errors();
  std::vector<Value> R;
  ASSERT_TRUE(E.call(E.global("apply"),
                     {E.global("twice"), Value::number(21)}, R))
      << E.errors();
  EXPECT_EQ(R[0].asNumber(), 42);
}

TEST(FFI, HostClosureCalledFromDeepTerra) {
  // A Lua function wrapped with terralib.cast, called from a Terra loop —
  // Terra code (native, or the bytecode tiers without cc) trampolining
  // back into the host interpreter per iteration.
  Engine E;
  ASSERT_TRUE(E.run("local calls = 0\n"
                    "local function observe(x)\n"
                    "  calls = calls + 1\n"
                    "  return x + calls\n"
                    "end\n"
                    "cb = terralib.cast(int -> int, observe)\n"
                    "terra f(n: int): int\n"
                    "  var s = 0\n"
                    "  for i = 0, n do s = s + cb(i) end\n"
                    "  return s\n"
                    "end\n"
                    "function getcalls() return calls end"))
      << E.errors();
  std::vector<Value> R;
  ASSERT_TRUE(E.call(E.global("f"), {Value::number(4)}, R)) << E.errors();
  // s = sum(i + (i+1)) for i in 0..3 = (0+1)+(1+2)+(2+3)+(3+4) = 16.
  EXPECT_EQ(R[0].asNumber(), 16);
  R.clear();
  ASSERT_TRUE(E.call(E.global("getcalls"), {}, R));
  EXPECT_EQ(R[0].asNumber(), 4); // Host state mutated by Terra code.
}

TEST(FFI, TerralibNewBuildsTypedCData) {
  Engine E;
  ASSERT_TRUE(E.run("struct V { a : int; b : int }\n"
                    "v = terralib.new(V, { a = 3, b = 4 })\n"
                    "t = terralib.typeof(v)\n"
                    "ok = t == V"))
      << E.errors();
  EXPECT_TRUE(E.global("ok").asBool());
}

TEST(FFI, SaveObjSharedLibraryRunsWithoutTheEngine) {
  if (!nativeAvailable())
    GTEST_SKIP();
  // Paper: "since Terra code can run without Lua, the resulting routine can
  // be written out as a library and used in other programs."
  const char *Path = "/tmp/terracpp_ffi_test.so";
  {
    Engine E;
    ASSERT_TRUE(E.run(
        "terra gcd(a: int64, b: int64): int64\n"
        "  while b ~= 0 do a, b = b, a % b end\n"
        "  return a\n"
        "end\n"
        "counter = global(int64, 0)\n"
        "terra bump(): int64\n"
        "  counter = counter + 1\n"
        "  return counter\n"
        "end\n"
        "terralib.saveobj('/tmp/terracpp_ffi_test.so',\n"
        "                 { gcd = gcd, bump = bump })"))
        << E.errors();
  } // Engine destroyed: no host runtime, no JIT'd modules remain.

  void *H = dlopen(Path, RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(H, nullptr) << dlerror();
  auto *Gcd = reinterpret_cast<int64_t (*)(int64_t, int64_t)>(
      dlsym(H, "gcd"));
  ASSERT_NE(Gcd, nullptr);
  EXPECT_EQ(Gcd(48, 36), 12);
  EXPECT_EQ(Gcd(17, 5), 1);
  // Saved globals are module-local and zero-initialized (DESIGN.md §4).
  auto *Bump = reinterpret_cast<int64_t (*)()>(dlsym(H, "bump"));
  ASSERT_NE(Bump, nullptr);
  EXPECT_EQ(Bump(), 1);
  EXPECT_EQ(Bump(), 2);
  dlclose(H);
}

TEST(FFI, SaveObjCSourceIsSelfContained) {
  const char *Path = "/tmp/terracpp_ffi_test.c";
  Engine E;
  ASSERT_TRUE(E.run("terra sq(x: double): double return x * x end\n"
                    "terralib.saveobj('/tmp/terracpp_ffi_test.c', { sq = sq "
                    "})"))
      << E.errors();
  std::ifstream In(Path);
  std::string Src((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(Src.find("sq"), std::string::npos);
  // No in-process addresses may be baked into saved sources.
  EXPECT_EQ(Src.find("0x7f"), std::string::npos) << Src;
  EXPECT_NE(Src.find("alias"), std::string::npos);
}

TEST(FFI, SaveObjRejectsHostClosures) {
  Engine E;
  EXPECT_FALSE(E.run(
      "local f = terralib.cast(int -> int, function(x) return x end)\n"
      "terra g(x: int): int return f(x) end\n"
      "terralib.saveobj('/tmp/terracpp_bad.so', { g = g })"));
  EXPECT_NE(E.errors().find("lua function"), std::string::npos)
      << E.errors();
}

} // namespace
