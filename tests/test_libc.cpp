//===- test_libc.cpp - The libc boundary on every engine ------------------===//
//
// terralib.includec binds entries of one libc table (core/Libc.h). Native
// code calls them by name; the VM and the baseline JIT call each entry's real
// address through its invoker, and tiered execution starts on those. These
// tests require every engine to agree with literal expected values: one
// program per table function that returns a value, a printf conversion
// table (byte-identical stdout), exit and abort, and the Terra signature of
// every entry. Without a C compiler the native and tiered legs drop out and
// the literals remain the reference.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/Libc.h"
#include "core/TerraAST.h"
#include "core/TerraType.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <csignal>
#include <memory>
#include <optional>
#include <unistd.h>

using namespace terracpp;
using lua::Value;

namespace {

enum class Exec { Native, VM, Baseline, Tiered };

const char *modeName(Exec Mode) {
  switch (Mode) {
  case Exec::Native:
    return "native";
  case Exec::VM:
    return "vm";
  case Exec::Baseline:
    return "baseline";
  case Exec::Tiered:
    return "tiered";
  }
  return "?";
}

/// The engines to compare: all four with a C compiler, else the two
/// interpreters.
std::vector<Exec> engines() {
  if (Engine::defaultBackend() == BackendKind::Interp)
    return {Exec::VM, Exec::Baseline};
  return {Exec::Native, Exec::VM, Exec::Baseline, Exec::Tiered};
}

std::unique_ptr<Engine> makeEngine(Exec Mode) {
  std::optional<ScopedEnv> Pin;
  if (Mode == Exec::VM || Mode == Exec::Baseline)
    Pin.emplace("TERRACPP_INTERP", modeName(Mode));
  BackendKind Kind = Mode == Exec::Native   ? BackendKind::Native
                     : Mode == Exec::Tiered ? BackendKind::Tiered
                                            : BackendKind::Interp;
  return std::make_unique<Engine>(Kind);
}

/// Runs \p Src and calls its `f(Arg)`; returns "" or the engine's errors.
std::string runF(Engine &E, const std::string &Src, double Arg,
                 double &Result) {
  if (!E.run(Src, "libc"))
    return "run failed: " + E.errors();
  std::vector<Value> Results;
  if (!E.call(E.global("f"), {Value::number(Arg)}, Results))
    return E.errors().empty() ? "call failed" : E.errors();
  Result = Results.empty() ? 0.0 : Results[0].asNumber();
  return "";
}

#define STDLIB "L = terralib.includec('stdlib.h')\n"
#define STDIO "S = terralib.includec('stdio.h')\n"
#define STRING "C = terralib.includec('string.h')\n"
#define MATH "M = terralib.includec('math.h')\n"

struct Program {
  const char *Name;
  const char *Src; ///< Defines terra `f`.
  double Arg;
  double Expected;
};

/// One program per table function that returns a value.
const Program Corpus[] = {
    {"malloc",
     STDLIB "terra f(n: int): int\n"
            "  var p = [&int](L.malloc(n * 4))\n"
            "  p[n - 1] = n * 3\n"
            "  var r = p[n - 1]\n"
            "  L.free([&opaque](p))\n"
            "  return r\n"
            "end",
     5, 15},
    {"calloc",
     STDLIB "terra f(n: int): int\n"
            "  var p = [&int](L.calloc(n, 4))\n"
            "  var s = 0\n"
            "  for i = 0, n do s = s + p[i] end\n"
            "  p[1] = 9\n"
            "  s = s + p[1]\n"
            "  L.free([&opaque](p))\n"
            "  return s\n"
            "end",
     4, 9},
    {"realloc",
     STDLIB "terra f(n: int): int\n"
            "  var p = [&int](L.malloc(8))\n"
            "  p[0] = 7\n"
            "  p = [&int](L.realloc([&opaque](p), n * 4))\n"
            "  p[n - 1] = 1\n"
            "  var r = p[0] * 10 + p[n - 1]\n"
            "  L.free([&opaque](p))\n"
            "  return r\n"
            "end",
     100, 71},
    {"printf",
     STDIO "terra f(n: int): int return S.printf('libc printf %d\\n', n) end",
     42, 15},
    {"puts",
     STDIO "terra f(n: int): int return [int](S.puts('libc puts') >= 0) end",
     0, 1},
    {"putchar", STDIO "terra f(n: int): int return S.putchar(n) end", 10,
     10},
    {"memcpy",
     STRING "terra f(n: int): int\n"
            "  var a: int[3]\n"
            "  var b: int[3]\n"
            "  a[0], a[1], a[2] = n, n + 1, n + 2\n"
            "  var r = [&int](C.memcpy([&opaque](&b[0]), [&opaque](&a[0]), "
            "12))\n"
            "  return r[2] * 100 + b[0] * 10 + [int](r == &b[0])\n"
            "end",
     3, 531},
    {"memset",
     STRING "terra f(n: int): int\n"
            "  var a: int[2]\n"
            "  var r = C.memset([&opaque](&a[0]), n, 8)\n"
            "  return a[1] + [int](r == [&opaque](&a[0]))\n"
            "end",
     1, 16843010},
    {"memmove",
     STRING "terra f(n: int): int\n"
            "  var a: int[5]\n"
            "  for i = 0, 5 do a[i] = i + n end\n"
            "  C.memmove([&opaque](&a[1]), [&opaque](&a[0]), 16)\n"
            "  return a[4] * 10 + a[1]\n"
            "end",
     1, 41},
    {"strlen",
     STRING "terra f(n: int): int return [int](C.strlen('hello')) + n end",
     2, 7},
    {"strcmp",
     STRING "terra f(n: int): int\n"
            "  return [int](C.strcmp('abc', 'abd') < 0) * 100\n"
            "       + [int](C.strcmp('b', 'a') > 0) * 10\n"
            "       + [int](C.strcmp('ab', 'ab') == 0) + n\n"
            "end",
     0, 111},
    {"sqrt", MATH "terra f(x: double): double return M.sqrt(x) end", 6.25,
     2.5},
    {"sqrtf",
     MATH "terra f(x: double): double return M.sqrtf([float](x)) end", 2.25,
     1.5},
    {"sin",
     MATH "terra f(x: double): int return [int](M.sin(x) * 1e6) end", 0.5,
     479425},
    {"cos",
     MATH "terra f(x: double): int return [int](M.cos(x) * 1e6) end", 0.5,
     877582},
    {"exp",
     MATH "terra f(x: double): int return [int](M.exp(x) * 1e6) end", 1,
     2718281},
    {"log",
     MATH "terra f(x: double): int return [int](M.log(x) * 1e6) end", 10,
     2302585},
    {"pow", MATH "terra f(x: double): double return M.pow(x, 3) end", 1.5,
     3.375},
    {"fabs", MATH "terra f(x: double): double return M.fabs(-x) end", 3.5,
     3.5},
    {"fabsf",
     MATH "terra f(x: double): int return [int](M.fabsf([float](-x)) * 4) "
          "end",
     2.5, 10},
    {"floor", MATH "terra f(x: double): double return M.floor(x) end", -2.5,
     -3},
    {"ceil", MATH "terra f(x: double): double return M.ceil(x) end", -2.5,
     -2},
    {"fmod", MATH "terra f(x: double): double return M.fmod(x, 3) end", 10.5,
     1.5},
};

class LibcDiffTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LibcDiffTest, SameResult) {
  const Program &P = Corpus[GetParam()];
  for (Exec Mode : engines()) {
    std::unique_ptr<Engine> E = makeEngine(Mode);
    double Got = 0;
    ASSERT_EQ(runF(*E, P.Src, P.Arg, Got), "") << modeName(Mode);
    EXPECT_EQ(Got, P.Expected) << modeName(Mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Libc, LibcDiffTest, ::testing::Range<size_t>(0, std::size(Corpus)),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return std::string(Corpus[Info.param].Name);
    });

TEST(Libc, ExternAsFunctionValueOnEveryEngine) {
  // An extern passed where Terra expects a function value: under tiered
  // execution function values are machine addresses, and an extern's is
  // its C function's.
  const char *Src =
      MATH "terra apply(fp: {double} -> double, x: double): double\n"
           "  return fp(x)\n"
           "end\n"
           "terra f(x: double): double return apply(M.sqrt, x) end";
  std::vector<Exec> Modes = {Exec::Tiered, Exec::Baseline, Exec::VM};
  if (Engine::defaultBackend() != BackendKind::Interp)
    Modes.push_back(Exec::Native);
  for (Exec Mode : Modes) {
    std::unique_ptr<Engine> E = makeEngine(Mode);
    double Got = 0;
    ASSERT_EQ(runF(*E, Src, 16, Got), "") << modeName(Mode);
    EXPECT_EQ(Got, 4) << modeName(Mode);
  }
}

/// The Terra signature of every includec entry, as recorded before the
/// table derived them from C++ function types.
TEST(Libc, IncludecSignaturesAreUnchanged) {
  Engine E(BackendKind::Interp);
  std::string Got;
  for (const char *Header : {"stdlib.h", "stdio.h", "string.h", "math.h"}) {
    ASSERT_TRUE(E.run(std::string("H = terralib.includec('") + Header + "')"))
        << E.errors();
    Value H = E.global("H");
    for (const libc::Function &C : libc::table()) {
      if (std::string(C.Header) != Header)
        continue;
      TerraFunction *F = H.asTable()->getStr(C.Name).asTerraFn();
      Got += std::string(C.Name) + " " + F->FnTy->str() + "\n";
      EXPECT_EQ(F->Extern, &C) << C.Name;
      EXPECT_NE(C.Addr, nullptr) << C.Name;
    }
  }
  EXPECT_EQ(Got, "malloc {int64} -> &uint8\n"
                 "calloc {int64,int64} -> &uint8\n"
                 "realloc {&uint8,int64} -> &uint8\n"
                 "free {&uint8} -> {}\n"
                 "abort {} -> {}\n"
                 "exit {int32} -> {}\n"
                 "printf {&int8} -> int32\n"
                 "puts {&int8} -> int32\n"
                 "putchar {int32} -> int32\n"
                 "memcpy {&uint8,&uint8,int64} -> &uint8\n"
                 "memset {&uint8,int32,int64} -> &uint8\n"
                 "memmove {&uint8,&uint8,int64} -> &uint8\n"
                 "strlen {&int8} -> int64\n"
                 "strcmp {&int8,&int8} -> int32\n"
                 "sqrt {double} -> double\n"
                 "sqrtf {float} -> float\n"
                 "sin {double} -> double\n"
                 "cos {double} -> double\n"
                 "exp {double} -> double\n"
                 "log {double} -> double\n"
                 "pow {double,double} -> double\n"
                 "fabs {double} -> double\n"
                 "fabsf {float} -> float\n"
                 "floor {double} -> double\n"
                 "ceil {double} -> double\n"
                 "fmod {double,double} -> double\n");
}

TEST(Libc, UnknownHeaderListsTheTable) {
  Engine E(BackendKind::Interp);
  EXPECT_FALSE(E.run("terralib.includec('unistd.h')"));
  EXPECT_NE(E.errors().find("includec: header 'unistd.h' is not in the "
                            "offline registry (available: stdlib.h, "
                            "stdio.h, string.h, math.h)"),
            std::string::npos)
      << E.errors();
}

/// Runs terra `f` of \p Src on \p Mode and returns what it printed.
std::string capturedOutput(Exec Mode, const std::string &Src) {
  std::unique_ptr<Engine> E = makeEngine(Mode);
  if (!E->run(Src, "printf"))
    return "run failed: " + E->errors();
  std::vector<Value> Results;
  testing::internal::CaptureStdout();
  bool OK = E->call(E->global("f"), {}, Results);
  std::string Out = testing::internal::GetCapturedStdout();
  return OK ? Out : "call failed: " + E->errors();
}

struct PrintfRow {
  const char *Fmt;
  const char *Args; ///< Terra expressions, comma-separated.
  const char *Expected;
};

/// Runs one printf call per row, each line `<Fmt>`, and returns the
/// program and the expected output.
std::pair<std::string, std::string>
printfProgram(const std::vector<PrintfRow> &Rows) {
  std::string Src = STDIO "terra f(): int\n", Want;
  for (const PrintfRow &R : Rows) {
    Src += std::string("  S.printf(\"<") + R.Fmt + ">\\n\"" +
           (*R.Args ? ", " : "") + R.Args + ")\n";
    Want += std::string("<") + R.Expected + ">\n";
  }
  return {Src + "  return 0\nend", Want};
}

// Every conversion, flag, width and precision form, `*`, length modifier
// and `%%`; each argument has the Terra type its length modifier requires.
TEST(Libc, PrintfConversionTableIsIdenticalOnEveryEngine) {
  auto [Src, Want] = printfProgram({
      {"%d", "-42", "-42"},
      {"%i", "42", "42"},
      {"%u", "[uint32](4000000000)", "4000000000"},
      {"%o", "8", "10"},
      {"%x", "255", "ff"},
      {"%X", "255", "FF"},
      {"%e", "1234.5", "1.234500e+03"},
      {"%E", "1234.5", "1.234500E+03"},
      {"%f", "3.25", "3.250000"},
      {"%g", "0.0001", "0.0001"},
      {"%G", "1e20", "1E+20"},
      {"%a", "1.0", "0x1p+0"},
      {"%A", "2.0", "0X1P+1"},
      {"%c", "65", "A"},
      {"%s", "'str'", "str"},
      {"%p", "[&opaque]([int64](4096))", "0x1000"},
      {"%%", "", "%"},
      {"%-6d|", "7", "7     |"},
      {"%+d", "7", "+7"},
      {"% d", "7", " 7"},
      {"%#o", "8", "010"},
      {"%#x", "255", "0xff"},
      {"%05d", "42", "00042"},
      {"%8.3f", "3.14159", "   3.142"},
      {"%.2s", "'abcdef'", "ab"},
      {"%.0e", "12345.0", "1e+04"},
      {"%*d", "5, 42", "   42"},
      {"%-*d|", "5, 42", "42   |"},
      {"%*d|", "-4, 1", "1   |"},
      {"%.*f", "2, 3.14159", "3.14"},
      {"%*.*f", "8, 3, 2.5", "   2.500"},
      {"%hhd", "300", "44"},
      {"%hu", "70000", "4464"},
      {"%ld", "[int64](-5)", "-5"},
      {"%lld", "[int64](1) << 40", "1099511627776"},
      {"%llx", "[uint64](-1)", "ffffffffffffffff"},
      {"%zu", "[uint64](9)", "9"},
      {"%jd", "[int64](10)", "10"},
      {"%td", "[int64](-11)", "-11"},
      {"%lu", "[uint64](-1)", "18446744073709551615"},
      {"%c|%5s|%-3c|", "104, 'hi', 33", "h|   hi|!  |"},
      {"%5.2f|%x|%ld|%p", "3.14159, 255, [int64](7), [&opaque](nil)",
       " 3.14|ff|7|(nil)"},
      {"%o|%s", "8, 'hi'", "10|hi"},
  });
  for (Exec Mode : engines())
    EXPECT_EQ(capturedOutput(Mode, Src), Want) << modeName(Mode);
}

// Calls C leaves undefined, so native code has no reference output: a spec
// with no argument left and `%n` are copied out literally, and `L` (Terra
// has no long double) receives the double converted.
TEST(Libc, PrintfInterpretersCopyUnmatchedSpecsLiterally) {
  auto [Src, Want] = printfProgram({
      {"%d|%s|%*d", "1", "1|%s|%*d"},
      {"%n|%q|%", "", "%n|%q|%"},
      {"%Lf|%.1Lf", "1.5, 2.25", "1.500000|2.2"},
  });
  for (Exec Mode : {Exec::VM, Exec::Baseline})
    EXPECT_EQ(capturedOutput(Mode, Src), Want) << modeName(Mode);
}

/// Runs a program that prints without a newline and then calls \p Call,
/// with stdout redirected to stderr so the death test's matcher sees
/// whatever stdio flushed.
void printThen(Exec Mode, const char *Call) {
  dup2(STDERR_FILENO, STDOUT_FILENO);
  std::unique_ptr<Engine> E = makeEngine(Mode);
  std::string Src = std::string(STDIO STDLIB) +
                    "terra f(n: int): int\n"
                    "  S.printf('printed before %s', 'exit')\n  " +
                    Call + "\n  return 0\nend";
  double Ignored;
  fprintf(stderr, "%s", runF(*E, Src, 0, Ignored).c_str());
}

TEST(LibcDeathTest, ExitFlushesStdoutAndExitsWithItsCode) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (Exec Mode : engines())
    EXPECT_EXIT(printThen(Mode, "L.exit(3)"), ::testing::ExitedWithCode(3),
                "printed before exit")
        << modeName(Mode);
}

TEST(LibcDeathTest, AbortRaisesSigabrt) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (Exec Mode : engines())
    EXPECT_EXIT(printThen(Mode, "L.abort()"),
                ::testing::KilledBySignal(SIGABRT), "")
        << modeName(Mode);
}

} // namespace
