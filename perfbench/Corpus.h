//===- Corpus.h - Seeded corpus of staged programs --------------*- C++ -*-===//
//
// Five templates, one per staging feature the paper leans on: quote-list
// unrolling (fixed-point mandelbrot over a struct with methods), a
// Lua-generated sorting network, a struct with a __cast metamethod, an
// autotuner L1 gemm kernel staged through the C++ API, and a hosted-Orion
// pipeline. Every program only defines functions; the benchmark then calls
// its `entry(x)` once and compares the result with a value it computes
// itself in plain C++. All arithmetic the references mirror is exact
// (integers, or floats whose operations are rounded identically on every
// tier), so any mismatch is a wrong answer, not rounding.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include "autotuner/Gemm.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Program {
  std::string Template;
  /// Lua/Terra chunk run by Engine::run. For the L1-kernel template it runs
  /// after the kernel is staged through autotuner::generateKernel and bound
  /// to the global `l1`.
  std::string Source;
  bool StagesL1Kernel = false;
  terracpp::autotuner::KernelParams L1;
  /// The hosted-Orion template needs the `orion` global installed.
  bool HostedOrion = false;
  /// Terra functions the entry reaches; the traced run compiles them
  /// explicitly, layer by layer, before the first call.
  std::vector<std::string> Roots;
  int Arg = 0;          ///< entry(Arg)
  double Expected = 0;  ///< Reference result.
};

/// \p PerTemplate programs of each template, interleaved, content-distinct
/// within the corpus (every generated function embeds a unique salt, so a
/// cold pass never shares a cache entry between programs).
std::vector<Program> makeCorpus(uint64_t Seed, unsigned PerTemplate);

/// The mandelbrot template at fixed parameters: an escape test unrolled
/// \p M times, summed over a \p W x \p H grid shifted by entry's argument.
Program mandelbrotProgram(int M, int W, int H, int64_t Salt, int Arg);

/// The sorting-network template at fixed parameters: a \p N -wide Batcher
/// network sorting \p Reps batches of LCG data.
Program sortingNetworkProgram(int N, int Reps, int64_t Salt, int Arg);

/// The LCG step every template and reference uses.
inline int64_t lcgNext(int64_t S) {
  return (S * 1103515245 + 12345) % 2147483647;
}

/// True when \p Got matches \p Want (exact up to 1e-9 relative).
bool sameValue(double Got, double Want);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
