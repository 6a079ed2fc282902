//===- Bench.h - Shared pieces of the end-to-end benchmark ------*- C++ -*-===//
//
// Options, the seeded generator, quantiles, and the Report every phase
// writes its metrics and its failed/attempted counts into. The Report is
// serialized with support/Json, the project's escaping JSON writer.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace json = terracpp::json;

inline double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile, Q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform integer in [Lo, Hi].
  int range(int Lo, int Hi) {
    return Lo + static_cast<int>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

private:
  uint64_t S;
};

/// How much work each phase does in one run. The workload's own phase runs
/// at full size; the other two run smaller, because every run reports every
/// end-to-end metric.
struct Plan {
  unsigned ProgramsPerTemplate = 20; ///< Scripts corpus: x5 templates per pass.
  unsigned HotRounds = 3;            ///< Warm and nocc passes over the corpus.
  unsigned KernelReps = 41;          ///< Timed calls per kernel.
  unsigned ServiceWindows = 6;       ///< Open-loop windows of 100 requests.
  double ServiceRate = 200;          ///< Offered requests per second.
  unsigned SetupRepeats = 3;         ///< Set-ups whose median is setup_s.
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 10;
  bool Trace = false;
  bool Smoke = false;      ///< Minimal sizes for the smoke test.
  std::string BinDir;      ///< Where the terrad binary was built.
  std::string WorkDir;     ///< Private scratch (caches, sockets) for this run.
  std::string GitSha;
  std::string CcIdentity;
  Plan P;
};

class Report {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Counts \p N operations attempted.
  void attempted(uint64_t N = 1) { Attempted += N; }
  /// An operation that errored, timed out, was rejected, or produced an
  /// unusable measurement.
  void failed(const std::string &Why);
  /// An operation whose output differs from the benchmark's own reference.
  void wrong(const std::string &Why);
  /// Free-form detail for the results file (not the result line).
  void detail(const std::string &Key, json::Value V) {
    Detail.set(Key, std::move(V));
  }

  /// {"correct","attempted","failed","metrics"} — the last stdout line.
  json::Value resultLine() const;
  /// The full results document: result line, detail, failure reasons.
  json::Value document(const Options &O) const;

private:
  json::Value Metrics = json::Value::object();
  json::Value Detail = json::Value::object();
  std::vector<std::string> Reasons;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
};

/// One part of the benchmark. setup() is the work done before timing and
/// counts toward setup_s. The measurement is cut into steps() slices, which
/// main() interleaves across phases so that each phase's samples spread
/// over the whole run instead of one stretch of it; finish() then reports
/// end-to-end metrics, or with Options::Trace the per-layer metrics.
class Phase {
public:
  virtual ~Phase() = default;
  /// False when set-up failed (the reason is already in the Report).
  virtual bool setup(Report &R) = 0;
  virtual unsigned steps() const = 0;
  virtual void step(unsigned I, Report &R) = 0;
  virtual void finish(Report &R) = 0;
};

/// \p CacheDir is this phase's private TERRACPP_CACHE_DIR (created empty).
std::unique_ptr<Phase> makeScriptsPhase(const Options &O,
                                        const std::string &CacheDir);
std::unique_ptr<Phase> makeKernelsPhase(const Options &O,
                                        const std::string &CacheDir);
std::unique_ptr<Phase> makeServicePhase(const Options &O,
                                        const std::string &CacheDir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
