//===- Telemetry.h - Metrics registry: counters/gauges/histograms -*- C++ -*-===//
//
// Built-in performance introspection for the staged-compilation pipeline
// (DESIGN.md §8). Three metric kinds, all safe for concurrent update with
// no lock on the hot path:
//
//  * Counter   — monotonic uint64 (relaxed atomic increment);
//  * Gauge     — last-written int64, plus a max() combinator for
//                high-water marks;
//  * Histogram — log-bucketed latency histogram (4 sub-buckets per power
//                of two, 256 buckets covering the full uint64 range) with
//                p50/p90/p95/p99 estimation by in-bucket interpolation.
//                The relative quantile error is bounded by the bucket
//                width: ≤ 25% of the value.
//
// A Registry is a named collection of metrics. Lookup interns by name
// under a mutex; the returned references stay valid for the registry's
// lifetime, so callers resolve once and update lock-free afterwards.
// `Registry::global()` is the process-wide instance used by the frontend
// (parse/specialize/typecheck/codegen) and the worker pool; subsystems
// with per-instance stats() APIs (JITEngine, terrad's Server) own private
// registries so concurrent instances do not pollute each other's counts.
//
// Snapshots serialize through support/Json, so the terrad `metrics` op and
// the BENCH_*.json telemetry blocks share one representation.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SUPPORT_TELEMETRY_H
#define TERRACPP_SUPPORT_TELEMETRY_H

#include "support/Json.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace terracpp {
namespace telemetry {

/// Microseconds on the steady clock (shared time base for histograms and
/// the trace recorder).
uint64_t nowMicros();

class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

class Gauge {
public:
  void set(int64_t X) { V.store(X, std::memory_order_relaxed); }
  void add(int64_t X) { V.fetch_add(X, std::memory_order_relaxed); }
  /// Raises the gauge to \p X if it is higher (high-water marks).
  void max(int64_t X) {
    int64_t Cur = V.load(std::memory_order_relaxed);
    while (X > Cur &&
           !V.compare_exchange_weak(Cur, X, std::memory_order_relaxed))
      ;
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

class Histogram {
public:
  /// 4 sub-buckets per power of two over the uint64 range, values 0..3
  /// exact.
  static constexpr unsigned NumBuckets = 252;

  void record(uint64_t Value);

  /// Point-in-time copy with derived quantiles. Concurrent recorders make
  /// the copy approximate (fields may be torn across updates), which is
  /// fine for monitoring.
  struct Snapshot {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = 0;
    uint64_t Max = 0;
    double Mean = 0;
    double P50 = 0, P90 = 0, P95 = 0, P99 = 0;
    json::Value toJson() const;
  };
  Snapshot snapshot() const;

  /// Non-empty buckets in Prometheus form: (inclusive upper bound,
  /// CUMULATIVE count of samples at or below it), ascending. The +Inf
  /// bucket is implicit — its cumulative count equals snapshot().Count.
  std::vector<std::pair<uint64_t, uint64_t>> cumulativeBuckets() const;

  /// Bucket boundaries (exposed for tests).
  static unsigned bucketIndex(uint64_t Value);
  static uint64_t bucketLowerBound(unsigned Index);

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> MinV{UINT64_MAX};
  std::atomic<uint64_t> MaxV{0};
};

/// Named metric collection. Metric references remain valid for the life of
/// the registry; metrics are never removed.
class Registry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,...}}}
  json::Value toJson() const;

  template <typename Fn> void forEachHistogram(Fn F) const {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &E : Histograms)
      F(E.first, *E.second);
  }
  template <typename Fn> void forEachCounter(Fn F) const {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &E : Counters)
      F(E.first, *E.second);
  }
  template <typename Fn> void forEachGauge(Fn F) const {
    std::lock_guard<std::mutex> Lock(M);
    for (const auto &E : Gauges)
      F(E.first, *E.second);
  }

  /// The process-wide registry (frontend phases, worker pool).
  static Registry &global();

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// One exposition label ("process","terrad"). Values are escaped per the
/// Prometheus text format (backslash, double quote, newline).
using PromLabel = std::pair<std::string, std::string>;

/// Renders \p R in the Prometheus text exposition format (version 0.0.4):
/// a `# TYPE` line per family, then one sample line per metric, every
/// sample carrying \p Labels. Metric names are prefixed with \p Prefix and
/// sanitized (characters outside [a-zA-Z0-9_:] become '_', so
/// "server.op.call.latency_us" renders as
/// "terracpp_server_op_call_latency_us"). Histograms export cumulative
/// `_bucket{le="..."}` series (non-empty buckets plus "+Inf"), `_sum`, and
/// `_count`. This is what the terrad `metrics_text` op returns.
std::string toPrometheusText(const Registry &R,
                             const std::vector<PromLabel> &Labels = {},
                             const std::string &Prefix = "terracpp_");

/// Merges several exposition documents into one valid document: blocks for
/// the same family (identified by its `# TYPE` line) are grouped together
/// and the TYPE line is emitted once — required when concatenating shard
/// outputs that expose the same families under different label sets.
std::string mergeExpositions(const std::vector<std::string> &Parts);

/// Stamps a benchmark report (a JSON object) with the host's parallelism so
/// trajectory numbers are never compared across incomparable machines
/// unknowingly: a "parallel speedup" of 1.0 on a single-core CI runner is
/// expected, not a regression. \p PoolSize is the worker-pool size the
/// benchmark actually used (0 = no pool involved).
void addHostInfo(json::Value &Report, unsigned PoolSize = 0);

/// RAII: records elapsed microseconds into a histogram on destruction.
class ScopedTimerUs {
public:
  explicit ScopedTimerUs(Histogram &H) : H(H), StartUs(nowMicros()) {}
  ~ScopedTimerUs() { H.record(nowMicros() - StartUs); }
  ScopedTimerUs(const ScopedTimerUs &) = delete;
  ScopedTimerUs &operator=(const ScopedTimerUs &) = delete;

private:
  Histogram &H;
  uint64_t StartUs;
};

} // namespace telemetry
} // namespace terracpp

#endif // TERRACPP_SUPPORT_TELEMETRY_H
