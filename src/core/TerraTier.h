//===- TerraTier.h - Tiered execution state and promotion -------*- C++ -*-===//
//
// Profile-guided tiered execution (DESIGN.md §10). Under BackendKind::Tiered
// the compile pipeline stops after C codegen: every function gets a tier-0
// dispatcher Entry that runs the interpreter immediately, and the generated
// C source is parked in a PendingComponent. Call and back-edge counters
// (relaxed atomics, telemetry-visible) trigger a background cc job on the
// TierManager's worker; when it lands, the native entry pointer is
// release-stored into TierState and every subsequent call acquire-loads it
// and runs native code. Callers never block on the C compiler and never
// observe a torn handle: the only shared mutable state is one
// std::atomic<void *> per function, written once.
//
// Memory ordering: the worker thread writes the code bytes (dlopen) before
// release-storing NativeEntry/NativeRaw; a caller that acquire-loads a
// non-null entry therefore observes the fully-loaded module. Counters use
// relaxed ordering — they only gate *when* promotion happens, never what
// the caller executes.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_TERRATIER_H
#define TERRACPP_CORE_TERRATIER_H

#include "core/TerraAST.h"
#include "support/Telemetry.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace terracpp {

class JITEngine;
class ThreadPool;
struct PendingComponent;

/// Per-function tiered-execution state. Shared by the dispatcher Entry
/// (reader, any thread), the VM (counter writer), and the promotion worker
/// (entry writer).
struct TierState {
  /// Native FFI entry (the mangled symbol + "_entry" thunk), published with
  /// release ordering by the promotion job; null until promoted.
  std::atomic<void *> NativeEntry{nullptr};
  /// Native raw function pointer, published together with NativeEntry.
  std::atomic<void *> NativeRaw{nullptr};
  /// Dispatcher call count (relaxed; promotion trigger + telemetry).
  std::atomic<uint64_t> Calls{0};
  /// Loop back edges observed by the VM (relaxed).
  std::atomic<uint64_t> BackEdges{0};
  /// The compilation unit this function promotes with.
  std::shared_ptr<PendingComponent> Component;
};

/// One generated-but-not-yet-compiled C module: the unit of promotion.
/// Immutable after registration except for the St state machine.
struct PendingComponent {
  enum State { Idle, Queued, Done, Failed };

  std::string CSource;
  /// Content hash of CSource (ContentHash::hex). The profile dump's key:
  /// stable across runs, so a persisted profile can be re-ingested against
  /// a recompiled module with identical generated code.
  std::string Hash;
  bool Cacheable = true;

  struct Slot {
    TerraFunction *Fn = nullptr; ///< Touched by the main thread only.
    std::shared_ptr<TierState> TS;
    std::string Symbol; ///< Mangled name; entry thunk is Symbol + "_entry".
    std::string Name;   ///< Source-level name, captured at registration so
                        ///< profile dumps never touch Fn off-thread.
  };
  std::vector<Slot> Slots;

  std::atomic<int> St{Idle};
  std::mutex M;
  std::condition_variable CV; ///< Signals Done/Failed (forceNative waits).
  std::string Error;          ///< Valid after Failed (guarded by M).
};

/// Owns the promotion worker and thresholds. One per TerraCompiler;
/// declared after the JITEngine member so it is destroyed first (the worker
/// uses the JIT).
class TierManager {
public:
  explicit TierManager(JITEngine &JIT);
  ~TierManager();
  TierManager(const TierManager &) = delete;
  TierManager &operator=(const TierManager &) = delete;

  /// Parks a generated module for background promotion and attaches
  /// TierState to each function (reusing an existing TierState when a
  /// function was already registered with an earlier component). Main
  /// thread only.
  std::shared_ptr<PendingComponent>
  registerComponent(std::string CSource, bool Cacheable,
                    const std::vector<TerraFunction *> &Fns);

  /// Counts one dispatch on \p Tier (0 = VM or tree-walker, 2 = baseline
  /// JIT, 1 = native). Pre-native calls of both kinds count toward the same
  /// call threshold, which queues the component when reached; native calls
  /// are telemetry only.
  void noteCall(TierState &TS, int Tier);
  /// Accumulates VM back edges; queues the component when the back-edge
  /// threshold is reached.
  void noteBackEdges(TierState &TS, uint64_t N);

  /// Synchronously promotes \p C: runs the compile job inline when idle,
  /// otherwise waits for the in-flight background job. True on Done.
  bool forceNative(PendingComponent &C);

  /// Point-in-time tier counters for terrad stats/metrics.
  struct Snapshot {
    uint64_t Tier0Functions = 0;   ///< Registered, not yet promoted.
    uint64_t PromotedFunctions = 0;
    uint64_t PromotionBacklog = 0; ///< Components queued, not yet landed.
    uint64_t Promotions = 0;
    uint64_t PromotionFailures = 0;
    uint64_t Tier0Calls = 0;
    uint64_t Tier1Calls = 0;
    uint64_t BaselineCalls = 0;
    uint64_t CcUnavailable = 0; ///< 1 once cc ENOENT pinned us at baseline.
  };
  Snapshot snapshot() const;

  /// The per-function execution profile, keyed by component content hash:
  ///
  ///   {"<hash>": {"cacheable": true, "functions": {
  ///       "<mangled symbol>": {"name":"f","calls":N,"backedges":N,
  ///                            "tier":0|1|2}}}}
  ///
  /// tier is the RESIDENT tier right now: 0 = bytecode VM dispatcher,
  /// 2 = baseline JIT code published, 1 = cc-native promoted. This is the
  /// persistence format the profile-guided-tiering roadmap item re-ingests
  /// (served by terrad's `profile` op, written by terracpp --profile).
  /// Also refreshes the per-function profile.fn.<symbol>.{calls,backedges,
  /// tier} gauges in the engine's JIT registry, so `metrics`/`metrics_text`
  /// expose the same numbers.
  json::Value profileJson() const;

  /// True once a promotion job failed because the C compiler binary does
  /// not exist; further promotion attempts are suppressed and functions
  /// stay pinned at the baseline tier.
  bool ccPinned() const { return CcPinned.load(std::memory_order_relaxed); }

  uint64_t callThreshold() const { return CallThreshold; }
  uint64_t backEdgeThreshold() const { return BackEdgeThreshold; }

private:
  /// CAS Idle->Queued and enqueue on the worker; no-op otherwise.
  void tryQueue(TierState &TS);
  /// Compiles and publishes \p C (worker thread or forceNative inline).
  void runJob(std::shared_ptr<PendingComponent> C);
  ThreadPool &worker();

  JITEngine &JIT;
  uint64_t CallThreshold;
  uint64_t BackEdgeThreshold;

  mutable std::mutex M; ///< Guards Components and lazy worker creation.
  std::vector<std::shared_ptr<PendingComponent>> Components;

  telemetry::Counter &MPromotions;
  telemetry::Counter &MPromotionFailures;
  telemetry::Counter &MTier0Calls;
  telemetry::Counter &MTier1Calls;
  telemetry::Counter &MBaselineCalls;
  telemetry::Gauge &MBacklog;
  telemetry::Gauge &MTier0Fns;
  telemetry::Gauge &MPromotedFns;
  telemetry::Gauge &MCcUnavailable;

  /// Set (once) when a compile job discovers the C compiler binary is
  /// missing (ENOENT). Pins every function at its current tier: tryQueue
  /// becomes a no-op, so baseline code keeps running with no retry storm.
  std::atomic<bool> CcPinned{false};

  /// Last member: destroyed first, joining any in-flight promotion before
  /// the state above goes away.
  std::unique_ptr<ThreadPool> Worker;
};

} // namespace terracpp

#endif // TERRACPP_CORE_TERRATIER_H
