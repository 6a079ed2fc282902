//===- Router.h - terrafleet: sharded terrad routing tier -------*- C++ -*-===//
//
// A fleet front-end that speaks the ordinary terrad protocol on its front
// socket and fans requests out across N terrad shards (DESIGN.md §12).
// Clients — `terracpp --connect`, server/Client.h, fleet/MuxClient.h — need
// no changes: the router looks exactly like one big terrad. It is one: the
// accept loop, reader prologue (trace ids, version gate), inline control
// ops and drain skeleton are terrad's own server::FrontEnd (DESIGN.md §7);
// the router plugs in the routing below, the control-op fan-out, and its
// drain steps.
//
//   client ──▶ front socket ──▶ consistent-hash ring ──▶ shard 0 (terrad)
//                    │            (HashRing.h, keyed by   shard 1 (terrad)
//                    │             the request's content  shard 2 (terrad)
//                    │             hash / handle)             │
//                    └── stats/metrics aggregate ◀────────────┘
//
//  - Placement: compile requests hash their source exactly as terrad does
//    (ContentHash::updateField), call requests hash their handle, so a
//    script's compile and every later call land on the same shard and hit
//    its warm engine.
//  - Shards are either SPAWNED (the router forks terrad via
//    support/Subprocess DaemonProcess, pointing every shard at one shared
//    TERRACPP_CACHE_DIR so artifacts promoted on one shard are disk-cache
//    hits on all) or ATTACHED (an external terrad's socket path; the
//    router never kills those).
//  - Transport: one MuxClient per shard, many requests in flight, bounded
//    window, per-request deadlines.
//  - Failure: a dead shard's in-flight requests complete with structured
//    "shard_unavailable" errors (never hang); the shard leaves the ring so
//    other keys keep their placement; a monitor thread respawns owned
//    shards and reconnects with capped exponential backoff; on success the
//    shard rejoins the ring.
//  - compile_batch fans one grid out across the ring by per-source hash
//    and reassembles results in submission order.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_FLEET_ROUTER_H
#define TERRACPP_FLEET_ROUTER_H

#include "fleet/HashRing.h"
#include "fleet/MuxClient.h"
#include "server/FrontEnd.h"
#include "support/Json.h"
#include "support/Subprocess.h"
#include "support/Telemetry.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace terracpp {
namespace fleet {

struct ShardConfig {
  std::string SocketPath;
  bool Spawn = false; ///< Router owns the process (spawns + reaps terrad).
};

struct RouterConfig {
  std::string FrontSocket;
  std::vector<ShardConfig> Shards;
  std::string TerradBinary = "terrad"; ///< For spawned shards (PATH lookup).
  std::string CacheDir; ///< Shared TERRACPP_CACHE_DIR for spawned shards.
  unsigned VirtualNodes = 64;       ///< Ring points per shard.
  unsigned MaxInFlightPerShard = 128;
  int RequestTimeoutMs = 30000;     ///< Default when clients send none.
  unsigned ConnectAttempts = 25;    ///< Initial connect tries per shard.
  int ReconnectBaseMs = 20;         ///< Reconnect backoff start.
  int ReconnectMaxMs = 1000;        ///< Reconnect backoff cap.
  bool AutoRespawn = true;          ///< Respawn dead owned shards.
  int Backlog = 64;
  /// Routed requests slower than this (front read to shard response) emit a
  /// structured fleet.slow_request WARN with the trace id. 0 disables.
  int SlowRequestMs = 1000;
  /// Spawn shards with TERRACPP_TRACE=- (in-memory span recording) and
  /// estimate each shard's clock offset after connect, so trace_dump /
  /// mergedTraceJson can assemble a cross-process timeline.
  bool TraceShards = false;
  /// When set, the drain writes the merged fleet trace here (while the
  /// shards are still alive to answer trace_dump).
  std::string TraceOutPath;

  /// The defaults above with SlowRequestMs overridden by TERRAFLEET_SLOW_MS
  /// (a malformed value keeps the default and warns once). terrafleet
  /// applies its flags on top, so flags win over the environment.
  static RouterConfig fromEnv();
};

class Router : private server::FrontEnd::Service {
public:
  explicit Router(RouterConfig Config);
  ~Router();
  Router(const Router &) = delete;
  Router &operator=(const Router &) = delete;

  /// Spawns/attaches shards, builds the ring, binds the front socket, and
  /// starts the accept + monitor threads. False (with \p Err) when the
  /// front socket cannot be bound or no shard comes up.
  bool start(std::string &Err);

  /// Blocks until shutdown completes (signal, shutdown request, or
  /// requestShutdown()).
  void wait() { FE.wait(); }

  /// Initiates shutdown from any thread (idempotent). Owned shards get a
  /// shutdown request then SIGTERM; attached shards are left running.
  void requestShutdown() { FE.requestShutdown(); }

  bool running() const { return FE.running(); }
  const RouterConfig &config() const { return Config; }

  /// Which shard the ring places \p Key on (a handle / content hash), or
  /// -1 when the ring is empty. Exposed for tests and diagnostics.
  int shardIndexForKey(const std::string &Key);

  unsigned shardCount() const { return static_cast<unsigned>(Shards.size()); }
  bool shardUp(unsigned Index);

  /// Router-level counters (fleet.*): requests routed/failed, reconnects,
  /// respawns, shards_up gauge, route latency histogram.
  telemetry::Registry &metrics() { return Reg; }

private:
  struct Shard {
    ShardConfig Cfg;
    MuxClient Mux;
    std::atomic<bool> Up{false};
    DaemonProcess Proc;            ///< Only used when Cfg.Spawn.
    std::atomic<uint64_t> NextAttemptUs{0}; ///< Monitor retry schedule.
    unsigned FailedAttempts = 0;   ///< Monitor thread only.
    telemetry::Counter *Requests = nullptr; ///< fleet.shard<i>.requests.
    /// Estimated shard_mono - router_mono clock offset (microseconds), from
    /// ping RTT midpoints: aligning a shard timestamp onto the router's
    /// timeline is ts - ClockOffsetUs. Valid only when ClockAligned.
    std::atomic<int64_t> ClockOffsetUs{0};
    std::atomic<bool> ClockAligned{false};
  };

  /// A front-side client connection. The relay callbacks of its in-flight
  /// requests hold it too, so a late shard response never writes to a
  /// recycled fd.
  using Link = std::shared_ptr<server::FrontEnd::Connection>;
  struct FrontSession;

  // server::FrontEnd::Service.
  std::unique_ptr<server::FrontEnd::Session> openSession(Link C) override;
  json::Value controlOp(const std::string &Op,
                        const json::Value &Request) override;
  void drainWork() override;
  void afterConnections() override;

  void monitorLoop();
  /// The front data plane: local pings, routed compile/call/ping, batches.
  bool handleFront(const Link &L, server::FrontEnd::Request &&R);

  bool spawnShard(unsigned Index, std::string &Err);
  bool connectShard(unsigned Index, unsigned Attempts);
  void onShardLost(unsigned Index);

  void routeRequest(const Link &L, server::FrontEnd::Request &&R);
  void routeBatch(const Link &L, const server::FrontEnd::Request &R);
  /// Sends each up shard the request \p RequestFor builds for it (2000 ms
  /// deadline), one shard at a time. One slot per shard: its ok reply with
  /// the mux id and trace id removed, or null when the shard is down or
  /// failed.
  std::vector<json::Value>
  fanOut(const std::function<json::Value(unsigned)> &RequestFor);
  json::Value aggregatedStats();
  json::Value aggregatedMetrics();
  /// Prometheus exposition: the router's registry plus every up shard's
  /// metrics_text (each labelled {"shard":"<i>"}), merged per family.
  json::Value aggregatedMetricsText(const json::Value &Request);
  /// Per-function profiles merged across shards ({"op":"profile"}).
  json::Value aggregatedProfile(const json::Value &Request);
  /// Min-RTT ping sampling of the shard's monotonic clock; stores the
  /// offset on the Shard. False when no ping round trip succeeded.
  bool estimateShardClock(unsigned Index);

public:
  /// One Perfetto timeline merging the router's own span buffer with every
  /// up shard's trace_dump, shard timestamps shifted onto the router's
  /// clock by the ping-estimated offsets. Served for the front-socket
  /// trace_dump op and written to TraceOutPath at shutdown. Public so
  /// terrafleet/tests can snapshot a live fleet.
  json::Value mergedTraceJson();

private:

  RouterConfig Config;
  std::vector<std::unique_ptr<Shard>> Shards;

  std::mutex RingM;
  HashRing Ring;

  std::thread Monitor;
  std::atomic<bool> StopMonitor{false};

  telemetry::Registry Reg;
  telemetry::Counter &MRequestsRouted;
  telemetry::Counter &MRequestsFailed;
  telemetry::Counter &MShardUnavailable;
  telemetry::Counter &MReconnects;
  telemetry::Counter &MRespawns;
  telemetry::Counter &MBatchRequests;
  telemetry::Counter &MSlowRequests;
  telemetry::Gauge &MShardsUp;
  telemetry::Histogram &MRouteLatencyUs;

  /// Declared last: it counts into Reg, and its drain calls back into the
  /// members above.
  server::FrontEnd FE;
};

} // namespace fleet
} // namespace terracpp

#endif // TERRACPP_FLEET_ROUTER_H
