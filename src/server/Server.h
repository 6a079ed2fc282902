//===- Server.h - terrad: concurrent kernel-compilation service -*- C++ -*-===//
//
// The paper's claim that compiled Terra code "executes separately from the
// Lua runtime" makes it natural to host compilation behind a long-running
// service: clients submit Lua/Terra scripts, get back a content-hash
// handle, and invoke compiled functions by handle — repeatedly, from many
// concurrent connections — while the server amortizes staging, typechecking
// and backend compilation across all of them.
//
// Architecture (DESIGN.md §7):
//
//   server::FrontEnd (FrontEnd.h, shared with the fleet router): accept
//   loop, one reader thread per connection, frame read / trace id /
//   version gate, control ops (stats, metrics, ...) answered inline
//                     │  compile / compile_batch / call / ping
//                     ▼
//               bounded request queue          (backpressure: reject when
//                     │                         full, never block readers)
//                     ▼
//               worker pool (support/ThreadPool) executes compile/call
//                     │
//               engine LRU: ContentHash(script) -> live Engine
//                     │  miss falls through to the PR 1 on-disk .so cache,
//                     ▼  so re-creating an evicted engine re-links instead
//               response frame written by a per-connection   of re-compiling
//               writer thread, as each job completes
//
// Pipelining: a connection may have many requests in flight (bounded by
// MaxInFlightPerConn). The reader never blocks on a response — completed
// jobs are flushed by the connection's writer thread in completion order,
// each response echoing the request's "id" when one was supplied, so
// clients like fleet/MuxClient can correlate out-of-order replies. The
// writer also enforces per-request deadlines (a worker wedged in user code
// cannot stall unrelated responses on the same connection).
//
// Each Engine is single-threaded, so one mutex per LRU entry serializes
// calls into the same script while different scripts execute in parallel.
// Shutdown (SIGTERM, SIGINT, or a "shutdown" request) drains: the socket
// stops listening, the queue stops accepting, in-flight work completes and
// responses are flushed, then connections are closed.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SERVER_SERVER_H
#define TERRACPP_SERVER_SERVER_H

#include "server/FrontEnd.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace terracpp {

class Engine;
class ThreadPool;

namespace server {

struct ServerConfig {
  std::string SocketPath;
  unsigned Workers = 0;          ///< 0 => hardware concurrency (min 2).
  unsigned QueueCapacity = 64;   ///< Bounded request queue (backpressure).
  unsigned MaxEngines = 8;       ///< Live-Engine LRU capacity.
  int RequestTimeoutMs = 30000;  ///< Per-request deadline (queue + execute).
  int Backlog = 64;
  /// Pipelining window: max requests one connection may have awaiting
  /// responses before further ones are rejected with code "overloaded".
  unsigned MaxInFlightPerConn = 256;
  /// Requests whose queue-wait + execution exceed this emit a structured
  /// server.slow_request WARN carrying the trace id and a per-stage
  /// breakdown. 0 disables.
  int SlowRequestMs = 1000;

  /// The defaults above overridden by TERRAD_SOCKET / TERRAD_WORKERS /
  /// TERRAD_QUEUE / TERRAD_MAX_ENGINES / TERRAD_TIMEOUT_MS /
  /// TERRAD_MAX_INFLIGHT / TERRAD_SLOW_MS. A malformed or out-of-range
  /// value keeps the default and warns once (support/EnvParse.h). terrad
  /// applies its flags on top, so flags win over the environment.
  static ServerConfig fromEnv();
};

class Server : private FrontEnd::Service {
public:
  explicit Server(ServerConfig Config);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts the accept loop and worker pool. False on
  /// failure (\p Err set). Non-blocking; pair with wait().
  bool start(std::string &Err);

  /// Blocks until the server has fully shut down (signal, shutdown request,
  /// or requestShutdown()) and every in-flight request has drained.
  void wait() { FE.wait(); }

  /// Initiates a drain from any thread (idempotent, async-signal unsafe —
  /// signal handlers go through FrontEnd::installSignalHandlers()).
  void requestShutdown() { FE.requestShutdown(); }

  bool running() const { return FE.running(); }
  const ServerConfig &config() const { return Config; }

  /// Monotonic counters, readable concurrently (also served as {"op":"stats"}).
  /// A point-in-time snapshot assembled from the server's telemetry registry
  /// (see metrics()), which is the source of truth.
  struct Stats {
    uint64_t ConnectionsAccepted = 0;
    uint64_t RequestsReceived = 0;
    uint64_t RequestsCompleted = 0;
    uint64_t RequestsRejected = 0;  ///< Bounded queue full.
    uint64_t RequestsTimedOut = 0;
    uint64_t RequestsFailed = 0;    ///< Completed with ok=false.
    uint64_t CompileRequests = 0;
    uint64_t CompileBatchRequests = 0;
    uint64_t CallRequests = 0;
    uint64_t EnginesCreated = 0;
    uint64_t EnginesEvicted = 0;
    uint64_t EngineWarmHits = 0;    ///< compile/call served by a live engine.
    uint64_t EngineRecreated = 0;   ///< call on an evicted handle re-linked.
    uint64_t QueueDepthHWM = 0;
    uint64_t EnginesLive = 0;
    double UptimeSeconds = 0;       ///< Since start(); 0 before.
    bool DrainedClean = false;      ///< Set once shutdown drained in-flight work.
  };
  Stats stats() const;

  /// The server's private metrics registry: every Stats counter plus
  /// latency histograms (server.queue_wait_us, server.op.<op>.latency_us).
  /// Per-instance so concurrent servers in one process stay independent.
  telemetry::Registry &metrics() { return Reg; }

  /// The {"op":"metrics"} response body: the full server registry, the
  /// process-wide registry (frontend phases, thread pools), and each live
  /// engine's JIT registry keyed by script handle.
  json::Value metricsJson();

private:
  struct Job;
  struct EngineEntry;
  struct ConnState;
  struct Session;
  using LiveEngines =
      std::vector<std::pair<std::string, std::shared_ptr<EngineEntry>>>;

  // FrontEnd::Service.
  std::unique_ptr<FrontEnd::Session>
  openSession(std::shared_ptr<FrontEnd::Connection> C) override;
  json::Value controlOp(const std::string &Op,
                        const json::Value &Request) override;
  void drainWork() override;

  /// Queues one data-plane request from \p St's reader, or answers it with
  /// an "overloaded" refusal. False when the connection is gone.
  bool submit(const std::shared_ptr<ConnState> &St, FrontEnd::Request &&R);
  void writerLoop(std::shared_ptr<ConnState> St);
  void workerLoop();

  json::Value dispatch(const json::Value &Request);
  json::Value handleCompile(const json::Value &Request);
  json::Value handleCompileBatch(const json::Value &Request);
  json::Value handleCall(const json::Value &Request);
  json::Value handlePing(const json::Value &Request);
  json::Value statsJson();
  /// {"op":"trace_dump"}: this process's span buffer with absolute
  /// timestamps (trace::Recorder::dumpAbsolute), for fleet-level merging.
  json::Value traceDumpJson();
  /// {"op":"metrics_text"}: the Prometheus exposition of the server,
  /// process, and per-engine registries, every sample labelled with
  /// {process,pid} plus any "labels" the request supplied.
  json::Value metricsTextJson(const json::Value &Request);
  /// {"op":"profile"}: per-function execution profiles merged across live
  /// ready engines (optionally filtered to one "handle").
  json::Value profileOpJson(const json::Value &Request);
  /// The live engines that finished compiling (only \p Handle's when
  /// non-empty), snapshotted under EnginesMutex.
  LiveEngines readyEngines(const std::string &Handle = "") const;

  /// Latency histogram for \p Op. Known ops get their own series; anything
  /// else buckets into server.op.other.latency_us so client-controlled op
  /// strings cannot grow the registry without bound.
  telemetry::Histogram &opLatencyHistogram(const std::string &Op);

  /// Returns the ready entry for \p Hash, creating and running the engine
  /// if needed (\p Source may be empty only when the entry must already
  /// exist). Null + \p Error on failure.
  std::shared_ptr<EngineEntry> obtainEngine(const std::string &Hash,
                                            const std::string &Source,
                                            const std::string &Name,
                                            bool &Warm, std::string &Error);
  void touchEntry(const std::string &Hash);
  void evictIfNeeded();

  bool pushJob(const std::shared_ptr<Job> &J);
  std::shared_ptr<Job> popJob();

  ServerConfig Config;
  std::unique_ptr<ThreadPool> Workers;

  // Bounded request queue.
  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<std::shared_ptr<Job>> Queue;
  std::atomic<unsigned> InFlight{0}; ///< Popped but not yet completed.

  // Engine LRU (most recent at front of LruOrder).
  mutable std::mutex EnginesMutex;
  std::unordered_map<std::string, std::shared_ptr<EngineEntry>> Engines;
  std::list<std::string> LruOrder;
  std::unordered_map<std::string, std::string> Sources; ///< hash -> script.

  std::chrono::steady_clock::time_point StartTime{};

  /// Per-server metrics. Declared before the metric references below so the
  /// references can bind in the constructor initializer list.
  telemetry::Registry Reg;
  telemetry::Counter &MConnectionsAccepted;
  telemetry::Counter &MRequestsReceived;
  telemetry::Counter &MRequestsCompleted;
  telemetry::Counter &MRequestsRejected;
  telemetry::Counter &MRequestsTimedOut;
  telemetry::Counter &MRequestsFailed;
  telemetry::Counter &MCompileRequests;
  telemetry::Counter &MCompileBatchRequests;
  telemetry::Counter &MCallRequests;
  telemetry::Counter &MEnginesCreated;
  telemetry::Counter &MEnginesEvicted;
  telemetry::Counter &MEngineWarmHits;
  telemetry::Counter &MEngineRecreated;
  telemetry::Counter &MSlowRequests;
  telemetry::Gauge &MQueueDepthHwm;
  telemetry::Gauge &MDrainedClean;
  telemetry::Histogram &MQueueWaitUs;
  /// Per-op latency, pre-resolved so the request hot path never touches
  /// the registry lock (see opLatencyHistogram).
  telemetry::Histogram &MCompileLatencyUs;
  telemetry::Histogram &MCallLatencyUs;
  telemetry::Histogram &MPingLatencyUs;
  telemetry::Histogram &MOtherLatencyUs;

  /// Declared last: it counts into Reg, and its drain calls back into the
  /// members above.
  FrontEnd FE;
};

} // namespace server
} // namespace terracpp

#endif // TERRACPP_SERVER_SERVER_H
