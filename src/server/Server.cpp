#include "server/Server.h"

#include "core/Engine.h"
#include "core/TerraTier.h"
#include "server/Protocol.h"
#include "support/ContentHash.h"
#include "support/EnvParse.h"
#include "support/Log.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <thread>
#include <unistd.h>

using namespace terracpp;
using namespace terracpp::server;

//===----------------------------------------------------------------------===//
// Config
//===----------------------------------------------------------------------===//

ServerConfig ServerConfig::fromEnv() {
  ServerConfig C;
  C.SocketPath = envcfg::parseString(
      "TERRAD_SOCKET", "/tmp/terrad-" + std::to_string(::getuid()) + ".sock");
  C.Workers = static_cast<unsigned>(
      envcfg::parseUInt("TERRAD_WORKERS", C.Workers, 1, 128));
  C.QueueCapacity = static_cast<unsigned>(
      envcfg::parseUInt("TERRAD_QUEUE", C.QueueCapacity, 1, 1u << 16));
  C.MaxEngines = static_cast<unsigned>(
      envcfg::parseUInt("TERRAD_MAX_ENGINES", C.MaxEngines, 1, 1024));
  C.RequestTimeoutMs = static_cast<int>(
      envcfg::parseUInt("TERRAD_TIMEOUT_MS", C.RequestTimeoutMs, 1, 3600000));
  C.MaxInFlightPerConn = static_cast<unsigned>(envcfg::parseUInt(
      "TERRAD_MAX_INFLIGHT", C.MaxInFlightPerConn, 1, 1u << 16));
  C.SlowRequestMs = static_cast<int>(
      envcfg::parseUInt("TERRAD_SLOW_MS", C.SlowRequestMs, 0, 3600000));
  return C;
}

//===----------------------------------------------------------------------===//
// Internal types
//===----------------------------------------------------------------------===//

/// One queued request. A worker fills Response and flips Done, then pokes
/// the owning connection's writer thread, which flushes the frame. If the
/// request's deadline fires first the writer marks the job Abandoned and
/// answers the client itself; the worker then skips (or finishes silently)
/// and nobody touches the fd.
struct Server::Job {
  json::Value Request;
  json::Value Response;
  std::string Op;          ///< Request op, for per-op latency series.
  std::string TraceId;     ///< Echoed in the response; spans are tagged.
  std::string ParentSpan;  ///< Caller's span ref ("pid-id"); may be empty.
  json::Value Id;          ///< Client request id (null when absent).
  uint64_t EnqueuedUs = 0; ///< For the queue-wait histogram.
  uint64_t DeadlineUs = 0; ///< Absolute response deadline (monotonic us).
  int TimeoutMs = 0;       ///< For the timeout error message.
  std::shared_ptr<ConnState> Owner; ///< Connection awaiting the response.
  std::mutex M;
  bool Done = false;
  bool Abandoned = false;
};

/// Per-connection state shared by the reader thread, the writer thread, and
/// workers (via Job::Owner). Shared ownership keeps the connection (and so
/// its fd) alive for a worker that finishes after the client went away.
struct Server::ConnState {
  std::shared_ptr<FrontEnd::Connection> Link;
  std::mutex M;               ///< Guards Pending + ReaderDone.
  std::condition_variable CV; ///< Job completed / reader exited.
  std::deque<std::shared_ptr<Job>> Pending; ///< Submitted, response not sent.
  bool ReaderDone = false;
};

/// The front end's per-connection hook: starts the connection's writer
/// thread, and on the reader's exit lets the writer flush what is pending
/// and joins it.
struct Server::Session final : FrontEnd::Session {
  Server &S;
  std::shared_ptr<ConnState> St = std::make_shared<ConnState>();
  std::thread Writer;

  Session(Server &S, std::shared_ptr<FrontEnd::Connection> C) : S(S) {
    St->Link = std::move(C);
    Writer = std::thread([&S, St = St] { S.writerLoop(St); });
  }
  ~Session() override {
    {
      std::lock_guard<std::mutex> Lock(St->M);
      St->ReaderDone = true;
    }
    St->CV.notify_all();
    Writer.join();
  }
  bool handle(FrontEnd::Request &&R) override {
    return S.submit(St, std::move(R));
  }
};

/// One live script universe. Ready/Failed are written under ExecMutex; the
/// entry is published in the LRU map before the engine is constructed, so
/// concurrent compiles of the same script converge on one engine (the
/// second locks ExecMutex, then observes Ready).
struct Server::EngineEntry {
  std::string Hash;
  std::mutex ExecMutex;       ///< Engines are single-threaded; serializes use.
  std::unique_ptr<Engine> E;  ///< Null until first compile completes.
  /// Atomic (not ExecMutex-guarded) so the metrics op can poll readiness
  /// without blocking behind an in-flight call; flips false->true once,
  /// after E is assigned.
  std::atomic<bool> Ready{false};
  bool Failed = false;
  std::string FailDiagnostics;
  std::vector<std::string> Functions;
  /// Static-analysis warnings (terracheck), one JSON object per finding
  /// with code/message/line/col/rendered; returned verbatim by `compile`.
  json::Value Warnings = json::Value::array();
  double CompileSeconds = 0;
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerConfig C)
    : Config(std::move(C)),
      MConnectionsAccepted(Reg.counter("server.connections_accepted")),
      MRequestsReceived(Reg.counter("server.requests_received")),
      MRequestsCompleted(Reg.counter("server.requests_completed")),
      MRequestsRejected(Reg.counter("server.requests_rejected")),
      MRequestsTimedOut(Reg.counter("server.requests_timed_out")),
      MRequestsFailed(Reg.counter("server.requests_failed")),
      MCompileRequests(Reg.counter("server.compile_requests")),
      MCompileBatchRequests(Reg.counter("server.compile_batch_requests")),
      MCallRequests(Reg.counter("server.call_requests")),
      MEnginesCreated(Reg.counter("server.engines_created")),
      MEnginesEvicted(Reg.counter("server.engines_evicted")),
      MEngineWarmHits(Reg.counter("server.engine_warm_hits")),
      MEngineRecreated(Reg.counter("server.engines_recreated")),
      MSlowRequests(Reg.counter("server.slow_requests")),
      MQueueDepthHwm(Reg.gauge("server.queue_depth_hwm")),
      MDrainedClean(Reg.gauge("server.drained_clean")),
      MQueueWaitUs(Reg.histogram("server.queue_wait_us")),
      MCompileLatencyUs(Reg.histogram("server.op.compile.latency_us")),
      MCallLatencyUs(Reg.histogram("server.op.call.latency_us")),
      MPingLatencyUs(Reg.histogram("server.op.ping.latency_us")),
      MOtherLatencyUs(Reg.histogram("server.op.other.latency_us")),
      FE(*this, Reg, "server") {
  if (Config.Workers == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Config.Workers = HW > 2 ? HW : 2;
  }
}

telemetry::Histogram &Server::opLatencyHistogram(const std::string &Op) {
  // Pre-resolved references: no registry lock or allocation per request.
  // Unknown ops fold into "other" so client-controlled names cannot grow
  // the registry.
  if (Op == "call")
    return MCallLatencyUs;
  if (Op == "compile")
    return MCompileLatencyUs;
  if (Op == "ping")
    return MPingLatencyUs;
  return MOtherLatencyUs;
}

Server::~Server() {
  requestShutdown();
  wait();
}

bool Server::start(std::string &Err) {
  if (!FE.listen(Config.SocketPath, Config.Backlog, Err))
    return false;
  Workers = std::make_unique<ThreadPool>(Config.Workers);
  for (unsigned I = 0; I != Config.Workers; ++I)
    Workers->enqueue([this] { workerLoop(); });
  StartTime = std::chrono::steady_clock::now();
  FE.start();
  logging::emit(logging::Level::Info, "server.start",
                {{"socket", Config.SocketPath},
                 {"workers", std::to_string(Config.Workers)},
                 {"queue_capacity", std::to_string(Config.QueueCapacity)}});
  return true;
}

void Server::drainWork() {
  // Stop feeding the queue (pushJob refuses while draining) and wait for
  // queued + in-flight work to complete; the connections' writer threads
  // flush those responses before the front end closes the connections.
  {
    std::unique_lock<std::mutex> Lock(QueueMutex);
    QueueCV.wait(Lock, [&] { return Queue.empty() && InFlight == 0; });
  }
  MDrainedClean.set(1);
  logging::emit(logging::Level::Info, "server.drain",
                {{"requests_completed",
                  std::to_string(MRequestsCompleted.value())}});
  // Flush the span buffer now that every request's spans are recorded, so
  // a SIGTERM'd terrad leaves a complete, parseable trace file even if the
  // process is killed before its at-exit hooks run.
  trace::Recorder::global().flush();
  // Wake the workers so the pool can join.
  QueueCV.notify_all();
  Workers.reset();
}

//===----------------------------------------------------------------------===//
// Connection handling
//===----------------------------------------------------------------------===//

bool Server::pushJob(const std::shared_ptr<Job> &J) {
  J->EnqueuedUs = telemetry::nowMicros();
  if (J->TimeoutMs > 0)
    J->DeadlineUs = J->EnqueuedUs + static_cast<uint64_t>(J->TimeoutMs) * 1000;
  uint64_t Depth;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (FE.draining() || Queue.size() >= Config.QueueCapacity)
      return false;
    Queue.push_back(J);
    Depth = Queue.size() + InFlight;
  }
  MQueueDepthHwm.max(static_cast<int64_t>(Depth));
  QueueCV.notify_one();
  return true;
}

std::shared_ptr<Server::Job> Server::popJob() {
  std::unique_lock<std::mutex> Lock(QueueMutex);
  QueueCV.wait(Lock, [&] { return !Queue.empty() || FE.draining(); });
  if (Queue.empty())
    return nullptr;
  std::shared_ptr<Job> J = Queue.front();
  Queue.pop_front();
  ++InFlight;
  return J;
}

void Server::workerLoop() {
  while (std::shared_ptr<Job> J = popJob()) {
    uint64_t DequeuedUs = telemetry::nowMicros();
    uint64_t QueueWaitUs = DequeuedUs - J->EnqueuedUs;
    MQueueWaitUs.record(QueueWaitUs);
    bool Execute;
    {
      std::lock_guard<std::mutex> Lock(J->M);
      Execute = !J->Abandoned;
    }
    json::Value Response;
    uint64_t ExecUs = 0;
    if (Execute) {
      // Install the caller's trace context so every span below — the
      // server.op span here, engine phases, inline tier promotion — is
      // tagged with the request's trace id and the outermost one parents
      // to the router's route.hop span. Costs one relaxed load when
      // tracing is off (RequestContext and TraceSpan are both gated).
      trace::RequestContext Ctx(J->TraceId, J->ParentSpan);
      trace::Recorder::global().addInterval("queue_wait", "server",
                                            J->EnqueuedUs, DequeuedUs);
      {
        trace::TraceSpan Span("server.op", "server");
        Span.arg("op", J->Op);
        Span.arg("trace_id", J->TraceId);
        telemetry::ScopedTimerUs Latency(opLatencyHistogram(J->Op));
        Response = dispatch(J->Request);
      }
      ExecUs = telemetry::nowMicros() - DequeuedUs;
    }
    if (Execute && Config.SlowRequestMs > 0 &&
        QueueWaitUs + ExecUs >=
            static_cast<uint64_t>(Config.SlowRequestMs) * 1000) {
      // Per-stage breakdown with the trace id, so a slow request in the
      // logs links straight to its spans in the merged fleet trace.
      MSlowRequests.inc();
      logging::emit(logging::Level::Warn, "server.slow_request",
                    {{"op", J->Op},
                     {"trace_id", J->TraceId},
                     {"total_us", std::to_string(QueueWaitUs + ExecUs)},
                     {"queue_wait_us", std::to_string(QueueWaitUs)},
                     {"exec_us", std::to_string(ExecUs)},
                     {"threshold_ms", std::to_string(Config.SlowRequestMs)}});
    }
    {
      std::lock_guard<std::mutex> Lock(J->M);
      J->Response = std::move(Response);
      J->Done = true;
    }
    // Wake the owning connection's writer. The empty lock of Owner->M
    // pairs with the writer's predicate-check-then-wait: without it the
    // notify could land between the writer scanning Pending (job not Done
    // yet) and blocking on CV, and be lost.
    if (std::shared_ptr<ConnState> Owner = J->Owner) {
      { std::lock_guard<std::mutex> Lock(Owner->M); }
      Owner->CV.notify_all();
    }
    // beginDrain waits on (queue empty && InFlight == 0); decrement under
    // QueueMutex so the state change cannot slip between its predicate
    // check and its sleep.
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      --InFlight;
    }
    QueueCV.notify_all();
  }
}

std::unique_ptr<FrontEnd::Session>
Server::openSession(std::shared_ptr<FrontEnd::Connection> C) {
  return std::make_unique<Session>(*this, std::move(C));
}

json::Value Server::controlOp(const std::string &Op,
                              const json::Value &Request) {
  if (Op == "stats")
    return statsJson();
  if (Op == "metrics")
    return metricsJson();
  if (Op == "metrics_text")
    return metricsTextJson(Request);
  if (Op == "trace_dump")
    return traceDumpJson();
  return profileOpJson(Request);
}

bool Server::submit(const std::shared_ptr<ConnState> &St,
                    FrontEnd::Request &&R) {
  // Pipelining window: bound the per-connection backlog so one client
  // cannot queue unbounded work (and memory) behind a single socket.
  {
    std::lock_guard<std::mutex> Lock(St->M);
    if (St->Pending.size() >= Config.MaxInFlightPerConn) {
      MRequestsRejected.inc();
      return St->Link->reply(
          errorResponseCode("overloaded",
                            "too many in-flight requests on this connection"),
          R.TraceId, R.Id);
    }
  }

  auto J = std::make_shared<Job>();
  J->TimeoutMs = Config.RequestTimeoutMs;
  if (const json::Value *T = R.Body.get("timeout_ms"))
    if (T->isNumber() && T->asNumber() >= 1)
      J->TimeoutMs = static_cast<int>(T->asNumber());
  J->ParentSpan = R.Body.getString("parent_span");
  J->Request = std::move(R.Body);
  J->Op = std::move(R.Op);
  J->TraceId = std::move(R.TraceId);
  J->Id = std::move(R.Id);
  J->Owner = St;

  if (!pushJob(J)) {
    const char *Why = FE.draining() ? "server shutting down"
                                    : "server overloaded: request queue full";
    MRequestsRejected.inc();
    logging::emit(logging::Level::Warn, "server.reject",
                  {{"op", J->Op}, {"trace_id", J->TraceId}, {"why", Why}});
    return St->Link->reply(errorResponseCode("overloaded", Why), J->TraceId,
                           J->Id);
  }
  {
    std::lock_guard<std::mutex> Lock(St->M);
    St->Pending.push_back(J);
  }
  St->CV.notify_all();
  return true;
}

void Server::writerLoop(std::shared_ptr<ConnState> St) {
  std::unique_lock<std::mutex> Lock(St->M);
  while (true) {
    // Pick the first pending job that is done or past its deadline.
    std::shared_ptr<Job> Ready;
    uint64_t NearestDeadline = 0;
    uint64_t Now = telemetry::nowMicros();
    for (auto It = St->Pending.begin(); It != St->Pending.end(); ++It) {
      std::shared_ptr<Job> &J = *It;
      bool Done;
      {
        std::lock_guard<std::mutex> JL(J->M);
        Done = J->Done;
      }
      if (Done || (J->DeadlineUs && Now >= J->DeadlineUs)) {
        Ready = J;
        St->Pending.erase(It);
        break;
      }
      if (J->DeadlineUs &&
          (NearestDeadline == 0 || J->DeadlineUs < NearestDeadline))
        NearestDeadline = J->DeadlineUs;
    }

    if (!Ready) {
      if (St->ReaderDone && St->Pending.empty())
        break;
      if (St->Link->closed()) {
        // Responses can no longer be delivered; abandon outstanding work
        // so workers skip it, and wait only for the reader to notice.
        for (auto &J : St->Pending) {
          std::lock_guard<std::mutex> JL(J->M);
          J->Abandoned = true;
        }
        St->Pending.clear();
        St->CV.wait(Lock);
        continue;
      }
      if (NearestDeadline) {
        uint64_t Wait = NearestDeadline > Now ? NearestDeadline - Now : 1;
        St->CV.wait_for(Lock, std::chrono::microseconds(Wait));
      } else {
        St->CV.wait(Lock);
      }
      continue;
    }

    Lock.unlock();
    json::Value Response;
    bool TimedOut = false;
    {
      std::lock_guard<std::mutex> JL(Ready->M);
      if (Ready->Done) {
        Response = std::move(Ready->Response);
      } else {
        Ready->Abandoned = true;
        TimedOut = true;
      }
    }
    if (TimedOut) {
      Response = errorResponseCode("timeout",
                                   "request timed out after " +
                                       std::to_string(Ready->TimeoutMs) +
                                       " ms");
      MRequestsTimedOut.inc();
      logging::emit(logging::Level::Warn, "server.timeout",
                    {{"op", Ready->Op},
                     {"trace_id", Ready->TraceId},
                     {"timeout_ms", std::to_string(Ready->TimeoutMs)}});
    } else {
      MRequestsCompleted.inc();
      if (!Response.getBool("ok"))
        MRequestsFailed.inc();
    }
    St->Link->reply(std::move(Response), Ready->TraceId, Ready->Id);
    Lock.lock();
  }
}

//===----------------------------------------------------------------------===//
// Request execution (worker threads)
//===----------------------------------------------------------------------===//

json::Value Server::dispatch(const json::Value &Request) {
  std::string Op = Request.getString("op");
  if (Op == "compile")
    return handleCompile(Request);
  if (Op == "compile_batch")
    return handleCompileBatch(Request);
  if (Op == "call")
    return handleCall(Request);
  if (Op == "ping")
    return handlePing(Request);
  return errorResponse("unknown op '" + Op + "'");
}

json::Value Server::handleCompileBatch(const json::Value &Request) {
  MCompileBatchRequests.inc();
  const json::Value *Sources = Request.get("sources");
  if (!Sources || !Sources->isArray())
    return errorResponse("compile_batch: missing array member 'sources'");
  constexpr size_t MaxBatch = 1024;
  if (Sources->size() > MaxBatch)
    return errorResponse("compile_batch: too many sources (max " +
                         std::to_string(MaxBatch) + ")");
  // One autotuner grid in one frame: each entry is a {source,name} object
  // compiled exactly as a standalone compile op would be, results returned
  // in submission order (a per-entry failure fills its slot, it does not
  // fail the batch). The batch runs on one worker; cross-shard parallelism
  // comes from the fleet router splitting grids across shards.
  json::Value Results = json::Value::array();
  for (const json::Value &S : Sources->elements()) {
    if (!S.isObject()) {
      Results.push(errorResponse("compile_batch: entry is not an object"));
      continue;
    }
    Results.push(handleCompile(S));
  }
  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  R.set("results", std::move(Results));
  return R;
}

json::Value Server::handlePing(const json::Value &Request) {
  double DelayMs = Request.getNumber("delay_ms", 0);
  if (DelayMs > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(DelayMs)));
  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  // The server's monotonic microsecond clock, sampled as close to the
  // response as possible. A pinging router estimates the clock offset as
  // mono_us - (t_send + t_recv)/2 and uses it to align this process's
  // trace_dump timestamps onto its own timeline (DESIGN.md §13).
  R.set("mono_us",
        json::Value::number(static_cast<double>(telemetry::nowMicros())));
  return R;
}

void Server::touchEntry(const std::string &Hash) {
  // Caller holds EnginesMutex.
  LruOrder.remove(Hash);
  LruOrder.push_front(Hash);
}

void Server::evictIfNeeded() {
  // Caller holds EnginesMutex. In-flight users hold a shared_ptr, so the
  // engine is destroyed only when the last request using it finishes.
  while (Engines.size() > Config.MaxEngines && !LruOrder.empty()) {
    std::string Victim = LruOrder.back();
    LruOrder.pop_back();
    Engines.erase(Victim);
    MEnginesEvicted.inc();
    logging::emit(logging::Level::Debug, "server.engine_evict",
                  {{"handle", Victim}});
  }
}

std::shared_ptr<Server::EngineEntry>
Server::obtainEngine(const std::string &Hash, const std::string &Source,
                     const std::string &Name, bool &Warm, std::string &Error) {
  std::shared_ptr<EngineEntry> Entry;
  bool Created = false;
  {
    std::lock_guard<std::mutex> Lock(EnginesMutex);
    auto It = Engines.find(Hash);
    if (It != Engines.end()) {
      Entry = It->second;
      touchEntry(Hash);
    } else {
      if (Source.empty()) {
        Error = "unknown handle " + Hash;
        return nullptr;
      }
      Entry = std::make_shared<EngineEntry>();
      Entry->Hash = Hash;
      Engines.emplace(Hash, Entry);
      LruOrder.push_front(Hash);
      Sources.emplace(Hash, Source);
      Created = true;
      evictIfNeeded();
    }
  }

  // Run (or wait for) the script under the entry's execution lock. The
  // engine's own JIT consults the persistent on-disk cache, so a recreated
  // entry re-links cached .so files instead of re-invoking cc.
  std::lock_guard<std::mutex> ExecLock(Entry->ExecMutex);
  if (Entry->Failed) {
    Error = Entry->FailDiagnostics.empty() ? "script previously failed"
                                           : Entry->FailDiagnostics;
    return nullptr;
  }
  if (Entry->Ready) {
    Warm = !Created;
    return Entry;
  }

  Timer T;
  auto E = std::make_unique<Engine>();
  bool OK = E->run(Source, Name.empty() ? std::string("<terrad>") : Name);
  std::string Diagnostics = E->errors();
  if (!OK) {
    Entry->Failed = true;
    Entry->FailDiagnostics = Diagnostics;
    std::lock_guard<std::mutex> Lock(EnginesMutex);
    // Drop the failed entry so a corrected resubmission recompiles.
    Engines.erase(Hash);
    LruOrder.remove(Hash);
    Sources.erase(Hash);
    Error = Diagnostics.empty() ? "script evaluation failed" : Diagnostics;
    return nullptr;
  }
  Entry->Functions = E->terraFunctionNames();
  // Compile every terra function now (batched, through the content-
  // addressed cache) so the handle returned to the client is ready to call
  // at socket-round-trip latency: the service's contract is that `compile`
  // pays the backend cost, not the first `call`.
  std::vector<TerraFunction *> Fns;
  for (const std::string &FnName : Entry->Functions)
    if (TerraFunction *F = E->terraFunction(FnName))
      Fns.push_back(F);
  if (!Fns.empty() && !E->compileAll(Fns)) {
    Diagnostics = E->errors();
    Entry->Failed = true;
    Entry->FailDiagnostics = Diagnostics;
    std::lock_guard<std::mutex> Lock(EnginesMutex);
    Engines.erase(Hash);
    LruOrder.remove(Hash);
    Sources.erase(Hash);
    Error = Diagnostics.empty() ? "native compilation failed" : Diagnostics;
    return nullptr;
  }
  // Surface static-analysis warnings (the pipeline ran terracheck during
  // compileAll) so clients see lint findings for warm and cold hits alike.
  for (const Diagnostic &D : E->diags().diagnostics()) {
    if (D.Kind != DiagKind::Warning)
      continue;
    json::Value W = json::Value::object();
    W.set("code", json::Value::string(D.Code));
    W.set("message", json::Value::string(D.Message));
    W.set("line", json::Value::number(D.Loc.Line));
    W.set("col", json::Value::number(D.Loc.Column));
    W.set("rendered", json::Value::string(E->diags().render(D)));
    Entry->Warnings.push(std::move(W));
  }
  Entry->E = std::move(E);
  Entry->CompileSeconds = T.seconds();
  Entry->Ready.store(true, std::memory_order_release);
  Warm = false;
  MEnginesCreated.inc();
  logging::emit(logging::Level::Info, "server.engine_create",
                {{"handle", Hash},
                 {"functions", std::to_string(Entry->Functions.size())},
                 {"seconds", std::to_string(Entry->CompileSeconds)}});
  return Entry;
}

json::Value Server::handleCompile(const json::Value &Request) {
  MCompileRequests.inc();
  const json::Value *Source = Request.get("source");
  if (!Source || !Source->isString())
    return errorResponse("compile: missing string member 'source'");
  std::string Name = Request.getString("name", "<terrad>");

  ContentHash H;
  H.updateField(Source->asString());
  std::string Hash = H.hex();

  bool Warm = false;
  std::string Error;
  std::shared_ptr<EngineEntry> Entry =
      obtainEngine(Hash, Source->asString(), Name, Warm, Error);
  if (!Entry)
    return errorResponse("compile failed", Error);
  if (Warm)
    MEngineWarmHits.inc();

  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  R.set("handle", json::Value::string(Hash));
  R.set("warm", json::Value::boolean(Warm));
  R.set("seconds", json::Value::number(Entry->CompileSeconds));
  json::Value Fns = json::Value::array();
  for (const std::string &F : Entry->Functions)
    Fns.push(json::Value::string(F));
  R.set("functions", std::move(Fns));
  R.set("warnings", Entry->Warnings);
  return R;
}

json::Value Server::handleCall(const json::Value &Request) {
  MCallRequests.inc();
  std::string Hash = Request.getString("handle");
  std::string FnName = Request.getString("fn");
  if (Hash.empty() || FnName.empty())
    return errorResponse("call: need string members 'handle' and 'fn'");

  // A handle whose engine was evicted is transparently rebuilt from the
  // retained source; the on-disk .so cache makes that a re-link, not a
  // recompile.
  std::string Source;
  {
    std::lock_guard<std::mutex> Lock(EnginesMutex);
    auto It = Sources.find(Hash);
    if (It != Sources.end())
      Source = It->second;
    bool Live = Engines.count(Hash) != 0;
    if (!Live && !Source.empty())
      MEngineRecreated.inc();
  }

  bool Warm = false;
  std::string Error;
  std::shared_ptr<EngineEntry> Entry =
      obtainEngine(Hash, Source, "<terrad>", Warm, Error);
  if (!Entry)
    return errorResponse("call: " + Error);
  if (Warm)
    MEngineWarmHits.inc();

  std::lock_guard<std::mutex> ExecLock(Entry->ExecMutex);
  Engine &E = *Entry->E;
  size_t DiagCheckpoint = E.diags().checkpoint();

  lua::Value Callee = E.global(FnName);
  if (Callee.isNil())
    return errorResponse("call: no global named '" + FnName + "'");

  std::vector<lua::Value> Args;
  if (const json::Value *A = Request.get("args")) {
    if (!A->isArray())
      return errorResponse("call: 'args' must be an array of scalars");
    for (const json::Value &Arg : A->elements()) {
      switch (Arg.kind()) {
      case json::Value::K_Number:
        Args.push_back(lua::Value::number(Arg.asNumber()));
        break;
      case json::Value::K_Bool:
        Args.push_back(lua::Value::boolean(Arg.asBool()));
        break;
      case json::Value::K_String:
        Args.push_back(lua::Value::string(Arg.asString()));
        break;
      case json::Value::K_Null:
        Args.push_back(lua::Value::nil());
        break;
      default:
        return errorResponse("call: argument " +
                             std::to_string(Args.size()) +
                             " is not a scalar");
      }
    }
  }

  std::vector<lua::Value> Results;
  bool OK = E.call(Callee, std::move(Args), Results);
  if (!OK) {
    std::string Diagnostics = E.errors();
    E.diags().rollback(DiagCheckpoint); // Keep the engine reusable.
    return errorResponse("call to '" + FnName + "' failed", Diagnostics);
  }

  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  // Which execution tier served the call: 0 = bytecode VM, 1 = native,
  // 2 = baseline JIT.
  // Absent when the call never went through an entry thunk (pure Lua).
  if (int Tier = E.compiler().lastCallTier(); Tier >= 0)
    R.set("tier", json::Value::number(Tier));
  if (!Results.empty()) {
    const lua::Value &V = Results.front();
    if (V.isNumber())
      R.set("result", json::Value::number(V.asNumber()));
    else if (V.isBool())
      R.set("result", json::Value::boolean(V.asBool()));
    else if (V.isString())
      R.set("result", json::Value::string(V.asString()));
    else
      R.set("result", json::Value::null());
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

Server::Stats Server::stats() const {
  Stats S;
  S.ConnectionsAccepted = MConnectionsAccepted.value();
  S.RequestsReceived = MRequestsReceived.value();
  S.RequestsCompleted = MRequestsCompleted.value();
  S.RequestsRejected = MRequestsRejected.value();
  S.RequestsTimedOut = MRequestsTimedOut.value();
  S.RequestsFailed = MRequestsFailed.value();
  S.CompileRequests = MCompileRequests.value();
  S.CompileBatchRequests = MCompileBatchRequests.value();
  S.CallRequests = MCallRequests.value();
  S.EnginesCreated = MEnginesCreated.value();
  S.EnginesEvicted = MEnginesEvicted.value();
  S.EngineWarmHits = MEngineWarmHits.value();
  S.EngineRecreated = MEngineRecreated.value();
  S.QueueDepthHWM = static_cast<uint64_t>(MQueueDepthHwm.value());
  S.DrainedClean = MDrainedClean.value() != 0;
  if (FE.started())
    S.UptimeSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - StartTime)
                          .count();
  {
    std::lock_guard<std::mutex> Lock(EnginesMutex);
    S.EnginesLive = Engines.size();
  }
  return S;
}

json::Value Server::statsJson() {
  Stats S = stats();
  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  auto N = [](uint64_t V) { return json::Value::number(static_cast<double>(V)); };
  R.set("connections_accepted", N(S.ConnectionsAccepted));
  R.set("requests_received", N(S.RequestsReceived));
  R.set("requests_completed", N(S.RequestsCompleted));
  R.set("requests_rejected", N(S.RequestsRejected));
  R.set("requests_timed_out", N(S.RequestsTimedOut));
  R.set("requests_failed", N(S.RequestsFailed));
  R.set("compile_requests", N(S.CompileRequests));
  R.set("compile_batch_requests", N(S.CompileBatchRequests));
  R.set("call_requests", N(S.CallRequests));
  R.set("engines_created", N(S.EnginesCreated));
  R.set("engines_evicted", N(S.EnginesEvicted));
  R.set("engines_recreated", N(S.EngineRecreated));
  R.set("engine_warm_hits", N(S.EngineWarmHits));
  R.set("engines_live", N(S.EnginesLive));
  R.set("queue_depth_hwm", N(S.QueueDepthHWM));
  // Instantaneous depth (queued + executing), not just the high-water mark:
  // what terratop renders as the live backlog column.
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    R.set("queue_depth", N(Queue.size() + InFlight));
  }
  R.set("slow_requests", N(MSlowRequests.value()));
  R.set("uptime_seconds", json::Value::number(S.UptimeSeconds));
  R.set("workers", json::Value::number(Config.Workers));
  R.set("queue_capacity", json::Value::number(Config.QueueCapacity));
  R.set("max_engines", json::Value::number(Config.MaxEngines));
  // Per-op latency snapshots ride along so `stats` alone is enough for a
  // quick health check; the `metrics` op returns the full registries.
  json::Value Ops = json::Value::object();
  Reg.forEachHistogram([&](const std::string &Name,
                           const telemetry::Histogram &H) {
    const std::string Prefix = "server.op.";
    const std::string Suffix = ".latency_us";
    if (Name.size() > Prefix.size() + Suffix.size() &&
        Name.compare(0, Prefix.size(), Prefix) == 0 &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      Ops.set(Name.substr(Prefix.size(),
                          Name.size() - Prefix.size() - Suffix.size()),
              H.snapshot().toJson());
  });
  R.set("op_latency_us", std::move(Ops));
  // Tiered-execution state summed across live, ready engines: how many
  // functions are still on the tier-0 VM, how many were promoted to
  // native, and how many promotions are queued behind the compile worker.
  uint64_t Tier0 = 0, Promoted = 0, Backlog = 0;
  uint64_t CacheHits = 0, CacheMisses = 0;
  for (const auto &[Hash, Entry] : readyEngines()) {
    if (TierManager *TM = Entry->E->compiler().tierManager()) {
      TierManager::Snapshot Snap = TM->snapshot();
      Tier0 += Snap.Tier0Functions;
      Promoted += Snap.PromotedFunctions;
      Backlog += Snap.PromotionBacklog;
    }
    // Disk-cache effectiveness summed across live engines: in a fleet
    // sharing TERRACPP_CACHE_DIR, hits here on one shard for sources first
    // compiled on another prove cross-shard artifact reuse.
    telemetry::Registry &JitReg = Entry->E->compiler().jit().metrics();
    CacheHits += JitReg.counter("jit.cache.hits").value();
    CacheMisses += JitReg.counter("jit.cache.misses").value();
  }
  R.set("tier0_functions", N(Tier0));
  R.set("promoted_functions", N(Promoted));
  R.set("promotion_backlog", N(Backlog));
  R.set("jit_cache_hits", N(CacheHits));
  R.set("jit_cache_misses", N(CacheMisses));
  return R;
}

json::Value Server::metricsJson() {
  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  R.set("uptime_seconds", json::Value::number(stats().UptimeSeconds));
  R.set("server", Reg.toJson());
  R.set("process", telemetry::Registry::global().toJson());
  // Each ready engine's JIT registry, keyed by script handle. ExecMutex is
  // not needed: registries are internally thread-safe, and Ready entries
  // never lose their engine while we hold the shared_ptr.
  json::Value Jit = json::Value::object();
  for (const auto &[Hash, Entry] : readyEngines()) {
    json::Value EngineJson = Entry->E->compiler().jit().metrics().toJson();
    // Tiered-execution snapshot for this engine (only present when the
    // engine runs the tiered backend).
    if (TierManager *TM = Entry->E->compiler().tierManager()) {
      TierManager::Snapshot Snap = TM->snapshot();
      json::Value Tier = json::Value::object();
      auto N = [](uint64_t V) {
        return json::Value::number(static_cast<double>(V));
      };
      Tier.set("tier0_functions", N(Snap.Tier0Functions));
      Tier.set("promoted_functions", N(Snap.PromotedFunctions));
      Tier.set("promotion_backlog", N(Snap.PromotionBacklog));
      Tier.set("promotions", N(Snap.Promotions));
      Tier.set("promotion_failures", N(Snap.PromotionFailures));
      Tier.set("tier0_calls", N(Snap.Tier0Calls));
      Tier.set("tier1_calls", N(Snap.Tier1Calls));
      Tier.set("baseline_calls", N(Snap.BaselineCalls));
      Tier.set("cc_unavailable", N(Snap.CcUnavailable));
      EngineJson.set("tier", std::move(Tier));
    }
    Jit.set(Hash, std::move(EngineJson));
  }
  R.set("engines", std::move(Jit));
  return R;
}

json::Value Server::traceDumpJson() {
  json::Value R = trace::Recorder::global().dumpAbsolute();
  R.set("ok", json::Value::boolean(true));
  return R;
}

json::Value Server::metricsTextJson(const json::Value &Request) {
  // Base labels on every sample; request-supplied labels (the fleet router
  // sends {"shard":"N"}) are appended and may not override the defaults.
  std::vector<telemetry::PromLabel> Labels;
  Labels.emplace_back("process", "terrad");
  Labels.emplace_back("pid", std::to_string(::getpid()));
  if (const json::Value *L = Request.get("labels"); L && L->isObject())
    for (const auto &M : L->members())
      if (M.second.isString() && M.first != "process" && M.first != "pid")
        Labels.emplace_back(M.first, M.second.asString());

  // Gauges that are otherwise derived on demand, refreshed so the scrape
  // sees live values.
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Reg.gauge("server.queue_depth")
        .set(static_cast<int64_t>(Queue.size() + InFlight));
  }

  {
    std::lock_guard<std::mutex> Lock(EnginesMutex);
    Reg.gauge("server.engines_live").set(static_cast<int64_t>(Engines.size()));
  }
  Reg.gauge("server.engines_max").set(static_cast<int64_t>(Config.MaxEngines));

  std::vector<std::string> Parts;
  Parts.push_back(telemetry::toPrometheusText(Reg, Labels));
  Parts.push_back(
      telemetry::toPrometheusText(telemetry::Registry::global(), Labels));
  for (const auto &[Hash, Entry] : readyEngines()) {
    // Refresh the per-function profile gauges so the exposition carries
    // current call/back-edge counts and resident tiers.
    if (TierManager *TM = Entry->E->compiler().tierManager())
      TM->profileJson();
    std::vector<telemetry::PromLabel> EngineLabels = Labels;
    EngineLabels.emplace_back("engine", Hash);
    Parts.push_back(telemetry::toPrometheusText(
        Entry->E->compiler().jit().metrics(), EngineLabels));
  }

  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  R.set("content_type", json::Value::string("text/plain; version=0.0.4"));
  R.set("text", json::Value::string(telemetry::mergeExpositions(Parts)));
  return R;
}

json::Value Server::profileOpJson(const json::Value &Request) {
  // Optional filter: profile only the engine behind one script handle.
  json::Value Components = json::Value::object();
  for (const auto &[Hash, Entry] : readyEngines(Request.getString("handle")))
    if (TierManager *TM = Entry->E->compiler().tierManager()) {
      json::Value P = TM->profileJson();
      // Component hashes are content hashes of the generated C, so the same
      // component surfacing via two engines merges cleanly (last writer
      // wins; the counters refer to the same functions).
      for (const auto &M : P.members())
        Components.set(M.first, M.second);
    }
  json::Value R = json::Value::object();
  R.set("ok", json::Value::boolean(true));
  R.set("version", json::Value::number(1));
  R.set("components", std::move(Components));
  return R;
}

Server::LiveEngines Server::readyEngines(const std::string &Handle) const {
  LiveEngines Live;
  {
    std::lock_guard<std::mutex> Lock(EnginesMutex);
    for (const auto &E : Engines)
      if (Handle.empty() || E.first == Handle)
        Live.emplace_back(E.first, E.second);
  }
  // Readiness is atomic, so it is checked outside the lock: an engine still
  // compiling is skipped without waiting behind it.
  Live.erase(std::remove_if(Live.begin(), Live.end(),
                            [](const auto &E) {
                              return !E.second->Ready.load(
                                  std::memory_order_acquire);
                            }),
             Live.end());
  return Live;
}
