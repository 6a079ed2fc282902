#include "fleet/Router.h"

#include "server/Protocol.h"
#include "support/Backoff.h"
#include "support/ContentHash.h"
#include "support/EnvParse.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <climits>
#include <csignal>
#include <fstream>
#include <map>
#include <unistd.h>

using namespace terracpp;
using namespace terracpp::fleet;
using terracpp::json::Value;

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

RouterConfig RouterConfig::fromEnv() {
  RouterConfig C;
  C.SlowRequestMs = static_cast<int>(
      envcfg::parseUInt("TERRAFLEET_SLOW_MS", C.SlowRequestMs, 0, INT_MAX));
  return C;
}

/// The front end's per-connection hook; the router keeps no per-connection
/// state beyond the link itself.
struct Router::FrontSession final : server::FrontEnd::Session {
  Router &R;
  Link L;
  FrontSession(Router &R, Link L) : R(R), L(std::move(L)) {}
  bool handle(server::FrontEnd::Request &&Req) override {
    return R.handleFront(L, std::move(Req));
  }
};

Router::Router(RouterConfig C)
    : Config(std::move(C)),
      MRequestsRouted(Reg.counter("fleet.requests_routed")),
      MRequestsFailed(Reg.counter("fleet.requests_failed")),
      MShardUnavailable(Reg.counter("fleet.shard_unavailable")),
      MReconnects(Reg.counter("fleet.reconnects")),
      MRespawns(Reg.counter("fleet.respawns")),
      MBatchRequests(Reg.counter("fleet.batch_requests")),
      MSlowRequests(Reg.counter("fleet.slow_requests")),
      MShardsUp(Reg.gauge("fleet.shards_up")),
      MRouteLatencyUs(Reg.histogram("fleet.route_latency_us")),
      FE(*this, Reg, "fleet") {
  for (size_t I = 0; I != Config.Shards.size(); ++I) {
    auto S = std::make_unique<Shard>();
    S->Cfg = Config.Shards[I];
    S->Mux.setMaxInFlight(Config.MaxInFlightPerShard);
    S->Requests =
        &Reg.counter("fleet.shard" + std::to_string(I) + ".requests");
    Shards.push_back(std::move(S));
  }
}

Router::~Router() {
  requestShutdown();
  wait();
}

bool Router::spawnShard(unsigned Index, std::string &Err) {
  Shard &S = *Shards[Index];
  std::vector<std::string> Argv = {Config.TerradBinary, "--socket",
                                   S.Cfg.SocketPath, "--quiet"};
  std::vector<std::string> Env;
  if (!Config.CacheDir.empty())
    Env.push_back("TERRACPP_CACHE_DIR=" + Config.CacheDir);
  // "-" = record spans in memory, no file: the router pulls each shard's
  // buffer over the protocol (trace_dump) and merges the timelines itself.
  if (Config.TraceShards)
    Env.push_back("TERRACPP_TRACE=-");
  return S.Proc.spawn(Argv, Env, Err);
}

bool Router::connectShard(unsigned Index, unsigned Attempts) {
  Shard &S = *Shards[Index];
  MuxClient::ConnectOptions CO;
  CO.Attempts = Attempts;
  CO.InitialDelayMs = Config.ReconnectBaseMs;
  CO.MaxDelayMs = Config.ReconnectMaxMs;
  CO.HealthCheck = true;
  CO.HealthTimeoutMs = 2000;
  if (!S.Mux.connect(S.Cfg.SocketPath, CO))
    return false;
  // Clock alignment rides on the fresh connection so shard trace buffers
  // can be shifted onto the router's timeline later; skipped when tracing
  // is off (five extra pings per shard connect buy nothing then).
  if (Config.TraceShards)
    estimateShardClock(Index);
  return true;
}

bool Router::estimateShardClock(unsigned Index) {
  Shard &S = *Shards[Index];
  // Offset = shard_mono - router_mono, estimated as mono_us minus the RTT
  // midpoint; the sample with the smallest RTT bounds the error tightest
  // (error <= RTT/2), so it wins. Five pings keep the tail short while
  // reliably catching one uncontended round trip.
  int64_t BestOffset = 0;
  uint64_t BestRtt = UINT64_MAX;
  for (int I = 0; I != 5; ++I) {
    Value Req = Value::object();
    Req.set("op", Value::string("ping"));
    uint64_t T0 = telemetry::nowMicros();
    Value Resp = S.Mux.request(std::move(Req), 500);
    uint64_t T1 = telemetry::nowMicros();
    if (!Resp.getBool("ok"))
      continue;
    const Value *Mono = Resp.get("mono_us");
    if (!Mono || !Mono->isNumber())
      continue;
    uint64_t Rtt = T1 - T0;
    if (Rtt < BestRtt) {
      BestRtt = Rtt;
      BestOffset = static_cast<int64_t>(Mono->asNumber()) -
                   static_cast<int64_t>((T0 + T1) / 2);
    }
  }
  if (BestRtt == UINT64_MAX)
    return false;
  S.ClockOffsetUs.store(BestOffset, std::memory_order_release);
  S.ClockAligned.store(true, std::memory_order_release);
  logging::emit(logging::Level::Debug, "fleet.clock_align",
                {{"shard", std::to_string(Index)},
                 {"offset_us", std::to_string(BestOffset)},
                 {"rtt_us", std::to_string(BestRtt)}});
  return true;
}

void Router::onShardLost(unsigned Index) {
  // Runs on the shard's mux reader thread: flip state and counters only —
  // never Mux.close() here (it would join the thread we are on). The
  // monitor thread does the actual teardown + reconnect.
  Shard &S = *Shards[Index];
  bool WasUp = S.Up.exchange(false, std::memory_order_acq_rel);
  if (!WasUp)
    return;
  {
    std::lock_guard<std::mutex> Lock(RingM);
    Ring.removeNode(Index);
  }
  int64_t UpCount = 0;
  for (const auto &Sh : Shards)
    if (Sh->Up.load(std::memory_order_acquire))
      ++UpCount;
  MShardsUp.set(UpCount);
  S.NextAttemptUs.store(telemetry::nowMicros(), std::memory_order_release);
  logging::emit(logging::Level::Warn, "fleet.shard_lost",
                {{"shard", std::to_string(Index)},
                 {"socket", S.Cfg.SocketPath}});
}

bool Router::start(std::string &Err) {
  if (FE.started()) {
    Err = "router already started";
    return false;
  }

  for (unsigned I = 0; I != Shards.size(); ++I)
    if (Shards[I]->Cfg.Spawn && !spawnShard(I, Err)) {
      Err = "shard " + std::to_string(I) + ": " + Err;
      return false;
    }

  unsigned UpCount = 0;
  for (unsigned I = 0; I != Shards.size(); ++I) {
    Shard &S = *Shards[I];
    S.Mux.setOnConnectionLost([this, I] { onShardLost(I); });
    if (connectShard(I, Config.ConnectAttempts)) {
      S.Up.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> Lock(RingM);
      Ring.addNode(I, Config.VirtualNodes);
      ++UpCount;
    } else {
      logging::emit(logging::Level::Warn, "fleet.shard_connect_failed",
                    {{"shard", std::to_string(I)},
                     {"socket", S.Cfg.SocketPath},
                     {"error", S.Mux.error()}});
      S.NextAttemptUs.store(telemetry::nowMicros(),
                            std::memory_order_release);
    }
  }
  MShardsUp.set(UpCount);
  if (UpCount == 0) {
    Err = "no shard came up";
    return false;
  }

  if (!FE.listen(Config.FrontSocket, Config.Backlog, Err))
    return false;
  Monitor = std::thread([this] { monitorLoop(); });
  FE.start();
  logging::emit(logging::Level::Info, "fleet.start",
                {{"front", Config.FrontSocket},
                 {"shards", std::to_string(Shards.size())},
                 {"shards_up", std::to_string(UpCount)}});
  return true;
}

void Router::monitorLoop() {
  backoff::Policy P;
  P.MaxAttempts = 1; // Schedule computed manually across monitor ticks.
  P.InitialDelayMs = Config.ReconnectBaseMs;
  P.MaxDelayMs = Config.ReconnectMaxMs;
  while (!StopMonitor.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (StopMonitor.load(std::memory_order_acquire))
      break;
    for (unsigned I = 0; I != Shards.size(); ++I) {
      Shard &S = *Shards[I];
      if (S.Up.load(std::memory_order_acquire))
        continue;
      uint64_t Now = telemetry::nowMicros();
      if (Now < S.NextAttemptUs.load(std::memory_order_acquire))
        continue;
      // Tear down the dead connection (joins the mux reader; safe here,
      // never from onShardLost).
      S.Mux.close();
      if (S.Cfg.Spawn && Config.AutoRespawn && !S.Proc.alive()) {
        std::string Err;
        if (spawnShard(I, Err)) {
          MRespawns.inc();
          logging::emit(logging::Level::Info, "fleet.shard_respawn",
                        {{"shard", std::to_string(I)},
                         {"pid", std::to_string(S.Proc.pid())}});
        } else {
          logging::emit(logging::Level::Warn, "fleet.shard_respawn_failed",
                        {{"shard", std::to_string(I)}, {"error", Err}});
        }
      }
      if (connectShard(I, 1)) {
        S.Up.store(true, std::memory_order_release);
        {
          std::lock_guard<std::mutex> Lock(RingM);
          Ring.addNode(I, Config.VirtualNodes);
        }
        S.FailedAttempts = 0;
        MReconnects.inc();
        int64_t UpCount = 0;
        for (const auto &Sh : Shards)
          if (Sh->Up.load(std::memory_order_acquire))
            ++UpCount;
        MShardsUp.set(UpCount);
        logging::emit(logging::Level::Info, "fleet.shard_reconnect",
                      {{"shard", std::to_string(I)}});
      } else {
        // Capped exponential backoff; keep trying forever — an operator
        // restarting a shard minutes later should not need to restart the
        // router too.
        int Delay = P.delayForAttempt(S.FailedAttempts);
        if (S.FailedAttempts < 32)
          ++S.FailedAttempts;
        S.NextAttemptUs.store(Now + static_cast<uint64_t>(Delay) * 1000,
                              std::memory_order_release);
      }
    }
  }
}

void Router::drainWork() {
  // The front socket already stopped listening. Bounded grace for in-flight
  // relays to complete.
  for (int WaitedMs = 0; WaitedMs < 2000; WaitedMs += 20) {
    unsigned InFlight = 0;
    for (auto &S : Shards)
      if (S->Up.load(std::memory_order_acquire))
        InFlight += S->Mux.inFlight();
    if (InFlight == 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Write the merged fleet trace while the shards are still alive to answer
  // trace_dump — after the grace wait, so in-flight requests' spans are
  // recorded, and before shard teardown.
  if (!Config.TraceOutPath.empty()) {
    Value Merged = mergedTraceJson();
    std::ofstream Out(Config.TraceOutPath, std::ios::trunc);
    if (Out) {
      Out << Merged.dump() << "\n";
      logging::emit(logging::Level::Info, "fleet.trace_written",
                    {{"path", Config.TraceOutPath},
                     {"events", std::to_string(
                                    Merged.get("traceEvents")->size())}});
    } else {
      logging::emit(logging::Level::Warn, "fleet.trace_write_failed",
                    {{"path", Config.TraceOutPath}});
    }
  }
  // Stop the monitor before shard connections are torn down, so it cannot
  // resurrect them mid-shutdown. The front end closes the front
  // connections next.
  StopMonitor.store(true, std::memory_order_release);
  if (Monitor.joinable())
    Monitor.join();
}

void Router::afterConnections() {
  // Owned shards drain and exit; attached shards are left running.
  for (unsigned I = 0; I != Shards.size(); ++I) {
    Shard &S = *Shards[I];
    if (S.Cfg.Spawn && S.Up.load(std::memory_order_acquire)) {
      Value Req = Value::object();
      Req.set("op", Value::string("shutdown"));
      S.Mux.request(std::move(Req), 2000);
    }
    S.Mux.close();
    if (S.Cfg.Spawn && S.Proc.started()) {
      if (S.Proc.waitExit(3000) < 0) {
        S.Proc.terminate(SIGTERM);
        if (S.Proc.waitExit(2000) < 0)
          S.Proc.terminate(SIGKILL);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Placement
//===----------------------------------------------------------------------===//

int Router::shardIndexForKey(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(RingM);
  unsigned Node = 0;
  if (!Ring.lookup(Key, Node))
    return -1;
  return static_cast<int>(Node);
}

bool Router::shardUp(unsigned Index) {
  return Index < Shards.size() &&
         Shards[Index]->Up.load(std::memory_order_acquire);
}

//===----------------------------------------------------------------------===//
// Front connections
//===----------------------------------------------------------------------===//

std::unique_ptr<server::FrontEnd::Session> Router::openSession(Link C) {
  return std::make_unique<FrontSession>(*this, std::move(C));
}

json::Value Router::controlOp(const std::string &Op, const Value &Request) {
  if (Op == "stats")
    return aggregatedStats();
  if (Op == "metrics")
    return aggregatedMetrics();
  if (Op == "metrics_text")
    return aggregatedMetricsText(Request);
  if (Op == "profile")
    return aggregatedProfile(Request);
  Value R = mergedTraceJson();
  R.set("ok", Value::boolean(true));
  return R;
}

bool Router::handleFront(const Link &L, server::FrontEnd::Request &&R) {
  if (R.Op == "ping" && !R.Body.get("delay_ms")) {
    // Plain pings are a front-socket health check and answered here. A
    // ping carrying delay_ms is the protocol's latency-simulation knob and
    // must exercise a real shard round trip, so it is routed.
    Value Pong = Value::object();
    Pong.set("ok", Value::boolean(true));
    Pong.set("fleet", Value::boolean(true));
    return L->reply(std::move(Pong), R.TraceId, R.Id);
  }
  if (R.Op == "compile_batch") {
    routeBatch(L, R);
    return true;
  }
  if (R.Op == "compile" || R.Op == "call" || R.Op == "ping") {
    routeRequest(L, std::move(R));
    return true;
  }
  return L->reply(server::errorResponse("unknown op '" + R.Op + "'"),
                  R.TraceId, R.Id);
}

void Router::routeRequest(const Link &L, server::FrontEnd::Request &&R) {
  const std::string &Op = R.Op;
  Value &Request = R.Body;
  auto answer = [&](Value Resp) {
    L->reply(std::move(Resp), R.TraceId, R.Id);
  };

  // Placement key: terrad's own handle derivation, so compile and every
  // later call on the returned handle land on the same shard. Routed pings
  // have no content identity; spraying them round-robin spreads the
  // simulated load over every shard's worker pool.
  std::string Key;
  if (Op == "ping") {
    static std::atomic<uint64_t> PingSpray{0};
    Key = "ping-" + std::to_string(PingSpray.fetch_add(1));
  } else if (Op == "compile") {
    const Value *S = Request.get("source");
    if (!S || !S->isString()) {
      MRequestsFailed.inc();
      answer(server::errorResponse("compile: missing string member 'source'"));
      return;
    }
    ContentHash H;
    H.updateField(S->asString());
    Key = H.hex();
  } else {
    Key = Request.getString("handle");
    if (Key.empty()) {
      MRequestsFailed.inc();
      answer(server::errorResponse(
          "call: need string members 'handle' and 'fn'"));
      return;
    }
  }
  int Idx = shardIndexForKey(Key);
  if (Idx < 0) {
    MRequestsFailed.inc();
    MShardUnavailable.inc();
    answer(server::errorResponseCode("shard_unavailable",
                                     "no shards available"));
    return;
  }
  Shard &S = *Shards[static_cast<unsigned>(Idx)];

  int TimeoutMs = Config.RequestTimeoutMs;
  if (const Value *T = Request.get("timeout_ms"))
    if (T->isNumber() && T->asNumber() >= 1)
      TimeoutMs = static_cast<int>(T->asNumber());

  // route.hop span: opened here, closed in the completion callback (the
  // interval spans queueing, the shard round trip, and the relay). The
  // shard parents its server.op span to our span ref carried in
  // parent_span; we in turn parent to whatever parent_span the client
  // supplied, so one request chains client -> router -> shard. When
  // tracing is off this is one relaxed load and HopSpan stays 0.
  uint64_t HopSpan = 0;
  std::string ClientParent;
  if (trace::Recorder::global().enabled()) {
    HopSpan = trace::nextSpanId();
    ClientParent = Request.getString("parent_span");
    Request.set("parent_span", Value::string(trace::spanRef(HopSpan)));
  }

  MRequestsRouted.inc();
  S.Requests->inc();
  uint64_t StartUs = telemetry::nowMicros();
  // Mux deadline trails the shard's own request deadline so the shard's
  // structured timeout answer (which names the op) normally wins.
  uint64_t Ticket = S.Mux.submit(
      std::move(Request), TimeoutMs + 2000,
      [this, L, Id = R.Id, StartUs, Op, Idx, TraceId = R.TraceId, HopSpan,
       ClientParent](Value Resp) {
        uint64_t EndUs = telemetry::nowMicros();
        MRouteLatencyUs.record(EndUs - StartUs);
        if (HopSpan) {
          trace::Recorder &Rec = trace::Recorder::global();
          trace::Recorder::Event E;
          E.Name = "route.hop";
          E.Category = "fleet";
          E.StartUs = StartUs > Rec.baseUs() ? StartUs - Rec.baseUs() : 0;
          E.DurUs = EndUs - StartUs;
          E.SpanId = HopSpan;
          E.TraceId = TraceId;
          E.RemoteParent = ClientParent;
          E.Args.emplace_back("op", Op);
          E.Args.emplace_back("shard", std::to_string(Idx));
          Rec.add(std::move(E));
        }
        if (Config.SlowRequestMs > 0 &&
            EndUs - StartUs >=
                static_cast<uint64_t>(Config.SlowRequestMs) * 1000) {
          MSlowRequests.inc();
          logging::emit(logging::Level::Warn, "fleet.slow_request",
                        {{"op", Op},
                         {"shard", std::to_string(Idx)},
                         {"trace_id", TraceId},
                         {"total_us", std::to_string(EndUs - StartUs)},
                         {"threshold_ms",
                          std::to_string(Config.SlowRequestMs)}});
        }
        if (!Resp.getBool("ok")) {
          MRequestsFailed.inc();
          if (Resp.getString("code") == "shard_unavailable")
            MShardUnavailable.inc();
        }
        L->reply(std::move(Resp), TraceId, Id);
      });
  if (Ticket == 0) {
    MRequestsFailed.inc();
    MShardUnavailable.inc();
    answer(server::errorResponseCode(
        "shard_unavailable",
        "shard " + std::to_string(Idx) + " unavailable"));
  }
}

void Router::routeBatch(const Link &L, const server::FrontEnd::Request &R) {
  MBatchRequests.inc();
  const Value &Request = R.Body;
  const Value *Sources = Request.get("sources");
  if (!Sources || !Sources->isArray()) {
    MRequestsFailed.inc();
    L->reply(server::errorResponse(
                 "compile_batch: missing array member 'sources'"),
             R.TraceId, R.Id);
    return;
  }
  size_t N = Sources->size();

  // Shared aggregation state: one slot per grid entry, filled as shard
  // sub-batches complete (on their mux reader threads).
  struct BatchState {
    std::mutex M;
    std::vector<Value> Slots;
    size_t Remaining = 0;
  };
  auto St = std::make_shared<BatchState>();
  St->Slots.resize(N);

  // Partition entries across the ring by each source's content hash.
  std::map<unsigned, std::vector<size_t>> Groups;
  for (size_t I = 0; I != N; ++I) {
    const Value &Entry = Sources->at(I);
    const Value *Src = Entry.isObject() ? Entry.get("source") : nullptr;
    if (!Src || !Src->isString()) {
      St->Slots[I] = server::errorResponse(
          "compile_batch: entry is missing string member 'source'");
      continue;
    }
    ContentHash H;
    H.updateField(Src->asString());
    int Idx = shardIndexForKey(H.hex());
    if (Idx < 0) {
      MShardUnavailable.inc();
      St->Slots[I] = server::errorResponseCode("shard_unavailable",
                                               "no shards available");
      continue;
    }
    Groups[static_cast<unsigned>(Idx)].push_back(I);
  }

  auto assembleAndRelay = [L, Id = R.Id, St, TraceId = R.TraceId] {
    Value Results = Value::array();
    for (Value &S : St->Slots)
      Results.push(std::move(S));
    Value Resp = Value::object();
    Resp.set("ok", Value::boolean(true));
    Resp.set("results", std::move(Results));
    L->reply(std::move(Resp), TraceId, Id);
  };

  if (Groups.empty()) {
    assembleAndRelay();
    return;
  }
  St->Remaining = Groups.size();

  int TimeoutMs = Config.RequestTimeoutMs;
  if (const Value *T = Request.get("timeout_ms"))
    if (T->isNumber() && T->asNumber() >= 1)
      TimeoutMs = static_cast<int>(T->asNumber());

  for (auto &G : Groups) {
    unsigned ShardIdx = G.first;
    std::vector<size_t> Indices = G.second;
    Shard &S = *Shards[ShardIdx];

    Value Sub = Value::object();
    Sub.set("op", Value::string("compile_batch"));
    if (const Value *Trace = Request.get("trace_id"))
      Sub.set("trace_id", *Trace);
    Value SubSources = Value::array();
    for (size_t I : Indices)
      SubSources.push(Sources->at(I));
    Sub.set("sources", std::move(SubSources));

    MRequestsRouted.inc();
    S.Requests->inc();

    auto OnDone = [this, St, Indices, assembleAndRelay](Value Resp) {
      bool Last = false;
      {
        std::lock_guard<std::mutex> Lock(St->M);
        const Value *Results =
            Resp.getBool("ok") ? Resp.get("results") : nullptr;
        for (size_t K = 0; K != Indices.size(); ++K) {
          if (Results && Results->isArray() && K < Results->size()) {
            St->Slots[Indices[K]] = Results->at(K);
          } else {
            // Whole-sub-batch failure (shard_unavailable, timeout, ...):
            // every entry routed there reports the same structured error.
            Value E = Resp;
            E.remove("id");
            if (!E.isObject() || E.getBool("ok"))
              E = server::errorResponseCode("shard_unavailable",
                                            "shard response malformed");
            St->Slots[Indices[K]] = std::move(E);
            if (K == 0)
              MRequestsFailed.inc();
          }
        }
        Last = --St->Remaining == 0;
      }
      if (Last)
        assembleAndRelay();
    };

    uint64_t Ticket =
        S.Mux.submit(std::move(Sub), TimeoutMs + 2000, OnDone);
    if (Ticket == 0)
      OnDone(server::errorResponseCode(
          "shard_unavailable",
          "shard " + std::to_string(ShardIdx) + " unavailable"));
  }
}

//===----------------------------------------------------------------------===//
// Aggregated control plane
//===----------------------------------------------------------------------===//

/// {"op": Op}, the shape of every control-op fan-out request.
static Value opRequest(const char *Op) {
  Value Req = Value::object();
  Req.set("op", Value::string(Op));
  return Req;
}

std::vector<Value>
Router::fanOut(const std::function<Value(unsigned)> &RequestFor) {
  std::vector<Value> Replies(Shards.size());
  for (unsigned I = 0; I != Shards.size(); ++I) {
    Shard &S = *Shards[I];
    if (!S.Up.load(std::memory_order_acquire))
      continue;
    Value Resp = S.Mux.request(RequestFor(I), 2000);
    if (!Resp.getBool("ok"))
      continue;
    Resp.remove("id");
    Resp.remove("trace_id");
    Replies[I] = std::move(Resp);
  }
  return Replies;
}

json::Value Router::aggregatedStats() {
  std::vector<Value> Replies = fanOut([](unsigned) { return opRequest("stats"); });
  Value R = Value::object();
  R.set("ok", Value::boolean(true));
  R.set("fleet", Reg.toJson());

  double Hits = 0, Misses = 0, Compiles = 0, Batches = 0, Calls = 0,
         Received = 0, EnginesCreated = 0, WarmHits = 0;
  Value ShardsArr = Value::array();
  for (unsigned I = 0; I != Shards.size(); ++I) {
    Value SJ = Value::object();
    SJ.set("index", Value::number(I));
    SJ.set("socket", Value::string(Shards[I]->Cfg.SocketPath));
    SJ.set("up", Value::boolean(shardUp(I)));
    Value &Resp = Replies[I];
    if (!Resp.isNull()) {
      Hits += Resp.getNumber("jit_cache_hits");
      Misses += Resp.getNumber("jit_cache_misses");
      Compiles += Resp.getNumber("compile_requests");
      Batches += Resp.getNumber("compile_batch_requests");
      Calls += Resp.getNumber("call_requests");
      Received += Resp.getNumber("requests_received");
      EnginesCreated += Resp.getNumber("engines_created");
      WarmHits += Resp.getNumber("engine_warm_hits");
      SJ.set("stats", std::move(Resp));
    }
    ShardsArr.push(std::move(SJ));
  }
  R.set("shards", std::move(ShardsArr));

  // Fleet-wide cache effectiveness: with a shared TERRACPP_CACHE_DIR, a
  // kernel promoted on one shard shows up as jit_cache_hits on every other
  // shard that compiles the same content hash.
  Value Agg = Value::object();
  Agg.set("jit_cache_hits", Value::number(Hits));
  Agg.set("jit_cache_misses", Value::number(Misses));
  double Total = Hits + Misses;
  Agg.set("jit_cache_hit_rate", Value::number(Total > 0 ? Hits / Total : 0));
  Agg.set("compile_requests", Value::number(Compiles));
  Agg.set("compile_batch_requests", Value::number(Batches));
  Agg.set("call_requests", Value::number(Calls));
  Agg.set("requests_received", Value::number(Received));
  Agg.set("engines_created", Value::number(EnginesCreated));
  Agg.set("engine_warm_hits", Value::number(WarmHits));
  R.set("aggregate", std::move(Agg));
  return R;
}

json::Value Router::aggregatedMetrics() {
  std::vector<Value> Replies =
      fanOut([](unsigned) { return opRequest("metrics"); });
  Value R = Value::object();
  R.set("ok", Value::boolean(true));
  R.set("fleet", Reg.toJson());
  Value ShardsArr = Value::array();
  for (unsigned I = 0; I != Shards.size(); ++I) {
    Value SJ = Value::object();
    SJ.set("index", Value::number(I));
    SJ.set("up", Value::boolean(shardUp(I)));
    if (!Replies[I].isNull())
      SJ.set("metrics", std::move(Replies[I]));
    ShardsArr.push(std::move(SJ));
  }
  R.set("shards", std::move(ShardsArr));
  return R;
}

/// Appends one process's trace_dump payload ({pid, process_name, events})
/// to a Chrome traceEvents array: a ph:"M" process_name metadata event for
/// the lane label, then every span as a ph:"X" complete event with its
/// timestamp shifted by \p OffsetUs onto the merger's clock.
static void appendProcessEvents(Value &TraceEvents, const Value &Dump,
                                int64_t OffsetUs) {
  double Pid = Dump.getNumber("pid");
  std::string Name = Dump.getString("process_name");
  if (!Name.empty()) {
    Value Meta = Value::object();
    Meta.set("name", Value::string("process_name"));
    Meta.set("ph", Value::string("M"));
    Meta.set("pid", Value::number(Pid));
    Value MArgs = Value::object();
    MArgs.set("name", Value::string(Name));
    Meta.set("args", std::move(MArgs));
    TraceEvents.push(std::move(Meta));
  }
  const Value *Events = Dump.get("events");
  if (!Events || !Events->isArray())
    return;
  for (const Value &E : Events->elements()) {
    Value V = Value::object();
    V.set("name", Value::string(E.getString("name")));
    V.set("cat", Value::string(E.getString("cat", "terracpp")));
    V.set("ph", Value::string("X"));
    double Ts = E.getNumber("ts") - static_cast<double>(OffsetUs);
    V.set("ts", Value::number(Ts < 0 ? 0 : Ts));
    V.set("dur", Value::number(E.getNumber("dur")));
    V.set("pid", Value::number(Pid));
    V.set("tid", Value::number(E.getNumber("tid")));
    if (const Value *Args = E.get("args"))
      V.set("args", *Args);
    TraceEvents.push(std::move(V));
  }
}

json::Value Router::mergedTraceJson() {
  Value TraceEvents = Value::array();
  // The router's own lane needs no shifting: its dumpAbsolute timestamps
  // already are the reference clock.
  appendProcessEvents(TraceEvents, trace::Recorder::global().dumpAbsolute(),
                      /*OffsetUs=*/0);
  std::vector<Value> Dumps =
      fanOut([](unsigned) { return opRequest("trace_dump"); });
  for (unsigned I = 0; I != Shards.size(); ++I) {
    if (Dumps[I].isNull())
      continue;
    Shard &S = *Shards[I];
    int64_t Off = S.ClockAligned.load(std::memory_order_acquire)
                      ? S.ClockOffsetUs.load(std::memory_order_acquire)
                      : 0;
    appendProcessEvents(TraceEvents, Dumps[I], Off);
  }
  Value R = Value::object();
  R.set("traceEvents", std::move(TraceEvents));
  R.set("displayTimeUnit", Value::string("ms"));
  return R;
}

json::Value Router::aggregatedMetricsText(const Value &Request) {
  std::vector<telemetry::PromLabel> Labels;
  Labels.emplace_back("process", "terrafleet");
  Labels.emplace_back("pid", std::to_string(::getpid()));
  Value ClientLabels = Value::object();
  if (const Value *L = Request.get("labels"); L && L->isObject()) {
    ClientLabels = *L;
    for (const auto &M : L->members())
      if (M.second.isString() && M.first != "process" && M.first != "pid" &&
          M.first != "shard")
        Labels.emplace_back(M.first, M.second.asString());
  }

  std::vector<std::string> Parts;
  Parts.push_back(telemetry::toPrometheusText(Reg, Labels));
  // The shard stamps its own {process,pid}; the router adds the shard index
  // (plus any client labels) so one scrape distinguishes lanes.
  for (Value &Resp : fanOut([&](unsigned I) {
         Value Req = opRequest("metrics_text");
         Value ShardLabels = ClientLabels;
         ShardLabels.set("shard", Value::string(std::to_string(I)));
         Req.set("labels", std::move(ShardLabels));
         return Req;
       }))
    if (std::string Text = Resp.getString("text"); !Text.empty())
      Parts.push_back(std::move(Text));
  Value R = Value::object();
  R.set("ok", Value::boolean(true));
  R.set("content_type", Value::string("text/plain; version=0.0.4"));
  R.set("text", Value::string(telemetry::mergeExpositions(Parts)));
  return R;
}

json::Value Router::aggregatedProfile(const Value &Request) {
  Value Req = opRequest("profile");
  if (const Value *H = Request.get("handle"))
    Req.set("handle", *H);
  std::vector<Value> Replies = fanOut([&](unsigned) { return Req; });
  Value Components = Value::object();
  for (unsigned I = 0; I != Shards.size(); ++I) {
    const Value *C = Replies[I].get("components");
    if (!C || !C->isObject())
      continue;
    // Component hashes are content-derived, so cross-shard collisions are
    // the same generated code; counters differ per shard, and annotating
    // the source shard keeps both visible.
    for (const auto &M : C->members()) {
      Value Entry = M.second;
      Entry.set("shard", Value::number(I));
      Components.set(M.first + "@" + std::to_string(I), std::move(Entry));
    }
  }
  Value R = Value::object();
  R.set("ok", Value::boolean(true));
  R.set("version", Value::number(1));
  R.set("components", std::move(Components));
  return R;
}
