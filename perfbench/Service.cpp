//===- Service.cpp - The fleet under a call/compile mix -------------------===//
//
// Two terrad shards (one worker and an LRU of 6 engines each) share one
// private cache directory behind an in-process fleet::Router, in front of
// 12 warm handles, 6 owned by each shard. Every step of the phase is one
// window of two measurements on one MuxClient connection to the router:
//
//   open loop   100 requests offered at 200 per second on a schedule that
//               ignores the replies; every latency is taken from the moment
//               the request was due. compile_ms_p50 comes from here.
//   closed loop warm calls kept 8 deep (the in-flight window bench_fleet
//               measures the mux with) for 200 ms; call_rps is the median
//               over windows of the calls completed per second.
//
// No recorded traffic exists for terrad, so the open-loop mix is synthetic.
// Each proportion has a reason:
//   - 97 calls per window, over handles drawn with 1/k popularity: serving
//     calls on compiled handles is what the daemon is for (a warm call is
//     ~2400x cheaper than a cold compile, EXPERIMENTS.md), and a few hot
//     kernels taking most calls is the usual skew.
//   - 1 repeat compile of a known script: a client restarting and
//     re-submitting; served from the engine LRU or the shared disk cache.
//   - 2 fresh compiles (cc), at fixed positions: one cold compile costs
//     ~40-55 ms (EXPERIMENTS.md: 38-39 ms), so 4 per second keep each
//     shard's only worker about 10% busy. That is far from saturation even
//     if cc runs twice as slow, yet every fresh compile also evicts the
//     least recently used engine, which a later call re-creates from disk.
//   - 200 requests per second: set by that compile budget, not by call
//     capacity (terrad serves one client ~46k warm calls/s, EXPERIMENTS.md).
// The open-loop call latencies themselves (p50 ~0.4-1 ms, p99 ~ one cc
// run) follow the host's scheduling of idle threads and of cc more than
// the code, so they go to the results document, not the metrics.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "fleet/MuxClient.h"
#include "fleet/Router.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace perfbench;
using namespace terracpp;
using json::Value;

namespace {

constexpr unsigned NumShards = 2;
constexpr unsigned NumHandles = 12;
constexpr int TimeoutMs = 10000;
constexpr unsigned BurstInFlight = 8;
constexpr double BurstMs = 200;

std::string scriptFor(int Salt) {
  std::string S = std::to_string(Salt);
  return "terra f" + S + "(x: int): int\n"
         "  var acc = x\n"
         "  for k = 0, 32 do acc = acc + k * " + S + " end\n"
         "  return acc\n"
         "end\n";
}
double expectedFor(int Salt, int X) { return X + 496.0 * Salt; }

Value compileRequest(int Salt) {
  Value Req = Value::object();
  Req.set("op", Value::string("compile"));
  Req.set("source", Value::string(scriptFor(Salt)));
  Req.set("name", Value::string("svc" + std::to_string(Salt)));
  return Req;
}

Value callRequest(const std::string &Handle, int Salt, int X) {
  Value Req = Value::object();
  Req.set("op", Value::string("call"));
  Req.set("handle", Value::string(Handle));
  Req.set("fn", Value::string("f" + std::to_string(Salt)));
  Value Args = Value::array();
  Args.push(Value::number(X));
  Req.set("args", std::move(Args));
  return Req;
}

struct Handle {
  int Salt = 0;
  std::string Id;
};

/// One open-loop request's outcome, filled on the MuxClient reader thread.
struct Outcome {
  bool IsCall = false;
  double LatencyUs = 0;
  bool OK = false;
  std::string Error;
};

class ServicePhase : public Phase {
public:
  ServicePhase(const Options &O, std::string CacheDir)
      : O(O), CacheDir(std::move(CacheDir)),
        G(O.Seed * 0x94d049bb133111ebull + 7) {}

  ~ServicePhase() override {
    Front.close();
    for (auto &D : Direct)
      D->close();
    if (R) {
      R->requestShutdown();
      R->wait();
    }
    for (DaemonProcess &P : Shards) {
      P.terminate();
      if (P.waitExit(5000) < 0)
        P.terminate(9);
      P.waitExit(2000);
    }
  }

  bool setup(Report &Rep) override {
    static unsigned Instance = 0;
    std::string Prefix =
        O.WorkDir + "/svc" + std::to_string(Instance++) + "-";
    fleet::RouterConfig RC;
    RC.FrontSocket = Prefix + "front.sock";
    RC.ConnectAttempts = 100;
    Shards.resize(NumShards);
    for (unsigned I = 0; I != NumShards; ++I) {
      std::string Sock = Prefix + std::to_string(I) + ".sock";
      std::string Err;
      if (!Shards[I].spawn({O.BinDir + "/terrad", "--socket", Sock,
                            "--workers", "1", "--max-engines", "6", "--queue",
                            "256", "--slow-ms", "0", "--log-level", "warn",
                            "--quiet"},
                           {"TERRACPP_CACHE_DIR=" + CacheDir}, Err)) {
        Rep.failed("service: spawning terrad failed: " + Err);
        return false;
      }
      fleet::ShardConfig SC;
      SC.SocketPath = Sock;
      RC.Shards.push_back(SC);
    }
    R = std::make_unique<fleet::Router>(RC);
    std::string Err;
    if (!R->start(Err) || !Front.connect(RC.FrontSocket)) {
      Rep.failed("service: router failed to start: " + Err);
      return false;
    }
    for (unsigned I = 0; I != NumShards; ++I) {
      Direct.push_back(std::make_unique<fleet::MuxClient>());
      if (!Direct.back()->connect(RC.Shards[I].SocketPath)) {
        Rep.failed("service: cannot reach shard " + std::to_string(I));
        return false;
      }
    }

    // The warm handle set, compiled concurrently through the router until
    // each shard owns the same number. Handles alternate between shards in
    // popularity order, so both shards see the same skew whatever the
    // seed's hashes are.
    Rng Draw(O.Seed * 0xd1b54a32d192ed03ull + 5);
    NextSalt = Draw.range(1000, 60000);
    std::vector<Handle> Owned[NumShards];
    for (unsigned Missing = NumHandles; Missing;) {
      std::vector<std::pair<int, uint64_t>> Tickets;
      for (unsigned I = 0; I != Missing; ++I) {
        int Salt = NextSalt++;
        Tickets.push_back({Salt, Front.submit(compileRequest(Salt), TimeoutMs)});
      }
      for (auto &[Salt, Ticket] : Tickets) {
        Value Resp;
        if (!Ticket || !Front.await(Ticket, Resp) || !Resp.getBool("ok")) {
          Rep.failed("service: warm-set compile failed: " +
                     Resp.getString("error"));
          return false;
        }
        std::string Id = Resp.getString("handle");
        int Shard = R->shardIndexForKey(Id);
        if (Shard >= 0 && Owned[Shard].size() < NumHandles / NumShards)
          Owned[Shard].push_back({Salt, Id});
      }
      Missing = 0;
      for (const auto &V : Owned)
        Missing += NumHandles / NumShards - static_cast<unsigned>(V.size());
    }
    for (unsigned K = 0; K != NumHandles; ++K)
      Handles.push_back(Owned[K % NumShards][K / NumShards]);
    return true;
  }

  unsigned steps() const override { return O.P.ServiceWindows; }

  void step(unsigned W, Report &Rep) override {
    if (W == 0)
      Before = shardCounters(Rep);
    window(Rep);
    // The traced run leaves the bursts out, so the shard counters it reads
    // describe the open-loop mix alone.
    if (!O.Trace)
      CallRps.push_back(burst(Rep));
  }

  void finish(Report &Rep) override {
    std::vector<double> CallUs, CompileMs;
    for (const Outcome &Out : Outcomes) {
      if (Out.Error == "wrong result")
        Rep.wrong("service: call returned a wrong result");
      else if (!Out.Error.empty())
        Rep.failed("service: " + Out.Error);
      if (Out.IsCall)
        CallUs.push_back(Out.LatencyUs);
      else
        CompileMs.push_back(Out.LatencyUs / 1000);
    }
    Rep.detail("open_loop_call_us_p50",
               Value::number(quantile(CallUs, 0.5)));
    Rep.detail("open_loop_call_us_p99",
               Value::number(quantile(CallUs, 0.99)));
    if (!O.Trace) {
      Rep.metric("compile_ms_p50", quantile(CompileMs, 0.5), "ms");
      Rep.metric("call_rps", median(CallRps), "1/s");
      return;
    }
    Rep.metric("gen.lag_us_p99", quantile(LagUs, 0.99), "us");
    reportLayers(Rep);
  }

private:
  /// The open loop: 100 requests at the offered rate; returns once every
  /// reply is in, so windows never overlap.
  void window(Report &Rep) {
    std::mutex M;
    std::condition_variable Done;
    std::vector<Outcome> Got;
    unsigned Submitted = 0;
    double Start = nowUs() + 2000, Interval = 1e6 / O.P.ServiceRate;
    for (unsigned I = 0; I != 100; ++I) {
      double Due = Start + I * Interval;
      // Sleep to just short of the due time, then spin: sleep overshoot
      // would otherwise add scheduler noise to every latency.
      double Now = nowUs();
      if (Due - Now > 200)
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(Due - Now - 200)));
      while (nowUs() < Due)
        ;
      LagUs.push_back(nowUs() - Due);

      bool Fresh = I % 50 == 10, Repeat = I == 72;
      bool IsCall = !Fresh && !Repeat;
      int Salt = 0, X = G.range(0, 99999);
      Value Req;
      if (IsCall) {
        const Handle &H = pickHandle();
        Salt = H.Salt;
        Req = callRequest(H.Id, Salt, X);
      } else {
        Salt = Repeat ? Handles[G.next() % NumHandles].Salt : NextSalt++;
        Req = compileRequest(Salt);
      }
      uint64_t T = Front.submit(
          std::move(Req), TimeoutMs, [&, Due, IsCall, Salt, X](Value Resp) {
            Outcome Out;
            Out.IsCall = IsCall;
            Out.LatencyUs = nowUs() - Due;
            if (!Resp.getBool("ok"))
              Out.Error = Resp.getString("code") + " " + Resp.getString("error");
            else if (IsCall && Resp.getNumber("result") != expectedFor(Salt, X))
              Out.Error = "wrong result";
            else if (!IsCall && Resp.getString("handle").empty())
              Out.Error = "compile returned no handle";
            std::lock_guard<std::mutex> Lock(M);
            Got.push_back(std::move(Out));
            Done.notify_one();
          });
      Rep.attempted();
      if (T)
        ++Submitted;
      else
        Rep.failed("service: submit failed: " + Front.error());
    }
    bool AllDone;
    {
      std::unique_lock<std::mutex> Lock(M);
      AllDone = Done.wait_for(Lock, std::chrono::milliseconds(TimeoutMs + 5000),
                              [&] { return Got.size() >= Submitted; });
    }
    // close() completes whatever is still pending, so no callback can run
    // after the locals it captures are gone.
    if (!AllDone)
      Front.close();
    std::lock_guard<std::mutex> Lock(M);
    if (Got.size() < Submitted)
      Rep.failed("service: " + std::to_string(Submitted - Got.size()) +
                 " requests never completed");
    Outcomes.insert(Outcomes.end(), Got.begin(), Got.end());
  }

  /// Closed loop: warm calls kept BurstInFlight deep for BurstMs, each
  /// sent as soon as one completes. Returns completed calls per second.
  double burst(Report &Rep) {
    std::mutex M;
    std::condition_variable Done;
    unsigned Outstanding = 0;
    double Completed = 0;
    std::vector<std::string> Errors;
    double T0 = nowUs(), End = T0 + BurstMs * 1000;
    while (nowUs() < End) {
      {
        std::unique_lock<std::mutex> Lock(M);
        Done.wait(Lock, [&] { return Outstanding < BurstInFlight; });
        ++Outstanding;
      }
      const Handle &H = pickHandle();
      int Salt = H.Salt, X = G.range(0, 99999);
      Rep.attempted();
      uint64_t T = Front.submit(
          callRequest(H.Id, Salt, X), TimeoutMs, [&, Salt, X](Value Resp) {
            std::lock_guard<std::mutex> Lock(M);
            if (!Resp.getBool("ok"))
              Errors.push_back(Resp.getString("code") + " " +
                               Resp.getString("error"));
            else if (Resp.getNumber("result") != expectedFor(Salt, X))
              Errors.push_back("wrong result");
            else
              ++Completed;
            --Outstanding;
            Done.notify_one();
          });
      if (!T) {
        std::lock_guard<std::mutex> Lock(M);
        --Outstanding;
        Errors.push_back("submit failed: " + Front.error());
      }
    }
    bool AllDone;
    {
      std::unique_lock<std::mutex> Lock(M);
      AllDone = Done.wait_for(Lock, std::chrono::milliseconds(TimeoutMs + 5000),
                              [&] { return Outstanding == 0; });
    }
    if (!AllDone)
      Front.close();
    double Sec = (nowUs() - T0) / 1e6;
    std::lock_guard<std::mutex> Lock(M);
    for (const std::string &E : Errors)
      if (E == "wrong result")
        Rep.wrong("service: burst call returned a wrong result");
      else
        Rep.failed("service: burst call: " + E);
    return Completed / Sec;
  }

  /// A warm handle, the k-th most popular with weight 1/k.
  const Handle &pickHandle() {
    double Weights = 0;
    for (unsigned K = 0; K != NumHandles; ++K)
      Weights += 1.0 / (K + 1);
    double U = G.unit() * Weights;
    unsigned K = 0;
    while (K + 1 < NumHandles && (U -= 1.0 / (K + 1)) > 0)
      ++K;
    return Handles[K];
  }

  /// Each shard's `metrics` op (the server's public interface).
  std::vector<Value> shardMetrics(Report &Rep) {
    std::vector<Value> Out;
    for (auto &D : Direct) {
      Value Req = Value::object();
      Req.set("op", Value::string("metrics"));
      Rep.attempted();
      Out.push_back(D->request(std::move(Req), TimeoutMs));
      if (!Out.back().getBool("ok"))
        Rep.failed("service: shard metrics op failed: " +
                   Out.back().getString("error"));
    }
    return Out;
  }

  static double counter(const Value &M, const std::string &Name) {
    const Value *S = M.get("server");
    const Value *C = S ? S->get("counters") : nullptr;
    return C ? C->getNumber(Name) : 0;
  }

  Value shardCounters(Report &Rep) {
    Value Sum = Value::object();
    for (const Value &M : shardMetrics(Rep))
      for (const char *N :
           {"server.engine_warm_hits", "server.compile_requests",
            "server.call_requests", "server.engines_recreated",
            "server.requests_rejected"})
        Sum.set(N, Value::number(Sum.getNumber(N) + counter(M, N)));
    return Sum;
  }

  void reportLayers(Report &Rep) {
    // Histogram quantiles cannot be merged exactly across shards: p50 is
    // the count-weighted mean of the shards' p50s, p99 the larger p99.
    auto Merge = [&](const std::vector<Value> &Ms, const std::string &H,
                     const char *Q) {
      double Acc = 0, N = 0, Max = 0;
      for (const Value &M : Ms) {
        const Value *S = M.get("server");
        const Value *Hs = S ? S->get("histograms") : nullptr;
        const Value *V = Hs ? Hs->get(H) : nullptr;
        if (!V)
          continue;
        double C = V->getNumber("count"), X = V->getNumber(Q);
        Acc += C * X;
        N += C;
        Max = std::max(Max, X);
      }
      return std::string(Q) == "p99" ? Max : (N ? Acc / N : 0);
    };
    std::vector<Value> Ms = shardMetrics(Rep);
    Rep.metric("server.queue_wait_us_p50", Merge(Ms, "server.queue_wait_us", "p50"),
               "us");
    Rep.metric("server.queue_wait_us_p99", Merge(Ms, "server.queue_wait_us", "p99"),
               "us");
    Rep.metric("server.op.call_us_p50",
               Merge(Ms, "server.op.call.latency_us", "p50"), "us");
    Rep.metric("server.op.compile_us_p50",
               Merge(Ms, "server.op.compile.latency_us", "p50"), "us");
    Value After = shardCounters(Rep);
    auto Delta = [&](const char *N) {
      return After.getNumber(N) - Before.getNumber(N);
    };
    double Requests =
        Delta("server.compile_requests") + Delta("server.call_requests");
    Rep.metric("server.engine_hit_ratio",
               Requests ? Delta("server.engine_warm_hits") / Requests : 0,
               "ratio");
    Rep.metric("server.engines_recreated", Delta("server.engines_recreated"),
               "count");
    Rep.metric("server.rejected", Delta("server.requests_rejected"), "count");

    // Route hop: the same call routed, then sent straight to the shard the
    // ring places it on, one at a time.
    Rng Pick(O.Seed + 99);
    std::vector<double> HopUs;
    for (int I = 0; I != 400; ++I) {
      const Handle &H = Handles[Pick.next() % NumHandles];
      int Shard = R->shardIndexForKey(H.Id);
      if (Shard < 0) {
        Rep.attempted();
        Rep.failed("service: no shard owns handle " + H.Id);
        continue;
      }
      double T0 = nowUs();
      Value A = Front.request(callRequest(H.Id, H.Salt, I), TimeoutMs);
      double T1 = nowUs();
      Value B = Direct[Shard]->request(callRequest(H.Id, H.Salt, I), TimeoutMs);
      double T2 = nowUs();
      bool OK = true;
      for (const Value *Resp : {&A, &B}) {
        Rep.attempted();
        if (!Resp->getBool("ok")) {
          Rep.failed("service: route-hop call failed: " +
                     Resp->getString("error"));
          OK = false;
        } else if (Resp->getNumber("result") != expectedFor(H.Salt, I)) {
          Rep.wrong("service: route-hop call returned a wrong result");
          OK = false;
        }
      }
      if (OK)
        HopUs.push_back((T1 - T0) - (T2 - T1));
    }
    Rep.metric("fleet.route_hop_us_p50", quantile(HopUs, 0.5), "us");
    Rep.metric("fleet.route_hop_us_p99", quantile(HopUs, 0.99), "us");
  }

  const Options &O;
  std::string CacheDir;
  std::vector<DaemonProcess> Shards;
  std::unique_ptr<fleet::Router> R;
  fleet::MuxClient Front;
  std::vector<std::unique_ptr<fleet::MuxClient>> Direct;
  std::vector<Handle> Handles;
  int NextSalt = 0;
  Rng G;        ///< The request mix's draws, across windows.
  Value Before; ///< Shard counters before the first window.
  std::vector<Outcome> Outcomes;
  std::vector<double> LagUs;
  std::vector<double> CallRps; ///< One closed-loop burst per window.
};

} // namespace

std::unique_ptr<Phase> perfbench::makeServicePhase(const Options &O,
                                                   const std::string &CacheDir) {
  return std::make_unique<ServicePhase>(O, CacheDir);
}
