//===- bench_fleet.cpp - terrafleet routing tier throughput --------------===//
//
// Measures the sharded routing tier (src/fleet, DESIGN.md §12):
//
//   * pipelined vs blocking — requests through the router with a fixed
//     2 ms of shard-side service latency (the protocol's delay_ms knob,
//     standing in for real op latency), one blocking client vs a MuxClient
//     holding 8 requests in flight on one connection. Blocking pays the
//     full latency per request; pipelining overlaps it across the fleet's
//     worker pools, and the acceptance bar is >=2x blocking throughput.
//     A second row repeats the comparison with warm calls (CPU-bound, so
//     single-core hosts report ~1x there by construction);
//   * compile_batch vs sequential — an autotuner-style grid of distinct
//     kernels shipped in one frame and fanned across the ring, vs the same
//     grid compiled one request at a time;
//   * fleet-warm compile — a source cold-compiled on one shard is a disk
//     cache hit on every other shard through the shared TERRACPP_CACHE_DIR;
//   * shard scaling — the same compile grid against a 1-shard and a 3-shard
//     fleet (on a single-core host the expected gain is ~1x; the row exists
//     so multi-core machines show the real curve).
//
// main() writes BENCH_fleet.json before handing off to google-benchmark.
//
//===----------------------------------------------------------------------===//

#include "fleet/MuxClient.h"
#include "fleet/Router.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/Trace.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace terracpp;
using namespace terracpp::fleet;
using terracpp::json::Value;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string kernelScript(int Seed) {
  std::string S = std::to_string(Seed);
  return "terra fk" + S + "(x: int): int\n" +
         "  var acc = x\n" +
         "  for k = 0, 32 do acc = acc + k * " + S + " end\n" +
         "  return acc\n" +
         "end\n";
}

/// N in-process shards behind one router, all sharing one cache dir.
struct Fleet {
  std::string Dir;
  std::vector<std::unique_ptr<server::Server>> Servers;
  std::unique_ptr<Router> R;

  bool start(unsigned NumShards) {
    char Template[] = "/tmp/terracpp-benchfleet-XXXXXX";
    Dir = mkdtemp(Template);
    setenv("TERRACPP_CACHE_DIR", (Dir + "/cache").c_str(), 1);
    RouterConfig RC;
    for (unsigned I = 0; I != NumShards; ++I) {
      server::ServerConfig SC;
      SC.SocketPath = Dir + "/shard" + std::to_string(I) + ".sock";
      SC.Workers = 8; // Delayed pings park a worker each; give them room.
      SC.QueueCapacity = 512;
      auto S = std::make_unique<server::Server>(SC);
      std::string Err;
      if (!S->start(Err)) {
        fprintf(stderr, "shard start failed: %s\n", Err.c_str());
        return false;
      }
      Servers.push_back(std::move(S));
      ShardConfig Sh;
      Sh.SocketPath = SC.SocketPath;
      RC.Shards.push_back(Sh);
    }
    RC.FrontSocket = Dir + "/fleet.sock";
    RC.ConnectAttempts = 10;
    R = std::make_unique<Router>(RC);
    std::string Err;
    if (!R->start(Err)) {
      fprintf(stderr, "router start failed: %s\n", Err.c_str());
      return false;
    }
    return true;
  }

  const std::string &front() const { return R->config().FrontSocket; }

  void stop() {
    if (R) {
      R->requestShutdown();
      R->wait();
      R.reset();
    }
    Servers.clear();
    std::string Cmd = "rm -rf " + Dir;
    (void)!system(Cmd.c_str());
  }
};

Value delayedPing(int DelayMs) {
  Value Req = Value::object();
  Req.set("op", Value::string("ping"));
  Req.set("delay_ms", Value::number(DelayMs));
  return Req;
}

/// Delayed pings through the front, one at a time on a blocking client.
double blockingPingRps(const std::string &Front, int DelayMs, int Count) {
  server::Client C;
  if (!C.connect(Front))
    return 0;
  double T0 = nowSeconds();
  for (int I = 0; I != Count; ++I) {
    Value Resp = C.request(delayedPing(DelayMs));
    if (!Resp.getBool("ok")) {
      fprintf(stderr, "blocking ping failed: %s\n",
              Resp.getString("error").c_str());
      return 0;
    }
  }
  return Count / (nowSeconds() - T0);
}

/// Same pings with \p Window in flight on one MuxClient connection.
double pipelinedPingRps(const std::string &Front, int DelayMs, int Count,
                        unsigned Window) {
  MuxClient::Options O;
  O.MaxInFlight = Window;
  MuxClient Mux(O);
  if (!Mux.connect(Front))
    return 0;
  std::mutex M;
  std::condition_variable CV;
  int Done = 0;
  std::atomic<int> Failed{0};
  double T0 = nowSeconds();
  for (int I = 0; I != Count; ++I) {
    uint64_t Ticket = Mux.submit(delayedPing(DelayMs), 30000, [&](Value Resp) {
      if (!Resp.getBool("ok"))
        ++Failed;
      std::lock_guard<std::mutex> Lock(M);
      ++Done;
      CV.notify_one();
    });
    if (Ticket == 0)
      ++Failed;
  }
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Done + Failed.load() >= Count; });
  }
  double Rps = Count / (nowSeconds() - T0);
  Mux.close();
  if (Failed.load()) {
    fprintf(stderr, "pipelined ping: %d failed\n", Failed.load());
    return 0;
  }
  return Rps;
}

/// Warm calls through the front, one at a time on a blocking client.
double blockingCallsRps(const std::string &Front, const std::string &Handle,
                        const std::string &Fn, int Calls) {
  server::Client C;
  if (!C.connect(Front))
    return 0;
  double T0 = nowSeconds();
  for (int I = 0; I != Calls; ++I) {
    server::Client::CallResult R = C.call(Handle, Fn, {Value::number(I)});
    if (!R.OK) {
      fprintf(stderr, "blocking call failed: %s\n", R.Error.c_str());
      return 0;
    }
  }
  return Calls / (nowSeconds() - T0);
}

/// Same calls through a MuxClient with \p Window requests in flight.
double pipelinedCallsRps(const std::string &Front, const std::string &Handle,
                         const std::string &Fn, int Calls, unsigned Window) {
  MuxClient::Options O;
  O.MaxInFlight = Window;
  MuxClient Mux(O);
  if (!Mux.connect(Front))
    return 0;
  std::mutex M;
  std::condition_variable CV;
  int Done = 0;
  std::atomic<int> Failed{0};
  double T0 = nowSeconds();
  for (int I = 0; I != Calls; ++I) {
    Value Req = Value::object();
    Req.set("op", Value::string("call"));
    Req.set("handle", Value::string(Handle));
    Req.set("fn", Value::string(Fn));
    Value Args = Value::array();
    Args.push(Value::number(I));
    Req.set("args", std::move(Args));
    uint64_t Ticket = Mux.submit(std::move(Req), 30000, [&](Value Resp) {
      if (!Resp.getBool("ok"))
        ++Failed;
      std::lock_guard<std::mutex> Lock(M);
      ++Done;
      CV.notify_one();
    });
    if (Ticket == 0)
      ++Failed;
  }
  {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Done + Failed.load() >= Calls; });
  }
  double Rps = Calls / (nowSeconds() - T0);
  Mux.close();
  if (Failed.load()) {
    fprintf(stderr, "pipelined: %d calls failed\n", Failed.load());
    return 0;
  }
  return Rps;
}

/// Compiles \p Seeds one blocking request at a time; seconds elapsed.
double sequentialCompileSeconds(const std::string &Front,
                                const std::vector<int> &Seeds) {
  server::Client C;
  if (!C.connect(Front))
    return 0;
  double T0 = nowSeconds();
  for (int Seed : Seeds) {
    server::Client::CompileResult R = C.compile(kernelScript(Seed));
    if (!R.OK) {
      fprintf(stderr, "sequential compile failed: %s\n", R.Error.c_str());
      return 0;
    }
  }
  return nowSeconds() - T0;
}

/// Ships the whole grid as one compile_batch frame; seconds elapsed.
double batchCompileSeconds(const std::string &Front,
                           const std::vector<int> &Seeds, bool &AllOK) {
  server::Client C;
  AllOK = false;
  if (!C.connect(Front))
    return 0;
  Value Req = Value::object();
  Req.set("op", Value::string("compile_batch"));
  Value Arr = Value::array();
  for (int Seed : Seeds) {
    Value E = Value::object();
    E.set("source", Value::string(kernelScript(Seed)));
    Arr.push(std::move(E));
  }
  Req.set("sources", std::move(Arr));
  double T0 = nowSeconds();
  Value Resp = C.request(Req);
  double Seconds = nowSeconds() - T0;
  const Value *Results = Resp.get("results");
  AllOK = Resp.getBool("ok") && Results && Results->isArray() &&
          Results->size() == Seeds.size();
  if (AllOK)
    for (size_t I = 0; I != Results->size(); ++I)
      AllOK = AllOK && Results->at(I).getBool("ok");
  if (!AllOK)
    fprintf(stderr, "batch compile failed: %s\n",
            Resp.getString("error").c_str());
  return Seconds;
}

//===----------------------------------------------------------------------===//
// google-benchmark section (reuses the main fleet)
//===----------------------------------------------------------------------===//

std::string GFront;
std::string GHandle;
std::string GFn;

void BM_FleetWarmCall(benchmark::State &State) {
  server::Client C;
  if (!C.connect(GFront)) {
    State.SkipWithError("connect failed");
    return;
  }
  int I = 0;
  for (auto _ : State) {
    server::Client::CallResult R = C.call(GHandle, GFn, {Value::number(I++)});
    if (!R.OK)
      State.SkipWithError("call failed");
    benchmark::DoNotOptimize(R.Result);
  }
}
BENCHMARK(BM_FleetWarmCall);

void BM_FleetFrontPing(benchmark::State &State) {
  server::Client C;
  if (!C.connect(GFront)) {
    State.SkipWithError("connect failed");
    return;
  }
  for (auto _ : State)
    if (!C.ping())
      State.SkipWithError("ping failed");
}
BENCHMARK(BM_FleetFrontPing);

} // namespace

int main(int argc, char **argv) {
  Value Report = Value::object();
  Report.set("benchmark", Value::string("fleet"));

  Fleet F;
  if (!F.start(3))
    return 1;
  Report.set("shards", Value::number(3));

  // One warm kernel for the call-path comparison.
  std::string Handle, Fn = "fk777";
  {
    server::Client C;
    if (!C.connect(F.front())) {
      fprintf(stderr, "front connect failed: %s\n", C.error().c_str());
      return 1;
    }
    server::Client::CompileResult R = C.compile(kernelScript(777));
    if (!R.OK) {
      fprintf(stderr, "compile failed: %s\n%s\n", R.Error.c_str(),
              R.Diagnostics.c_str());
      return 1;
    }
    Handle = R.Handle;
    // Warm up the call path so neither mode pays first-call costs.
    for (int I = 0; I != 20; ++I)
      C.call(Handle, Fn, {Value::number(I)});
  }

  // Pipelined vs blocking with 2 ms shard-side service latency (the >=2x
  // acceptance bar). Blocking serializes the latency; the 8-deep window
  // overlaps it across the shards' worker pools.
  constexpr unsigned Window = 8;
  {
    constexpr int DelayMs = 2;
    constexpr int Count = 400;
    double BlockingRps = blockingPingRps(F.front(), DelayMs, Count);
    double PipelinedRps = pipelinedPingRps(F.front(), DelayMs, Count, Window);
    Value J = Value::object();
    J.set("requests", Value::number(Count));
    J.set("shard_service_latency_ms", Value::number(DelayMs));
    J.set("window", Value::number(Window));
    J.set("blocking_rps", Value::number(BlockingRps));
    J.set("pipelined_rps", Value::number(PipelinedRps));
    double Speedup = BlockingRps > 0 ? PipelinedRps / BlockingRps : 0;
    J.set("speedup", Value::number(Speedup));
    J.set("meets_2x", Value::boolean(Speedup >= 2.0));
    Report.set("pipelined_vs_blocking", std::move(J));
    fprintf(stderr, "pipelined %.0f rps vs blocking %.0f rps (%.2fx)\n",
            PipelinedRps, BlockingRps, Speedup);
  }

  // The same comparison on warm calls: pure CPU, so this row only moves on
  // multi-core hosts where the router/shard stages can truly overlap.
  {
    constexpr int Calls = 1500;
    double BlockingRps = blockingCallsRps(F.front(), Handle, Fn, Calls);
    double PipelinedRps =
        pipelinedCallsRps(F.front(), Handle, Fn, Calls, Window);
    Value J = Value::object();
    J.set("calls", Value::number(Calls));
    J.set("window", Value::number(Window));
    J.set("blocking_rps", Value::number(BlockingRps));
    J.set("pipelined_rps", Value::number(PipelinedRps));
    J.set("speedup",
          Value::number(BlockingRps > 0 ? PipelinedRps / BlockingRps : 0));
    Report.set("pipelined_vs_blocking_warm_call", std::move(J));
  }

  // Tracing overhead A/B: the same warm blocking calls with the recorder
  // off (the default — a span is one relaxed load) and with it recording.
  // In-process shards share the global recorder, so enabling it turns on
  // both router- and shard-side spans, the worst case for the hot path.
  {
    constexpr int Calls = 1500;
    double UntracedRps = blockingCallsRps(F.front(), Handle, Fn, Calls);
    trace::Recorder::global().enable("");
    double TracedRps = blockingCallsRps(F.front(), Handle, Fn, Calls);
    trace::Recorder::global().disable();
    trace::Recorder::global().clear();
    Value J = Value::object();
    J.set("calls", Value::number(Calls));
    J.set("untraced_rps", Value::number(UntracedRps));
    J.set("traced_rps", Value::number(TracedRps));
    J.set("overhead_pct",
          Value::number(UntracedRps > 0
                            ? 100.0 * (UntracedRps - TracedRps) / UntracedRps
                            : 0));
    Report.set("tracing_overhead", std::move(J));
    fprintf(stderr, "tracing A/B: untraced %.0f rps, traced %.0f rps\n",
            UntracedRps, TracedRps);
  }

  // compile_batch vs sequential compiles (distinct fresh kernels each).
  {
    std::vector<int> SeqSeeds, BatchSeeds;
    for (int I = 0; I != 9; ++I) {
      SeqSeeds.push_back(1000 + I);
      BatchSeeds.push_back(2000 + I);
    }
    double SeqSeconds = sequentialCompileSeconds(F.front(), SeqSeeds);
    bool BatchOK = false;
    double BatchSeconds = batchCompileSeconds(F.front(), BatchSeeds, BatchOK);
    Value J = Value::object();
    J.set("grid_size", Value::number(SeqSeeds.size()));
    J.set("sequential_seconds", Value::number(SeqSeconds));
    J.set("batch_seconds", Value::number(BatchSeconds));
    J.set("batch_all_ok", Value::boolean(BatchOK));
    J.set("speedup",
          Value::number(BatchSeconds > 0 ? SeqSeconds / BatchSeconds : 0));
    Report.set("compile_batch", std::move(J));
  }

  // Fleet-warm compile: cold on one shard, disk-cache hit on another shard
  // through the shared cache dir.
  {
    std::string Src = kernelScript(31337);
    server::Client A, B;
    double ColdSeconds = 0, WarmSeconds = 0;
    bool OK = A.connect(F.Dir + "/shard0.sock") &&
              B.connect(F.Dir + "/shard1.sock");
    if (OK) {
      double T0 = nowSeconds();
      server::Client::CompileResult RA = A.compile(Src);
      ColdSeconds = nowSeconds() - T0;
      OK = RA.OK;
      if (OK) {
        A.call(RA.Handle, "fk31337", {Value::number(1)}); // Publish the .so.
        double T1 = nowSeconds();
        server::Client::CompileResult RB = B.compile(Src);
        WarmSeconds = nowSeconds() - T1;
        OK = RB.OK && RB.Handle == RA.Handle;
      }
    }
    Value J = Value::object();
    J.set("ok", Value::boolean(OK));
    J.set("cold_compile_seconds", Value::number(ColdSeconds));
    J.set("fleet_warm_compile_seconds", Value::number(WarmSeconds));
    J.set("speedup",
          Value::number(WarmSeconds > 0 ? ColdSeconds / WarmSeconds : 0));
    Report.set("shared_cache", std::move(J));
  }

  // Shard scaling: the same fresh grid against 1 shard and against 3 (the
  // main fleet). Single-core hosts should report ~1x here.
  Value Scaling = Value::array();
  {
    std::vector<int> Grid3;
    for (int I = 0; I != 6; ++I)
      Grid3.push_back(3000 + I);
    double Sec3 = sequentialCompileSeconds(F.front(), Grid3);
    Fleet F1;
    double Sec1 = 0;
    if (F1.start(1)) {
      std::vector<int> Grid1;
      for (int I = 0; I != 6; ++I)
        Grid1.push_back(3000 + I); // Fresh cache dir: cold again.
      Sec1 = sequentialCompileSeconds(F1.front(), Grid1);
      F1.stop();
    }
    // F1.start switched TERRACPP_CACHE_DIR; point it back at the main fleet.
    setenv("TERRACPP_CACHE_DIR", (F.Dir + "/cache").c_str(), 1);
    Value One = Value::object(), Three = Value::object();
    One.set("shards", Value::number(1));
    One.set("grid_seconds", Value::number(Sec1));
    Three.set("shards", Value::number(3));
    Three.set("grid_seconds", Value::number(Sec3));
    Scaling.push(std::move(One));
    Scaling.push(std::move(Three));
  }
  Report.set("shard_scaling", std::move(Scaling));

  GFront = F.front();
  GHandle = Handle;
  GFn = Fn;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  Report.set("fleet_telemetry", F.R->metrics().toJson());
  F.stop();

  if (!(std::ofstream("BENCH_fleet.json") << Report.dump() << "\n"))
    fprintf(stderr, "cannot write BENCH_fleet.json\n");
  fprintf(stderr, "BENCH_fleet.json: %s\n", Report.dump().c_str());
  return 0;
}
