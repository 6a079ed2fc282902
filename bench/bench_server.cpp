//===- bench_server.cpp - terrad service throughput and latency ----------===//
//
// Measures the kernel-compilation service (src/server, DESIGN.md §7):
//
//   * cold compile — first submission of a script: staging + typecheck +
//     C backend + load, through the socket;
//   * warm call   — invoking an already-compiled function by handle; the
//     paper's premise is that compiled Terra code runs independently of
//     the Lua runtime, so this path should be dominated by the socket
//     round trip, orders of magnitude under a compile;
//   * concurrency sweep — 1..8 clients each compiling a private kernel and
//     hammering calls; the bounded queue must drop nothing at this load.
//
// main() runs the sweep directly and writes BENCH_server.json (throughput,
// p50/p99 latency, cold-vs-warm ratio, per-client-count rows, drain
// cleanliness) before handing off to the google-benchmark suite.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Server.h"
#include "support/Telemetry.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace terracpp;
using namespace terracpp::server;
using terracpp::json::Value;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(P * (V.size() - 1) + 0.5);
  return V[std::min(Idx, V.size() - 1)];
}

std::string kernelScript(int Seed) {
  // Distinct per seed so every client compiles its own engine.
  std::string S = std::to_string(Seed);
  return "terra kern" + S + "(x: int): int\n" +
         "  var acc = x\n" +
         "  for k = 0, 32 do acc = acc + k * " + S + " end\n" +
         "  return acc\n" +
         "end\n";
}

struct SweepRow {
  int Clients = 0;
  uint64_t Requests = 0;
  uint64_t Dropped = 0;
  double Seconds = 0;
  double P50Us = 0, P99Us = 0;
};

/// C clients, each with its own connection and pre-compiled handle, issue
/// CallsPerClient calls as fast as they can.
SweepRow runSweep(const std::string &Socket, int Clients, int CallsPerClient) {
  // Compile each client's kernel up front (cold cost excluded from the row).
  std::vector<std::string> Handles(Clients);
  for (int I = 0; I != Clients; ++I) {
    Client C;
    if (!C.connect(Socket))
      return {};
    Client::CompileResult R = C.compile(kernelScript(I));
    if (!R.OK) {
      fprintf(stderr, "sweep compile failed: %s\n", R.Error.c_str());
      return {};
    }
    Handles[I] = R.Handle;
  }

  SweepRow Row;
  Row.Clients = Clients;
  std::atomic<uint64_t> Dropped{0};
  std::vector<std::vector<double>> Lat(Clients);
  double Start = nowSeconds();
  std::vector<std::thread> Threads;
  for (int T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      Client C;
      if (!C.connect(Socket)) {
        Dropped += CallsPerClient;
        return;
      }
      std::string Fn = "kern" + std::to_string(T);
      Lat[T].reserve(CallsPerClient);
      for (int I = 0; I != CallsPerClient; ++I) {
        double T0 = nowSeconds();
        Client::CallResult R = C.call(Handles[T], Fn, {Value::number(I)});
        if (!R.OK)
          ++Dropped;
        else
          Lat[T].push_back((nowSeconds() - T0) * 1e6);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Row.Seconds = nowSeconds() - Start;
  Row.Requests = static_cast<uint64_t>(Clients) * CallsPerClient;
  Row.Dropped = Dropped.load();

  std::vector<double> All;
  for (const std::vector<double> &L : Lat)
    All.insert(All.end(), L.begin(), L.end());
  Row.P50Us = percentile(All, 0.50);
  Row.P99Us = percentile(All, 0.99);
  return Row;
}

//===----------------------------------------------------------------------===//
// Shared server for the google-benchmark section
//===----------------------------------------------------------------------===//

std::string GSocket;

void BM_ServerWarmCall(benchmark::State &State) {
  Client C;
  if (!C.connect(GSocket)) {
    State.SkipWithError("connect failed");
    return;
  }
  Client::CompileResult R = C.compile(kernelScript(9000));
  if (!R.OK) {
    State.SkipWithError("compile failed");
    return;
  }
  int I = 0;
  for (auto _ : State) {
    Client::CallResult Call = C.call(R.Handle, "kern9000", {Value::number(I++)});
    if (!Call.OK)
      State.SkipWithError("call failed");
    benchmark::DoNotOptimize(Call.Result);
  }
}
BENCHMARK(BM_ServerWarmCall);

void BM_ServerPing(benchmark::State &State) {
  Client C;
  if (!C.connect(GSocket)) {
    State.SkipWithError("connect failed");
    return;
  }
  for (auto _ : State)
    if (!C.ping())
      State.SkipWithError("ping failed");
}
BENCHMARK(BM_ServerPing);

} // namespace

int main(int argc, char **argv) {
  // Private socket + compile cache: cold numbers must not be poisoned by a
  // previous run's on-disk cache.
  char Template[] = "/tmp/terracpp-benchsrv-XXXXXX";
  std::string Dir = mkdtemp(Template);
  setenv("TERRACPP_CACHE_DIR", (Dir + "/cache").c_str(), 1);

  ServerConfig Config;
  Config.SocketPath = Dir + "/terrad.sock";
  Config.Workers = 4;
  Config.QueueCapacity = 256;
  GSocket = Config.SocketPath;
  Server S(Config);
  std::string Err;
  if (!S.start(Err)) {
    fprintf(stderr, "server start failed: %s\n", Err.c_str());
    return 1;
  }

  Value Report = Value::object();
  Report.set("benchmark", Value::string("server"));
  Report.set("workers", Value::number(Config.Workers));
  Report.set("queue_capacity", Value::number(Config.QueueCapacity));

  // Cold compile vs warm call: the service's reason to exist.
  {
    Client C;
    if (!C.connect(GSocket)) {
      fprintf(stderr, "connect failed: %s\n", C.error().c_str());
      return 1;
    }
    double T0 = nowSeconds();
    Client::CompileResult R = C.compile(kernelScript(12345));
    double ColdSeconds = nowSeconds() - T0;
    if (!R.OK) {
      fprintf(stderr, "cold compile failed: %s\n%s\n", R.Error.c_str(),
              R.Diagnostics.c_str());
      return 1;
    }
    std::vector<double> CallUs;
    for (int I = 0; I != 200; ++I) {
      double C0 = nowSeconds();
      Client::CallResult Call = C.call(R.Handle, "kern12345", {Value::number(I)});
      if (!Call.OK) {
        fprintf(stderr, "warm call failed: %s\n", Call.Error.c_str());
        return 1;
      }
      if (I >= 20) // Skip warmup.
        CallUs.push_back((nowSeconds() - C0) * 1e6);
    }
    double WarmP50 = percentile(CallUs, 0.50);
    Report.set("cold_compile_seconds", Value::number(ColdSeconds));
    Report.set("warm_call_p50_us", Value::number(WarmP50));
    Report.set("warm_call_p99_us", Value::number(percentile(CallUs, 0.99)));
    Report.set("cold_over_warm",
               Value::number(WarmP50 > 0 ? ColdSeconds * 1e6 / WarmP50 : 0));
  }

  // Concurrency sweep: 1..8 clients, zero dropped requests required.
  Value Rows = Value::array();
  bool ZeroDropped = true;
  for (int Clients : {1, 2, 4, 8}) {
    SweepRow Row = runSweep(GSocket, Clients, 100);
    ZeroDropped &= Row.Requests > 0 && Row.Dropped == 0;
    Value J = Value::object();
    J.set("clients", Value::number(Row.Clients));
    J.set("requests", Value::number(Row.Requests));
    J.set("dropped", Value::number(Row.Dropped));
    J.set("seconds", Value::number(Row.Seconds));
    J.set("throughput_rps",
          Value::number(Row.Seconds > 0 ? Row.Requests / Row.Seconds : 0));
    J.set("call_p50_us", Value::number(Row.P50Us));
    J.set("call_p99_us", Value::number(Row.P99Us));
    Rows.push(std::move(J));
  }
  Report.set("sweep", std::move(Rows));
  Report.set("zero_dropped", Value::boolean(ZeroDropped));

  Server::Stats Stats = S.stats();
  Report.set("requests_completed", Value::number(Stats.RequestsCompleted));
  Report.set("requests_rejected", Value::number(Stats.RequestsRejected));
  Report.set("requests_timed_out", Value::number(Stats.RequestsTimedOut));
  Report.set("engines_created", Value::number(Stats.EnginesCreated));
  Report.set("engines_evicted", Value::number(Stats.EnginesEvicted));

  // The google-benchmark section reuses the live server.
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Drain and record that shutdown completed cleanly.
  S.requestShutdown();
  S.wait();
  Report.set("drained_clean", Value::boolean(S.stats().DrainedClean));
  // Full server telemetry (per-op latency histograms, queue waits) plus the
  // process-wide registry; the registries outlive the drain.
  Report.set("telemetry", S.metrics().toJson());
  Report.set("process_telemetry", telemetry::Registry::global().toJson());

  if (!(std::ofstream("BENCH_server.json") << Report.dump() << "\n"))
    fprintf(stderr, "cannot write BENCH_server.json\n");
  fprintf(stderr, "BENCH_server.json: %s\n", Report.dump().c_str());

  std::string Cleanup = "rm -rf " + Dir;
  (void)!system(Cleanup.c_str());
  return 0;
}
