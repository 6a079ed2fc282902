//===- test_server.cpp - terrad concurrent compilation service -----------===//
//
// Covers the kernel-compilation daemon (src/server):
//   * compile -> content-hash handle -> call round trips, warm engine reuse;
//   * compile errors return diagnostics and leave the server healthy;
//   * concurrency — 8 clients issuing interleaved compiles/calls with zero
//     dropped requests;
//   * backpressure — a full bounded queue rejects instead of blocking;
//   * per-request timeouts;
//   * engine-LRU eviction with transparent rebuild through the on-disk
//     .so cache;
//   * drain on SIGTERM and on a shutdown request: in-flight work completes,
//     responses are flushed, the socket file is removed;
//   * configuration: TERRAD_* variables are validated, and flags win.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "core/TerraBaselineJIT.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Subprocess.h"
#include "support/Trace.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace terracpp;
using namespace terracpp::server;
using terracpp::json::Value;

namespace {

/// Private scratch dir per test: holds the socket and a private compile
/// cache, so concurrently running test processes never share state.
class ServerFixture {
public:
  explicit ServerFixture(ServerConfig Config = ServerConfig()) {
    char Template[] = "/tmp/terrad-test-XXXXXX";
    Dir = mkdtemp(Template);
    const char *OldCache = getenv("TERRACPP_CACHE_DIR");
    if (OldCache)
      SavedCache = OldCache;
    HadCache = OldCache != nullptr;
    setenv("TERRACPP_CACHE_DIR", (Dir + "/cache").c_str(), 1);

    Config.SocketPath = Dir + "/terrad.sock";
    if (Config.Workers == 0)
      Config.Workers = 4;
    S = std::make_unique<Server>(Config);
    std::string Err;
    StartOK = S->start(Err);
    StartErr = Err;
  }

  ~ServerFixture() {
    S.reset(); // Drains + removes the socket.
    if (HadCache)
      setenv("TERRACPP_CACHE_DIR", SavedCache.c_str(), 1);
    else
      unsetenv("TERRACPP_CACHE_DIR");
    std::string Cmd = "rm -rf " + Dir;
    (void)!system(Cmd.c_str());
  }

  Server &server() { return *S; }
  const std::string &socket() const { return S->config().SocketPath; }

  Client client() {
    Client C;
    EXPECT_TRUE(C.connect(socket())) << C.error();
    return C;
  }

  bool StartOK = false;
  std::string StartErr;

private:
  std::string Dir;
  std::string SavedCache;
  bool HadCache = false;
  std::unique_ptr<Server> S;
};

const char *AddScript =
    "terra add(a: int, b: int): int return a + b end\n"
    "terra mul(a: int, b: int): int return a * b end\n";

TEST(Terrad, CompileThenCall) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult R = C.compile(AddScript, "add.t");
  ASSERT_TRUE(R.OK) << R.Error << "\n" << R.Diagnostics;
  EXPECT_EQ(R.Handle.size(), 16u);
  EXPECT_FALSE(R.Warm);
  ASSERT_EQ(R.Functions.size(), 2u);
  EXPECT_EQ(R.Functions[0], "add");
  EXPECT_EQ(R.Functions[1], "mul");

  Client::CallResult Call =
      C.call(R.Handle, "add", {Value::number(2), Value::number(3)});
  ASSERT_TRUE(Call.OK) << Call.Error;
  EXPECT_EQ(Call.Result.asNumber(), 5.0);

  Call = C.call(R.Handle, "mul", {Value::number(6), Value::number(7)});
  ASSERT_TRUE(Call.OK) << Call.Error;
  EXPECT_EQ(Call.Result.asNumber(), 42.0);
}

TEST(Terrad, RecompileIsWarmAndStableHandle) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult R1 = C.compile(AddScript);
  ASSERT_TRUE(R1.OK) << R1.Error;
  Client::CompileResult R2 = C.compile(AddScript);
  ASSERT_TRUE(R2.OK) << R2.Error;
  EXPECT_EQ(R1.Handle, R2.Handle);
  EXPECT_TRUE(R2.Warm);
  EXPECT_GE(F.server().stats().EngineWarmHits, 1u);
  EXPECT_EQ(F.server().stats().EnginesCreated, 1u);
}

TEST(Terrad, CompileErrorCarriesDiagnosticsAndServerSurvives) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult Bad = C.compile("terra broken(: return end");
  EXPECT_FALSE(Bad.OK);
  EXPECT_FALSE(Bad.Diagnostics.empty());

  // Same connection still works, and the bad script was not retained.
  Client::CompileResult Good = C.compile(AddScript);
  ASSERT_TRUE(Good.OK) << Good.Error;
  Client::CallResult Call =
      C.call(Good.Handle, "add", {Value::number(1), Value::number(1)});
  EXPECT_TRUE(Call.OK) << Call.Error;
}

TEST(Terrad, CallErrors) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();
  Client::CompileResult R = C.compile(AddScript);
  ASSERT_TRUE(R.OK) << R.Error;

  Client::CallResult NoHandle = C.call("deadbeefdeadbeef", "add", {});
  EXPECT_FALSE(NoHandle.OK);
  EXPECT_NE(NoHandle.Error.find("unknown handle"), std::string::npos);

  Client::CallResult NoFn = C.call(R.Handle, "nosuchfn", {});
  EXPECT_FALSE(NoFn.OK);
  EXPECT_NE(NoFn.Error.find("no global"), std::string::npos);
}

TEST(Terrad, EightConcurrentClientsZeroDropped) {
  ServerConfig Config;
  Config.Workers = 4;
  Config.QueueCapacity = 256;
  ServerFixture F(Config);
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  constexpr int Clients = 8, CallsPerClient = 12;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      Client C;
      if (!C.connect(F.socket())) {
        ++Failures;
        return;
      }
      // Every client compiles its own distinct script, then hammers calls.
      std::string Src = "terra cfn" + std::to_string(T) +
                        "(x: int): int return x * " + std::to_string(T + 2) +
                        " end\n";
      Client::CompileResult R = C.compile(Src);
      if (!R.OK) {
        ++Failures;
        return;
      }
      for (int I = 0; I != CallsPerClient; ++I) {
        Client::CallResult Call = C.call(
            R.Handle, "cfn" + std::to_string(T), {Value::number(I)});
        if (!Call.OK || Call.Result.asNumber() != I * (T + 2))
          ++Failures;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  Server::Stats S = F.server().stats();
  EXPECT_EQ(S.RequestsRejected, 0u);
  EXPECT_EQ(S.RequestsTimedOut, 0u);
  EXPECT_EQ(S.RequestsCompleted,
            static_cast<uint64_t>(Clients * (1 + CallsPerClient)));
}

TEST(Terrad, BackpressureRejectsWhenQueueFull) {
  ServerConfig Config;
  Config.Workers = 1;
  Config.QueueCapacity = 1;
  ServerFixture F(Config);
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  // Occupy the single worker, then fill the single queue slot.
  std::thread T1([&] {
    Client C = F.client();
    EXPECT_TRUE(C.ping(/*DelayMs=*/600));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread T2([&] {
    Client C = F.client();
    EXPECT_TRUE(C.ping(/*DelayMs=*/600));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // Queue slot and worker both busy: this one must be rejected immediately,
  // not blocked behind ~1s of queued work.
  Client C3 = F.client();
  Value Req = Value::object();
  Req.set("op", Value::string("ping"));
  Value Resp = C3.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C3.error();
  EXPECT_FALSE(Resp.getBool("ok"));
  EXPECT_NE(Resp.getString("error").find("queue full"), std::string::npos);

  T1.join();
  T2.join();
  EXPECT_GE(F.server().stats().RequestsRejected, 1u);
  EXPECT_EQ(F.server().stats().RequestsTimedOut, 0u);
}

TEST(Terrad, PerRequestTimeout) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Value Req = Value::object();
  Req.set("op", Value::string("ping"));
  Req.set("delay_ms", Value::number(800));
  Req.set("timeout_ms", Value::number(100));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  EXPECT_FALSE(Resp.getBool("ok"));
  EXPECT_NE(Resp.getString("error").find("timed out"), std::string::npos);
  EXPECT_EQ(F.server().stats().RequestsTimedOut, 1u);
}

TEST(Terrad, LruEvictionFallsThroughToDiskCache) {
  ServerConfig Config;
  Config.MaxEngines = 1;
  ServerFixture F(Config);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult A =
      C.compile("terra fa(x: int): int return x + 100 end\n");
  ASSERT_TRUE(A.OK) << A.Error;
  Client::CompileResult B =
      C.compile("terra fb(x: int): int return x + 200 end\n");
  ASSERT_TRUE(B.OK) << B.Error;
  EXPECT_GE(F.server().stats().EnginesEvicted, 1u); // A's engine is gone...

  Client::CallResult Call = C.call(A.Handle, "fa", {Value::number(1)});
  ASSERT_TRUE(Call.OK) << Call.Error; // ...but its handle still serves.
  EXPECT_EQ(Call.Result.asNumber(), 101.0);
  EXPECT_GE(F.server().stats().EngineRecreated, 1u);
}

TEST(Terrad, StatsOp) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();
  ASSERT_TRUE(C.compile(AddScript).OK);

  Value S = C.stats();
  ASSERT_FALSE(S.isNull()) << C.error();
  EXPECT_TRUE(S.getBool("ok"));
  EXPECT_GE(S.getNumber("requests_received"), 1.0);
  EXPECT_EQ(S.getNumber("engines_live"), 1.0);
  EXPECT_GE(S.getNumber("workers"), 1.0);
}

TEST(Terrad, ShutdownRequestDrains) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();
  ASSERT_TRUE(C.shutdownServer());
  F.server().wait();
  EXPECT_FALSE(F.server().running());
  EXPECT_TRUE(F.server().stats().DrainedClean);
  struct stat St;
  EXPECT_NE(::stat(F.socket().c_str(), &St), 0); // Socket file removed.
}

TEST(Terrad, SigtermDrainsInFlightWork) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  FrontEnd::installSignalHandlers();

  // A request that is mid-execution when the signal lands must still get
  // its response: that is the "drain, don't drop" contract.
  std::atomic<bool> GotResponse{false};
  std::thread InFlight([&] {
    Client C = F.client();
    if (C.ping(/*DelayMs=*/500))
      GotResponse = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  ::raise(SIGTERM);
  F.server().wait();
  InFlight.join();

  EXPECT_TRUE(GotResponse.load());
  Server::Stats S = F.server().stats();
  EXPECT_TRUE(S.DrainedClean);
  EXPECT_EQ(S.RequestsCompleted, 1u);
  struct stat St;
  EXPECT_NE(::stat(F.socket().c_str(), &St), 0); // Socket file removed.

  // New requests after drain fail cleanly (connection refused / closed).
  Client C2;
  EXPECT_FALSE(C2.connect(F.socket()));
}

TEST(Terrad, MalformedJsonGetsErrorResponse) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  std::string Err;
  int Fd = connectUnix(F.socket(), Err);
  ASSERT_GE(Fd, 0) << Err;
  ASSERT_TRUE(writeFrame(Fd, "this is not json"));
  Value Resp;
  ASSERT_EQ(readMessage(Fd, Resp, Err, 5000), FrameStatus::OK) << Err;
  EXPECT_FALSE(Resp.getBool("ok"));
  ::close(Fd);
}

TEST(Terrad, MetricsOpReportsPerOpLatency) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult R = C.compile(AddScript);
  ASSERT_TRUE(R.OK) << R.Error;
  Client::CallResult Call =
      C.call(R.Handle, "add", {Value::number(2), Value::number(3)});
  ASSERT_TRUE(Call.OK) << Call.Error;

  Value M = C.metrics();
  ASSERT_FALSE(M.isNull()) << C.error();
  EXPECT_TRUE(M.getBool("ok"));
  EXPECT_GT(M.getNumber("uptime_seconds"), 0.0);

  // The server registry: per-op latency histograms with real samples.
  const Value *Srv = M.get("server");
  ASSERT_TRUE(Srv && Srv->isObject());
  const Value *Hists = Srv->get("histograms");
  ASSERT_TRUE(Hists && Hists->isObject());
  for (const char *Name :
       {"server.op.compile.latency_us", "server.op.call.latency_us"}) {
    const Value *H = Hists->get(Name);
    ASSERT_TRUE(H && H->isObject()) << Name;
    EXPECT_GE(H->getNumber("count"), 1.0) << Name;
    EXPECT_GT(H->getNumber("p50"), 0.0) << Name; // Warm call: non-zero p50.
  }
  const Value *Counters = Srv->get("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  EXPECT_GE(Counters->getNumber("server.requests_completed"), 2.0);

  // Per-engine JIT registries, keyed by content-hash handle.
  const Value *Engines = M.get("engines");
  ASSERT_TRUE(Engines && Engines->isObject());
  const Value *Jit = Engines->get(R.Handle);
  ASSERT_TRUE(Jit && Jit->isObject());

  // The process-wide registry rides along (frontend phases, thread pool).
  const Value *Proc = M.get("process");
  ASSERT_TRUE(Proc && Proc->isObject());
}

TEST(Terrad, TieredExecutionSurfacesInCallStatsAndMetrics) {
  if (Engine::defaultBackend() == BackendKind::Interp)
    GTEST_SKIP() << "the tiered backend needs a C compiler";
  ScopedEnv Tier("TERRACPP_BACKEND", "tiered");
  // Thresholds far beyond what this test generates, and the VM pinned as
  // the interpreter: every function stays on tier 0, so the observable
  // state is deterministic (the baseline tier echo has its own test below).
  ScopedEnv VM("TERRACPP_INTERP", "vm");
  ScopedEnv Calls("TERRACPP_TIER_CALL_THRESHOLD", "1000000");
  ScopedEnv Back("TERRACPP_TIER_BACKEDGE_THRESHOLD", "1000000000");
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult R = C.compile(AddScript);
  ASSERT_TRUE(R.OK) << R.Error << "\n" << R.Diagnostics;

  // The call response echoes the executing tier (0 = bytecode VM).
  Value Req = Value::object();
  Req.set("op", Value::string("call"));
  Req.set("handle", Value::string(R.Handle));
  Req.set("fn", Value::string("add"));
  Value Args = Value::array();
  Args.push(Value::number(2));
  Args.push(Value::number(3));
  Req.set("args", std::move(Args));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  EXPECT_TRUE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getNumber("result"), 5.0);
  EXPECT_EQ(Resp.getNumber("tier", -1), 0.0);

  // stats aggregates tier state across live engines.
  Value S = C.stats();
  ASSERT_FALSE(S.isNull()) << C.error();
  EXPECT_GE(S.getNumber("tier0_functions"), 2.0); // add + mul
  EXPECT_EQ(S.getNumber("promoted_functions"), 0.0);
  EXPECT_EQ(S.getNumber("promotion_backlog"), 0.0);

  // metrics attaches the per-engine tier snapshot to its JIT registry.
  Value M = C.metrics();
  ASSERT_FALSE(M.isNull()) << C.error();
  const Value *Engines = M.get("engines");
  ASSERT_TRUE(Engines && Engines->isObject());
  const Value *Jit = Engines->get(R.Handle);
  ASSERT_TRUE(Jit && Jit->isObject());
  const Value *T = Jit->get("tier");
  ASSERT_TRUE(T && T->isObject());
  EXPECT_GE(T->getNumber("tier0_functions"), 2.0);
  EXPECT_GE(T->getNumber("tier0_calls"), 1.0);
  EXPECT_EQ(T->getNumber("promotion_failures"), 0.0);
}

TEST(Terrad, BaselineTierEchoedAndCountedInMetrics) {
  if (Engine::defaultBackend() == BackendKind::Interp)
    GTEST_SKIP() << "the tiered backend needs a C compiler";
  if (!BaselineJIT::supported())
    GTEST_SKIP() << "baseline JIT not supported on this architecture";
  ScopedEnv Tier("TERRACPP_BACKEND", "tiered");
  ScopedEnv Base("TERRACPP_INTERP", "baseline");
  // Promotion thresholds out of reach: calls stay on the baseline JIT.
  ScopedEnv Calls("TERRACPP_TIER_CALL_THRESHOLD", "1000000");
  ScopedEnv Back("TERRACPP_TIER_BACKEDGE_THRESHOLD", "1000000000");
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult R = C.compile(AddScript);
  ASSERT_TRUE(R.OK) << R.Error << "\n" << R.Diagnostics;

  Value Req = Value::object();
  Req.set("op", Value::string("call"));
  Req.set("handle", Value::string(R.Handle));
  Req.set("fn", Value::string("add"));
  Value Args = Value::array();
  Args.push(Value::number(2));
  Args.push(Value::number(3));
  Req.set("args", std::move(Args));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  EXPECT_TRUE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getNumber("result"), 5.0);
  // 2 = baseline JIT served the call.
  EXPECT_EQ(Resp.getNumber("tier", -1), 2.0);

  Value M = C.metrics();
  ASSERT_FALSE(M.isNull()) << C.error();
  const Value *Engines = M.get("engines");
  ASSERT_TRUE(Engines && Engines->isObject());
  const Value *Jit = Engines->get(R.Handle);
  ASSERT_TRUE(Jit && Jit->isObject());
  const Value *T = Jit->get("tier");
  ASSERT_TRUE(T && T->isObject());
  EXPECT_GE(T->getNumber("baseline_calls"), 1.0);
  EXPECT_EQ(T->getNumber("cc_unavailable"), 0.0);
}

TEST(Terrad, TraceIdEchoedOnEveryResponse) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  // Client-supplied trace_id comes back verbatim on a queued op...
  Value Req = Value::object();
  Req.set("op", Value::string("ping"));
  Req.set("trace_id", Value::string("client-trace-42"));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  EXPECT_TRUE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getString("trace_id"), "client-trace-42");

  // ...and on a control-plane op that never enters the queue.
  Value StatsReq = Value::object();
  StatsReq.set("op", Value::string("stats"));
  StatsReq.set("trace_id", Value::string("stats-trace"));
  Value StatsResp = C.request(StatsReq);
  ASSERT_FALSE(StatsResp.isNull()) << C.error();
  EXPECT_EQ(StatsResp.getString("trace_id"), "stats-trace");

  // Without one, the server assigns a unique id per request.
  Value Bare = Value::object();
  Bare.set("op", Value::string("ping"));
  std::string First = C.request(Bare).getString("trace_id");
  std::string Second = C.request(Bare).getString("trace_id");
  EXPECT_FALSE(First.empty());
  EXPECT_FALSE(Second.empty());
  EXPECT_NE(First, Second);
}

TEST(Terrad, StatsReportUptimeQueueHwmAndOpLatency) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();
  ASSERT_TRUE(C.ping());

  Value S = C.stats();
  ASSERT_FALSE(S.isNull()) << C.error();
  EXPECT_TRUE(S.getBool("ok"));
  EXPECT_GT(S.getNumber("uptime_seconds"), 0.0);
  EXPECT_GE(S.getNumber("queue_depth_hwm"), 1.0); // The ping was queued.

  // Per-op latency summary: op name -> snapshot, stripped of the registry
  // prefix so clients need not know the metric naming scheme.
  const Value *Ops = S.get("op_latency_us");
  ASSERT_TRUE(Ops && Ops->isObject());
  const Value *Ping = Ops->get("ping");
  ASSERT_TRUE(Ping && Ping->isObject());
  EXPECT_GE(Ping->getNumber("count"), 1.0);

  Server::Stats Raw = F.server().stats();
  EXPECT_GT(Raw.UptimeSeconds, 0.0);
  EXPECT_GE(Raw.QueueDepthHWM, 1u);
}

//===----------------------------------------------------------------------===//
// Observability ops: metrics_text, trace_dump, profile, slow requests
//===----------------------------------------------------------------------===//

/// Enables the process-global span recorder for one test, restoring the
/// disabled empty state after (the fixture's Server shares our process).
class ScopedTracing {
public:
  explicit ScopedTracing(std::string Path = "") {
    trace::Recorder::global().clear();
    trace::Recorder::global().enable(std::move(Path));
  }
  ~ScopedTracing() {
    trace::Recorder::global().disable();
    trace::Recorder::global().clear();
  }
};

TEST(Terrad, MetricsTextOpRendersPrometheusExposition) {
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult R = C.compile(AddScript);
  ASSERT_TRUE(R.OK) << R.Error;
  Client::CallResult Call =
      C.call(R.Handle, "add", {Value::number(2), Value::number(3)});
  ASSERT_TRUE(Call.OK) << Call.Error;

  Value Req = Value::object();
  Req.set("op", Value::string("metrics_text"));
  Value Labels = Value::object();
  Labels.set("cluster", Value::string("test"));
  Req.set("labels", std::move(Labels));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
  EXPECT_EQ(Resp.getString("content_type"), "text/plain; version=0.0.4");
  std::string Text = Resp.getString("text");
  ASSERT_FALSE(Text.empty());
  // Server counters carry the process label plus the caller's labels.
  EXPECT_NE(Text.find("# TYPE terracpp_server_requests_received counter"),
            std::string::npos);
  EXPECT_NE(Text.find("process=\"terrad\""), std::string::npos);
  EXPECT_NE(Text.find("cluster=\"test\""), std::string::npos);
  // Histograms render bucket series.
  EXPECT_NE(Text.find("terracpp_server_op_call_latency_us_bucket"),
            std::string::npos);
  EXPECT_NE(Text.find("le=\"+Inf\""), std::string::npos);
  // Per-engine JIT registries ride along, labelled by content hash.
  EXPECT_NE(Text.find("engine=\"" + R.Handle + "\""), std::string::npos);
  // A merged document still has exactly one TYPE line per family.
  const std::string Family = "# TYPE terracpp_server_requests_received ";
  EXPECT_EQ(Text.find(Family, Text.find(Family) + 1), std::string::npos);
}

TEST(Terrad, TraceDumpOpReturnsTaggedSpans) {
  ScopedTracing Tracing; // In-memory, like a shard under TERRACPP_TRACE=-.
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Value Ping = Value::object();
  Ping.set("op", Value::string("ping"));
  Ping.set("trace_id", Value::string("dump-trace-1"));
  Ping.set("parent_span", Value::string("42-7"));
  ASSERT_TRUE(C.request(Ping).getBool("ok"));

  Value Req = Value::object();
  Req.set("op", Value::string("trace_dump"));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  ASSERT_TRUE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getNumber("pid"), static_cast<double>(::getpid()));
  const Value *Events = Resp.get("events");
  ASSERT_TRUE(Events && Events->isArray());
  // The queued ping produced queue_wait + server.op spans, both tagged
  // with the request's trace id; the outer one parents to the remote span.
  bool SawOp = false, SawQueueWait = false;
  for (const Value &E : Events->elements()) {
    const Value *Args = E.get("args");
    if (!Args)
      continue;
    if (Args->getString("trace_id") != "dump-trace-1")
      continue;
    if (E.getString("name") == "server.op") {
      SawOp = true;
      EXPECT_EQ(Args->getString("parent"), "42-7");
      EXPECT_EQ(Args->getString("op"), "ping");
    }
    if (E.getString("name") == "queue_wait")
      SawQueueWait = true;
  }
  EXPECT_TRUE(SawOp);
  EXPECT_TRUE(SawQueueWait);
}

TEST(Terrad, ProfileOpReportsPerFunctionCounters) {
  if (Engine::defaultBackend() == BackendKind::Interp)
    GTEST_SKIP() << "the tiered backend needs a C compiler";
  ScopedEnv Tier("TERRACPP_BACKEND", "tiered");
  ScopedEnv VM("TERRACPP_INTERP", "vm");
  ScopedEnv Calls("TERRACPP_TIER_CALL_THRESHOLD", "1000000");
  ScopedEnv Back("TERRACPP_TIER_BACKEDGE_THRESHOLD", "1000000000");
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  Client::CompileResult R = C.compile(AddScript);
  ASSERT_TRUE(R.OK) << R.Error << "\n" << R.Diagnostics;
  for (int I = 0; I != 3; ++I) {
    Client::CallResult Call =
        C.call(R.Handle, "add", {Value::number(I), Value::number(I)});
    ASSERT_TRUE(Call.OK) << Call.Error;
  }

  Value Req = Value::object();
  Req.set("op", Value::string("profile"));
  Req.set("handle", Value::string(R.Handle));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
  EXPECT_EQ(Resp.getNumber("version"), 1.0);
  const Value *Components = Resp.get("components");
  ASSERT_TRUE(Components && Components->isObject());
  ASSERT_FALSE(Components->members().empty());
  // Components are keyed by content hash; every function reports calls,
  // back edges, and its resident tier (0 here: promotion is disabled).
  bool SawAdd = false;
  for (const auto &CM : Components->members()) {
    const Value *Fns = CM.second.get("functions");
    ASSERT_TRUE(Fns && Fns->isObject());
    for (const auto &FM : Fns->members()) {
      if (FM.second.getString("name") != "add")
        continue;
      SawAdd = true;
      EXPECT_GE(FM.second.getNumber("calls"), 3.0);
      EXPECT_EQ(FM.second.getNumber("tier", -1), 0.0);
      EXPECT_GE(FM.second.getNumber("backedges", -1), 0.0);
    }
  }
  EXPECT_TRUE(SawAdd);

  // An unknown handle filter yields an empty component set, not an error.
  Req.set("handle", Value::string("feedfeedfeedfeed"));
  Resp = C.request(Req);
  ASSERT_TRUE(Resp.getBool("ok"));
  EXPECT_TRUE(Resp.get("components")->members().empty());
}

TEST(Terrad, SlowRequestsCountedAgainstThreshold) {
  ServerConfig Config;
  Config.SlowRequestMs = 50;
  ServerFixture F(Config);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  Client C = F.client();

  ASSERT_TRUE(C.ping(/*DelayMs=*/0));
  Value S1 = C.stats();
  // The instant ping must not trip a 50 ms threshold.
  EXPECT_EQ(S1.getNumber("slow_requests"), 0.0);

  ASSERT_TRUE(C.ping(/*DelayMs=*/120));
  Value S2 = C.stats();
  EXPECT_GE(S2.getNumber("slow_requests"), 1.0);
}

TEST(Terrad, TraceDumpConsistentUnderConcurrentLoad) {
  ScopedTracing Tracing;
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  // Writers hammer the recorder through real requests while readers pull
  // trace_dump snapshots: every snapshot must be internally consistent
  // (well-formed events, absolute timestamps), never torn.
  std::atomic<bool> Stop{false}, Pinged{false};
  std::thread Load([&] {
    Client C = F.client();
    while (!Stop.load())
      if (C.ping())
        Pinged = true;
  });
  // trace_dump is answered inline while pings go through the worker queue,
  // so 20 quick dumps can all finish before the first ping is served. Wait
  // for one served ping (its spans are recorded before the reply is sent).
  for (int I = 0; I != 10000 && !Pinged.load(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Client C = F.client();
  size_t PrevCount = 0;
  for (int I = 0; I != 20; ++I) {
    Value Req = Value::object();
    Req.set("op", Value::string("trace_dump"));
    Value Resp = C.request(Req);
    ASSERT_FALSE(Resp.isNull()) << C.error();
    ASSERT_TRUE(Resp.getBool("ok"));
    const Value *Events = Resp.get("events");
    ASSERT_TRUE(Events && Events->isArray());
    // The buffer only grows between snapshots.
    EXPECT_GE(Events->elements().size(), PrevCount);
    PrevCount = Events->elements().size();
    for (const Value &E : Events->elements()) {
      EXPECT_FALSE(E.getString("name").empty());
      EXPECT_GT(E.getNumber("ts"), 0.0); // Absolute clock, not relative.
    }
  }
  Stop = true;
  Load.join();
  EXPECT_GT(PrevCount, 0u);
}

TEST(Terrad, SigtermDrainFlushesTraceFile) {
  std::string Path =
      "/tmp/terrad-trace-drain-" + std::to_string(::getpid()) + ".json";
  ScopedTracing Tracing(Path); // File-backed, like TERRACPP_TRACE=PATH.
  ServerFixture F;
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  FrontEnd::installSignalHandlers();

  {
    Client C = F.client();
    ASSERT_TRUE(C.ping());
  }
  ::raise(SIGTERM);
  F.server().wait();
  EXPECT_TRUE(F.server().stats().DrainedClean);

  // The drain path flushed a complete, parseable Chrome trace containing
  // the request's spans — nothing truncated by process teardown.
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  ASSERT_TRUE(File != nullptr) << "trace file not written on drain";
  std::string Contents;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Contents.append(Buf, N);
  std::fclose(File);
  std::remove(Path.c_str());

  Value Parsed;
  std::string Err;
  ASSERT_TRUE(json::parse(Contents, Parsed, Err)) << Err;
  const Value *Events = Parsed.get("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  bool SawOp = false;
  for (const Value &E : Events->elements())
    if (E.getString("name") == "server.op")
      SawOp = true;
  EXPECT_TRUE(SawOp);
}

TEST(Terrad, ConfigFromEnvRejectsGarbageAndOutOfRange) {
  {
    // Clean values are taken as given, including SLOW_MS=0 (disabled).
    ScopedEnv Socket("TERRAD_SOCKET", "/tmp/terrad-env-test.sock");
    ScopedEnv Queue("TERRAD_QUEUE", "8");
    ScopedEnv Slow("TERRAD_SLOW_MS", "0");
    ServerConfig C = ServerConfig::fromEnv();
    EXPECT_EQ(C.SocketPath, "/tmp/terrad-env-test.sock");
    EXPECT_EQ(C.QueueCapacity, 8u);
    EXPECT_EQ(C.SlowRequestMs, 0);
  }
  // Trailing garbage, signs and out-of-range values keep the defaults
  // instead of being truncated ("8abc" used to run with 8).
  ScopedEnv Queue("TERRAD_QUEUE", "8abc");
  ScopedEnv Engines("TERRAD_MAX_ENGINES", "5000");
  ScopedEnv Timeout("TERRAD_TIMEOUT_MS", "-5");
  ScopedEnv InFlight("TERRAD_MAX_INFLIGHT", "0");
  ScopedEnv Slow("TERRAD_SLOW_MS", "99999999999999999999");
  ScopedEnv Workers("TERRAD_WORKERS", "129");
  ServerConfig C = ServerConfig::fromEnv();
  ServerConfig D;
  EXPECT_EQ(C.QueueCapacity, D.QueueCapacity);
  EXPECT_EQ(C.MaxEngines, D.MaxEngines);
  EXPECT_EQ(C.RequestTimeoutMs, D.RequestTimeoutMs);
  EXPECT_EQ(C.MaxInFlightPerConn, D.MaxInFlightPerConn);
  EXPECT_EQ(C.SlowRequestMs, D.SlowRequestMs);
  EXPECT_EQ(C.Workers, 0u); // Resolved to the core count by Server.
}

#ifdef TERRACPP_TERRAD_BIN
TEST(Terrad, FlagsOverrideEnvironment) {
  const char *Bin = TERRACPP_TERRAD_BIN;
  if (::access(Bin, X_OK) != 0)
    GTEST_SKIP() << "terrad binary not built: " << Bin;
  char Template[] = "/tmp/terrad-flags-XXXXXX";
  std::string Dir = mkdtemp(Template);
  std::string Sock = Dir + "/terrad.sock";

  DaemonProcess P;
  std::string Err;
  ASSERT_TRUE(P.spawn({Bin, "--socket", Sock, "--quiet", "--workers", "1",
                       "--queue", "256", "--max-engines", "6"},
                      {"TERRAD_QUEUE=8", "TERRAD_MAX_ENGINES=3",
                       "TERRACPP_CACHE_DIR=" + Dir + "/cache"},
                      Err))
      << Err;
  Client C;
  Client::ConnectOptions CO;
  CO.Attempts = 100;
  ASSERT_TRUE(C.connect(Sock, CO)) << C.error();
  Value S = C.stats();
  ASSERT_TRUE(S.getBool("ok")) << C.error();
  EXPECT_EQ(S.getNumber("queue_capacity"), 256.0);
  EXPECT_EQ(S.getNumber("max_engines"), 6.0);
  EXPECT_TRUE(C.shutdownServer());
  EXPECT_EQ(P.waitExit(10000), 0);
  std::string Cmd = "rm -rf " + Dir;
  (void)!system(Cmd.c_str());
}
#endif // TERRACPP_TERRAD_BIN

} // namespace
