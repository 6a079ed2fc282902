//===- test_fleet.cpp - terrafleet routing tier ---------------------------===//
//
// Covers src/fleet (DESIGN.md §12):
//   * HashRing — stable placement, minimal movement on node removal;
//   * Router — same content hash always lands on the same shard; the front
//     socket speaks the unchanged terrad protocol; stats aggregate across
//     shards and prove cross-shard disk-cache reuse through one shared
//     TERRACPP_CACHE_DIR;
//   * MuxClient — many requests in flight on one connection, out-of-order
//     completion, per-request deadlines;
//   * failure handling — a shard killed mid-request yields a structured
//     shard_unavailable error (never a hang), leaves the ring, and rejoins
//     after it is restarted;
//   * compile_batch — one frame fans an autotuner grid across the ring and
//     reassembles results in submission order;
//   * the shared front end — terrad and the router answer the prologue,
//     version gate and inline control ops identically, and one SIGTERM
//     drains both.
//
// Shards are in-process Servers where possible (fast, deterministic) and
// real terrad subprocesses (TERRACPP_TERRAD_BIN) where the test needs to
// SIGKILL one.
//
//===----------------------------------------------------------------------===//

#include "core/Engine.h"
#include "fleet/HashRing.h"
#include "fleet/MuxClient.h"
#include "fleet/Router.h"
#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/ContentHash.h"
#include "support/Subprocess.h"
#include "support/Trace.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace terracpp;
using namespace terracpp::fleet;
using terracpp::json::Value;

namespace {

std::string contentKey(const std::string &Source) {
  ContentHash H;
  H.updateField(Source);
  return H.hex();
}

bool waitFor(const std::function<bool()> &Cond, int TimeoutMs) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Cond())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Cond();
}

/// N in-process terrad Servers behind one Router, all sharing a private
/// TERRACPP_CACHE_DIR under a fresh scratch dir.
class FleetFixture {
public:
  explicit FleetFixture(unsigned NumShards = 3,
                        RouterConfig RC = RouterConfig()) {
    char Template[] = "/tmp/terrafleet-test-XXXXXX";
    Dir = mkdtemp(Template);
    Cache = std::make_unique<ScopedEnv>("TERRACPP_CACHE_DIR", Dir + "/cache");
    StartOK = true;
    for (unsigned I = 0; I != NumShards; ++I) {
      server::ServerConfig SC;
      SC.SocketPath = shardSocket(I);
      SC.Workers = 2;
      auto S = std::make_unique<server::Server>(SC);
      std::string Err;
      if (!S->start(Err)) {
        StartOK = false;
        StartErr = "shard " + std::to_string(I) + ": " + Err;
      }
      Servers.push_back(std::move(S));
      ShardConfig Sh;
      Sh.SocketPath = SC.SocketPath;
      Sh.Spawn = false;
      RC.Shards.push_back(Sh);
    }
    RC.FrontSocket = Dir + "/fleet.sock";
    if (RC.ConnectAttempts == RouterConfig().ConnectAttempts)
      RC.ConnectAttempts = 10;
    R = std::make_unique<Router>(RC);
    std::string Err;
    if (!R->start(Err)) {
      StartOK = false;
      StartErr = Err;
    }
  }

  ~FleetFixture() {
    R->requestShutdown();
    R->wait();
    R.reset(); // Drops every mux connection before the shards go away.
    Servers.clear();
    Cache.reset();
    std::string Cmd = "rm -rf " + Dir;
    (void)!system(Cmd.c_str());
  }

  std::string shardSocket(unsigned I) const {
    return Dir + "/shard" + std::to_string(I) + ".sock";
  }
  const std::string &front() const { return R->config().FrontSocket; }
  Router &router() { return *R; }
  server::Server &shard(unsigned I) { return *Servers[I]; }

  server::Client frontClient() {
    server::Client C;
    EXPECT_TRUE(C.connect(front())) << C.error();
    return C;
  }

  bool StartOK = false;
  std::string StartErr;
  std::string Dir;

private:
  std::unique_ptr<ScopedEnv> Cache;
  std::vector<std::unique_ptr<server::Server>> Servers;
  std::unique_ptr<Router> R;
};

//===----------------------------------------------------------------------===//
// HashRing
//===----------------------------------------------------------------------===//

TEST(Fleet, HashRingStablePlacement) {
  HashRing Ring;
  Ring.addNode(0, 64);
  Ring.addNode(1, 64);
  Ring.addNode(2, 64);
  for (int I = 0; I != 200; ++I) {
    std::string Key = "key-" + std::to_string(I);
    unsigned A = 99, B = 99;
    ASSERT_TRUE(Ring.lookup(Key, A));
    ASSERT_TRUE(Ring.lookup(Key, B));
    EXPECT_EQ(A, B);
    EXPECT_LT(A, 3u);
  }
  EXPECT_EQ(Ring.nodes(), (std::vector<unsigned>{0, 1, 2}));
}

TEST(Fleet, HashRingSpreadsKeys) {
  HashRing Ring;
  Ring.addNode(0, 64);
  Ring.addNode(1, 64);
  Ring.addNode(2, 64);
  unsigned Counts[3] = {0, 0, 0};
  for (int I = 0; I != 600; ++I) {
    unsigned N = 0;
    ASSERT_TRUE(Ring.lookup("spread-" + std::to_string(I), N));
    ++Counts[N];
  }
  // With 64 vnodes the share is within a loose band of the 200 ideal.
  for (unsigned N = 0; N != 3; ++N)
    EXPECT_GT(Counts[N], 60u) << "node " << N << " nearly starved";
}

TEST(Fleet, HashRingRemovalMovesOnlyTheLostNodesKeys) {
  HashRing Ring;
  Ring.addNode(0, 64);
  Ring.addNode(1, 64);
  Ring.addNode(2, 64);
  std::vector<unsigned> Before(500);
  for (int I = 0; I != 500; ++I)
    ASSERT_TRUE(Ring.lookup("mv-" + std::to_string(I), Before[I]));

  Ring.removeNode(1);
  EXPECT_FALSE(Ring.contains(1));
  for (int I = 0; I != 500; ++I) {
    unsigned After = 99;
    ASSERT_TRUE(Ring.lookup("mv-" + std::to_string(I), After));
    EXPECT_NE(After, 1u);
    if (Before[I] != 1)
      EXPECT_EQ(After, Before[I]) << "key " << I << " moved needlessly";
  }

  // Re-adding restores the original placement exactly.
  Ring.addNode(1, 64);
  for (int I = 0; I != 500; ++I) {
    unsigned Again = 99;
    ASSERT_TRUE(Ring.lookup("mv-" + std::to_string(I), Again));
    EXPECT_EQ(Again, Before[I]);
  }
}

TEST(Fleet, HashRingEmptyAndSingle) {
  HashRing Ring;
  unsigned N = 7;
  EXPECT_TRUE(Ring.empty());
  EXPECT_FALSE(Ring.lookup("anything", N));
  Ring.addNode(4, 8);
  ASSERT_TRUE(Ring.lookup("anything", N));
  EXPECT_EQ(N, 4u);
  Ring.removeNode(4);
  EXPECT_TRUE(Ring.empty());
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

const char *AddScript =
    "terra add(a: int, b: int): int return a + b end\n";

TEST(Fleet, SameContentHashRoutesToSameShard) {
  FleetFixture F(3);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::Client C = F.frontClient();

  server::Client::CompileResult R = C.compile(AddScript, "add.t");
  ASSERT_TRUE(R.OK) << R.Error << "\n" << R.Diagnostics;
  EXPECT_EQ(R.Handle.size(), 16u);
  EXPECT_EQ(R.Handle, contentKey(AddScript)); // terrad's own derivation.

  int Owner = F.router().shardIndexForKey(R.Handle);
  ASSERT_GE(Owner, 0);

  // Calls key on the handle, so they chase the compile to its shard and
  // reuse the warm engine there.
  for (int I = 0; I != 3; ++I) {
    server::Client::CallResult Call =
        C.call(R.Handle, "add", {Value::number(I), Value::number(10)});
    ASSERT_TRUE(Call.OK) << Call.Error;
    EXPECT_EQ(Call.Result.asNumber(), I + 10);
  }
  // A recompile is a warm hit on that same shard, not a cold build elsewhere.
  server::Client::CompileResult R2 = C.compile(AddScript, "add.t");
  ASSERT_TRUE(R2.OK) << R2.Error;
  EXPECT_EQ(R2.Handle, R.Handle);
  EXPECT_TRUE(R2.Warm);

  for (unsigned I = 0; I != 3; ++I) {
    server::Server::Stats S = F.shard(I).stats();
    if (static_cast<int>(I) == Owner) {
      EXPECT_EQ(S.CompileRequests, 2u);
      EXPECT_EQ(S.CallRequests, 3u);
      EXPECT_EQ(S.EnginesCreated, 1u);
      EXPECT_GE(S.EngineWarmHits, 1u);
    } else {
      EXPECT_EQ(S.CompileRequests, 0u) << "shard " << I;
      EXPECT_EQ(S.CallRequests, 0u) << "shard " << I;
    }
  }
}

TEST(Fleet, FrontSpeaksPlainTerradProtocol) {
  FleetFixture F(2);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::Client C = F.frontClient();

  EXPECT_TRUE(C.ping());
  Value Req = Value::object();
  Req.set("op", Value::string("ping"));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  EXPECT_TRUE(Resp.getBool("ok"));
  EXPECT_TRUE(Resp.getBool("fleet")); // Answered by the router itself.

  // trace_id round-trips through the relay.
  Req.set("trace_id", Value::string("fleet-trace-7"));
  Req.set("op", Value::string("stats"));
  Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  EXPECT_TRUE(Resp.getBool("ok"));
  const Value *Shards = Resp.get("shards");
  ASSERT_TRUE(Shards && Shards->isArray());
  EXPECT_EQ(Shards->size(), 2u);

  // Unknown op: structured error, connection stays usable.
  Value Bad = Value::object();
  Bad.set("op", Value::string("frobnicate"));
  Resp = C.request(Bad);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  EXPECT_FALSE(Resp.getBool("ok"));
  EXPECT_TRUE(C.ping());
}

TEST(Fleet, CrossShardDiskCacheHitThroughSharedCacheDir) {
  // The hit depends on the owner shard publishing its .so eagerly; under
  // TERRACPP_JIT_TIER=auto promotion is deferred past this test's horizon,
  // so pin the eager tier-1 pipeline (matching what the skip below checks).
  ScopedUnsetEnv NoTier("TERRACPP_JIT_TIER");
  if (Engine::defaultBackend() != BackendKind::Native)
    GTEST_SKIP() << "disk cache needs the native backend (no cc on PATH)";
  FleetFixture F(2);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::Client C = F.frontClient();

  const char *Src = "terra cachefn(x: int): int return x * 17 end\n";
  server::Client::CompileResult R = C.compile(Src, "cache.t");
  ASSERT_TRUE(R.OK) << R.Error << "\n" << R.Diagnostics;
  int Owner = F.router().shardIndexForKey(R.Handle);
  ASSERT_GE(Owner, 0);
  // Force the owner's native artifact to be built and published.
  server::Client::CallResult Call =
      C.call(R.Handle, "cachefn", {Value::number(2)});
  ASSERT_TRUE(Call.OK) << Call.Error;
  EXPECT_EQ(Call.Result.asNumber(), 34.0);

  // Compile the SAME source directly on the other shard: different process
  // boundary in production, different Server here, same TERRACPP_CACHE_DIR
  // — its JIT must find the .so the owner published.
  unsigned Other = Owner == 0 ? 1u : 0u;
  server::Client Direct;
  ASSERT_TRUE(Direct.connect(F.shardSocket(Other))) << Direct.error();
  server::Client::CompileResult R2 = Direct.compile(Src, "cache.t");
  ASSERT_TRUE(R2.OK) << R2.Error;
  EXPECT_EQ(R2.Handle, R.Handle);
  server::Client::CallResult Call2 =
      Direct.call(R.Handle, "cachefn", {Value::number(3)});
  ASSERT_TRUE(Call2.OK) << Call2.Error;

  // The router's aggregated stats expose the fleet-wide hit rate.
  EXPECT_TRUE(waitFor(
      [&] {
        Value Req = Value::object();
        Req.set("op", Value::string("stats"));
        Value S = C.request(Req);
        const Value *Agg = S.get("aggregate");
        return Agg && Agg->getNumber("jit_cache_hits") >= 1.0;
      },
      10000))
      << "no cross-shard jit cache hit surfaced in aggregated stats";
}

TEST(Fleet, CompileBatchFansOutAndPreservesOrder) {
  FleetFixture F(3);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::Client C = F.frontClient();

  constexpr int N = 8;
  std::vector<std::string> Sources;
  std::set<int> ExpectedShards;
  for (int I = 0; I != N; ++I) {
    std::string Src = "terra bf" + std::to_string(I) +
                      "(x: int): int return x + " + std::to_string(I * 3) +
                      " end\n";
    ExpectedShards.insert(F.router().shardIndexForKey(contentKey(Src)));
    Sources.push_back(std::move(Src));
  }
  ASSERT_GE(ExpectedShards.size(), 2u)
      << "pathological hash clustering; vary the sources";

  Value Req = Value::object();
  Req.set("op", Value::string("compile_batch"));
  Value Arr = Value::array();
  for (const std::string &Src : Sources) {
    Value E = Value::object();
    E.set("source", Value::string(Src));
    E.set("name", Value::string("batch.t"));
    Arr.push(std::move(E));
  }
  // A malformed entry must consume its slot without poisoning the rest.
  Arr.push(Value::number(42));
  Req.set("sources", std::move(Arr));

  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
  const Value *Results = Resp.get("results");
  ASSERT_TRUE(Results && Results->isArray());
  ASSERT_EQ(Results->size(), static_cast<size_t>(N) + 1);
  for (int I = 0; I != N; ++I) {
    const Value &R = Results->at(static_cast<size_t>(I));
    ASSERT_TRUE(R.getBool("ok")) << "entry " << I << ": "
                                 << R.getString("error");
    // In-order reassembly: slot I holds slot I's compile.
    EXPECT_EQ(R.getString("handle"), contentKey(Sources[I])) << "entry " << I;
  }
  EXPECT_FALSE(Results->at(N).getBool("ok"));

  // The grid really fanned out: every expected shard saw a sub-batch.
  for (int Shard : ExpectedShards)
    EXPECT_GE(F.shard(static_cast<unsigned>(Shard)).stats()
                  .CompileBatchRequests,
              1u)
        << "shard " << Shard << " never saw its sub-batch";
}

TEST(Fleet, AnalyzerWarningsSurviveTheRelay) {
  // Static-analysis findings produced on a shard must reach the client
  // through the router with the structured fields (code, line) intact.
  FleetFixture F(2);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::Client C = F.frontClient();

  // Line 3 reads `x` before any assignment: a TA001 warning.
  const char *Src = "terra w(c: bool): int\n"
                    "  var x: int\n"
                    "  if c then return x end\n"
                    "  return 0\n"
                    "end\n";
  Value Req = Value::object();
  Req.set("op", Value::string("compile"));
  Req.set("source", Value::string(Src));
  Req.set("name", Value::string("warnrelay.t"));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");

  const Value *Warns = Resp.get("warnings");
  ASSERT_TRUE(Warns && Warns->isArray());
  bool Found = false;
  for (const Value &W : Warns->elements()) {
    if (W.getString("code") != "TA001")
      continue;
    Found = true;
    EXPECT_EQ(W.getNumber("line"), 3);
    EXPECT_NE(W.getString("message").find("used before any assignment"),
              std::string::npos);
    EXPECT_NE(W.getString("rendered").find("[TA001]"), std::string::npos);
  }
  EXPECT_TRUE(Found) << "TA001 warning lost in the relay";

  // The typed Client helper surfaces the same warnings as rendered text.
  server::Client C2 = F.frontClient();
  server::Client::CompileResult CR = C2.compile(Src, "warnrelay.t");
  ASSERT_TRUE(CR.OK) << CR.Error;
  ASSERT_EQ(CR.Warnings.size(), Warns->size());
  EXPECT_NE(CR.Warnings[0].find("TA001"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// MuxClient pipelining
//===----------------------------------------------------------------------===//

TEST(Fleet, MuxCompletesOutOfOrder) {
  FleetFixture F(1);
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  MuxClient Mux;
  ASSERT_TRUE(Mux.connect(F.shardSocket(0))) << Mux.error();

  std::mutex OrderM;
  std::vector<std::string> Order;
  std::atomic<int> Done{0};
  auto Record = [&](const char *Tag) {
    return [&, Tag](Value Resp) {
      EXPECT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
      std::lock_guard<std::mutex> Lock(OrderM);
      Order.push_back(Tag);
      ++Done;
    };
  };

  Value Slow = Value::object();
  Slow.set("op", Value::string("ping"));
  Slow.set("delay_ms", Value::number(400));
  ASSERT_NE(Mux.submit(std::move(Slow), 5000, Record("slow")), 0u);

  Value Fast = Value::object();
  Fast.set("op", Value::string("ping"));
  ASSERT_NE(Mux.submit(std::move(Fast), 5000, Record("fast")), 0u);

  ASSERT_TRUE(waitFor([&] { return Done.load() == 2; }, 5000));
  // The fast request was submitted second but must not wait behind the
  // slow one: that is the whole point of pipelining.
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], "fast");
  EXPECT_EQ(Order[1], "slow");
  EXPECT_EQ(Mux.inFlight(), 0u);
  Mux.close();
}

TEST(Fleet, MuxPerRequestDeadlineDoesNotPoisonOthers) {
  FleetFixture F(1);
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  MuxClient Mux;
  ASSERT_TRUE(Mux.connect(F.shardSocket(0))) << Mux.error();

  // This request's own mux-side deadline expires long before the server
  // answers; the connection and its neighbours must be unaffected.
  Value Slow = Value::object();
  Slow.set("op", Value::string("ping"));
  Slow.set("delay_ms", Value::number(700));
  uint64_t SlowTicket = Mux.submit(std::move(Slow), 100);
  ASSERT_NE(SlowTicket, 0u);

  Value Fast = Value::object();
  Fast.set("op", Value::string("ping"));
  Value FastResp = Mux.request(std::move(Fast), 5000);
  EXPECT_TRUE(FastResp.getBool("ok")) << FastResp.getString("error");

  Value SlowResp;
  ASSERT_TRUE(Mux.await(SlowTicket, SlowResp));
  EXPECT_FALSE(SlowResp.getBool("ok"));
  EXPECT_EQ(SlowResp.getString("code"), "timeout");

  // The late real response is dropped silently; the connection still works.
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  Value Again = Value::object();
  Again.set("op", Value::string("ping"));
  Value AgainResp = Mux.request(std::move(Again), 5000);
  EXPECT_TRUE(AgainResp.getBool("ok"));
  EXPECT_EQ(Mux.inFlight(), 0u);
  Mux.close();
}

TEST(Fleet, MuxWindowBoundsInFlight) {
  FleetFixture F(1);
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  MuxClient::Options O;
  O.MaxInFlight = 2;
  MuxClient Mux(O);
  ASSERT_TRUE(Mux.connect(F.shardSocket(0))) << Mux.error();

  auto SlowPing = [] {
    Value V = Value::object();
    V.set("op", Value::string("ping"));
    V.set("delay_ms", Value::number(400));
    return V;
  };
  auto T0 = std::chrono::steady_clock::now();
  uint64_t A = Mux.submit(SlowPing(), 5000);
  uint64_t B = Mux.submit(SlowPing(), 5000);
  ASSERT_NE(A, 0u);
  ASSERT_NE(B, 0u);
  // Window full: the third submit must block until a slot frees (~400 ms).
  uint64_t CTicket = Mux.submit(SlowPing(), 5000);
  auto BlockedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  ASSERT_NE(CTicket, 0u);
  EXPECT_GE(BlockedMs, 100) << "third submit did not respect the window";

  Value R;
  EXPECT_TRUE(Mux.await(A, R));
  EXPECT_TRUE(Mux.await(B, R));
  EXPECT_TRUE(Mux.await(CTicket, R));
  Mux.close();
}

TEST(Fleet, MuxCloseFailsInFlightInsteadOfHanging) {
  FleetFixture F(1);
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  MuxClient Mux;
  ASSERT_TRUE(Mux.connect(F.shardSocket(0))) << Mux.error();
  std::atomic<bool> Got{false};
  Value Slow = Value::object();
  Slow.set("op", Value::string("ping"));
  Slow.set("delay_ms", Value::number(2000));
  ASSERT_NE(Mux.submit(std::move(Slow), 10000,
                       [&](Value Resp) {
                         EXPECT_FALSE(Resp.getBool("ok"));
                         EXPECT_EQ(Resp.getString("code"),
                                   "shard_unavailable");
                         Got = true;
                       }),
            0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Mux.close();
  EXPECT_TRUE(Got.load()) << "in-flight request was dropped on close";
}

//===----------------------------------------------------------------------===//
// Protocol version gate (satellite: every frame carries "v")
//===----------------------------------------------------------------------===//

/// The shared front end (server/FrontEnd.h) over both sockets clients can
/// reach: a terrad shard ("terrad") and the router's front ("router"). One
/// contract, one test.
class FrontEndParity : public ::testing::TestWithParam<std::string> {};

TEST_P(FrontEndParity, PrologueGateAndControlOps) {
  FleetFixture F(1);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  std::string Sock = GetParam() == "terrad" ? F.shardSocket(0) : F.front();
  std::string Err;
  int Fd = server::connectUnix(Sock, Err);
  ASSERT_GE(Fd, 0) << Err;

  auto Read = [&] {
    Value Resp;
    std::string E;
    EXPECT_EQ(server::readMessage(Fd, Resp, E, 5000), server::FrameStatus::OK)
        << E;
    return Resp;
  };
  auto RoundTrip = [&](const Value &Req) {
    EXPECT_TRUE(server::writeMessage(Fd, Req));
    return Read();
  };
  auto ExpectAlive = [&] {
    Value Ping = Value::object();
    Ping.set("op", Value::string("ping"));
    Ping.set("v", Value::number(server::ProtocolVersion));
    EXPECT_TRUE(RoundTrip(Ping).getBool("ok"));
  };

  // Wrong version: structured refusal naming both sides' versions.
  Value Req = Value::object();
  Req.set("op", Value::string("ping"));
  Req.set("v", Value::number(99));
  Value Resp = RoundTrip(Req);
  EXPECT_FALSE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getString("code"), "protocol_mismatch");
  EXPECT_EQ(Resp.getNumber("expected"), server::ProtocolVersion);
  EXPECT_EQ(Resp.getNumber("got"), 99.0);
  // Missing version: same gate (a v1 peer predates the "v" member).
  Req.remove("v");
  Resp = RoundTrip(Req);
  EXPECT_EQ(Resp.getString("code"), "protocol_mismatch");
  EXPECT_EQ(Resp.getNumber("expected"), server::ProtocolVersion);
  EXPECT_EQ(Resp.getNumber("got"), 0.0);
  ExpectAlive();

  // A frame that parses but is not an object.
  ASSERT_TRUE(server::writeFrame(Fd, "[1, 2]"));
  Resp = Read();
  EXPECT_FALSE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getString("error"), "request must be a JSON object");
  ExpectAlive();

  // No trace_id: one is minted as "<pid>-N" (both ends run in-process).
  Req.set("v", Value::number(server::ProtocolVersion));
  std::string TraceId = RoundTrip(Req).getString("trace_id");
  std::string Prefix = std::to_string(::getpid()) + "-";
  ASSERT_EQ(TraceId.compare(0, Prefix.size(), Prefix), 0) << TraceId;
  EXPECT_NE(TraceId.find_first_of("0123456789", Prefix.size()),
            std::string::npos)
      << TraceId;
  EXPECT_EQ(TraceId.find_first_not_of("0123456789", Prefix.size()),
            std::string::npos)
      << TraceId;

  // Inline control-op replies echo the client's id.
  for (const char *Op : {"stats", "metrics"}) {
    Value Ctl = Value::object();
    Ctl.set("op", Value::string(Op));
    Ctl.set("v", Value::number(server::ProtocolVersion));
    Ctl.set("id", Value::number(7));
    Resp = RoundTrip(Ctl);
    EXPECT_TRUE(Resp.getBool("ok")) << Op;
    EXPECT_EQ(Resp.getNumber("id"), 7.0) << Op;
  }

  // Malformed JSON: a "bad request" reply, then the connection closes.
  ASSERT_TRUE(server::writeFrame(Fd, "this is not json"));
  Resp = Read();
  EXPECT_FALSE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getString("error").rfind("bad request: ", 0), 0u)
      << Resp.dump();
  EXPECT_EQ(Resp.getNumber("v"), server::ProtocolVersion);
  Value After;
  std::string E;
  EXPECT_EQ(server::readMessage(Fd, After, E, 5000),
            server::FrameStatus::Closed);
  ::close(Fd);
}

INSTANTIATE_TEST_SUITE_P(Sockets, FrontEndParity,
                         ::testing::Values("terrad", "router"),
                         [](const auto &I) { return I.param; });

TEST(Fleet, OneSigtermDrainsEveryFrontEndInTheProcess) {
  FleetFixture F(1);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::FrontEnd::installSignalHandlers();
  ::raise(SIGTERM);
  F.router().wait();
  F.shard(0).wait();
  EXPECT_FALSE(F.router().running());
  EXPECT_FALSE(F.shard(0).running());
  struct stat St;
  EXPECT_NE(::stat(F.front().c_str(), &St), 0);
  EXPECT_NE(::stat(F.shardSocket(0).c_str(), &St), 0);

  // A front end started after the signal does not drain on it.
  server::ServerConfig SC;
  SC.SocketPath = F.Dir + "/late.sock";
  SC.Workers = 1;
  server::Server Late(SC);
  std::string Err;
  ASSERT_TRUE(Late.start(Err)) << Err;
  server::Client C;
  ASSERT_TRUE(C.connect(SC.SocketPath)) << C.error();
  EXPECT_TRUE(C.ping());
  EXPECT_TRUE(Late.running());
}

//===----------------------------------------------------------------------===//
// Client connect retry (satellite)
//===----------------------------------------------------------------------===//

TEST(Fleet, ClientConnectRetriesUntilServerAppears) {
  char Template[] = "/tmp/terrafleet-retry-XXXXXX";
  std::string Dir = mkdtemp(Template);
  ScopedEnv Cache("TERRACPP_CACHE_DIR", Dir + "/cache");
  std::string Sock = Dir + "/late.sock";

  // The server only materialises ~300 ms after the client starts dialling.
  std::unique_ptr<server::Server> S;
  std::thread Starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server::ServerConfig SC;
    SC.SocketPath = Sock;
    SC.Workers = 1;
    S = std::make_unique<server::Server>(SC);
    std::string Err;
    ASSERT_TRUE(S->start(Err)) << Err;
  });

  server::Client C;
  server::Client::ConnectOptions O;
  O.Attempts = 100;
  O.InitialDelayMs = 10;
  O.MaxDelayMs = 100;
  O.HealthCheck = true;
  EXPECT_TRUE(C.connect(Sock, O)) << C.error();
  EXPECT_TRUE(C.ping());
  Starter.join();

  // And the bounded variant really is bounded: a path nobody will ever
  // bind fails after its few attempts instead of spinning forever.
  server::Client C2;
  server::Client::ConnectOptions O2;
  O2.Attempts = 3;
  O2.InitialDelayMs = 10;
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(C2.connect(Dir + "/never.sock", O2));
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_LT(Ms, 2000);

  S.reset();
  std::string Cmd = "rm -rf " + Dir;
  (void)!system(Cmd.c_str());
}

//===----------------------------------------------------------------------===//
// Shard failure and recovery (real terrad subprocesses: we need SIGKILL)
//===----------------------------------------------------------------------===//

#ifdef TERRACPP_TERRAD_BIN
TEST(Fleet, KillShardMidLoadYieldsShardUnavailableThenRecovers) {
  const char *Bin = TERRACPP_TERRAD_BIN;
  if (::access(Bin, X_OK) != 0)
    GTEST_SKIP() << "terrad binary not built: " << Bin;

  char Template[] = "/tmp/terrafleet-kill-XXXXXX";
  std::string Dir = mkdtemp(Template);
  ScopedEnv Cache("TERRACPP_CACHE_DIR", Dir + "/cache");

  constexpr unsigned NumShards = 3;
  DaemonProcess Procs[NumShards];
  RouterConfig RC;
  RC.FrontSocket = Dir + "/fleet.sock";
  auto SpawnShard = [&](unsigned I) {
    std::vector<std::string> Argv = {Bin, "--socket",
                                     Dir + "/shard" + std::to_string(I) +
                                         ".sock",
                                     "--quiet", "--workers", "2"};
    std::string Err;
    ASSERT_TRUE(Procs[I].spawn(Argv, {}, Err)) << Err;
  };
  for (unsigned I = 0; I != NumShards; ++I) {
    SpawnShard(I);
    ShardConfig Sh;
    Sh.SocketPath = Dir + "/shard" + std::to_string(I) + ".sock";
    Sh.Spawn = false; // This test owns the processes so it can SIGKILL one.
    RC.Shards.push_back(Sh);
  }
  RC.ConnectAttempts = 100;
  RC.ReconnectBaseMs = 20;
  RC.ReconnectMaxMs = 200;

  {
    Router R(RC);
    std::string Err;
    ASSERT_TRUE(R.start(Err)) << Err;

    // A long-running call parks work on one specific shard. The recurrence
    // keeps the loop from being folded away by the shard's native compiler.
    const char *SpinSrc = "terra spin(n: int): int\n"
                          "  var s = 0\n"
                          "  for i = 0, n do s = s * 31 + i end\n"
                          "  return s\n"
                          "end\n";
    server::Client C;
    ASSERT_TRUE(C.connect(RC.FrontSocket)) << C.error();
    server::Client::CompileResult Compiled = C.compile(SpinSrc, "spin.t");
    ASSERT_TRUE(Compiled.OK) << Compiled.Error << "\n" << Compiled.Diagnostics;
    int Victim = R.shardIndexForKey(Compiled.Handle);
    ASSERT_GE(Victim, 0);

    std::atomic<bool> CallReturned{false};
    Value CallResp;
    std::thread InFlight([&] {
      server::Client C2;
      if (!C2.connect(RC.FrontSocket))
        return;
      Value Req = Value::object();
      Req.set("op", Value::string("call"));
      Req.set("handle", Value::string(Compiled.Handle));
      Req.set("fn", Value::string("spin"));
      Value Args = Value::array();
      Args.push(Value::number(2000000000));
      Req.set("args", std::move(Args));
      CallResp = C2.request(Req);
      CallReturned = true;
    });

    // Let the call reach the victim, then kill the shard dead — no drain,
    // no goodbye frame, exactly what a crashed node looks like.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_FALSE(CallReturned.load()) << "spin call finished too early to "
                                         "test mid-load failure";
    Procs[Victim].terminate(SIGKILL);

    // The in-flight request must complete promptly with a structured error,
    // not hang until some multi-second timeout.
    InFlight.join();
    ASSERT_TRUE(CallReturned.load());
    ASSERT_FALSE(CallResp.isNull());
    EXPECT_FALSE(CallResp.getBool("ok"));
    EXPECT_EQ(CallResp.getString("code"), "shard_unavailable")
        << CallResp.getString("error");

    // The shard leaves the ring...
    ASSERT_TRUE(waitFor([&] { return !R.shardUp(static_cast<unsigned>(Victim)); },
                        5000));
    // ...and keys it owned re-route to a survivor with no interruption.
    server::Client::CompileResult Retry = C.compile(SpinSrc, "spin.t");
    ASSERT_TRUE(Retry.OK) << Retry.Error;
    EXPECT_EQ(Retry.Handle, Compiled.Handle);
    int NewOwner = R.shardIndexForKey(Compiled.Handle);
    ASSERT_GE(NewOwner, 0);
    EXPECT_NE(NewOwner, Victim);

    // Restart the shard on the same socket: the monitor thread reconnects
    // and it rejoins the ring.
    Procs[Victim] = DaemonProcess();
    SpawnShard(static_cast<unsigned>(Victim));
    ASSERT_TRUE(waitFor([&] { return R.shardUp(static_cast<unsigned>(Victim)); },
                        15000))
        << "shard never rejoined after restart";
    EXPECT_EQ(R.shardIndexForKey(Compiled.Handle), Victim)
        << "placement did not return to the original owner";
    EXPECT_GE(R.metrics().counter("fleet.reconnects").value(), 1u);

    server::Client::CompileResult After =
        C.compile("terra afterfn(x: int): int return x - 1 end\n");
    EXPECT_TRUE(After.OK) << After.Error;
    R.requestShutdown();
    R.wait();
  }
  for (DaemonProcess &P : Procs)
    P.terminate(SIGKILL);
  std::string Cmd = "rm -rf " + Dir;
  (void)!system(Cmd.c_str());
}

TEST(Fleet, RouterSpawnsOwnedShardsAndShutsThemDown) {
  const char *Bin = TERRACPP_TERRAD_BIN;
  if (::access(Bin, X_OK) != 0)
    GTEST_SKIP() << "terrad binary not built: " << Bin;

  char Template[] = "/tmp/terrafleet-spawn-XXXXXX";
  std::string Dir = mkdtemp(Template);

  RouterConfig RC;
  RC.FrontSocket = Dir + "/fleet.sock";
  RC.TerradBinary = Bin;
  RC.CacheDir = Dir + "/cache";
  for (unsigned I = 0; I != 2; ++I) {
    ShardConfig Sh;
    Sh.SocketPath = Dir + "/owned" + std::to_string(I) + ".sock";
    Sh.Spawn = true;
    RC.Shards.push_back(Sh);
  }
  RC.ConnectAttempts = 100;

  {
    Router R(RC);
    std::string Err;
    ASSERT_TRUE(R.start(Err)) << Err;
    EXPECT_TRUE(R.shardUp(0));
    EXPECT_TRUE(R.shardUp(1));

    server::Client C;
    ASSERT_TRUE(C.connect(RC.FrontSocket)) << C.error();
    server::Client::CompileResult Res =
        C.compile("terra owned(x: int): int return x + 5 end\n");
    ASSERT_TRUE(Res.OK) << Res.Error << "\n" << Res.Diagnostics;
    server::Client::CallResult Call =
        C.call(Res.Handle, "owned", {Value::number(10)});
    ASSERT_TRUE(Call.OK) << Call.Error;
    EXPECT_EQ(Call.Result.asNumber(), 15.0);

    R.requestShutdown();
    R.wait();
  } // ~Router: owned terrads must be gone, not leaked.
  std::string Cmd = "rm -rf " + Dir;
  (void)!system(Cmd.c_str());
}
#endif // TERRACPP_TERRAD_BIN

//===----------------------------------------------------------------------===//
// Fleet observability: tracing, metrics exposition, profiles (DESIGN.md §13)
//===----------------------------------------------------------------------===//

/// Enables the process-global recorder for one test and restores the
/// disabled empty state. In-process fixtures mean router and shards share
/// this recorder — cross-"process" span references still work because
/// spanRef() is pid-qualified and all parties agree on the pid.
class ScopedTracing {
public:
  ScopedTracing() {
    trace::Recorder::global().clear();
    trace::Recorder::global().enable("");
  }
  ~ScopedTracing() {
    trace::Recorder::global().disable();
    trace::Recorder::global().clear();
  }
};

TEST(Fleet, RoutedRequestChainsRouterAndShardSpans) {
  ScopedTracing Tracing;
  FleetFixture F(2);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::Client C = F.frontClient();

  // Plain pings are answered at the router; a delay_ms ping exercises the
  // full route -> shard -> relay path and therefore the span chain.
  Value Req = Value::object();
  Req.set("op", Value::string("ping"));
  Req.set("delay_ms", Value::number(1));
  Req.set("trace_id", Value::string("chain-e2e-1"));
  Value Resp = C.request(Req);
  ASSERT_TRUE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getString("trace_id"), "chain-e2e-1");

  // The route.hop span is recorded from the mux completion callback; give
  // it a moment, then walk the buffer: hop -> server.op must chain.
  std::string HopRef;
  ASSERT_TRUE(waitFor(
      [&] {
        Value Dump = trace::Recorder::global().toJson();
        const Value *Events = Dump.get("traceEvents");
        if (!Events)
          return false;
        for (const Value &E : Events->elements()) {
          const Value *Args = E.get("args");
          if (E.getString("name") == "route.hop" && Args &&
              Args->getString("trace_id") == "chain-e2e-1") {
            HopRef = Args->getString("span");
            return true;
          }
        }
        return false;
      },
      5000))
      << "router never recorded the route.hop span";
  ASSERT_FALSE(HopRef.empty());

  Value Dump = trace::Recorder::global().toJson();
  const Value *Events = Dump.get("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  bool Chained = false;
  for (const Value &E : Events->elements()) {
    const Value *Args = E.get("args");
    if (!Args)
      continue;
    if (E.getString("name") == "server.op" &&
        Args->getString("parent") == HopRef) {
      EXPECT_EQ(Args->getString("trace_id"), "chain-e2e-1");
      Chained = true;
    }
  }
  EXPECT_TRUE(Chained)
      << "shard's server.op span does not parent to the router's hop span";
}

TEST(Fleet, MuxClientErrorResponsesEchoTraceId) {
  FleetFixture F(1);
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  MuxClient Mux;
  ASSERT_TRUE(Mux.connect(F.shardSocket(0))) << Mux.error();

  // ping responses carry the shard's monotonic clock (the router's
  // clock-offset estimation reads it).
  Value Ping = Value::object();
  Ping.set("op", Value::string("ping"));
  Value PingResp = Mux.request(std::move(Ping), 5000);
  ASSERT_TRUE(PingResp.getBool("ok"));
  EXPECT_GT(PingResp.getNumber("mono_us"), 0.0);

  // A mux-side timeout is manufactured without the request in hand, yet
  // must still carry the request's trace id.
  Value Slow = Value::object();
  Slow.set("op", Value::string("ping"));
  Slow.set("delay_ms", Value::number(700));
  Slow.set("trace_id", Value::string("mux-timeout-1"));
  uint64_t Ticket = Mux.submit(std::move(Slow), 100);
  ASSERT_NE(Ticket, 0u);
  Value TimeoutResp;
  ASSERT_TRUE(Mux.await(Ticket, TimeoutResp));
  EXPECT_FALSE(TimeoutResp.getBool("ok"));
  EXPECT_EQ(TimeoutResp.getString("code"), "timeout");
  EXPECT_EQ(TimeoutResp.getString("trace_id"), "mux-timeout-1");

  // Connection loss: every in-flight request fails with its own trace id.
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  Value Slow2 = Value::object();
  Slow2.set("op", Value::string("ping"));
  Slow2.set("delay_ms", Value::number(2000));
  Slow2.set("trace_id", Value::string("mux-lost-1"));
  std::atomic<bool> Got{false};
  ASSERT_NE(Mux.submit(std::move(Slow2), 10000,
                       [&](Value Resp) {
                         EXPECT_EQ(Resp.getString("code"),
                                   "shard_unavailable");
                         EXPECT_EQ(Resp.getString("trace_id"), "mux-lost-1");
                         Got = true;
                       }),
            0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Mux.close();
  EXPECT_TRUE(Got.load());
}

TEST(Fleet, ProtocolMismatchEchoesTraceId) {
  FleetFixture F(1);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  std::string Err;
  int Fd = server::connectUnix(F.front(), Err);
  ASSERT_GE(Fd, 0) << Err;

  // Even the version-gate refusal — the earliest possible error on the
  // front socket — correlates back to the client's trace.
  Value Req = Value::object();
  Req.set("op", Value::string("ping"));
  Req.set("v", Value::number(99));
  Req.set("trace_id", Value::string("mismatch-trace-9"));
  ASSERT_TRUE(server::writeMessage(Fd, Req));
  Value Resp;
  std::string E;
  ASSERT_EQ(server::readMessage(Fd, Resp, E, 5000), server::FrameStatus::OK)
      << E;
  EXPECT_FALSE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getString("code"), "protocol_mismatch");
  EXPECT_EQ(Resp.getString("trace_id"), "mismatch-trace-9");
  ::close(Fd);
}

TEST(Fleet, AggregatedMetricsTextMergesShardExpositions) {
  FleetFixture F(2);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::Client C = F.frontClient();
  ASSERT_TRUE(C.ping());

  Value Req = Value::object();
  Req.set("op", Value::string("metrics_text"));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
  EXPECT_EQ(Resp.getString("content_type"), "text/plain; version=0.0.4");
  std::string Text = Resp.getString("text");

  // Router families under the terrafleet process label...
  EXPECT_NE(Text.find("terracpp_fleet_requests_routed"), std::string::npos);
  EXPECT_NE(Text.find("process=\"terrafleet\""), std::string::npos);
  // ...and every shard's families, disambiguated by the shard label.
  EXPECT_NE(Text.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(Text.find("shard=\"1\""), std::string::npos);
  // Merged exposition: one TYPE line per family even though both shards
  // exposed it.
  const std::string Family = "# TYPE terracpp_server_requests_received ";
  size_t First = Text.find(Family);
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Text.find(Family, First + 1), std::string::npos);
}

TEST(Fleet, AggregatedProfileNamespacesComponentsByShard) {
  if (Engine::defaultBackend() != BackendKind::Native)
    GTEST_SKIP() << "tier auto needs the native backend";
  ScopedEnv Tier("TERRACPP_JIT_TIER", "auto");
  ScopedEnv NoBase("TERRACPP_JIT_BASELINE", "0");
  ScopedEnv Calls("TERRACPP_TIER_CALL_THRESHOLD", "1000000");
  ScopedEnv Back("TERRACPP_TIER_BACKEDGE_THRESHOLD", "1000000000");
  FleetFixture F(2);
  ASSERT_TRUE(F.StartOK) << F.StartErr;
  server::Client C = F.frontClient();

  server::Client::CompileResult R =
      C.compile("terra pf(x: int): int return x + 3 end\n");
  ASSERT_TRUE(R.OK) << R.Error << "\n" << R.Diagnostics;
  server::Client::CallResult Call = C.call(R.Handle, "pf", {Value::number(4)});
  ASSERT_TRUE(Call.OK) << Call.Error;

  Value Req = Value::object();
  Req.set("op", Value::string("profile"));
  Value Resp = C.request(Req);
  ASSERT_FALSE(Resp.isNull()) << C.error();
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
  const Value *Components = Resp.get("components");
  ASSERT_TRUE(Components && Components->isObject());
  // Fleet profiles key components "<hash>@<shard>" (the hash is the
  // content hash of the generated C, not the script handle) so the same
  // component on two shards keeps both counter sets; the source shard
  // also rides along as a member.
  bool Saw = false;
  for (const auto &M : Components->members()) {
    size_t At = M.first.find('@');
    ASSERT_NE(At, std::string::npos) << "unqualified key " << M.first;
    EXPECT_GE(M.second.getNumber("shard", -1), 0.0);
    const Value *Fns = M.second.get("functions");
    if (!Fns || !Fns->isObject())
      continue;
    for (const auto &Fn : Fns->members())
      if (Fn.second.getString("name") == "pf" &&
          Fn.second.getNumber("calls") >= 1)
        Saw = true;
  }
  EXPECT_TRUE(Saw) << "called function missing from the fleet profile";
}

TEST(Fleet, MergedTraceSnapshotsStayWellFormedUnderLoad) {
  ScopedTracing Tracing;
  RouterConfig RC;
  RC.TraceShards = true; // Attached shards still get clock-aligned.
  FleetFixture F(2, RC);
  ASSERT_TRUE(F.StartOK) << F.StartErr;

  std::atomic<bool> Stop{false};
  std::thread Load([&] {
    server::Client C;
    if (!C.connect(F.front()))
      return;
    while (!Stop.load())
      C.ping();
  });

  // Live snapshots via the public merge entry point (what the front-socket
  // trace_dump op serves) must always be complete, parseable timelines.
  for (int I = 0; I != 10; ++I) {
    Value Merged = F.router().mergedTraceJson();
    const Value *Events = Merged.get("traceEvents");
    ASSERT_TRUE(Events && Events->isArray());
    EXPECT_EQ(Merged.getString("displayTimeUnit"), "ms");
    for (const Value &E : Events->elements()) {
      if (E.getString("ph") == "M")
        continue;
      EXPECT_FALSE(E.getString("name").empty());
      EXPECT_GE(E.getNumber("ts", -1), 0.0);
      EXPECT_GT(E.getNumber("pid"), 0.0);
    }
  }
  Stop = true;
  Load.join();

  // The in-process shards share our recorder, so the merged view must
  // contain shard-side server.op spans pulled over trace_dump.
  Value Merged = F.router().mergedTraceJson();
  bool SawServerOp = false;
  for (const Value &E : Merged.get("traceEvents")->elements())
    if (E.getString("name") == "server.op")
      SawServerOp = true;
  EXPECT_TRUE(SawServerOp);
}

} // namespace
