//===- terrafleet.cpp - Sharded terrad routing tier -----------------------===//
//
// Runs the fleet router (src/fleet): a front-end that speaks the ordinary
// terrad protocol and consistent-hashes requests across N terrad shards
// sharing one artifact cache.
//
//   terrafleet --socket /tmp/fleet.sock --spawn 3 --cache-dir /tmp/cache
//   terrafleet --socket /tmp/fleet.sock \
//       --attach /tmp/shard0.sock --attach /tmp/shard1.sock
//
// Spawned shards are terrad subprocesses (respawned if they die, killed on
// shutdown); attached shards are externally managed and only connected to.
// Point any terrad client at the front socket: `terracpp --connect` works
// unchanged.
//
//===----------------------------------------------------------------------===//

#include "fleet/Router.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

using namespace terracpp;
using namespace terracpp::fleet;

namespace {

void usage() {
  fprintf(stderr,
          "usage: terrafleet [options]\n"
          "  --socket PATH      front Unix socket to listen on (required)\n"
          "  --spawn N          spawn N terrad shard subprocesses\n"
          "  --attach PATH      attach an existing terrad socket (repeatable)\n"
          "  --terrad BIN       terrad binary for --spawn (default: terrad)\n"
          "  --cache-dir DIR    shared TERRACPP_CACHE_DIR for spawned shards\n"
          "  --shard-dir DIR    directory for spawned shards' sockets\n"
          "                     (default: alongside the front socket)\n"
          "  --vnodes N         ring points per shard (default 64)\n"
          "  --timeout-ms N     default per-request deadline (default 30000)\n"
          "  --slow-ms N        slow-request WARN threshold, 0 disables\n"
          "                     (default $TERRAFLEET_SLOW_MS or 1000)\n"
          "  --trace PATH       distributed tracing: record router spans,\n"
          "                     spawn shards with in-memory recording, and\n"
          "                     write ONE merged Perfetto timeline (router +\n"
          "                     every shard, clock-aligned) to PATH on exit\n"
          "  --no-respawn       do not respawn dead spawned shards\n"
          "  --log-level LEVEL  debug|info|warn|error|off\n"
          "  --log-json         structured JSON log records on stderr\n"
          "  --quiet            no startup banner\n");
}

bool parseUnsigned(const char *S, unsigned &Out) {
  char *End = nullptr;
  long N = strtol(S, &End, 10);
  if (!End || *End != '\0' || N < 1)
    return false;
  Out = static_cast<unsigned>(N);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // Environment first, flags on top: a flag always wins over its variable.
  RouterConfig Config = RouterConfig::fromEnv();
  std::string ShardDir;
  unsigned SpawnCount = 0;
  bool Quiet = false;
  logging::configureFromEnv();
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    unsigned N = 0;
    if (Arg == "--socket" && I + 1 < Argc) {
      Config.FrontSocket = Argv[++I];
    } else if (Arg == "--spawn" && I + 1 < Argc && parseUnsigned(Argv[++I], N)) {
      SpawnCount = N;
    } else if (Arg == "--attach" && I + 1 < Argc) {
      ShardConfig SC;
      SC.SocketPath = Argv[++I];
      SC.Spawn = false;
      Config.Shards.push_back(SC);
    } else if (Arg == "--terrad" && I + 1 < Argc) {
      Config.TerradBinary = Argv[++I];
    } else if (Arg == "--cache-dir" && I + 1 < Argc) {
      Config.CacheDir = Argv[++I];
    } else if (Arg == "--shard-dir" && I + 1 < Argc) {
      ShardDir = Argv[++I];
    } else if (Arg == "--vnodes" && I + 1 < Argc && parseUnsigned(Argv[++I], N)) {
      Config.VirtualNodes = N;
    } else if (Arg == "--timeout-ms" && I + 1 < Argc &&
               parseUnsigned(Argv[++I], N)) {
      Config.RequestTimeoutMs = static_cast<int>(N);
    } else if (Arg == "--slow-ms" && I + 1 < Argc) {
      char *End = nullptr;
      long SlowN = strtol(Argv[++I], &End, 10);
      if (!End || *End != '\0' || SlowN < 0) {
        fprintf(stderr, "bad --slow-ms '%s'\n", Argv[I]);
        usage();
        return 2;
      }
      Config.SlowRequestMs = static_cast<int>(SlowN);
    } else if (Arg == "--trace" && I + 1 < Argc) {
      Config.TraceOutPath = Argv[++I];
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Config.TraceOutPath = Arg.substr(8);
    } else if (Arg == "--no-respawn") {
      Config.AutoRespawn = false;
    } else if (Arg == "--log-level" && I + 1 < Argc) {
      logging::Level L;
      if (!logging::parseLevel(Argv[++I], L)) {
        fprintf(stderr, "bad --log-level '%s'\n", Argv[I]);
        usage();
        return 2;
      }
      logging::setLevel(L);
    } else if (Arg == "--log-json") {
      logging::setJsonOutput(true);
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "-h" || Arg == "--help") {
      usage();
      return 0;
    } else {
      fprintf(stderr, "unknown or malformed option: %s\n", Arg.c_str());
      usage();
      return 2;
    }
  }

  if (Config.FrontSocket.empty()) {
    fprintf(stderr, "terrafleet: --socket is required\n");
    usage();
    return 2;
  }
  if (SpawnCount == 0 && Config.Shards.empty()) {
    fprintf(stderr, "terrafleet: need --spawn N and/or --attach PATH\n");
    usage();
    return 2;
  }

  // Spawned shards listen on sockets derived from the front socket (or
  // --shard-dir): fleet.sock -> fleet.sock.shard0 ...
  std::string Stem = ShardDir.empty()
                         ? Config.FrontSocket
                         : ShardDir + "/shard";
  for (unsigned I = 0; I != SpawnCount; ++I) {
    ShardConfig SC;
    SC.SocketPath = Stem + ".shard" + std::to_string(I);
    SC.Spawn = true;
    Config.Shards.push_back(SC);
  }

  if (!Config.TraceOutPath.empty()) {
    // Record router spans in memory (the merged file is the only output);
    // shards are spawned with TERRACPP_TRACE=- and pulled via trace_dump.
    Config.TraceShards = true;
    trace::Recorder::global().enable("");
  }
  trace::Recorder::global().setProcessName("terrafleet " +
                                           Config.FrontSocket);

  server::FrontEnd::installSignalHandlers();
  Router R(Config);
  std::string Err;
  if (!R.start(Err)) {
    fprintf(stderr, "terrafleet: %s\n", Err.c_str());
    return 1;
  }
  if (!Quiet) {
    unsigned Up = 0;
    for (unsigned I = 0; I != R.shardCount(); ++I)
      if (R.shardUp(I))
        ++Up;
    fprintf(stderr,
            "terrafleet: listening on %s (%u/%u shards up, %u vnodes, "
            "%d ms timeout)\n",
            Config.FrontSocket.c_str(), Up, R.shardCount(),
            Config.VirtualNodes, Config.RequestTimeoutMs);
  }
  R.wait();
  if (!Quiet)
    fprintf(stderr, "terrafleet: shut down (%llu requests routed)\n",
            static_cast<unsigned long long>(
                R.metrics().counter("fleet.requests_routed").value()));
  return 0;
}
