//===- terrad.cpp - Kernel-compilation daemon -----------------------------===//
//
// Runs the terrad service (src/server): a long-lived daemon that compiles
// Lua/Terra scripts on behalf of many concurrent clients and invokes the
// resulting native functions by content-hash handle.
//
//   terrad --socket /tmp/terrad.sock
//   terrad --workers 8 --queue 256 --max-engines 16 --timeout-ms 60000
//
// Talk to it with `terracpp --connect SOCKET ...` or the C++ client library
// (server/Client.h). SIGTERM/SIGINT drain in-flight requests, flush their
// responses, then remove the socket file and exit.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace terracpp;
using namespace terracpp::server;

namespace {

void usage() {
  fprintf(stderr,
          "usage: terrad [options]\n"
          "  --socket PATH      Unix socket to listen on\n"
          "                     (default $TERRAD_SOCKET or /tmp/terrad-$UID.sock)\n"
          "  --workers N        worker threads (default $TERRAD_WORKERS or cores)\n"
          "  --queue N          bounded request-queue capacity\n"
          "                     (default $TERRAD_QUEUE or 64)\n"
          "  --max-engines N    live compiled-script LRU capacity\n"
          "                     (default $TERRAD_MAX_ENGINES or 8)\n"
          "  --timeout-ms N     per-request deadline\n"
          "                     (default $TERRAD_TIMEOUT_MS or 30000)\n"
          "  --slow-ms N        slow-request WARN threshold, 0 disables\n"
          "                     (default $TERRAD_SLOW_MS or 1000)\n"
          "  --log-level LEVEL  debug|info|warn|error|off\n"
          "                     (default $TERRAD_LOG_LEVEL or info)\n"
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
  ServerConfig Config = ServerConfig::fromEnv();
  bool Quiet = false;
  logging::configureFromEnv(); // TERRAD_LOG_{LEVEL,JSON}; flags override.
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    unsigned N = 0;
    if (Arg == "--socket" && I + 1 < Argc) {
      Config.SocketPath = Argv[++I];
    } else if (Arg == "--workers" && I + 1 < Argc && parseUnsigned(Argv[++I], N)) {
      Config.Workers = N;
    } else if (Arg == "--queue" && I + 1 < Argc && parseUnsigned(Argv[++I], N)) {
      Config.QueueCapacity = N;
    } else if (Arg == "--max-engines" && I + 1 < Argc &&
               parseUnsigned(Argv[++I], N)) {
      Config.MaxEngines = N;
    } else if (Arg == "--timeout-ms" && I + 1 < Argc &&
               parseUnsigned(Argv[++I], N)) {
      Config.RequestTimeoutMs = static_cast<int>(N);
    } else if (Arg == "--slow-ms" && I + 1 < Argc) {
      // 0 is a valid value here (disables the WARN), so parse directly.
      char *End = nullptr;
      long SlowN = strtol(Argv[++I], &End, 10);
      if (!End || *End != '\0' || SlowN < 0) {
        fprintf(stderr, "bad --slow-ms '%s'\n", Argv[I]);
        usage();
        return 2;
      }
      Config.SlowRequestMs = static_cast<int>(SlowN);
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

  FrontEnd::installSignalHandlers();
  Server S(Config);
  // Lane label in merged fleet traces; harmless when tracing is off.
  trace::Recorder::global().setProcessName("terrad " +
                                           S.config().SocketPath);
  std::string Err;
  if (!S.start(Err)) {
    fprintf(stderr, "terrad: %s\n", Err.c_str());
    return 1;
  }
  if (!Quiet)
    fprintf(stderr,
            "terrad: listening on %s (%u workers, queue %u, %u engines, "
            "%d ms timeout)\n",
            S.config().SocketPath.c_str(), S.config().Workers,
            S.config().QueueCapacity, S.config().MaxEngines,
            S.config().RequestTimeoutMs);
  S.wait();

  Server::Stats Stats = S.stats();
  if (!Quiet)
    fprintf(stderr,
            "terrad: drained %s(%llu requests served, %llu engines built)\n",
            Stats.DrainedClean ? "cleanly " : "",
            static_cast<unsigned long long>(Stats.RequestsCompleted),
            static_cast<unsigned long long>(Stats.EnginesCreated));
  return 0;
}
