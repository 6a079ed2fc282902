//===- terracpp.cpp - Command-line driver ---------------------------------===//
//
// Runs combined Lua/Terra programs from files or -e strings, like the
// original `terra` executable:
//
//   terracpp program.t                  run a script
//   terracpp -e 'print(1 + 2)'         run a chunk
//   terracpp --backend=interp prog.t   run without a C compiler
//   terracpp --dump-fn NAME prog.t     pretty-print a terra function after
//                                      running the script
//   terracpp --emit-c NAME prog.t      print the generated C for NAME's
//                                      connected component
//
// Client mode for the terrad daemon (tools/terrad.cpp):
//
//   terracpp --connect SOCK prog.t          compile remotely, print handle
//   terracpp --connect SOCK prog.t --call 'f(1,2)'   ...then invoke f
//   terracpp --connect SOCK --handle H --call 'f(3)' invoke via known handle
//   terracpp --connect SOCK --remote-stats           server counters
//   terracpp --connect SOCK --remote-shutdown        drain and stop terrad
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"
#include "core/CBackend.h"
#include "core/Engine.h"
#include "core/TerraPasses.h"
#include "core/TerraPrint.h"
#include "core/TerraTier.h"
#include "orion/OrionHosted.h"
#include "server/Client.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace terracpp;

namespace {

void usage() {
  fprintf(stderr,
          "usage: terracpp [options] [script.t]\n"
          "  -e CHUNK           run CHUNK\n"
          "  --backend=KIND     when cc compiles Terra code: native (at first\n"
          "                     call), tiered (start interpreted, promote hot\n"
          "                     code in the background) or interp (never).\n"
          "                     Default $TERRACPP_BACKEND, else native if cc\n"
          "                     is on PATH. TERRACPP_INTERP picks what runs\n"
          "                     uncompiled code: baseline (JIT, default) or\n"
          "                     vm (bytecode interpreter)\n"
          "  --dump-fn NAME     pretty-print terra function NAME\n"
          "  --emit-c NAME      print generated C for NAME\n"
          "  --analyze          run the terracheck lints (TA001..TA008) over\n"
          "                     every terra function after the script runs\n"
          "  --analyze-werror   treat analysis findings as errors (exit 1)\n"
          "  --analyze-json=OUT write findings as machine-readable JSON\n"
          "                     (code, message, file, line, col, function,\n"
          "                     ranges) for editor/CI consumption\n"
          "  --trace=OUT.json   record a Chrome trace of every compile phase\n"
          "                     (also via the TERRACPP_TRACE env variable)\n"
          "  --time-report      print a per-phase latency summary on exit\n"
          "  --profile=OUT.json write per-function call/back-edge counts and\n"
          "                     resident tiers, keyed by component content\n"
          "                     hash (same format as terrad's profile op)\n"
          "remote mode (against a running terrad):\n"
          "  --connect SOCK     compile the script/chunks on the daemon\n"
          "  --handle H         reuse a previous compile handle\n"
          "  --call 'f(a,...)'  invoke a compiled function (scalar args)\n"
          "  --remote-stats     print server counters\n"
          "  --remote-shutdown  drain the server and exit it\n");
}

/// Parses "name(1,2.5,true,\"s\")" into a function name + scalar JSON args.
bool parseCallSpec(const std::string &Spec, std::string &Fn,
                   std::vector<json::Value> &Args) {
  size_t Open = Spec.find('(');
  if (Open == std::string::npos) {
    Fn = Spec; // Bare name: zero-argument call.
    return !Fn.empty();
  }
  Fn = Spec.substr(0, Open);
  size_t Close = Spec.rfind(')');
  if (Fn.empty() || Close == std::string::npos || Close < Open)
    return false;
  std::string Inner = Spec.substr(Open + 1, Close - Open - 1);
  std::string Tok;
  std::istringstream SS(Inner);
  while (std::getline(SS, Tok, ',')) {
    // Trim blanks.
    size_t B = Tok.find_first_not_of(" \t");
    size_t E = Tok.find_last_not_of(" \t");
    if (B == std::string::npos)
      return false;
    Tok = Tok.substr(B, E - B + 1);
    json::Value V;
    std::string Err;
    if (!json::parse(Tok, V, Err))
      return false;
    Args.push_back(std::move(V));
  }
  return true;
}

int runRemote(const std::string &Socket, const std::string &ScriptPath,
              const std::vector<std::string> &Chunks, std::string Handle,
              const std::string &CallSpec, bool WantStats, bool WantShutdown) {
  server::Client C;
  if (!C.connect(Socket)) {
    fprintf(stderr, "terracpp: %s\n", C.error().c_str());
    return 1;
  }

  std::string Source;
  for (const std::string &Chunk : Chunks)
    Source += Chunk + "\n";
  if (!ScriptPath.empty()) {
    std::ifstream In(ScriptPath);
    if (!In) {
      fprintf(stderr, "terracpp: cannot open %s\n", ScriptPath.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source += SS.str();
  }

  if (!Source.empty()) {
    server::Client::CompileResult R = C.compile(
        Source, ScriptPath.empty() ? "<command line>" : ScriptPath);
    if (!R.OK) {
      fprintf(stderr, "remote compile failed: %s\n%s", R.Error.c_str(),
              R.Diagnostics.c_str());
      return 1;
    }
    Handle = R.Handle;
    printf("handle: %s (%s, %.3fs)\n", R.Handle.c_str(),
           R.Warm ? "warm" : "cold", R.Seconds);
    for (const std::string &F : R.Functions)
      printf("  terra %s\n", F.c_str());
    for (const std::string &W : R.Warnings)
      fprintf(stderr, "%s", W.c_str());
  }

  if (!CallSpec.empty()) {
    if (Handle.empty()) {
      fprintf(stderr, "terracpp: --call needs a script or --handle\n");
      return 2;
    }
    std::string Fn;
    std::vector<json::Value> Args;
    if (!parseCallSpec(CallSpec, Fn, Args)) {
      fprintf(stderr, "terracpp: malformed --call spec '%s'\n",
              CallSpec.c_str());
      return 2;
    }
    server::Client::CallResult R = C.call(Handle, Fn, Args);
    if (!R.OK) {
      fprintf(stderr, "remote call failed: %s\n%s", R.Error.c_str(),
              R.Diagnostics.c_str());
      return 1;
    }
    printf("%s\n", R.Result.dump().c_str());
  }

  if (WantStats) {
    json::Value S = C.stats();
    if (S.isNull()) {
      fprintf(stderr, "terracpp: %s\n", C.error().c_str());
      return 1;
    }
    printf("%s\n", S.dump().c_str());
  }
  if (WantShutdown) {
    if (!C.shutdownServer()) {
      fprintf(stderr, "terracpp: shutdown failed: %s\n", C.error().c_str());
      return 1;
    }
    printf("server draining\n");
  }
  return 0;
}

/// Flushes the trace recorder on every exit path from main (including
/// early error returns) once --trace has enabled it.
struct TraceFlusher {
  ~TraceFlusher() {
    trace::Recorder &R = trace::Recorder::global();
    if (R.enabled() && !R.outPath().empty() && R.flush())
      fprintf(stderr, "terracpp: trace written to %s (%zu events)\n",
              R.outPath().c_str(), R.eventCount());
  }
};

void printHistogramRow(const std::string &Name,
                       const telemetry::Histogram &H, bool Force) {
  telemetry::Histogram::Snapshot S = H.snapshot();
  if (S.Count == 0 && !Force)
    return;
  fprintf(stderr, "  %-32s %8llu %12.3f %10.1f %10.1f %10.1f\n", Name.c_str(),
          static_cast<unsigned long long>(S.Count),
          static_cast<double>(S.Sum) / 1000.0, S.Mean, S.P50, S.P95);
}

/// The --time-report table. The canonical pipeline phases print first, in
/// execution order and unconditionally — a zero-count row (e.g. analyze
/// when --analyze was not passed, baseline emission under --backend=native)
/// is the report saying "this stage exists and did not run", which keeps
/// the table shape stable for scripts that diff reports. Every other
/// histogram with data (thread pool, VM dispatch, autotuner) follows.
void printTimeReport(Engine &E) {
  telemetry::Registry &Global = telemetry::Registry::global();
  telemetry::Registry &Jit = E.compiler().jit().metrics();
  // (registry, phase) in pipeline order; histogram() creates absent rows.
  const std::pair<telemetry::Registry *, const char *> Canonical[] = {
      {&Global, "frontend.parse_us"},    {&Global, "frontend.specialize_us"},
      {&Global, "frontend.typecheck_us"}, {&Global, "frontend.analyze_us"},
      {&Global, "frontend.codegen_us"},  {&Jit, "jit.baseline_emit_us"},
      {&Jit, "jit.cc_us"},               {&Jit, "jit.link_us"},
  };
  fprintf(stderr, "== terracpp time report ==\n");
  fprintf(stderr, "  %-32s %8s %12s %10s %10s %10s\n", "phase", "count",
          "total_ms", "mean_us", "p50_us", "p95_us");
  for (const auto &C : Canonical)
    printHistogramRow(C.second, C.first->histogram(C.second), true);
  auto Rest = [&](const std::string &Name, const telemetry::Histogram &H) {
    for (const auto &C : Canonical)
      if (Name == C.second)
        return;
    printHistogramRow(Name, H, false);
  };
  Global.forEachHistogram(Rest);
  Jit.forEachHistogram(Rest);
}

/// --analyze-json=OUT: the structured findings behind the stderr render,
/// one object per non-suppressed finding. The same codes/messages/locations
/// the DiagnosticEngine prints, plus the containing function and (for the
/// interval lints) the offending value range.
bool writeAnalyzeJson(Engine &E, const analysis::AnalysisReport &Report,
                      const std::string &Path) {
  json::Value Arr = json::Value::array();
  for (const analysis::ReportedFinding &F : Report.Findings) {
    json::Value O = json::Value::object();
    O.set("code", json::Value::string(F.Code));
    O.set("message", json::Value::string(F.Message));
    O.set("file", json::Value::string(
                      F.Loc.isValid()
                          ? E.sourceManager().bufferName(F.Loc.BufferId)
                          : std::string()));
    O.set("line", json::Value::number(F.Loc.Line));
    O.set("col", json::Value::number(F.Loc.Column));
    O.set("function", json::Value::string(F.Function));
    O.set("ranges", json::Value::string(F.Ranges));
    Arr.push(std::move(O));
  }
  json::Value Out = json::Value::object();
  Out.set("version", json::Value::number(1));
  Out.set("count", json::Value::number(Report.NumFindings));
  Out.set("findings", std::move(Arr));
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS) {
    fprintf(stderr, "terracpp: cannot write analysis report to %s\n",
            Path.c_str());
    return false;
  }
  OS << Out.dump() << "\n";
  return static_cast<bool>(OS);
}

/// --profile=OUT.json: the same per-function profile document terrad's
/// "profile" op serves, written locally. Tier counters only exist under
/// --backend=tiered; otherwise components is empty.
bool writeProfile(Engine &E, const std::string &Path) {
  json::Value Components = json::Value::object();
  if (TierManager *TM = E.compiler().tierManager())
    Components = TM->profileJson();
  json::Value Out = json::Value::object();
  Out.set("version", json::Value::number(1));
  Out.set("components", std::move(Components));
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS) {
    fprintf(stderr, "terracpp: cannot write profile to %s\n", Path.c_str());
    return false;
  }
  OS << Out.dump() << "\n";
  return static_cast<bool>(OS);
}

} // namespace

int main(int Argc, char **Argv) {
  BackendKind Backend = Engine::defaultBackend();
  std::vector<std::string> Chunks;
  std::string ScriptPath;
  std::string DumpFn, EmitC;
  std::string ConnectSocket, RemoteHandle, CallSpec;
  std::string TracePath, ProfilePath;
  bool RemoteStats = false, RemoteShutdown = false, TimeReport = false;
  bool Analyze = false, AnalyzeWerror = false;
  std::string AnalyzeJsonPath;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-e" && I + 1 < Argc) {
      Chunks.push_back(Argv[++I]);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(strlen("--trace="));
    } else if (Arg.rfind("--profile=", 0) == 0) {
      ProfilePath = Arg.substr(strlen("--profile="));
    } else if (Arg == "--time-report") {
      TimeReport = true;
    } else if (Arg == "--backend=native") {
      Backend = BackendKind::Native;
    } else if (Arg == "--backend=tiered") {
      Backend = BackendKind::Tiered;
    } else if (Arg == "--backend=interp") {
      Backend = BackendKind::Interp;
    } else if (Arg == "--analyze") {
      Analyze = true;
    } else if (Arg == "--analyze-werror") {
      Analyze = true;
      AnalyzeWerror = true;
    } else if (Arg.rfind("--analyze-json=", 0) == 0) {
      Analyze = true;
      AnalyzeJsonPath = Arg.substr(strlen("--analyze-json="));
    } else if (Arg == "--dump-fn" && I + 1 < Argc) {
      DumpFn = Argv[++I];
    } else if (Arg == "--emit-c" && I + 1 < Argc) {
      EmitC = Argv[++I];
    } else if (Arg == "--connect" && I + 1 < Argc) {
      ConnectSocket = Argv[++I];
    } else if (Arg == "--handle" && I + 1 < Argc) {
      RemoteHandle = Argv[++I];
    } else if (Arg == "--call" && I + 1 < Argc) {
      CallSpec = Argv[++I];
    } else if (Arg == "--remote-stats") {
      RemoteStats = true;
    } else if (Arg == "--remote-shutdown") {
      RemoteShutdown = true;
    } else if (Arg == "-h" || Arg == "--help") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      fprintf(stderr, "unknown option: %s\n", Arg.c_str());
      usage();
      return 2;
    } else {
      ScriptPath = Arg;
    }
  }
  if (!ConnectSocket.empty())
    return runRemote(ConnectSocket, ScriptPath, Chunks, RemoteHandle, CallSpec,
                     RemoteStats, RemoteShutdown);
  if (Chunks.empty() && ScriptPath.empty()) {
    usage();
    return 2;
  }

  // Enable tracing before the Engine exists so engine construction and the
  // very first parse are covered; TraceFlusher writes the file on every
  // exit path below.
  if (!TracePath.empty())
    trace::Recorder::global().enable(TracePath);
  trace::Recorder::global().setProcessName("terracpp");
  TraceFlusher FlushOnExit;

  Engine E(Backend);
  E.compiler().setAnalyzeWerror(AnalyzeWerror);
  orion::installHostedOrion(E); // DSL-in-host demo library (paper §6.2/§8).
  for (const std::string &C : Chunks)
    if (!E.run(C, "<command line>")) {
      fprintf(stderr, "%s", E.errors().c_str());
      return 1;
    }
  if (!ScriptPath.empty() && !E.runFile(ScriptPath)) {
    fprintf(stderr, "%s", E.errors().c_str());
    return 1;
  }

  if (Analyze) {
    // Sweep every terra function the script defined, including ones the
    // script never called (the pipeline only analyzes what it compiles).
    analysis::AnalysisReport Report;
    unsigned Findings = E.analyzeAll(&Report);
    fprintf(stderr, "%s", E.errors().c_str());
    fprintf(stderr, "terracheck: %u finding%s\n", Findings,
            Findings == 1 ? "" : "s");
    if (!AnalyzeJsonPath.empty() &&
        !writeAnalyzeJson(E, Report, AnalyzeJsonPath))
      return 1;
    if (E.diags().hasErrors() || (AnalyzeWerror && Findings != 0))
      return 1;
  } else if (E.diags().warningCount() != 0) {
    // Pipeline-produced analysis warnings (compiles triggered while the
    // script ran) would otherwise be silently dropped on success.
    fprintf(stderr, "%s", E.errors().c_str());
  }

  if (!DumpFn.empty()) {
    TerraFunction *F = E.terraFunction(DumpFn);
    if (!F) {
      fprintf(stderr, "no terra function named '%s'\n", DumpFn.c_str());
      return 1;
    }
    printf("%s", printFunction(F).c_str());
  }
  if (!EmitC.empty()) {
    TerraFunction *F = E.terraFunction(EmitC);
    if (!F) {
      fprintf(stderr, "no terra function named '%s'\n", EmitC.c_str());
      return 1;
    }
    if (!E.compiler().typechecker().check(F)) {
      fprintf(stderr, "%s", E.errors().c_str());
      return 1;
    }
    runMidendPasses(E.context(), F);
    CBackend CB(E.context());
    std::vector<TerraFunction *> Fns = {F};
    for (TerraFunction *Callee : F->Callees)
      if (!Callee->IsExtern)
        Fns.push_back(Callee);
    printf("%s", CB.emitModule(Fns, &E.compiler()).c_str());
  }
  if (!ProfilePath.empty() && !writeProfile(E, ProfilePath))
    return 1;
  if (TimeReport)
    printTimeReport(E);
  return 0;
}
