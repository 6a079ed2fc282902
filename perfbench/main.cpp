//===- main.cpp - terracpp end-to-end benchmark ---------------------------===//
//
//   perfbench --workload scripts|kernels|service --seed N --seconds S
//             --trace 0|1 --bin-dir DIR --work-dir DIR --results-dir DIR
//             [--git-sha SHA] [--smoke]
//
// Every run sets up and measures all three phases (scripts, kernels,
// service), because every run reports every end-to-end metric; the
// workload picks which phase runs at full size, and the phases' timed
// steps are interleaved. --trace 1 reports the per-layer metrics instead.
// The last line of stdout is the result object; the full document (result,
// host stamps, per-program rows, failure reasons) goes to --results-dir.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Log.h"
#include "support/Subprocess.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace perfbench;
using namespace terracpp;
namespace fs = std::filesystem;

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  json::Value M = json::Value::object();
  M.set("value", json::Value::number(Value));
  M.set("unit", json::Value::string(Unit));
  Metrics.set(Name, std::move(M));
}

void Report::failed(const std::string &Why) {
  ++Failed;
  if (Reasons.size() < 50)
    Reasons.push_back(Why);
}

void Report::wrong(const std::string &Why) {
  Correct = false;
  failed(Why);
}

json::Value Report::resultLine() const {
  json::Value R = json::Value::object();
  R.set("correct", json::Value::boolean(Correct));
  R.set("attempted", json::Value::number(static_cast<double>(Attempted)));
  R.set("failed", json::Value::number(static_cast<double>(Failed)));
  R.set("metrics", Metrics);
  return R;
}

json::Value Report::document(const Options &O) const {
  json::Value D = json::Value::object();
  D.set("result", resultLine());
  json::Value Host = json::Value::object();
  Host.set("nproc", json::Value::number(std::thread::hardware_concurrency()));
  Host.set("cc", json::Value::string(O.CcIdentity));
  Host.set("git_sha", json::Value::string(O.GitSha));
  D.set("host", std::move(Host));
  json::Value Run = json::Value::object();
  Run.set("workload", json::Value::string(O.Workload));
  Run.set("seed", json::Value::number(static_cast<double>(O.Seed)));
  Run.set("trace", json::Value::boolean(O.Trace));
  Run.set("programs_per_pass",
          json::Value::number(5.0 * O.P.ProgramsPerTemplate));
  Run.set("hot_rounds", json::Value::number(O.P.HotRounds));
  Run.set("kernel_reps", json::Value::number(O.P.KernelReps));
  Run.set("service_windows", json::Value::number(O.P.ServiceWindows));
  Run.set("service_rate_rps", json::Value::number(O.P.ServiceRate));
  D.set("run", std::move(Run));
  json::Value Why = json::Value::array();
  for (const std::string &S : Reasons)
    Why.push(json::Value::string(S));
  D.set("failures", std::move(Why));
  D.set("detail", Detail);
  return D;
}

namespace {

bool parseArgs(int Argc, char **Argv, Options &O, std::string &ResultsDir) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atoi(Next().c_str());
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--bin-dir")
      O.BinDir = Next();
    else if (A == "--work-dir")
      O.WorkDir = Next();
    else if (A == "--results-dir")
      ResultsDir = Next();
    else if (A == "--git-sha")
      O.GitSha = Next();
    else if (A == "--smoke")
      O.Smoke = true;
    else
      return false;
  }
  return (O.Workload == "scripts" || O.Workload == "kernels" ||
          O.Workload == "service") &&
         O.Seconds > 0 && !O.BinDir.empty() && !O.WorkDir.empty();
}

/// Full size for the workload's own phase, reduced sizes for the others.
/// One run at --seconds 15 takes 20-30 s on a 4-core x86-64 VM.
Plan planFor(const Options &O) {
  Plan P;
  if (O.Smoke) {
    P.ProgramsPerTemplate = 1;
    P.HotRounds = 1;
    P.KernelReps = 2;
    P.ServiceWindows = 1;
    P.SetupRepeats = 1;
    return P;
  }
  bool Scripts = O.Workload == "scripts", Kernels = O.Workload == "kernels",
       Service = O.Workload == "service";
  P.ProgramsPerTemplate = Scripts ? 20 : 6;
  P.HotRounds = Scripts ? 5 : 16;
  P.KernelReps = Kernels ? 151 : 41;
  // --seconds sets the service phase's length: windows take ~0.7 s each
  // (0.5 s open loop, 0.2 s closed loop), at least 10 of them.
  P.ServiceWindows = static_cast<unsigned>(
      std::max(10.0, (Service ? 1.2 : 0.67) * O.Seconds));
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string ResultsDir;
  if (!parseArgs(Argc, Argv, O, ResultsDir)) {
    fprintf(stderr,
            "usage: perfbench --workload scripts|kernels|service --seed N "
            "--seconds S --trace 0|1 --bin-dir DIR --work-dir DIR "
            "[--results-dir DIR] [--git-sha SHA] [--smoke]\n");
    return 2;
  }
  O.P = planFor(O);
  // The in-process router logs at info level by default; keep stderr for
  // problems.
  logging::setLevel(logging::Level::Warn);
  std::error_code EC;
  fs::remove_all(O.WorkDir, EC);
  fs::create_directories(O.WorkDir, EC);
  // The compiler identity the JIT cache keys on: `cc --version`, first line.
  SpawnResult CC = runCommand({"cc", "--version"}, O.WorkDir);
  O.CcIdentity = CC.ok() ? CC.Stdout.substr(0, CC.Stdout.find('\n'))
                         : "unknown-cc";

  Report R;
  // Set up several times, each against fresh empty caches, so every set-up
  // does the same cold work; setup_s is their median. The last set-up is
  // the one measured.
  std::vector<double> SetupSec;
  std::vector<std::unique_ptr<Phase>> Phases;
  bool SetupOK = true;
  for (unsigned Rep = 0; Rep != O.P.SetupRepeats && SetupOK; ++Rep) {
    Phases.clear();
    std::string Cache = O.WorkDir + "/cache" + std::to_string(Rep);
    double T0 = nowUs();
    Phases.push_back(makeScriptsPhase(O, Cache + "/scripts"));
    Phases.push_back(makeKernelsPhase(O, Cache + "/kernels"));
    Phases.push_back(makeServicePhase(O, Cache + "/service"));
    for (auto &Ph : Phases)
      SetupOK = SetupOK && Ph->setup(R);
    SetupSec.push_back((nowUs() - T0) / 1e6);
  }
  if (SetupOK) {
    // Round-robin by progress: always advance the phase that is furthest
    // behind its share, so every phase's samples span the whole run.
    std::vector<unsigned> Done(Phases.size(), 0);
    for (;;) {
      size_t Next = Phases.size();
      double Least = 2;
      for (size_t I = 0; I != Phases.size(); ++I) {
        unsigned N = Phases[I]->steps();
        double Frac = N ? static_cast<double>(Done[I]) / N : 1;
        if (Done[I] < N && Frac < Least) {
          Least = Frac;
          Next = I;
        }
      }
      if (Next == Phases.size())
        break;
      Phases[Next]->step(Done[Next]++, R);
    }
    for (auto &Ph : Phases)
      Ph->finish(R);
    if (!O.Trace) {
      R.metric("setup_s", median(SetupSec), "s");
      struct rusage RU;
      getrusage(RUSAGE_SELF, &RU);
      R.metric("peak_rss_mb", static_cast<double>(RU.ru_maxrss) / 1024, "MB");
    }
  }
  Phases.clear();
  fs::remove_all(O.WorkDir, EC);

  json::Value Doc = R.document(O);
  if (!ResultsDir.empty()) {
    fs::create_directories(ResultsDir, EC);
    std::ofstream(ResultsDir + "/" + O.Workload + "-seed" +
                  std::to_string(O.Seed) + "-trace" +
                  std::to_string(O.Trace) + ".json")
        << Doc.dump() << "\n";
  }
  if (!SetupOK) {
    fprintf(stderr, "perfbench: set-up failed: %s\n",
            Doc.get("failures")->dump().c_str());
    return 1;
  }
  for (const json::Value &W : Doc.get("failures")->elements())
    fprintf(stderr, "perfbench: %s\n", W.asString().c_str());
  printf("%s\n", R.resultLine().dump().c_str());
  return 0;
}
