#include "support/Subprocess.h"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace terracpp;

std::string terracpp::findOnPath(const std::string &Name) {
  const char *Path = getenv("PATH");
  if (!Path || !*Path)
    return "";
  std::string P(Path);
  size_t I = 0;
  while (I <= P.size()) {
    size_t Next = P.find(':', I);
    size_t Len = (Next == std::string::npos ? P.size() : Next) - I;
    std::string Cand = Len ? P.substr(I, Len) : std::string(".");
    Cand += '/';
    Cand += Name;
    struct stat St;
    if (::stat(Cand.c_str(), &St) == 0 && S_ISREG(St.st_mode) &&
        ::access(Cand.c_str(), X_OK) == 0)
      return Cand;
    if (Next == std::string::npos)
      break;
    I = Next + 1;
  }
  return "";
}

std::vector<std::string> terracpp::splitCommandFlags(const std::string &Flags) {
  std::vector<std::string> Out;
  std::istringstream SS(Flags);
  std::string Tok;
  while (SS >> Tok)
    Out.push_back(Tok);
  return Out;
}

std::string SpawnResult::describe(const std::string &Command) const {
  if (!Spawned) {
    std::string Out = "could not start '" + Command + "'";
    if (SpawnErrno != 0) {
      Out += ": ";
      Out += strerror(SpawnErrno);
      if (SpawnErrno == ENOENT)
        Out += " (is it installed and on PATH? terracpp keeps running on "
               "the baseline JIT / interpreter tiers without it)";
    }
    return Out;
  }
  if (TermSignal != 0)
    return "'" + Command + "' was killed by signal " +
           std::to_string(TermSignal) +
           (TermSignal == SIGSEGV ? " (segmentation fault)" : "");
  if (ExitCode != 0)
    return "'" + Command + "' exited with status " + std::to_string(ExitCode);
  return "'" + Command + "' succeeded";
}

static std::string slurpAndRemove(const std::string &Path) {
  std::string Out;
  {
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Out = SS.str();
  }
  ::unlink(Path.c_str());
  return Out;
}

SpawnResult terracpp::runCommand(const std::vector<std::string> &Argv,
                                 const std::string &CaptureDir) {
  SpawnResult R;
  if (Argv.empty()) {
    R.Error = "empty argv";
    return R;
  }

  // Unique capture files: the same directory may host concurrent spawns
  // from the compile pool.
  static std::atomic<unsigned> Serial{0};
  std::string OutPath, ErrPath;
  if (!CaptureDir.empty()) {
    unsigned Id = Serial++;
    std::string Stem = CaptureDir + "/spawn" + std::to_string(::getpid()) +
                       "-" + std::to_string(Id);
    OutPath = Stem + ".out";
    ErrPath = Stem + ".err";
  }

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  if (!CaptureDir.empty()) {
    posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, OutPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, ErrPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }

  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  pid_t Pid = -1;
  int RC = posix_spawnp(&Pid, Args[0], &Actions, nullptr, Args.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (RC != 0) {
    R.SpawnErrno = RC;
    R.Error = R.describe(Argv[0]);
    if (!CaptureDir.empty()) {
      ::unlink(OutPath.c_str());
      ::unlink(ErrPath.c_str());
    }
    return R;
  }
  R.Spawned = true;

  int Status = 0;
  pid_t Waited;
  do {
    Waited = ::waitpid(Pid, &Status, 0);
  } while (Waited < 0 && errno == EINTR);
  if (Waited == Pid && WIFEXITED(Status)) {
    R.ExitCode = WEXITSTATUS(Status);
  } else {
    R.ExitCode = -1; // Signal or wait failure.
    if (Waited == Pid && WIFSIGNALED(Status))
      R.TermSignal = WTERMSIG(Status);
  }

  if (!CaptureDir.empty()) {
    R.Stdout = slurpAndRemove(OutPath);
    R.Stderr = slurpAndRemove(ErrPath);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// DaemonProcess
//===----------------------------------------------------------------------===//

DaemonProcess::DaemonProcess(DaemonProcess &&O) noexcept
    : Pid(O.Pid), Exited(O.Exited), ExitCode(O.ExitCode) {
  O.Pid = -1;
  O.Exited = false;
}

DaemonProcess &DaemonProcess::operator=(DaemonProcess &&O) noexcept {
  if (this != &O) {
    if (Pid > 0 && !Exited) {
      terminate(SIGKILL);
      waitExit(2000);
    }
    Pid = O.Pid;
    Exited = O.Exited;
    ExitCode = O.ExitCode;
    O.Pid = -1;
    O.Exited = false;
  }
  return *this;
}

DaemonProcess::~DaemonProcess() {
  if (Pid > 0 && !Exited) {
    terminate(SIGKILL);
    waitExit(2000);
  }
}

bool DaemonProcess::spawn(const std::vector<std::string> &Argv,
                          const std::vector<std::string> &EnvOverrides,
                          std::string &Err) {
  if (Argv.empty()) {
    Err = "empty argv";
    return false;
  }
  if (Pid > 0 && !Exited) {
    Err = "process already running";
    return false;
  }
  Pid = -1;
  Exited = false;
  ExitCode = -1;

  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  // Child environment: the inherited environment minus any key an override
  // replaces, plus the overrides. getenv takes the first match, so simply
  // appending would not reliably override.
  std::vector<std::string> EnvStorage;
  for (char **E = environ; E && *E; ++E) {
    const char *Entry = *E;
    const char *Eq = strchr(Entry, '=');
    size_t KeyLen = Eq ? static_cast<size_t>(Eq - Entry) : strlen(Entry);
    bool Overridden = false;
    for (const std::string &O : EnvOverrides)
      if (O.size() > KeyLen && O[KeyLen] == '=' &&
          O.compare(0, KeyLen, Entry, KeyLen) == 0) {
        Overridden = true;
        break;
      }
    if (!Overridden)
      EnvStorage.push_back(Entry);
  }
  for (const std::string &O : EnvOverrides)
    EnvStorage.push_back(O);
  std::vector<char *> Envp;
  Envp.reserve(EnvStorage.size() + 1);
  for (const std::string &E : EnvStorage)
    Envp.push_back(const_cast<char *>(E.c_str()));
  Envp.push_back(nullptr);

  pid_t P = -1;
  int RC = posix_spawnp(&P, Args[0], nullptr, nullptr, Args.data(),
                        Envp.data());
  if (RC != 0) {
    SpawnResult SR;
    SR.SpawnErrno = RC;
    Err = SR.describe(Argv[0]);
    return false;
  }
  Pid = P;
  return true;
}

void DaemonProcess::reapNow(int Status) {
  Exited = true;
  if (WIFEXITED(Status))
    ExitCode = WEXITSTATUS(Status);
  else if (WIFSIGNALED(Status))
    ExitCode = 128 + WTERMSIG(Status);
  else
    ExitCode = -1;
}

bool DaemonProcess::alive() {
  if (Pid <= 0 || Exited)
    return false;
  int Status = 0;
  pid_t W = ::waitpid(Pid, &Status, WNOHANG);
  if (W == Pid) {
    reapNow(Status);
    return false;
  }
  if (W < 0 && errno != EINTR) {
    // ECHILD: someone else reaped it; treat as exited with unknown status.
    Exited = true;
    return false;
  }
  return true;
}

void DaemonProcess::terminate(int Sig) {
  if (Pid > 0 && !Exited)
    ::kill(Pid, Sig);
}

int DaemonProcess::waitExit(int TimeoutMs) {
  if (Pid <= 0)
    return -1;
  if (Exited)
    return ExitCode;
  int Waited = 0;
  for (;;) {
    int Status = 0;
    pid_t W = ::waitpid(Pid, &Status, WNOHANG);
    if (W == Pid) {
      reapNow(Status);
      return ExitCode;
    }
    if (W < 0 && errno != EINTR) {
      Exited = true;
      return ExitCode;
    }
    if (Waited >= TimeoutMs)
      return -1;
    ::usleep(10 * 1000);
    Waited += 10;
  }
}
