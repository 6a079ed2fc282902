//===- Subprocess.h - posix_spawn command execution -------------*- C++ -*-===//
//
// Replaces the JIT's original system() calls: runs a command by argv via
// posix_spawnp with stdout/stderr redirected to files, so compiler
// diagnostics can be captured and attached to the DiagnosticEngine instead
// of leaking to the terminal. No shell is involved, so paths with spaces
// and metacharacters are safe, and many compiles can run concurrently.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SUPPORT_SUBPROCESS_H
#define TERRACPP_SUPPORT_SUBPROCESS_H

#include <string>
#include <vector>

namespace terracpp {

struct SpawnResult {
  bool Spawned = false; ///< False if the process could not be started.
  int ExitCode = -1;    ///< Exit status; -1 if killed by a signal.
  int TermSignal = 0;   ///< Terminating signal number, if any.
  int SpawnErrno = 0;   ///< errno from posix_spawnp when !Spawned.
  std::string Stdout;   ///< Captured stdout (empty unless requested).
  std::string Stderr;   ///< Captured stderr (empty unless requested).
  std::string Error;    ///< Spawn-level failure description.

  bool ok() const { return Spawned && ExitCode == 0; }

  /// True when the command itself could not be started (e.g. the binary is
  /// not installed), as opposed to it running and failing.
  bool spawnFailed() const { return !Spawned; }

  /// One-line structured description of what went wrong, suitable for a
  /// diagnostic: distinguishes "could not start <cmd>" (with errno text and
  /// an install hint for ENOENT) from nonzero exits and signal deaths.
  std::string describe(const std::string &Command) const;
};

/// Runs Argv[0] (searched on PATH) with the given arguments. When
/// \p CaptureDir is non-empty, stdout/stderr are redirected into scratch
/// files under it (which must exist and be writable) and returned in the
/// result; otherwise the streams are inherited. Blocks until exit.
SpawnResult runCommand(const std::vector<std::string> &Argv,
                       const std::string &CaptureDir);

/// The first executable regular file named \p Name in the directories of
/// the current PATH — the file runCommand's posix_spawnp would start. An
/// empty PATH entry means the working directory. Empty when PATH is unset
/// or no directory holds one.
std::string findOnPath(const std::string &Name);

/// Splits a flag string on whitespace ("-O3 -march=native" -> 2 args).
std::vector<std::string> splitCommandFlags(const std::string &Flags);

/// A long-running child process (a terrad shard spawned by the fleet
/// router): posix_spawnp without waiting, liveness polling, signal-based
/// termination, and bounded reaping. Unlike runCommand, the child is a
/// daemon — callers interact with it over its socket, not its stdio.
class DaemonProcess {
public:
  DaemonProcess() = default;
  ~DaemonProcess(); ///< terminate(SIGKILL) + reap if still running.
  DaemonProcess(const DaemonProcess &) = delete;
  DaemonProcess &operator=(const DaemonProcess &) = delete;
  DaemonProcess(DaemonProcess &&O) noexcept;
  DaemonProcess &operator=(DaemonProcess &&O) noexcept;

  /// Starts Argv[0] (searched on PATH). \p EnvOverrides entries
  /// ("KEY=VALUE") replace or extend the inherited environment — how the
  /// router points every spawned shard at one shared TERRACPP_CACHE_DIR.
  /// False on failure (\p Err set).
  bool spawn(const std::vector<std::string> &Argv,
             const std::vector<std::string> &EnvOverrides, std::string &Err);

  /// True while the child has not exited (waitpid WNOHANG; reaps and
  /// latches the exit status once it does exit).
  bool alive();

  /// Sends \p Sig (default SIGTERM — terrad drains on it). No-op when not
  /// running.
  void terminate(int Sig = 15);

  /// Waits up to \p TimeoutMs for exit (polling). Returns the exit code,
  /// 128+signal for signal deaths, or -1 on timeout.
  int waitExit(int TimeoutMs);

  int pid() const { return Pid; }
  bool started() const { return Pid > 0; }

private:
  void reapNow(int Status);

  int Pid = -1;
  bool Exited = false;
  int ExitCode = -1;
};

} // namespace terracpp

#endif // TERRACPP_SUPPORT_SUBPROCESS_H
