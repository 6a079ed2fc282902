//===- ScopedEnv.h - RAII environment-variable override for tests ---------===//
//
// Several suites steer Engine construction through environment knobs
// (TERRACPP_BACKEND, TERRACPP_INTERP, TERRACPP_COMPILE_JOBS, ...); this
// helper sets one variable for a scope and restores the previous state so
// tests cannot leak configuration into each other.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_TESTS_SCOPEDENV_H
#define TERRACPP_TESTS_SCOPEDENV_H

#include <cstdlib>
#include <string>

namespace terracpp {

/// Sets one environment variable for the current scope.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    const char *Old = getenv(Name);
    if (Old)
      Saved = Old;
    HadOld = Old != nullptr;
    setenv(Name, Value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (HadOld)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  const char *Name;
  std::string Saved;
  bool HadOld = false;
};

/// Removes one environment variable for the current scope (so a test can
/// exercise the documented default even when the outer environment sets
/// the knob).
class ScopedUnsetEnv {
public:
  explicit ScopedUnsetEnv(const char *Name) : Name(Name) {
    const char *Old = getenv(Name);
    if (Old)
      Saved = Old;
    HadOld = Old != nullptr;
    unsetenv(Name);
  }
  ~ScopedUnsetEnv() {
    if (HadOld)
      setenv(Name, Saved.c_str(), 1);
  }
  ScopedUnsetEnv(const ScopedUnsetEnv &) = delete;
  ScopedUnsetEnv &operator=(const ScopedUnsetEnv &) = delete;

private:
  const char *Name;
  std::string Saved;
  bool HadOld = false;
};

} // namespace terracpp

#endif // TERRACPP_TESTS_SCOPEDENV_H
