//===- EnvParse.cpp - Validated environment-variable configuration --------===//

#include "support/EnvParse.h"
#include "support/Log.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>

using namespace terracpp;

namespace {

/// Warns once per (variable) for the process: repeated Engine constructions
/// in one process (tests, terrad) must not spam the log.
void warnOnce(const char *Name, const char *Value, const char *Why) {
  static std::mutex M;
  static std::set<std::string> Warned;
  std::lock_guard<std::mutex> Lock(M);
  if (!Warned.insert(Name).second)
    return;
  logging::emit(logging::Level::Warn, "env.invalid",
                {{"var", Name}, {"value", Value}, {"why", Why}});
}

} // namespace

uint64_t envcfg::parseUInt(const char *Name, uint64_t Default, uint64_t Min,
                           uint64_t Max) {
  const char *E = std::getenv(Name);
  if (!E || !*E)
    return Default;
  // Reject leading whitespace/signs up front: strtoull accepts "-1" by
  // wrapping it, which is exactly the silent corruption this guards against.
  if (!std::isdigit(static_cast<unsigned char>(*E))) {
    warnOnce(Name, E, "not a decimal number; using default");
    return Default;
  }
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(E, &End, 10);
  if (errno == ERANGE) {
    warnOnce(Name, E, "overflows; using default");
    return Default;
  }
  if (!End || *End != '\0') {
    warnOnce(Name, E, "trailing garbage; using default");
    return Default;
  }
  if (V < Min || V > Max) {
    warnOnce(Name, E, "out of range; using default");
    return Default;
  }
  return V;
}

std::string envcfg::parseString(const char *Name, const std::string &Default) {
  const char *E = std::getenv(Name);
  return E && *E ? std::string(E) : Default;
}

double envcfg::parsePositiveReal(const char *Name, double Default,
                                 double Max) {
  const char *E = std::getenv(Name);
  if (!E || !*E)
    return Default;
  // As in parseUInt: no leading whitespace or sign, and strtod's "inf"/"nan"
  // spellings start with a letter, so they are rejected here too.
  if (!std::isdigit(static_cast<unsigned char>(*E)) && *E != '.') {
    warnOnce(Name, E, "not a decimal number; using default");
    return Default;
  }
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(E, &End);
  if (*End != '\0') {
    warnOnce(Name, E, "trailing garbage; using default");
    return Default;
  }
  if (errno == ERANGE || !(V > 0) || V > Max) {
    warnOnce(Name, E, "out of range; using default");
    return Default;
  }
  return V;
}

bool envcfg::parseBool(const char *Name, bool Default) {
  const char *E = std::getenv(Name);
  if (!E || !*E)
    return Default;
  std::string S;
  for (const char *P = E; *P; ++P)
    S += static_cast<char>(std::tolower(static_cast<unsigned char>(*P)));
  if (S == "1" || S == "true" || S == "on" || S == "yes")
    return true;
  if (S == "0" || S == "false" || S == "off" || S == "no")
    return false;
  warnOnce(Name, E, "not a boolean; using default");
  return Default;
}
