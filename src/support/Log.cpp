#include "support/Log.h"

#include "support/EnvParse.h"
#include "support/Json.h"

#include <atomic>
#include <chrono>
#include <cstdio>

using namespace terracpp;
using namespace terracpp::logging;

static std::atomic<int> GLevel{static_cast<int>(Level::Info)};
static std::atomic<bool> GJson{false};

void logging::setLevel(Level L) {
  GLevel.store(static_cast<int>(L), std::memory_order_relaxed);
}

Level logging::level() {
  return static_cast<Level>(GLevel.load(std::memory_order_relaxed));
}

void logging::setJsonOutput(bool Json) {
  GJson.store(Json, std::memory_order_relaxed);
}

bool logging::jsonOutput() { return GJson.load(std::memory_order_relaxed); }

bool logging::parseLevel(const std::string &S, Level &Out) {
  if (S == "debug")
    Out = Level::Debug;
  else if (S == "info")
    Out = Level::Info;
  else if (S == "warn")
    Out = Level::Warn;
  else if (S == "error")
    Out = Level::Error;
  else if (S == "off")
    Out = Level::Off;
  else
    return false;
  return true;
}

void logging::configureFromEnv() {
  // Same spellings and order as Level.
  setLevel(static_cast<Level>(envcfg::parseChoice(
      "TERRAD_LOG_LEVEL", {"debug", "info", "warn", "error", "off"},
      static_cast<size_t>(level()))));
  setJsonOutput(envcfg::parseBool("TERRAD_LOG_JSON", jsonOutput()));
}

bool logging::enabled(Level L) {
  return static_cast<int>(L) >= GLevel.load(std::memory_order_relaxed) &&
         level() != Level::Off;
}

static const char *levelName(Level L) {
  switch (L) {
  case Level::Debug:
    return "debug";
  case Level::Info:
    return "info";
  case Level::Warn:
    return "warn";
  case Level::Error:
    return "error";
  case Level::Off:
    return "off";
  }
  return "?";
}

void logging::emit(
    Level L, const std::string &Event,
    std::initializer_list<std::pair<const char *, std::string>> Fields) {
  if (!enabled(L))
    return;
  std::string Line;
  if (jsonOutput()) {
    double Ts = std::chrono::duration<double>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count();
    char TsBuf[32];
    snprintf(TsBuf, sizeof(TsBuf), "%.3f", Ts);
    Line = "{\"ts\":";
    Line += TsBuf;
    Line += ",\"level\":\"";
    Line += levelName(L);
    Line += "\",\"event\":\"";
    Line += json::escape(Event);
    Line += "\"";
    for (const auto &F : Fields) {
      Line += ",\"";
      Line += json::escape(F.first);
      Line += "\":\"";
      Line += json::escape(F.second);
      Line += "\"";
    }
    Line += "}";
  } else {
    Line = "[";
    Line += levelName(L);
    Line += "] ";
    Line += Event;
    for (const auto &F : Fields) {
      Line += " ";
      Line += F.first;
      Line += "=\"";
      Line += F.second;
      Line += "\"";
    }
  }
  fprintf(stderr, "%s\n", Line.c_str());
}
