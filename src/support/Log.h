//===- Log.h - Leveled structured logging -----------------------*- C++ -*-===//
//
// Minimal process-wide logger for long-running components (terrad). Two
// output shapes on stderr, selected at startup:
//
//   text:  [info] request_rejected reason="queue full" op=call
//   json:  {"ts":1754450000.123,"level":"info","event":"request_rejected",
//           "reason":"queue full","op":"call"}
//
// Levels: debug < info < warn < error < off. The threshold comes from
// setLevel() (terrad --log-level) or the TERRAD_LOG_LEVEL environment
// variable; JSON mode from setJsonOutput() (terrad --log-json) or
// TERRAD_LOG_JSON=1. Each emit
// builds the full line first and writes it with one fprintf, so lines from
// concurrent threads never interleave mid-record.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SUPPORT_LOG_H
#define TERRACPP_SUPPORT_LOG_H

#include <initializer_list>
#include <string>
#include <utility>

namespace terracpp {
namespace logging {

enum class Level { Debug = 0, Info, Warn, Error, Off };

void setLevel(Level L);
Level level();
void setJsonOutput(bool Json);
bool jsonOutput();

/// Parses "debug"/"info"/"warn"/"error"/"off" (case-sensitive); returns
/// false and leaves \p Out untouched on anything else.
bool parseLevel(const std::string &S, Level &Out);

/// Applies TERRAD_LOG_LEVEL and TERRAD_LOG_JSON through EnvParse: an
/// invalid value keeps the current setting and warns once.
void configureFromEnv();

bool enabled(Level L);

/// One structured record: an event name plus key/value fields.
void emit(Level L, const std::string &Event,
          std::initializer_list<std::pair<const char *, std::string>> Fields =
              {});

} // namespace logging
} // namespace terracpp

#endif // TERRACPP_SUPPORT_LOG_H
