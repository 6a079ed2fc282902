//===- EnvParse.h - Validated environment-variable configuration ----------===//
//
// Configuration knobs (tier thresholds, compile-job counts, feature toggles)
// arrive as environment variables. strtol-style parsing silently turns typos
// into zero — which for a threshold means "promote on every call" and for a
// job count means "no parallelism" — so every numeric knob goes through this
// module instead: malformed or out-of-range values fall back to the
// documented default and emit a one-time warning naming the variable.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_SUPPORT_ENVPARSE_H
#define TERRACPP_SUPPORT_ENVPARSE_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

namespace terracpp {
namespace envcfg {

/// Reads an unsigned integer knob. Unset returns \p Default. A value that is
/// not a clean decimal number, or that falls outside [Min, Max], returns
/// \p Default and warns once per variable name for the process lifetime.
uint64_t parseUInt(const char *Name, uint64_t Default, uint64_t Min = 0,
                   uint64_t Max = UINT64_MAX);

/// Reads a positive real knob ("0.5", "2", "1e3"). Unset returns \p Default.
/// A value that is not a clean finite decimal number, is not greater than
/// zero, or exceeds \p Max returns \p Default and warns once per variable.
double parsePositiveReal(const char *Name, double Default, double Max);

/// Reads a string knob (a path). Unset or empty returns \p Default.
std::string parseString(const char *Name, const std::string &Default);

/// Reads a boolean knob: "1"/"true"/"on"/"yes" are true, "0"/"false"/"off"/
/// "no" are false (case-insensitive). Unset returns \p Default; anything
/// else returns \p Default with a one-time warning.
bool parseBool(const char *Name, bool Default);

/// Reads a one-of-N knob (case-insensitive) and returns the index of its
/// value in \p Choices. Unset or empty returns \p Default; any other value
/// returns \p Default with a one-time warning.
size_t parseChoice(const char *Name,
                   std::initializer_list<const char *> Choices,
                   size_t Default);

} // namespace envcfg
} // namespace terracpp

#endif // TERRACPP_SUPPORT_ENVPARSE_H
