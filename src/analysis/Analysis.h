//===- Analysis.h - terracheck driver ---------------------------*- C++ -*-===//
//
// Entry points for the static-analysis subsystem. The compile pipeline runs
// analyzeAndReport on every function of a connected component after
// typechecking and before the midend:
//
//   * TA002 (missing return) always runs — it is the return-coverage rule
//     the backends rely on, and it reports as an error.
//   * The lint checkers (TA001/TA003/TA004) run by default and can be
//     disabled with TERRACPP_ANALYZE=0 (or off/false); findings report as
//     warnings, or as errors under --analyze-werror.
//
// Telemetry: each analyzed function records into the process-global
// `frontend.analyze_us` histogram and bumps `analysis.findings.TA00x`
// counters, so findings show up in --time-report and the terrad `metrics`
// op alongside the other frontend phases.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_ANALYSIS_ANALYSIS_H
#define TERRACPP_ANALYSIS_ANALYSIS_H

#include "analysis/Checkers.h"
#include "analysis/Interval.h"

#include <vector>

namespace terracpp {

class DiagnosticEngine;

namespace analysis {

struct AnalyzeOptions {
  /// Run the lint checkers (TA001/TA003/TA004 and the interval-based
  /// TA005–TA008). TA002 is not optional.
  bool Lints = true;
  /// Report lint findings as errors instead of warnings.
  bool Werror = false;

  /// Lints default on; TERRACPP_ANALYZE (any envcfg::parseBool false
  /// spelling: 0/false/off/no) disables them.
  static bool lintsEnabledFromEnv();
};

/// Runs all applicable checkers over one defined function. Returns the raw
/// findings without reporting them.
std::vector<Finding> analyzeFunction(const TerraFunction *F,
                                     const AnalyzeOptions &Opts);

/// One reported (non-suppressed) finding with the context a machine
/// consumer needs: the containing specialized function and, for interval
/// findings, the offending value range.
struct ReportedFinding {
  std::string Code;
  std::string Message;
  std::string Function; ///< Specialized terra function name.
  std::string Ranges;   ///< e.g. "[4, 7]"; empty when not range-based.
  SourceLoc Loc;
};

struct AnalysisReport {
  unsigned NumFindings = 0;
  /// True when a mandatory (TA002) finding — or any finding under Werror —
  /// was reported as an error, i.e. the compile must fail.
  bool Failed = false;
  /// Every counted finding, in report order (suppressed ones excluded).
  std::vector<ReportedFinding> Findings;
};

/// Runs analyzeFunction, routes findings through \p Diags with their stable
/// codes, and records telemetry. Suppression comments
/// (`-- terracheck: disable=TA00x[,TA00y]` or `disable=all` on the line
/// preceding a finding) silence non-mandatory findings and bump the
/// `analysis.suppressed` counter; they require the DiagnosticEngine to have
/// a SourceManager attached.
AnalysisReport analyzeAndReport(DiagnosticEngine &Diags,
                                const TerraFunction *F,
                                const AnalyzeOptions &Opts);

/// Analyzes a whole connected component interprocedurally: builds the call
/// graph over \p Fns, visits functions bottom-up so callers see callee
/// return-range summaries, attaches each function's proven FactTable as
/// TerraFunction::RangeFacts, reports findings (with suppression) through
/// \p Diags, and flips failing functions to SK_Error. Functions already
/// analyzed contribute their stored summary and are not re-reported.
AnalysisReport analyzeComponent(DiagnosticEngine &Diags,
                                const std::vector<TerraFunction *> &Fns,
                                const AnalyzeOptions &Opts);

} // namespace analysis
} // namespace terracpp

#endif // TERRACPP_ANALYSIS_ANALYSIS_H
