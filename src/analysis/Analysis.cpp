#include "analysis/Analysis.h"

#include "analysis/CallGraph.h"
#include "core/TerraAST.h"
#include "support/Diagnostics.h"
#include "support/EnvParse.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <iterator>

using namespace terracpp;
using namespace terracpp::analysis;

bool AnalyzeOptions::lintsEnabledFromEnv() {
  return envcfg::parseBool("TERRACPP_ANALYZE", true);
}

namespace {

/// All checkers over one function. The interval analysis runs under Lints
/// with whatever callee summaries the caller accumulated; \p FactsOut (when
/// non-null) receives the proven-fact table.
std::vector<Finding> analyzeOne(const TerraFunction *F,
                                const AnalyzeOptions &Opts,
                                const SummaryMap &Summaries,
                                std::shared_ptr<FactTable> *FactsOut) {
  std::vector<Finding> Out;
  std::unique_ptr<CFG> G = CFG::build(F);
  if (!G)
    return Out;
  checkMissingReturn(F, *G, Out);
  if (Opts.Lints) {
    checkDefiniteInit(F, *G, Out);
    checkHeapSafety(F, *G, Out);
    std::shared_ptr<FactTable> Facts = analyzeIntervals(F, *G, Summaries, Out);
    if (FactsOut)
      *FactsOut = std::move(Facts);
  }
  return Out;
}

/// True when the line preceding \p Fi's location carries a
/// `terracheck: disable=` comment naming the finding's code (or `all`).
bool suppressedAt(const SourceManager *SM, const Finding &Fi) {
  if (!SM || !Fi.Loc.isValid() || Fi.Loc.Line < 2)
    return false;
  std::string Prev = SM->lineText(Fi.Loc.BufferId, Fi.Loc.Line - 1);
  size_t P = Prev.find("terracheck: disable=");
  if (P == std::string::npos)
    return false;
  size_t At = P + std::strlen("terracheck: disable=");
  // Comma-separated code list, terminated by whitespace or end of line.
  std::string Code;
  for (size_t I = At; I <= Prev.size(); ++I) {
    char C = I < Prev.size() ? Prev[I] : ',';
    if (C == ',' || std::isspace(static_cast<unsigned char>(C))) {
      if (Code == "all" || Code == Fi.Code)
        return true;
      if (C != ',')
        break;
      Code.clear();
      continue;
    }
    Code.push_back(C);
  }
  return false;
}

/// Routes findings through \p Diags honoring Werror and suppression
/// comments. Mandatory findings (TA002) cannot be suppressed. \p FnName is
/// the containing function, recorded on the structured report entries.
void reportFindings(DiagnosticEngine &Diags, const std::vector<Finding> &Fs,
                    const AnalyzeOptions &Opts, const std::string &FnName,
                    AnalysisReport &R) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  for (const Finding &Fi : Fs) {
    if (!Fi.MandatoryError && suppressedAt(Diags.sourceManager(), Fi)) {
      Reg.counter("analysis.suppressed").inc();
      continue;
    }
    ++R.NumFindings;
    Reg.counter(std::string("analysis.findings.") + Fi.Code).inc();
    R.Findings.push_back({Fi.Code, Fi.Message, FnName, Fi.Ranges, Fi.Loc});
    if (Fi.MandatoryError || Opts.Werror) {
      Diags.error(Fi.Code, Fi.Loc, Fi.Message);
      R.Failed = true;
    } else {
      Diags.warning(Fi.Code, Fi.Loc, Fi.Message);
    }
  }
}

} // namespace

std::vector<Finding>
terracpp::analysis::analyzeFunction(const TerraFunction *F,
                                    const AnalyzeOptions &Opts) {
  return analyzeOne(F, Opts, SummaryMap(), nullptr);
}

AnalysisReport terracpp::analysis::analyzeAndReport(DiagnosticEngine &Diags,
                                                    const TerraFunction *F,
                                                    const AnalyzeOptions &Opts) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  trace::TraceSpan Span("analyze", "frontend");
  Span.arg("fn", F->Name);

  std::vector<Finding> Findings;
  {
    telemetry::ScopedTimerUs Timer(Reg.histogram("frontend.analyze_us"));
    Findings = analyzeOne(F, Opts, SummaryMap(), nullptr);
  }

  AnalysisReport R;
  reportFindings(Diags, Findings, Opts, F->Name, R);
  return R;
}

AnalysisReport
terracpp::analysis::analyzeComponent(DiagnosticEngine &Diags,
                                     const std::vector<TerraFunction *> &Fns,
                                     const AnalyzeOptions &Opts) {
  telemetry::Registry &Reg = telemetry::Registry::global();
  AnalysisReport Total;

  CallGraph CG(Fns);
  SummaryMap Summaries;
  for (TerraFunction *F : CG.bottomUpOrder()) {
    if (F->HostClosure || F->IsExtern || !F->Body)
      continue;
    if (F->AnalysisDone) {
      // Analyzed under an earlier compilation root: contribute the stored
      // summary so this component's callers keep interprocedural precision.
      if (F->RangeFacts)
        Summaries[F] = F->RangeFacts->ReturnRange;
      continue;
    }
    F->AnalysisDone = true;

    trace::TraceSpan Span("analyze", "frontend");
    Span.arg("fn", F->Name);
    std::vector<Finding> Findings;
    std::shared_ptr<FactTable> Facts;
    {
      telemetry::ScopedTimerUs Timer(Reg.histogram("frontend.analyze_us"));
      Findings = analyzeOne(F, Opts, Summaries, &Facts);
    }
    if (Facts) {
      Summaries[F] = Facts->ReturnRange;
      F->RangeFacts = std::move(Facts);
    }

    AnalysisReport R;
    reportFindings(Diags, Findings, Opts, F->Name, R);
    Total.NumFindings += R.NumFindings;
    Total.Findings.insert(Total.Findings.end(),
                          std::make_move_iterator(R.Findings.begin()),
                          std::make_move_iterator(R.Findings.end()));
    if (R.Failed) {
      F->State = TerraFunction::SK_Error;
      Total.Failed = true;
    }
  }
  return Total;
}
