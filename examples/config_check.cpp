//===- examples/config_check.cpp - Sweep-spec static linter -------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lints detector sweep specifications against the config-space
/// diagnostic catalogue (analysis/ConfigAnalysis.h): empty or duplicate
/// dimensions, degenerate analyzers (always-P / always-T / no-exit
/// hysteresis), windows or skips a trace can never fill, and
/// Fixed-Interval points that duplicate enumerated ones. Optionally
/// (--plan) prints the equivalence-class pruning plan the sweep harness
/// would use.
///
///   config_check --preset table2
///   config_check --preset paper --plan
///   config_check --cw 500 --analyzers t1.5,a0.05 --trace-len 100K --json
///
/// Exit codes follow jp_lint: 0 clean (or notes only), 1 warnings,
/// 2 errors.
///
//===----------------------------------------------------------------------===//

#include "ToolCommon.h"
#include "analysis/ConfigAnalysis.h"
#include "analysis/Lint.h"
#include "support/ArgParser.h"

#include <cstdio>
#include <string>

using namespace opd;

int main(int Argc, char **Argv) {
  ArgParser Args("config_check",
                 "Statically analyze a detector sweep specification.");
  addSweepSpecOptions(Args);
  Args.addOption("trace-len", "trace length for *-exceeds-trace checks "
                              "(0 disables; K/M suffix ok)",
                 "0");
  Args.addFlag("json", "emit structured JSON diagnostics");
  Args.addFlag("plan", "also print the equivalence-class pruning plan");
  Args.addFlag("anchored",
               "assume anchor-corrected starts are scored (keeps "
               "anchor-affecting merges out of the plan)");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  SweepSpec Spec;
  if (!buildSweepSpec(Args, Spec))
    return 2;

  std::string Preset = Args.getOption("preset");
  std::string SpecName = Preset.empty() ? "custom" : Preset;

  ConfigLintOptions Options;
  std::string Error;
  if (!Args.getSize("trace-len", Options.TraceLen, Error, 0)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  DiagnosticEngine Diags;
  lintSweepSpec(Spec, Options, Diags);

  bool Json = Args.getFlag("json");
  if (Json) {
    std::fputs(renderDiagnosticsJSON(Diags, SpecName).c_str(), stdout);
  } else {
    for (const Diagnostic &D : Diags.diagnostics())
      std::printf("%s:%s\n", SpecName.c_str(), D.render().c_str());
    if (Diags.empty())
      std::printf("%s: clean\n", SpecName.c_str());
  }

  if (Args.getFlag("plan")) {
    ConfigCanonOptions Canon;
    Canon.AnchoredScoring = Args.getFlag("anchored");
    SweepAnalysis Analysis = analyzeSweep(Spec, Canon);
    if (Json)
      std::fputs(renderSweepAnalysisJSON(Analysis, SpecName).c_str(),
                 stdout);
    else
      std::fputs(sweepPlanTable(Analysis).render().c_str(), stdout);
  }

  return exitCodeForSeverity(Diags.maxSeverity(), !Diags.empty());
}
