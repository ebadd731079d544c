//===- examples/phase_explorer.cpp - Interactive phase inspection -------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CLI for exploring phase behavior: run a named workload (or compile a
/// .jp source file), print the oracle's phases for a chosen MPL, run a
/// configurable detector, render both as an ASCII timeline, and report
/// the accuracy score.
///
///   phase_explorer --workload jess --mpl 10K --cw 5000 --policy adaptive
///   phase_explorer myprogram.jp --mpl 1K --model weighted
///
//===----------------------------------------------------------------------===//

#include "ToolCommon.h"
#include "baseline/BaselineSolution.h"
#include "core/DetectorRunner.h"
#include "lang/Diagnostics.h"
#include "lang/ProgramInfo.h"
#include "lang/Sema.h"
#include "metrics/Scoring.h"
#include "metrics/Timeline.h"
#include "support/ArgParser.h"
#include "support/Format.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace opd;

namespace {

/// Renders a state sequence as a fixed-width strip of '#' (in phase) and
/// '.' (transition), one character per Total/Width elements.
std::string renderTimeline(const StateSequence &States, unsigned Width) {
  if (States.empty())
    return std::string(Width, '.');
  std::string Out;
  Out.reserve(Width);
  uint64_t Total = States.size();
  for (unsigned I = 0; I != Width; ++I) {
    uint64_t Lo = Total * I / Width;
    uint64_t Hi = std::max<uint64_t>(Lo + 1, Total * (I + 1) / Width);
    // Sample the bucket: majority by midpoint (cheap and adequate).
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    Out.push_back(States.at(Mid) == PhaseState::InPhase ? '#' : '.');
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("phase_explorer",
                 "Explore oracle and detector phases on a workload.");
  Args.addOption("workload", "named workload (compress, jess, ...)", "jess");
  Args.addOption("scale", "workload scale factor", "0.5");
  Args.addOption("mpl", "oracle minimum phase length", "10K");
  Args.addOption("cw", "current window size", "5000");
  Args.addOption("tw", "trailing window size (default: = cw)", "");
  Args.addOption("skip", "skip factor", "1");
  Args.addOption("policy", "trailing window policy: constant|adaptive",
                 "adaptive");
  Args.addOption("model",
                 "similarity model: unweighted|weighted|manhattan",
                 "unweighted");
  Args.addOption("analyzer", "analyzer: threshold|average|hysteresis",
                 "threshold");
  Args.addOption("param", "analyzer parameter (threshold or delta)", "0.6");
  Args.addOption("seed", "interpreter seed for .jp files", "1");
  Args.addFlag("list", "list detected and oracle phases explicitly");
  Args.addOption("html", "write an HTML timeline visualization here", "");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 1;

  DetectorConfig Config;
  std::string Error;
  if (!readDetectorConfig(Args, Config, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // Obtain traces: positional .jp file or named workload. Keep the
  // compiled program around to attribute phases to source constructs.
  ExecutionResult Exec;
  std::unique_ptr<Program> Prog;
  std::string SourceName;
  if (!Args.positional().empty()) {
    SourceName = Args.positional().front();
    std::ifstream In(SourceName);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", SourceName.c_str());
      return 1;
    }
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    DiagnosticEngine Diags;
    Prog = compileProgram(Buffer.str(), Diags);
    if (!Prog) {
      std::fprintf(stderr, "%s: compile errors:\n%s", SourceName.c_str(),
                   Diags.renderAll().c_str());
      return 1;
    }
    InterpreterOptions Options;
    Options.Seed = static_cast<uint64_t>(Args.getInt("seed", 1));
    Exec = runProgram(*Prog, Options);
  } else {
    SourceName = Args.getOption("workload");
    const Workload *W = findWorkload(SourceName);
    if (!W) {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   SourceName.c_str());
      return 1;
    }
    double Scale = Args.getDouble("scale", 0.5);
    Prog = compileWorkload(*W, Scale);
    InterpreterOptions Options;
    Options.Seed = W->Seed;
    Exec = runProgram(*Prog, Options);
  }
  ProgramInfo Info = ProgramInfo::build(*Prog);

  uint64_t MPL = static_cast<uint64_t>(Args.getInt("mpl", 10000));
  std::printf("%s: %s branches, %u sites; MPL = %s\n", SourceName.c_str(),
              formatCount(Exec.Branches.size()).c_str(),
              Exec.Branches.numSites(), formatAbbrev(MPL).c_str());

  std::vector<BaselineSolution> Baselines =
      computeBaselines(Exec.CallLoop, Exec.Branches.size(), {MPL});
  const BaselineSolution &Oracle = Baselines.front();

  std::unique_ptr<PhaseDetector> Detector =
      makeDetector(Config, Exec.Branches.numSites());
  std::printf("detector: %s\n\n", Detector->describe().c_str());
  DetectorRun Run = runDetector(*Detector, Exec.Branches);

  const unsigned Width = 100;
  std::printf("oracle   |%s|  %zu phases, %s%% in phase\n",
              renderTimeline(Oracle.states(), Width).c_str(),
              Oracle.numPhases(),
              formatPercent(Oracle.fractionInPhase()).c_str());
  std::printf("detector |%s|  %zu phases\n\n",
              renderTimeline(Run.States, Width).c_str(),
              Run.DetectedPhases.size());

  AccuracyScore Score = scoreDetection(Run.States, Oracle.states());
  AccuracyScore Anchored =
      scoreDetection(Run.AnchoredPhases, Oracle.states());
  std::printf("score: correlation=%.3f sensitivity=%.3f "
              "falsePositives=%.3f -> %.3f\n",
              Score.Correlation, Score.Sensitivity, Score.FalsePositives,
              Score.Score);
  std::printf("with anchor-corrected starts: %.3f\n", Anchored.Score);

  if (const std::string &HtmlPath = Args.getOption("html");
      !HtmlPath.empty()) {
    StateSequence AnchoredStates = StateSequence::fromPhases(
        Run.AnchoredPhases, Exec.Branches.size());
    std::vector<TimelineTrack> Tracks = {
        {"oracle (MPL " + formatAbbrev(MPL) + ")", &Oracle.states(),
         "#2e7d32"},
        {"detector", &Run.States, "#4878d0"},
        {"anchored", &AnchoredStates, "#8a5fbf"},
    };
    std::string Html = renderTimelineHTML(
        SourceName + " phase timeline", Tracks);
    std::ofstream Out(HtmlPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", HtmlPath.c_str());
      return 1;
    }
    Out << Html;
    std::printf("wrote timeline to %s\n", HtmlPath.c_str());
  }

  if (Args.getFlag("list")) {
    std::printf("\noracle phases (with originating constructs):\n");
    for (const AttributedPhase &P : Oracle.attributedPhases()) {
      std::string Construct;
      if (P.ConstructKind == RepetitionInstance::Kind::Loop)
        Construct = "loop " + Info.loopName(P.StaticId);
      else
        Construct = "method " + Info.methodName(P.StaticId);
      if (P.NumInstances > 1)
        Construct += " x" + std::to_string(P.NumInstances);
      std::printf("  [%12s, %12s)  len %10s  %s\n",
                  formatCount(P.Interval.Begin).c_str(),
                  formatCount(P.Interval.End).c_str(),
                  formatCount(P.Interval.length()).c_str(),
                  Construct.c_str());
    }
    std::printf("detected phases:\n");
    for (const PhaseInterval &P : Run.DetectedPhases)
      std::printf("  [%12s, %12s)  len %10s\n",
                  formatCount(P.Begin).c_str(), formatCount(P.End).c_str(),
                  formatCount(P.length()).c_str());
  }
  return 0;
}
