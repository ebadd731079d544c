//===- examples/inspect_tool.cpp - Detector run introspection -----------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one detector configuration over a workload with a RunTrace
/// observer attached and dumps the annotated timeline: per-evaluation
/// similarity values, anchor computations, window resizes/flushes, and
/// phase open/close transitions, plus the aggregated counters. The
/// JSON/CSV schemas are specified in docs/OBSERVABILITY.md.
///
///   inspect_tool examples/sample.jp --cw 500 --json sample.trace.json
///   inspect_tool --workload jess --policy adaptive --json -
///   inspect_tool examples/sample.jp --cw 500 --events 20
///
//===----------------------------------------------------------------------===//

#include "ToolCommon.h"
#include "core/DetectorRunner.h"
#include "lang/Diagnostics.h"
#include "lang/Sema.h"
#include "obs/TraceExport.h"
#include "support/ArgParser.h"
#include "support/Format.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

using namespace opd;

namespace {

/// Writes \p Content to \p Path, or stdout when Path is "-".
int emit(const std::string &Path, const std::string &Content,
         const char *What) {
  if (Path == "-") {
    std::fputs(Content.c_str(), stdout);
    return 0;
  }
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return 1;
  }
  Out << Content;
  std::fprintf(stderr, "inspect_tool: wrote %s timeline to %s\n", What,
               Path.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("inspect_tool",
                 "Run one detector over a workload (or a .jp file, given "
                 "as a positional argument) and dump the observed "
                 "timeline.");
  Args.addOption("workload", "named workload (compress, jess, ...)", "jess");
  Args.addOption("scale", "workload scale factor", "0.5");
  Args.addOption("seed", "interpreter seed for .jp files", "1");
  Args.addOption("cw", "current window size", "5000");
  Args.addOption("tw", "trailing window size (default: = cw)", "");
  Args.addOption("skip", "skip factor", "1");
  Args.addOption("policy", "trailing window policy: constant|adaptive",
                 "adaptive");
  Args.addOption("anchor", "anchor policy: rn|lnn", "rn");
  Args.addOption("resize", "resize policy: slide|move", "slide");
  Args.addOption("model",
                 "similarity model: unweighted|weighted|manhattan",
                 "unweighted");
  Args.addOption("analyzer", "analyzer: threshold|average|hysteresis",
                 "threshold");
  Args.addOption("param", "analyzer parameter (threshold or delta)", "0.6");
  Args.addOption("json", "write the JSON timeline here ('-' = stdout)", "");
  Args.addOption("csv", "write the CSV timeline here ('-' = stdout)", "");
  Args.addOption("events", "print the first N events as a table", "0");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 1;

  DetectorConfig Config;
  std::string Error;
  if (!readDetectorConfig(Args, Config, Error) ||
      !readName(Args, "anchor", parseAnchorKind, Config.Window.Anchor,
                Error) ||
      !readName(Args, "resize", parseResizeKind, Config.Window.Resize,
                Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // Obtain the trace: positional .jp file or named workload.
  Stopwatch Timer;
  ExecutionResult Exec;
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
    std::unique_ptr<Program> Prog = compileProgram(Buffer.str(), Diags);
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
    double Scale = 0.5;
    if (!Args.getPositiveDouble("scale", Scale))
      return 1;
    Exec = executeWorkload(*W, Scale);
  }
  double ExecuteSeconds = Timer.seconds();

  std::unique_ptr<PhaseDetector> Detector =
      makeDetector(Config, Exec.Branches.numSites());

  // The observed run. RunTrace's phase intervals match
  // Run.DetectedPhases by construction; verify anyway so the exported
  // timeline is guaranteed consistent with the unobserved pipeline.
  RunTrace Trace;
  Trace.setDetectorName(Detector->describe());
  Timer.restart();
  DetectorRun Run = runDetector(*Detector, Exec.Branches, &Trace);
  double DetectSeconds = Timer.seconds();
  if (Trace.phases() != Run.DetectedPhases) {
    std::fprintf(stderr,
                 "error: observed phases diverge from DetectedPhases\n");
    return 1;
  }

  // Summary to stderr so --json - / --csv - stay clean on stdout.
  const RunCounters &C = Trace.counters();
  std::fprintf(stderr, "%s: %s elements via %s\n", SourceName.c_str(),
               formatCount(C.Elements).c_str(),
               Detector->describe().c_str());
  std::fprintf(stderr,
               "  %s evaluations, %s phases (%s anchor-corrected), %s "
               "resizes, %s flushes\n",
               formatCount(C.Evaluations).c_str(),
               formatCount(C.PhasesOpened).c_str(),
               formatCount(C.AnchorCorrections).c_str(),
               formatCount(C.WindowResizes).c_str(),
               formatCount(C.WindowFlushes).c_str());
  double MElemPerSec =
      DetectSeconds > 0.0
          ? static_cast<double>(C.Elements) / DetectSeconds / 1e6
          : 0.0;
  std::fprintf(stderr,
               "  execute %s ms, detect %s ms (%s Melem/s), %zu events "
               "recorded\n",
               formatDouble(ExecuteSeconds * 1e3, 1).c_str(),
               formatDouble(DetectSeconds * 1e3, 1).c_str(),
               formatDouble(MElemPerSec, 1).c_str(),
               Trace.events().size());

  long MaxEvents = Args.getInt("events", 0);
  if (MaxEvents > 0) {
    Table T("First events");
    T.setHeader({"#", "event", "offset", "similarity", "state", "detail"});
    const std::vector<TraceEvent> &Events = Trace.events();
    for (size_t I = 0;
         I != std::min<size_t>(Events.size(), static_cast<size_t>(MaxEvents));
         ++I) {
      const TraceEvent &E = Events[I];
      std::string Similarity, State, Detail;
      switch (E.Kind) {
      case TraceEventKind::Evaluation:
        Similarity = formatDouble(E.Similarity, 4);
        State = E.Decision == PhaseState::InPhase ? 'P' : 'T';
        break;
      case TraceEventKind::Anchor:
        Detail = std::string(anchorKindName(
                     static_cast<AnchorKind>(E.Policy))) +
                 " -> " + std::to_string(E.A);
        break;
      case TraceEventKind::WindowResize:
        Detail = std::string(resizeKindName(
                     static_cast<ResizeKind>(E.Policy))) +
                 " tw=" + std::to_string(E.A) +
                 " cw=" + std::to_string(E.B);
        break;
      case TraceEventKind::WindowFlush:
        Detail = "seed=" + std::to_string(E.A);
        break;
      case TraceEventKind::PhaseBegin:
        Detail = "anchor=" + std::to_string(E.A);
        break;
      case TraceEventKind::RunBegin:
        Detail = std::to_string(E.A) + " elements, batch " +
                 std::to_string(E.B);
        break;
      default:
        break;
      }
      T.addRow({std::to_string(I), traceEventKindName(E.Kind),
                std::to_string(E.Offset), Similarity, State, Detail});
    }
    std::fputs(T.render().c_str(), stderr);
  }

  const std::string &JSONPath = Args.getOption("json");
  if (!JSONPath.empty())
    if (int RC = emit(JSONPath, renderRunTraceJSON(Trace), "JSON"))
      return RC;
  const std::string &CSVPath = Args.getOption("csv");
  if (!CSVPath.empty())
    if (int RC = emit(CSVPath, renderRunTraceCSV(Trace), "CSV"))
      return RC;
  return 0;
}
