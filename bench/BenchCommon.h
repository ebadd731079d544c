//===- bench/BenchCommon.h - Shared reproduction-bench helpers --*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/figure reproduction binaries: flag
/// handling (--scale shrinks workloads for smoke runs, --full widens the
/// analyzer sweep to the paper's complete set, --csv switches the output
/// format) and small aggregation helpers.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_BENCH_BENCHCOMMON_H
#define OPD_BENCH_BENCHCOMMON_H

#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "support/ArgParser.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace opd {

/// Parsed common flags.
struct BenchOptions {
  double Scale = 1.0;
  bool Full = false;
  bool CSV = false;
};

/// Registers and parses the common flags; returns false (after printing
/// usage or a diagnostic) when the program should exit. \p ExitCode is
/// set accordingly.
inline bool parseBenchArgs(int Argc, char **Argv, const char *Name,
                           const char *Description, BenchOptions &Options,
                           int &ExitCode) {
  ArgParser Args(Name, Description);
  Args.addOption("scale", "workload scale factor (0.1 = smoke run)", "1.0");
  Args.addFlag("full", "use the paper's full analyzer set (slower)");
  Args.addFlag("csv", "emit CSV instead of aligned tables");
  if (!Args.parse(Argc, Argv)) {
    ExitCode = Args.helpRequested() ? 0 : 1;
    return false;
  }
  if (!Args.getPositiveDouble("scale", Options.Scale)) {
    ExitCode = 1;
    return false;
  }
  Options.Full = Args.getFlag("full");
  Options.CSV = Args.getFlag("csv");
  return true;
}

/// The analyzer set selected by --full.
inline std::vector<AnalyzerSpec> analyzersFor(const BenchOptions &Options) {
  return Options.Full ? paperAnalyzers() : reducedAnalyzers();
}

/// Prints a table in the format the options request.
inline void printTable(const Table &T, const BenchOptions &Options) {
  std::fputs((Options.CSV ? T.renderCSV() : T.render()).c_str(), stdout);
  std::fputs("\n", stdout);
}

/// Average of a vector; 0 when empty.
inline double average(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

/// Percent improvement of \p New over \p Base ((new-base)/base * 100);
/// 0 when the base is non-positive.
inline double percentImprovement(double New, double Base) {
  if (Base <= 0.0)
    return 0.0;
  return (New - Base) / Base * 100.0;
}

} // namespace opd

#endif // OPD_BENCH_BENCHCOMMON_H
