//===- bench/BenchTable1.cpp - Reproduce Table 1 -----------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 1: (a) the dynamic execution characteristics of the
/// eight benchmarks and (b) the baseline solution's phase counts and
/// branch coverage for MPL in {1K, 5K, 10K, 25K, 50K, 100K}.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/ArgParser.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace opd;

int main(int Argc, char **Argv) {
  ArgParser Args("bench_table1", "Reproduces Table 1 (benchmark "
                                 "characteristics and baseline phases).");
  Args.addOption("scale", "workload scale factor", "1.0");
  Args.addFlag("csv", "emit CSV instead of aligned tables");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 1;
  double Scale = 1.0;
  if (!Args.getPositiveDouble("scale", Scale))
    return 1;

  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(StandardMPLs, Scale);

  Table A("Table 1(a): Benchmark Characteristics");
  A.setHeader({"Benchmark", "Dynamic Branches", "Loop Executions",
               "Method Invocations", "Recursion Roots", "Distinct Sites"});
  for (const BenchmarkData &B : Benchmarks)
    A.addRow({B.Name, formatCount(B.Stats.DynamicBranches),
              formatCount(B.Stats.LoopExecutions),
              formatCount(B.Stats.MethodInvocations),
              formatCount(B.Stats.RecursionRoots),
              formatCount(B.Trace.numSites())});

  Table T1B("Table 1(b): Baseline phases per MPL (# Phases / % in Phase)");
  std::vector<std::string> Header = {"Benchmark"};
  for (uint64_t MPL : StandardMPLs) {
    Header.push_back("#P@" + formatAbbrev(MPL));
    Header.push_back("%inP@" + formatAbbrev(MPL));
  }
  T1B.setHeader(Header);
  for (const BenchmarkData &B : Benchmarks) {
    std::vector<std::string> Row = {B.Name};
    for (const BaselineSolution &Baseline : B.Baselines) {
      Row.push_back(std::to_string(Baseline.numPhases()));
      Row.push_back(formatPercent(Baseline.fractionInPhase()));
    }
    T1B.addRow(Row);
  }

  bool CSV = Args.getFlag("csv");
  std::fputs((CSV ? A.renderCSV() : A.render()).c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs((CSV ? T1B.renderCSV() : T1B.render()).c_str(), stdout);
  return 0;
}
