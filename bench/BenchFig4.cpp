//===- bench/BenchFig4.cpp - Reproduce Figure 4 -------------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 4: skip factor and Fixed vs Adaptive windowing.
/// For each MPL in {1K..200K}, the average across benchmarks of the best
/// score (over models, analyzers, and CW sizes at most half the MPL) for
/// three policies: Fixed Intervals (skip = CW size, Constant TW),
/// Constant TW (skip = 1), and Adaptive TW (skip = 1).
///
/// Paper shape to reproduce: skip=1 policies clearly beat Fixed
/// Intervals at every MPL; Adaptive overtakes Constant at large MPLs.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace opd;

int main(int Argc, char **Argv) {
  BenchOptions Options;
  int ExitCode = 0;
  if (!parseBenchArgs(Argc, Argv, "bench_fig4",
                      "Reproduces Figure 4 (skip factor and TW policy vs "
                      "MPL).",
                      Options, ExitCode))
    return ExitCode;

  SweepSpec Spec = benchSweepSpec("fig4", analyzersFor(Options));

  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(ExtendedMPLs, Options.Scale);
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  std::fprintf(stderr, "fig4: %zu configs x %zu benchmarks\n",
               Configs.size(), Benchmarks.size());

  // Best[MPLIdx][policy] accumulated across benchmarks.
  std::vector<std::vector<double>> FixedBest(ExtendedMPLs.size()),
      ConstBest(ExtendedMPLs.size()), AdaptBest(ExtendedMPLs.size());

  for (const BenchmarkData &B : Benchmarks) {
    std::vector<RunScores> Runs = runSweep(B.Trace, B.Baselines, Configs);
    for (size_t MPLIdx = 0; MPLIdx != B.MPLs.size(); ++MPLIdx) {
      uint64_t MPL = B.MPLs[MPLIdx];
      auto best = [&](auto Filter) {
        return bestScore(Runs, MPLIdx, [&](const DetectorConfig &C) {
          return C.Window.CWSize * 2 <= MPL && Filter(C);
        });
      };
      double Fixed = best(
          [](const DetectorConfig &C) { return C.isFixedInterval(); });
      double Const = best([](const DetectorConfig &C) {
        return C.Window.TWPolicy == TWPolicyKind::Constant &&
               C.Window.SkipFactor == 1;
      });
      double Adapt = best([](const DetectorConfig &C) {
        return C.Window.TWPolicy == TWPolicyKind::Adaptive &&
               C.Window.SkipFactor == 1;
      });
      if (Fixed >= 0.0)
        FixedBest[MPLIdx].push_back(Fixed);
      if (Const >= 0.0)
        ConstBest[MPLIdx].push_back(Const);
      if (Adapt >= 0.0)
        AdaptBest[MPLIdx].push_back(Adapt);
    }
  }

  Table T("Figure 4: average of best scores vs MPL (CW <= 1/2 MPL)");
  T.setHeader({"MPL", "Fixed Intervals (skip=CW)", "Constant TW (skip=1)",
               "Adaptive TW (skip=1)"});
  for (size_t I = 0; I != ExtendedMPLs.size(); ++I)
    T.addRow({formatAbbrev(ExtendedMPLs[I]),
              formatDouble(average(FixedBest[I]), 3),
              formatDouble(average(ConstBest[I]), 3),
              formatDouble(average(AdaptBest[I]), 3)});
  printTable(T, Options);
  return 0;
}
