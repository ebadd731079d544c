//===- bench/BenchFig8.cpp - Reproduce Figure 8 -------------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 8: Constant vs Adaptive TW scored with the
/// anchor-corrected technique for locating the beginning of a phase.
/// Once a detector flags a phase it knows (via the anchor policy) where
/// the phase actually began; scoring uses those corrected start
/// boundaries. Average of best scores across benchmarks, models,
/// analyzers, and CW sizes at most half the MPL, for MPL in
/// {1K, 10K, 50K, 100K, 200K}.
///
/// Paper shape to reproduce: with anchor-corrected starts, Adaptive TW
/// is consistently and significantly more accurate than Constant TW.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace opd;

int main(int Argc, char **Argv) {
  BenchOptions Options;
  int ExitCode = 0;
  if (!parseBenchArgs(Argc, Argv, "bench_fig8",
                      "Reproduces Figure 8 (anchor-corrected phase-start "
                      "scoring).",
                      Options, ExitCode))
    return ExitCode;

  const std::vector<uint64_t> MPLs = {1000, 10000, 50000, 100000, 200000};
  SweepSpec Spec = benchSweepSpec("fig8", analyzersFor(Options));

  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(MPLs, Options.Scale);
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  std::fprintf(stderr, "fig8: %zu configs x %zu benchmarks\n",
               Configs.size(), Benchmarks.size());

  SweepOptions RunOptions;
  RunOptions.ScoreAnchored = true;

  std::vector<std::vector<double>> ConstBest(MPLs.size()),
      AdaptBest(MPLs.size());

  for (const BenchmarkData &B : Benchmarks) {
    std::vector<RunScores> Runs =
        runSweep(B.Trace, B.Baselines, Configs, RunOptions);
    for (size_t MPLIdx = 0; MPLIdx != MPLs.size(); ++MPLIdx) {
      uint64_t MPL = MPLs[MPLIdx];
      auto best = [&](TWPolicyKind Policy) {
        return bestScore(
            Runs, MPLIdx,
            [&](const DetectorConfig &C) {
              return C.Window.TWPolicy == Policy &&
                     C.Window.CWSize * 2 <= MPL;
            },
            /*Anchored=*/true);
      };
      double Const = best(TWPolicyKind::Constant);
      double Adapt = best(TWPolicyKind::Adaptive);
      if (Const >= 0.0)
        ConstBest[MPLIdx].push_back(Const);
      if (Adapt >= 0.0)
        AdaptBest[MPLIdx].push_back(Adapt);
    }
  }

  Table T("Figure 8: average of best scores with anchor-corrected phase "
          "starts");
  T.setHeader({"MPL", "Constant TW", "Adaptive TW"});
  for (size_t I = 0; I != MPLs.size(); ++I)
    T.addRow({formatAbbrev(MPLs[I]),
              formatDouble(average(ConstBest[I]), 3),
              formatDouble(average(AdaptBest[I]), 3)});
  printTable(T, Options);
  return 0;
}
