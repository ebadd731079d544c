//===- bench/BenchFig5.cpp - Reproduce Figure 5 -------------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 5: weighted vs unweighted model. For MPL in
/// {1K, 10K, 50K, 100K} and both TW policies, the average of best scores
/// (over the analyzer set; CW = 1/2 MPL) across all benchmarks, and the
/// same averages excluding compress.
///
/// Paper shape to reproduce: the unweighted model generally beats the
/// weighted model — except on compress, where weighted wins, narrowing
/// the all-benchmarks gap.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace opd;

int main(int Argc, char **Argv) {
  BenchOptions Options;
  int ExitCode = 0;
  if (!parseBenchArgs(Argc, Argv, "bench_fig5",
                      "Reproduces Figure 5 (weighted vs unweighted model).",
                      Options, ExitCode))
    return ExitCode;

  const std::vector<uint64_t> MPLs = {1000, 10000, 50000, 100000};
  SweepSpec Spec = benchSweepSpec("fig5", analyzersFor(Options));

  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(MPLs, Options.Scale);
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  std::fprintf(stderr, "fig5: %zu configs x %zu benchmarks\n",
               Configs.size(), Benchmarks.size());

  // Best[MPLIdx][policy][model] per benchmark.
  struct Cell {
    std::vector<double> All;
    std::vector<double> NoCompress;
  };
  Cell Cells[4][2][2]; // [MPL][policy][model]

  for (const BenchmarkData &B : Benchmarks) {
    std::vector<RunScores> Runs = runSweep(B.Trace, B.Baselines, Configs);
    for (size_t MPLIdx = 0; MPLIdx != MPLs.size(); ++MPLIdx) {
      uint64_t MPL = MPLs[MPLIdx];
      for (int P = 0; P != 2; ++P) {
        TWPolicyKind Policy =
            P == 0 ? TWPolicyKind::Constant : TWPolicyKind::Adaptive;
        for (int M = 0; M != 2; ++M) {
          ModelKind Model =
              M == 0 ? ModelKind::WeightedSet : ModelKind::UnweightedSet;
          double Best =
              bestScore(Runs, MPLIdx, [&](const DetectorConfig &C) {
                return C.Window.TWPolicy == Policy && C.Model == Model &&
                       C.Window.CWSize * 2 == MPL;
              });
          if (Best < 0.0)
            continue;
          Cells[MPLIdx][P][M].All.push_back(Best);
          if (B.Name != "compress")
            Cells[MPLIdx][P][M].NoCompress.push_back(Best);
        }
      }
    }
  }

  Table T("Figure 5: average of best scores, weighted vs unweighted "
          "(CW = 1/2 MPL)");
  T.setHeader({"MPL", "Policy", "Weighted", "Unweighted",
               "Weighted w/o compress", "Unweighted w/o compress"});
  for (size_t I = 0; I != MPLs.size(); ++I) {
    for (int P = 0; P != 2; ++P) {
      T.addRow({formatAbbrev(MPLs[I]),
                P == 0 ? "Constant TW" : "Adaptive TW",
                formatDouble(average(Cells[I][P][0].All), 3),
                formatDouble(average(Cells[I][P][1].All), 3),
                formatDouble(average(Cells[I][P][0].NoCompress), 3),
                formatDouble(average(Cells[I][P][1].NoCompress), 3)});
    }
    if (I + 1 != MPLs.size())
      T.addSeparator();
  }
  printTable(T, Options);

  // Compress-only detail: the paper reports the weighted model is
  // dramatically better on compress.
  Table C("Figure 5 detail: compress only (best scores)");
  C.setHeader({"MPL", "Policy", "Weighted", "Unweighted"});
  for (const BenchmarkData &B : Benchmarks) {
    if (B.Name != "compress")
      continue;
    std::vector<RunScores> Runs = runSweep(B.Trace, B.Baselines, Configs);
    for (size_t I = 0; I != MPLs.size(); ++I)
      for (int P = 0; P != 2; ++P) {
        TWPolicyKind Policy =
            P == 0 ? TWPolicyKind::Constant : TWPolicyKind::Adaptive;
        auto bestModel = [&](ModelKind Model) {
          return bestScore(Runs, I, [&](const DetectorConfig &Cfg) {
            return Cfg.Window.TWPolicy == Policy && Cfg.Model == Model &&
                   Cfg.Window.CWSize * 2 == MPLs[I];
          });
        };
        C.addRow({formatAbbrev(MPLs[I]),
                  P == 0 ? "Constant TW" : "Adaptive TW",
                  formatDouble(bestModel(ModelKind::WeightedSet), 3),
                  formatDouble(bestModel(ModelKind::UnweightedSet), 3)});
      }
  }
  printTable(C, Options);
  return 0;
}
