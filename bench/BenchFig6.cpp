//===- bench/BenchFig6.cpp - Reproduce Figure 6 -------------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 6: the analyzer comparison. For the Constant TW (a)
/// and Adaptive TW (b) policies, MPL in {1K, 10K, 50K, 100K}, and the
/// unweighted model with CW = 1/2 MPL: the average score across all
/// benchmarks of each of the ten analyzers (Threshold .5/.6/.7/.8 and
/// Average .01/.05/.1/.2/.3/.4).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace opd;

int main(int Argc, char **Argv) {
  BenchOptions Options;
  int ExitCode = 0;
  if (!parseBenchArgs(Argc, Argv, "bench_fig6",
                      "Reproduces Figure 6 (analyzer comparison).", Options,
                      ExitCode))
    return ExitCode;

  const std::vector<uint64_t> MPLs = {1000, 10000, 50000, 100000};
  // The full analyzer set IS the figure.
  SweepSpec Spec = benchSweepSpec("fig6", paperAnalyzers());

  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(MPLs, Options.Scale);
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  std::fprintf(stderr, "fig6: %zu configs x %zu benchmarks\n",
               Configs.size(), Benchmarks.size());

  // Scores[policy][MPL][analyzer] = per-benchmark scores.
  std::vector<AnalyzerSpec> Analyzers = paperAnalyzers();
  using ScoreList = std::vector<double>;
  std::vector<std::vector<std::vector<ScoreList>>> Scores(
      2, std::vector<std::vector<ScoreList>>(
             MPLs.size(), std::vector<ScoreList>(Analyzers.size())));

  for (const BenchmarkData &B : Benchmarks) {
    std::vector<RunScores> Runs = runSweep(B.Trace, B.Baselines, Configs);
    for (size_t MPLIdx = 0; MPLIdx != MPLs.size(); ++MPLIdx) {
      for (int P = 0; P != 2; ++P) {
        TWPolicyKind Policy =
            P == 0 ? TWPolicyKind::Constant : TWPolicyKind::Adaptive;
        for (size_t AIdx = 0; AIdx != Analyzers.size(); ++AIdx) {
          const AnalyzerSpec &A = Analyzers[AIdx];
          double Best =
              bestScore(Runs, MPLIdx, [&](const DetectorConfig &C) {
                return C.Window.TWPolicy == Policy &&
                       C.TheAnalyzer == A.Kind &&
                       C.AnalyzerParam == A.Param &&
                       C.Window.CWSize * 2 == MPLs[MPLIdx];
              });
          if (Best >= 0.0)
            Scores[P][MPLIdx][AIdx].push_back(Best);
        }
      }
    }
  }

  for (int P = 0; P != 2; ++P) {
    Table T(std::string("Figure 6(") + (P == 0 ? "a" : "b") + "): " +
            (P == 0 ? "Constant" : "Adaptive") +
            " TW, average score per analyzer (unweighted, CW = 1/2 MPL)");
    std::vector<std::string> Header = {"MPL"};
    for (const AnalyzerSpec &A : Analyzers)
      Header.push_back(
          (A.Kind == AnalyzerKind::Threshold ? "T " : "A ") +
          formatDouble(A.Param, 2));
    T.setHeader(Header);
    for (size_t MPLIdx = 0; MPLIdx != MPLs.size(); ++MPLIdx) {
      std::vector<std::string> Row = {formatAbbrev(MPLs[MPLIdx])};
      for (size_t AIdx = 0; AIdx != Analyzers.size(); ++AIdx)
        Row.push_back(formatDouble(average(Scores[P][MPLIdx][AIdx]), 3));
      T.addRow(Row);
    }
    printTable(T, Options);
  }
  return 0;
}
