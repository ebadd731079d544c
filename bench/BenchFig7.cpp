//===- bench/BenchFig7.cpp - Reproduce Figure 7 -------------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 7: the Adaptive TW anchoring/resizing parameters.
///
///  (a) Percent improvement in best score of Slide over Move resizing
///      (RN anchoring), per MPL, averaged across benchmarks.
///  (b) Percent improvement of RN over LNN anchoring (Slide resizing).
///
/// Paper shape to reproduce: both improvements are positive on average
/// (a few MPLs may dip slightly negative).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace opd;

int main(int Argc, char **Argv) {
  BenchOptions Options;
  int ExitCode = 0;
  if (!parseBenchArgs(Argc, Argv, "bench_fig7",
                      "Reproduces Figure 7 (anchor and resize policies).",
                      Options, ExitCode))
    return ExitCode;

  SweepSpec Spec = benchSweepSpec("fig7", analyzersFor(Options));

  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(StandardMPLs, Options.Scale);
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  std::fprintf(stderr, "fig7: %zu configs x %zu benchmarks\n",
               Configs.size(), Benchmarks.size());

  std::vector<std::vector<double>> SlideVsMove(StandardMPLs.size()),
      RNVsLNN(StandardMPLs.size());

  for (const BenchmarkData &B : Benchmarks) {
    std::vector<RunScores> Runs = runSweep(B.Trace, B.Baselines, Configs);
    for (size_t MPLIdx = 0; MPLIdx != StandardMPLs.size(); ++MPLIdx) {
      uint64_t MPL = StandardMPLs[MPLIdx];
      auto best = [&](AnchorKind Anchor, ResizeKind Resize) {
        return bestScore(Runs, MPLIdx, [&](const DetectorConfig &C) {
          return C.Window.CWSize * 2 == MPL &&
                 C.Window.Anchor == Anchor && C.Window.Resize == Resize;
        });
      };
      double SlideRN = best(AnchorKind::RightmostNoisy, ResizeKind::Slide);
      double MoveRN = best(AnchorKind::RightmostNoisy, ResizeKind::Move);
      double SlideLNN =
          best(AnchorKind::LeftmostNonNoisy, ResizeKind::Slide);
      if (SlideRN >= 0.0 && MoveRN > 0.0)
        SlideVsMove[MPLIdx].push_back(
            percentImprovement(SlideRN, MoveRN));
      if (SlideRN >= 0.0 && SlideLNN > 0.0)
        RNVsLNN[MPLIdx].push_back(percentImprovement(SlideRN, SlideLNN));
    }
  }

  Table A("Figure 7(a): % improvement of Slide over Move resizing (RN "
          "anchoring)");
  A.setHeader({"MPL", "% improvement"});
  for (size_t I = 0; I != StandardMPLs.size(); ++I)
    A.addRow({formatAbbrev(StandardMPLs[I]),
              formatDouble(average(SlideVsMove[I]), 2)});
  printTable(A, Options);

  Table B("Figure 7(b): % improvement of RN over LNN anchoring (Slide "
          "resizing)");
  B.setHeader({"MPL", "% improvement"});
  for (size_t I = 0; I != StandardMPLs.size(); ++I)
    B.addRow({formatAbbrev(StandardMPLs[I]),
              formatDouble(average(RNVsLNN[I]), 2)});
  printTable(B, Options);
  return 0;
}
