//===- bench/BenchTable2.cpp - Reproduce Table 2 ------------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 2: the current-window-size comparison.
///
///  (a) Per benchmark and TW policy (Adaptive skip=1, Constant skip=1,
///      Fixed Interval): average percent improvement in best score when
///      the CW is smaller than / equal to the MPL, over a CW larger than
///      the MPL.
///  (b) Average of best scores across all benchmarks for CW smaller than,
///      equal to, and at most half the MPL.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace opd;

namespace {

/// The three policy groups Table 2 compares.
enum class PolicyGroup { Adaptive, Constant, FixedInterval };

bool inGroup(const DetectorConfig &C, PolicyGroup G) {
  switch (G) {
  case PolicyGroup::Adaptive:
    return C.Window.TWPolicy == TWPolicyKind::Adaptive &&
           C.Window.SkipFactor == 1;
  case PolicyGroup::Constant:
    return C.Window.TWPolicy == TWPolicyKind::Constant &&
           C.Window.SkipFactor == 1;
  case PolicyGroup::FixedInterval:
    return C.isFixedInterval();
  }
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options;
  int ExitCode = 0;
  if (!parseBenchArgs(Argc, Argv, "bench_table2",
                      "Reproduces Table 2 (CW size vs MPL comparison).",
                      Options, ExitCode))
    return ExitCode;

  SweepSpec Spec = benchSweepSpec("table2", analyzersFor(Options));

  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(StandardMPLs, Options.Scale);
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  std::fprintf(stderr, "table2: %zu configs x %zu benchmarks\n",
               Configs.size(), Benchmarks.size());

  const PolicyGroup Groups[] = {PolicyGroup::Adaptive, PolicyGroup::Constant,
                                PolicyGroup::FixedInterval};

  Table A("Table 2(a): avg % improvement in best score, CW smaller/equal "
          "vs larger than MPL");
  A.setHeader({"Benchmark", "Adapt smaller", "Adapt equal", "Const smaller",
               "Const equal", "Fixed smaller", "Fixed equal"});

  // Accumulators for Table 2(b): best scores per (group, relation).
  std::vector<double> BSmaller[3], BEqual[3], BHalf[3];
  // Column accumulators for the "Average" row of (a).
  std::vector<double> ColAverages[6];

  for (const BenchmarkData &B : Benchmarks) {
    std::vector<RunScores> Runs = runSweep(B.Trace, B.Baselines, Configs);
    std::vector<std::string> Row = {B.Name};
    unsigned Col = 0;
    for (PolicyGroup G : Groups) {
      std::vector<double> ImpSmaller, ImpEqual;
      for (size_t MPLIdx = 0; MPLIdx != B.MPLs.size(); ++MPLIdx) {
        uint64_t MPL = B.MPLs[MPLIdx];
        auto bestWhere = [&](auto Rel) {
          return bestScore(Runs, MPLIdx, [&](const DetectorConfig &C) {
            return inGroup(C, G) && Rel(C.Window.CWSize);
          });
        };
        double Smaller =
            bestWhere([&](uint32_t CW) { return CW < MPL; });
        double Equal = bestWhere([&](uint32_t CW) { return CW == MPL; });
        double Larger = bestWhere([&](uint32_t CW) { return CW > MPL; });
        double Half =
            bestWhere([&](uint32_t CW) { return CW * 2 <= MPL; });
        if (Larger >= 0.0 && Smaller >= 0.0)
          ImpSmaller.push_back(percentImprovement(Smaller, Larger));
        if (Larger >= 0.0 && Equal >= 0.0)
          ImpEqual.push_back(percentImprovement(Equal, Larger));
        if (Smaller >= 0.0)
          BSmaller[static_cast<int>(G)].push_back(Smaller);
        if (Equal >= 0.0)
          BEqual[static_cast<int>(G)].push_back(Equal);
        if (Half >= 0.0)
          BHalf[static_cast<int>(G)].push_back(Half);
      }
      double AvgSmaller = average(ImpSmaller);
      double AvgEqual = average(ImpEqual);
      Row.push_back(formatDouble(AvgSmaller, 2));
      Row.push_back(formatDouble(AvgEqual, 2));
      ColAverages[Col++].push_back(AvgSmaller);
      ColAverages[Col++].push_back(AvgEqual);
    }
    A.addRow(Row);
  }
  std::vector<std::string> AvgRow = {"Average"};
  for (unsigned Col = 0; Col != 6; ++Col)
    AvgRow.push_back(formatDouble(average(ColAverages[Col]), 2));
  A.addSeparator();
  A.addRow(AvgRow);
  printTable(A, Options);

  Table Bt("Table 2(b): average of best scores across benchmarks");
  Bt.setHeader({"TW policy", "Smaller", "Equal", "<= 1/2 MPL"});
  const char *GroupNames[] = {"Adaptive TW", "Constant TW",
                              "Fixed Interval"};
  for (int G = 0; G != 3; ++G)
    Bt.addRow({GroupNames[G], formatDouble(average(BSmaller[G]), 3),
               formatDouble(average(BEqual[G]), 3),
               formatDouble(average(BHalf[G]), 3)});
  printTable(Bt, Options);
  return 0;
}
