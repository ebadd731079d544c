//===- examples/sweep_tool.cpp - Custom sweep runner ---------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a user-specified detector sweep over chosen workloads and MPLs
/// and emits one CSV row per (workload, configuration, MPL) — the raw
/// material behind every table in the paper, exposed for custom
/// analysis.
///
///   sweep_tool --workloads jess,db --mpls 1K,10K --cw 500,5000
///              --models unweighted,weighted --analyzers t0.6,a0.05
///              --policies constant,adaptive,fixed > scores.csv
///
/// The config-space static analyzer (analysis/ConfigAnalysis.h) is
/// surfaced two ways:
///
///   sweep_tool --preset paper --plan      # pruning plan + shared-scan
///                                         # group stats, no sweep
///   sweep_tool --prune ...                # run one config per provable
///                                         # equivalence class; scores
///                                         # are bit-identical, --stats
///                                         # shows the runs saved
///
/// Sweeps run on the shared-scan engine; --stats runs the reference
/// detector instead, for its observer counters (same scores).
///
//===----------------------------------------------------------------------===//

#include "ToolCommon.h"
#include "analysis/ConfigAnalysis.h"
#include "core/BatchKernel.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "support/ArgParser.h"
#include "support/Format.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace opd;

int main(int Argc, char **Argv) {
  ArgParser Args("sweep_tool",
                 "Run a custom detector sweep; emits CSV on stdout.");
  Args.addOption("workloads", "comma-separated workload names",
                 "jess,db,jlex");
  Args.addOption("mpls", "comma-separated MPL values", "1K,10K,100K");
  addSweepSpecOptions(Args);
  Args.addOption("scale", "workload scale factor", "1.0");
  Args.addFlag("anchored", "also score anchor-corrected starts");
  Args.addFlag("stats", "print per-configuration observability counters "
                        "and stage timings to stderr");
  Args.addFlag("plan", "print the equivalence-class pruning plan and "
                       "exit without sweeping");
  Args.addFlag("prune", "run one configuration per provable equivalence "
                        "class and fan scores out to the class");
  Args.addFlag("json", "with --plan, emit the plan as JSON");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 1;

  SweepSpec Spec;
  bool RawCrossProduct = false;
  if (!buildSweepSpec(Args, Spec, RawCrossProduct))
    return 1;

  bool Anchored = Args.getFlag("anchored");

  if (Args.getFlag("plan")) {
    SweepAnalysisOptions PlanOptions;
    PlanOptions.Canon.AnchoredScoring = Anchored;
    PlanOptions.RawCrossProduct = RawCrossProduct;
    SweepAnalysis Analysis = analyzeSweep(Spec, PlanOptions);
    std::string Preset = Args.getOption("preset");
    if (Args.getFlag("json"))
      std::fputs(renderSweepAnalysisJSON(
                     Analysis, Preset.empty() ? "custom" : Preset)
                     .c_str(),
                 stdout);
    else
      std::fputs(sweepPlanTable(Analysis).render().c_str(), stdout);
    return 0;
  }

  std::vector<uint64_t> MPLs;
  for (const std::string &M : splitList(Args.getOption("mpls")))
    MPLs.push_back(parseSize(M));

  std::vector<std::string> Names = splitList(Args.getOption("workloads"));
  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(Names, MPLs, Args.getDouble("scale", 1.0));

  std::vector<DetectorConfig> Configs = RawCrossProduct
                                            ? enumerateCrossProduct(Spec)
                                            : enumerateConfigs(Spec);
  std::fprintf(stderr, "sweep_tool: %zu configs x %zu workloads x %zu "
                       "MPLs, batch backend %s\n",
               Configs.size(), Benchmarks.size(), MPLs.size(),
               batchBackendName(activeBatchBackend()));

  SweepOptions RunOptions;
  RunOptions.ScoreAnchored = Anchored;
  RunOptions.CollectStats = Args.getFlag("stats");
  RunOptions.Prune = Args.getFlag("prune");

  std::printf("workload,mpl,model,policy,cw,tw,skip,anchor,resize,"
              "analyzer,param,correlation,sensitivity,falsePositives,"
              "score%s\n",
              RunOptions.ScoreAnchored ? ",anchoredScore" : "");
  for (const BenchmarkData &B : Benchmarks) {
    SweepStats Stats;
    std::vector<RunScores> Runs =
        runSweep(B.Trace, B.Baselines, Configs, RunOptions, &Stats);
    if (RunOptions.CollectStats)
      std::fputs(
          sweepStatsTable(Runs, "Sweep statistics: " + B.Name).render()
              .c_str(),
          stderr);
    if (RunOptions.CollectStats || RunOptions.Prune)
      std::fprintf(stderr,
                   "sweep_tool: %s: %zu configs, %zu detector runs "
                   "executed, %zu pruned\n",
                   B.Name.c_str(), Stats.NumConfigs, Stats.RunsExecuted,
                   Stats.RunsPruned);
    for (const RunScores &R : Runs) {
      for (size_t I = 0; I != MPLs.size(); ++I) {
        const DetectorConfig &C = R.Config;
        const AccuracyScore &S = R.PerMPL[I];
        std::string Policy = C.isFixedInterval()
                                 ? "fixed"
                                 : twPolicyName(C.Window.TWPolicy);
        std::printf(
            "%s,%llu,%s,%s,%u,%u,%u,%s,%s,%s,%g,%.6f,%.6f,%.6f,%.6f",
            B.Name.c_str(), static_cast<unsigned long long>(MPLs[I]),
            modelKindName(C.Model), Policy.c_str(), C.Window.CWSize,
            C.Window.TWSize, C.Window.SkipFactor,
            anchorKindName(C.Window.Anchor),
            resizeKindName(C.Window.Resize),
            analyzerKindName(C.TheAnalyzer), C.AnalyzerParam,
            S.Correlation, S.Sensitivity, S.FalsePositives, S.Score);
        if (RunOptions.ScoreAnchored)
          std::printf(",%.6f", R.AnchoredPerMPL[I].Score);
        std::printf("\n");
      }
    }
  }
  return 0;
}
