//===- bench/BenchAblation.cpp - Design-choice ablations -----------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablations beyond the paper's tables, for the design choices DESIGN.md
/// calls out:
///
///  1. Framework detectors vs the related-work detectors of Section 6
///     (Lu et al. mean-interval, Das et al. Pearson), scored with the
///     same oracle/metric.
///  2. Skip-factor sensitivity between the paper's two extremes (1 and
///     CW size).
///  3. Trailing-window size factor (TW = CW vs TW = 2x CW).
///  4. The Average analyzer's optional entry threshold (our extension to
///     the paper's under-specified phase-entry rule).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/DetectorRunner.h"
#include "core/MultiScale.h"
#include "core/OfflineClustering.h"
#include "core/PhasePredictor.h"
#include "core/RecurringPhases.h"
#include "core/RelatedWork.h"
#include "metrics/Latency.h"
#include "metrics/Scoring.h"
#include "metrics/Stability.h"
#include "trace/Sampling.h"
#include "vm/Interleave.h"

using namespace opd;

namespace {

double scoreDetector(OnlineDetector &D, const BenchmarkData &B,
                     size_t MPLIdx) {
  DetectorRun Run = runDetector(D, B.Trace);
  return scoreDetection(Run.States, B.Baselines[MPLIdx].states()).Score;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options;
  int ExitCode = 0;
  if (!parseBenchArgs(Argc, Argv, "bench_ablation",
                      "Ablations: related-work detectors, skip factor, TW "
                      "size, analyzer entry threshold.",
                      Options, ExitCode))
    return ExitCode;

  const std::vector<uint64_t> MPLs = {10000};
  std::vector<BenchmarkData> Benchmarks =
      prepareBenchmarks(MPLs, Options.Scale);

  //===------------------------------------------------------------------===//
  // 1. Framework vs related-work detectors (MPL 10K).
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 1: framework vs related-work detectors (score at "
            "MPL 10K)");
    T.setHeader({"Benchmark", "Framework (unw/adaptive/T.6)",
                 "Lu mean-interval", "Das pearson"});
    std::vector<double> Fw, Lu, Das;
    for (const BenchmarkData &B : Benchmarks) {
      DetectorConfig C;
      C.Window.CWSize = 5000;
      C.Window.TWSize = 5000;
      C.Window.TWPolicy = TWPolicyKind::Adaptive;
      C.Model = ModelKind::UnweightedSet;
      C.TheAnalyzer = AnalyzerKind::Threshold;
      C.AnalyzerParam = 0.6;
      std::unique_ptr<PhaseDetector> D =
          makeDetector(C, B.Trace.numSites());
      LuDetector LuD({/*SampleSize=*/4096});
      DasDetector DasD({/*SampleSize=*/4096, /*Threshold=*/0.9},
                       B.Trace.numSites());
      double SFw = scoreDetector(*D, B, 0);
      double SLu = scoreDetector(LuD, B, 0);
      double SDas = scoreDetector(DasD, B, 0);
      Fw.push_back(SFw);
      Lu.push_back(SLu);
      Das.push_back(SDas);
      T.addRow({B.Name, formatDouble(SFw, 3), formatDouble(SLu, 3),
                formatDouble(SDas, 3)});
    }
    T.addSeparator();
    T.addRow({"Average", formatDouble(average(Fw), 3),
              formatDouble(average(Lu), 3), formatDouble(average(Das), 3)});
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 2. Skip-factor sensitivity (Constant TW, CW 5K, MPL 10K).
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 2: skip-factor sensitivity (Constant TW, unweighted, "
            "CW=5K, threshold 0.6, MPL 10K)");
    std::vector<uint32_t> Skips = {1, 4, 16, 64, 256, 1024, 5000};
    std::vector<std::string> Header = {"Benchmark"};
    for (uint32_t S : Skips)
      Header.push_back("skip " + formatAbbrev(S));
    T.setHeader(Header);
    std::vector<std::vector<double>> PerSkip(Skips.size());
    for (const BenchmarkData &B : Benchmarks) {
      std::vector<std::string> Row = {B.Name};
      for (size_t I = 0; I != Skips.size(); ++I) {
        DetectorConfig C;
        C.Window.CWSize = 5000;
        C.Window.TWSize = 5000;
        C.Window.SkipFactor = Skips[I];
        C.Model = ModelKind::UnweightedSet;
        C.TheAnalyzer = AnalyzerKind::Threshold;
        C.AnalyzerParam = 0.6;
        std::unique_ptr<PhaseDetector> D =
            makeDetector(C, B.Trace.numSites());
        double S = scoreDetector(*D, B, 0);
        PerSkip[I].push_back(S);
        Row.push_back(formatDouble(S, 3));
      }
      T.addRow(Row);
    }
    std::vector<std::string> AvgRow = {"Average"};
    for (const std::vector<double> &Scores : PerSkip)
      AvgRow.push_back(formatDouble(average(Scores), 3));
    T.addSeparator();
    T.addRow(AvgRow);
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 3. Trailing-window size factor.
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 3: TW size factor (Constant TW, unweighted, CW=5K, "
            "threshold 0.6, MPL 10K)");
    T.setHeader({"Benchmark", "TW = CW", "TW = 2x CW", "TW = 4x CW"});
    std::vector<std::vector<double>> PerFactor(3);
    for (const BenchmarkData &B : Benchmarks) {
      std::vector<std::string> Row = {B.Name};
      uint32_t Factors[] = {1, 2, 4};
      for (size_t I = 0; I != 3; ++I) {
        DetectorConfig C;
        C.Window.CWSize = 5000;
        C.Window.TWSize = 5000 * Factors[I];
        C.Model = ModelKind::UnweightedSet;
        C.TheAnalyzer = AnalyzerKind::Threshold;
        C.AnalyzerParam = 0.6;
        std::unique_ptr<PhaseDetector> D =
            makeDetector(C, B.Trace.numSites());
        double S = scoreDetector(*D, B, 0);
        PerFactor[I].push_back(S);
        Row.push_back(formatDouble(S, 3));
      }
      T.addRow(Row);
    }
    T.addSeparator();
    T.addRow({"Average", formatDouble(average(PerFactor[0]), 3),
              formatDouble(average(PerFactor[1]), 3),
              formatDouble(average(PerFactor[2]), 3)});
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 4. Average analyzer entry-threshold extension.
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 4: Average analyzer entry threshold (Adaptive TW, "
            "unweighted, CW=5K, delta 0.05, MPL 10K)");
    T.setHeader({"Benchmark", "pure (optimistic entry)", "entry >= 0.5",
                 "entry >= 0.7"});
    std::vector<std::vector<double>> PerVariant(3);
    double Entries[] = {-1.0, 0.5, 0.7};
    for (const BenchmarkData &B : Benchmarks) {
      std::vector<std::string> Row = {B.Name};
      for (size_t I = 0; I != 3; ++I) {
        WindowConfig W;
        W.CWSize = 5000;
        W.TWSize = 5000;
        W.TWPolicy = TWPolicyKind::Adaptive;
        PhaseDetector D(W, ModelKind::UnweightedSet,
                        std::make_unique<AverageAnalyzer>(0.05, Entries[I]),
                        B.Trace.numSites());
        double S = scoreDetector(D, B, 0);
        PerVariant[I].push_back(S);
        Row.push_back(formatDouble(S, 3));
      }
      T.addRow(Row);
    }
    T.addSeparator();
    T.addRow({"Average", formatDouble(average(PerVariant[0]), 3),
              formatDouble(average(PerVariant[1]), 3),
              formatDouble(average(PerVariant[2]), 3)});
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 5. Hysteresis analyzer (extension) vs single threshold.
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 5: hysteresis analyzer vs plain threshold (Adaptive "
            "TW, unweighted, CW=5K, MPL 10K)");
    T.setHeader({"Benchmark", "threshold 0.7", "hysteresis 0.7/0.55"});
    std::vector<double> Plain, Hyst;
    for (const BenchmarkData &B : Benchmarks) {
      DetectorConfig C;
      C.Window.CWSize = 5000;
      C.Window.TWSize = 5000;
      C.Window.TWPolicy = TWPolicyKind::Adaptive;
      C.Model = ModelKind::UnweightedSet;
      C.TheAnalyzer = AnalyzerKind::Threshold;
      C.AnalyzerParam = 0.7;
      std::unique_ptr<PhaseDetector> DPlain =
          makeDetector(C, B.Trace.numSites());
      C.TheAnalyzer = AnalyzerKind::Hysteresis;
      std::unique_ptr<PhaseDetector> DHyst =
          makeDetector(C, B.Trace.numSites());
      double SPlain = scoreDetector(*DPlain, B, 0);
      double SHyst = scoreDetector(*DHyst, B, 0);
      Plain.push_back(SPlain);
      Hyst.push_back(SHyst);
      T.addRow({B.Name, formatDouble(SPlain, 3), formatDouble(SHyst, 3)});
    }
    T.addSeparator();
    T.addRow({"Average", formatDouble(average(Plain), 3),
              formatDouble(average(Hyst), 3)});
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 6. Detection latency: how late are matched boundaries?
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 6: detection latency in elements (Adaptive TW, "
            "unweighted, threshold 0.6, MPL 10K) by CW size");
    T.setHeader({"Benchmark", "CW=1K start", "CW=1K end", "CW=5K start",
                 "CW=5K end"});
    for (const BenchmarkData &B : Benchmarks) {
      std::vector<std::string> Row = {B.Name};
      for (uint32_t CW : {1000u, 5000u}) {
        DetectorConfig C;
        C.Window.CWSize = CW;
        C.Window.TWSize = CW;
        C.Window.TWPolicy = TWPolicyKind::Adaptive;
        C.Model = ModelKind::UnweightedSet;
        C.TheAnalyzer = AnalyzerKind::Threshold;
        C.AnalyzerParam = 0.6;
        std::unique_ptr<PhaseDetector> D =
            makeDetector(C, B.Trace.numSites());
        DetectorRun Run = runDetector(*D, B.Trace);
        LatencyStats L = computeLatency(
            Run.DetectedPhases, B.Baselines[0].phases(), B.Trace.size());
        Row.push_back(L.StartDelay.empty()
                          ? "-"
                          : formatCount(static_cast<uint64_t>(
                                L.StartDelay.mean())));
        Row.push_back(L.EndDelay.empty()
                          ? "-"
                          : formatCount(static_cast<uint64_t>(
                                L.EndDelay.mean())));
      }
      T.addRow(Row);
    }
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 7. Recurring-phase identification (the paper's future-work feature).
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 7: recurring-phase identification (Adaptive TW, "
            "unweighted, threshold 0.6, CW=5K; signature match 0.7)");
    T.setHeader({"Benchmark", "completed phases", "distinct phases",
                 "recurrences", "recurrence rate"});
    std::vector<RecurringPhaseTracker> Trackers;
    for (const BenchmarkData &B : Benchmarks) {
      DetectorConfig C;
      C.Window.CWSize = 5000;
      C.Window.TWSize = 5000;
      C.Window.TWPolicy = TWPolicyKind::Adaptive;
      C.Model = ModelKind::UnweightedSet;
      C.TheAnalyzer = AnalyzerKind::Threshold;
      C.AnalyzerParam = 0.6;
      std::unique_ptr<PhaseDetector> D =
          makeDetector(C, B.Trace.numSites());
      D->reset();
      RecurringPhaseTracker Tracker(B.Trace.numSites(), 0.7);
      const std::vector<SiteIndex> &Elements = B.Trace.elements();
      for (uint64_t I = 0; I != Elements.size(); ++I) {
        PhaseState S = D->processBatch(&Elements[I], 1);
        Tracker.observe(&Elements[I], 1, S);
      }
      Tracker.finish();
      size_t Completed = Tracker.completedPhases().size();
      unsigned Recur = 0;
      for (const RecurringPhaseTracker::CompletedPhase &P :
           Tracker.completedPhases())
        Recur += P.Recurrence ? 1 : 0;
      T.addRow({B.Name, std::to_string(Completed),
                std::to_string(Tracker.numDistinctPhases()),
                std::to_string(Recur),
                Completed == 0
                    ? "-"
                    : formatPercent(static_cast<double>(Recur) /
                                    static_cast<double>(Completed)) +
                          "%"});
      Trackers.push_back(std::move(Tracker));
    }
    printTable(T, Options);

    //===----------------------------------------------------------------===//
    // 8. Next-phase prediction on top of the recurring-phase ids.
    //===----------------------------------------------------------------===//
    Table TP("Ablation 8: next-phase prediction accuracy over the "
             "recurring-phase id stream");
    TP.setHeader({"Benchmark", "phases", "last-value", "markov"});
    std::vector<double> LastRates, MarkovRates;
    for (size_t I = 0; I != Benchmarks.size(); ++I) {
      const std::vector<RecurringPhaseTracker::CompletedPhase> &Phases =
          Trackers[I].completedPhases();
      LastPhasePredictor Last;
      MarkovPhasePredictor Markov;
      PredictionAccuracy AL = evaluatePredictor(Last, Phases);
      PredictionAccuracy AM = evaluatePredictor(Markov, Phases);
      if (AL.Predictions >= 4) {
        LastRates.push_back(AL.rate());
        MarkovRates.push_back(AM.rate());
      }
      TP.addRow({Benchmarks[I].Name, std::to_string(Phases.size()),
                 AL.Predictions ? formatPercent(AL.rate()) + "%" : "-",
                 AM.Predictions ? formatPercent(AM.rate()) + "%" : "-"});
    }
    TP.addSeparator();
    TP.addRow({"Average (>=5 phases)", "",
               formatPercent(average(LastRates)) + "%",
               formatPercent(average(MarkovRates)) + "%"});
    printTable(TP, Options);
  }

  //===------------------------------------------------------------------===//
  // 9. Multi-threaded interleaving: per-thread vs merged-stream
  //    detection (the paper's noted single-thread limitation).
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 9: multi-threaded interleaving (jess + db threads, "
            "unweighted/constant/T.6, CW=5K, MPL 10K)");
    T.setHeader({"Quantum", "per-thread score", "merged-stream score"});
    const BenchmarkData *T1 = nullptr, *T2 = nullptr;
    for (const BenchmarkData &B : Benchmarks) {
      if (B.Name == "jess")
        T1 = &B;
      if (B.Name == "db")
        T2 = &B;
    }
    if (T1 && T2) {
      DetectorConfig C;
      C.Window.CWSize = 5000;
      C.Window.TWSize = 5000;
      C.Model = ModelKind::UnweightedSet;
      C.TheAnalyzer = AnalyzerKind::Threshold;
      C.AnalyzerParam = 0.6;

      // Per-thread detection does not depend on the quantum.
      std::unique_ptr<PhaseDetector> D1 =
          makeDetector(C, T1->Trace.numSites());
      std::unique_ptr<PhaseDetector> D2 =
          makeDetector(C, T2->Trace.numSites());
      double PerThread =
          (scoreDetection(runDetector(*D1, T1->Trace).States,
                          T1->Baselines[0].states())
               .Score +
           scoreDetection(runDetector(*D2, T2->Trace).States,
                          T2->Baselines[0].states())
               .Score) /
          2.0;

      for (uint64_t Quantum : {100ull, 1000ull, 10000ull, 100000ull}) {
        InterleavedTrace Merged =
            interleaveTraces({&T1->Trace, &T2->Trace}, Quantum, 1234);
        std::unique_ptr<PhaseDetector> DM =
            makeDetector(C, Merged.Merged.numSites());
        DetectorRun MergedRun = runDetector(*DM, Merged.Merged);
        std::vector<StateSequence> Projected =
            demuxStates(Merged, MergedRun.States);
        double MergedScore =
            (scoreDetection(Projected[0], T1->Baselines[0].states())
                 .Score +
             scoreDetection(Projected[1], T2->Baselines[0].states())
                 .Score) /
            2.0;
        T.addRow({formatAbbrev(Quantum), formatDouble(PerThread, 3),
                  formatDouble(MergedScore, 3)});
      }
    }
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 10. Sampled profiles: accuracy vs sampling period.
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 10: sampled profiles (unweighted/adaptive/T.6; CW "
            "scaled with the period so the window spans ~10K raw "
            "branches; MPL 10K)");
    std::vector<uint64_t> Periods = {1, 2, 4, 8, 16, 32};
    std::vector<std::string> Header = {"Benchmark"};
    for (uint64_t P : Periods)
      Header.push_back("1/" + std::to_string(P));
    T.setHeader(Header);
    std::vector<std::vector<double>> PerPeriod(Periods.size());
    for (const BenchmarkData &B : Benchmarks) {
      std::vector<std::string> Row = {B.Name};
      for (size_t I = 0; I != Periods.size(); ++I) {
        uint64_t Period = Periods[I];
        BranchTrace Sampled = sampleTrace(B.Trace, Period);
        StateSequence SampledOracle =
            sampleStates(B.Baselines[0].states(), Period);
        DetectorConfig C;
        C.Window.CWSize =
            std::max<uint32_t>(16, static_cast<uint32_t>(5000 / Period));
        C.Window.TWSize = C.Window.CWSize;
        C.Window.TWPolicy = TWPolicyKind::Adaptive;
        C.Model = ModelKind::UnweightedSet;
        C.TheAnalyzer = AnalyzerKind::Threshold;
        C.AnalyzerParam = 0.6;
        std::unique_ptr<PhaseDetector> D =
            makeDetector(C, Sampled.numSites());
        DetectorRun Run = runDetector(*D, Sampled);
        double Score = scoreDetection(Run.States, SampledOracle).Score;
        PerPeriod[I].push_back(Score);
        Row.push_back(formatDouble(Score, 3));
      }
      T.addRow(Row);
    }
    std::vector<std::string> AvgRow = {"Average"};
    for (const std::vector<double> &Scores : PerPeriod)
      AvgRow.push_back(formatDouble(average(Scores), 3));
    T.addSeparator();
    T.addRow(AvgRow);
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 11. Multi-scale detection: one bank scored against several MPLs.
  //===------------------------------------------------------------------===//
  {
    std::vector<BenchmarkData> MultiMPL = prepareBenchmarks(
        {"jess", "db", "mpegaudio", "jlex"}, {1000, 10000, 100000},
        Options.Scale);
    Table T("Ablation 11: multi-scale bank (CW 500/5K/50K) vs single "
            "detectors, score at each MPL");
    T.setHeader({"Benchmark", "lvl0@1K", "lvl1@10K", "lvl2@100K",
                 "single@1K", "single@10K", "single@100K"});
    for (const BenchmarkData &B : MultiMPL) {
      MultiScaleDetector::Options MS;
      MS.BaseCWSize = 500;
      MS.ScaleFactor = 10;
      MS.NumLevels = 3;
      MultiScaleDetector Bank(MS, B.Trace.numSites());
      MultiScaleRun Run = runMultiScale(Bank, B.Trace);
      std::vector<std::string> Row = {B.Name};
      for (unsigned L = 0; L != 3; ++L)
        Row.push_back(formatDouble(
            scoreDetection(Run.LevelStates[L], B.Baselines[L].states())
                .Score,
            3));
      // Single detectors with the matching window per MPL.
      for (unsigned L = 0; L != 3; ++L) {
        DetectorConfig C;
        C.Window.CWSize = Bank.levelCWSize(L);
        C.Window.TWSize = C.Window.CWSize;
        C.Window.TWPolicy = TWPolicyKind::Adaptive;
        C.Model = ModelKind::UnweightedSet;
        C.TheAnalyzer = AnalyzerKind::Threshold;
        C.AnalyzerParam = 0.6;
        std::unique_ptr<PhaseDetector> D =
            makeDetector(C, B.Trace.numSites());
        DetectorRun SingleRun = runDetector(*D, B.Trace);
        Row.push_back(formatDouble(
            scoreDetection(SingleRun.States, B.Baselines[L].states())
                .Score,
            3));
      }
      T.addRow(Row);
    }
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 12. Offline interval clustering (full-trace hindsight) vs online.
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 12: offline k-means interval clustering vs the "
            "online detector (intervals 5K, k=8; MPL 10K)");
    T.setHeader({"Benchmark", "offline score", "offline clusters",
                 "online score (unw/adaptive/T.6, CW=5K)"});
    std::vector<double> Offline, Online;
    for (const BenchmarkData &B : Benchmarks) {
      OfflineClusteringOptions OC;
      OC.IntervalLength = 5000;
      OC.NumClusters = 8;
      OfflineClusteringResult R = clusterTrace(B.Trace, OC);
      double SOffline =
          scoreDetection(R.Phases, B.Baselines[0].states()).Score;

      DetectorConfig C;
      C.Window.CWSize = 5000;
      C.Window.TWSize = 5000;
      C.Window.TWPolicy = TWPolicyKind::Adaptive;
      C.Model = ModelKind::UnweightedSet;
      C.TheAnalyzer = AnalyzerKind::Threshold;
      C.AnalyzerParam = 0.6;
      std::unique_ptr<PhaseDetector> D =
          makeDetector(C, B.Trace.numSites());
      double SOnline = scoreDetector(*D, B, 0);

      Offline.push_back(SOffline);
      Online.push_back(SOnline);
      T.addRow({B.Name, formatDouble(SOffline, 3),
                std::to_string(R.NumClusters),
                formatDouble(SOnline, 3)});
    }
    T.addSeparator();
    T.addRow({"Average", formatDouble(average(Offline), 3), "",
              formatDouble(average(Online), 3)});
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 13. Best overall configuration per benchmark (the paper-style
  //     conclusion, stated concretely).
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 13: best configuration per benchmark (sweep over "
            "CW/policy/model/analyzer; MPL 10K)");
    T.setHeader({"Benchmark", "best score", "configuration"});
    SweepSpec Spec = benchSweepSpec("ablation13", analyzersFor(Options));
    std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
    for (const BenchmarkData &B : Benchmarks) {
      std::vector<RunScores> Runs =
          runSweep(B.Trace, B.Baselines, Configs);
      double Best = -1.0;
      const DetectorConfig *BestConfig = nullptr;
      for (const RunScores &R : Runs) {
        if (R.PerMPL[0].Score > Best) {
          Best = R.PerMPL[0].Score;
          BestConfig = &R.Config;
        }
      }
      T.addRow({B.Name, formatDouble(Best, 3),
                BestConfig ? BestConfig->describe() : "-"});
    }
    printTable(T, Options);
  }

  //===------------------------------------------------------------------===//
  // 14. Oracle-free stability characterization of detector output
  //     (Dhodapkar & Smith-style measures).
  //===------------------------------------------------------------------===//
  {
    Table T("Ablation 14: output stability (unweighted/adaptive/T.6, "
            "CW=5K): in-phase fraction, state changes per 1M elements, "
            "mean phase length");
    T.setHeader({"Benchmark", "% in P", "changes/M", "phases",
                 "mean phase len", "oracle % in P"});
    for (const BenchmarkData &B : Benchmarks) {
      DetectorConfig C;
      C.Window.CWSize = 5000;
      C.Window.TWSize = 5000;
      C.Window.TWPolicy = TWPolicyKind::Adaptive;
      C.Model = ModelKind::UnweightedSet;
      C.TheAnalyzer = AnalyzerKind::Threshold;
      C.AnalyzerParam = 0.6;
      std::unique_ptr<PhaseDetector> D =
          makeDetector(C, B.Trace.numSites());
      DetectorRun Run = runDetector(*D, B.Trace);
      StabilityStats S = computeStability(Run.States);
      T.addRow({B.Name, formatPercent(S.InPhaseFraction),
                formatDouble(S.ChangesPerMillion, 1),
                std::to_string(S.NumPhases),
                S.PhaseLengths.empty()
                    ? "-"
                    : formatCount(
                          static_cast<uint64_t>(S.PhaseLengths.mean())),
                formatPercent(B.Baselines[0].fractionInPhase())});
    }
    printTable(T, Options);
  }
  return 0;
}
