//===- harness/Sweep.cpp - Detector configuration sweeps --------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "harness/Sweep.h"

#include "analysis/ConfigAnalysis.h"
#include "core/DetectorRunner.h"
#include "core/SharedScan.h"
#include "support/Format.h"
#include "support/Parallel.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace opd;

namespace {

/// Scores \p Run into \p R against every baseline, exactly once per
/// execution path so both paths score identically.
void scoreRun(const DetectorRun &Run,
              const std::vector<BaselineSolution> &Baselines,
              const SweepOptions &Options, RunScores &R) {
  R.PerMPL.reserve(Baselines.size());
  for (const BaselineSolution &B : Baselines)
    R.PerMPL.push_back(scoreDetection(Run.States, B.states()));
  if (Options.ScoreAnchored) {
    R.AnchoredPerMPL.reserve(Baselines.size());
    for (const BaselineSolution &B : Baselines)
      R.AnchoredPerMPL.push_back(
          scoreDetection(Run.AnchoredPhases, B.states()));
  }
}

/// Shared-scan execution (core/SharedScan.h), the sweep engine: the
/// runs at \p Indices are grouped by window-kernel shape and each group
/// rides a single trace pass. Groups are scheduled longest-first — a
/// group's cost is its model's cost factor times one shared window
/// advance plus each member's evaluation rate (inverse skip) and, for
/// adaptive members, their in-phase shard advances — and per-worker
/// arenas hold one engine per model (cursor arrays, shard pools, and
/// kernel state all reused across the groups a worker claims).
void runConfigsShared(const BranchTrace &Trace,
                      const std::vector<BaselineSolution> &Baselines,
                      const std::vector<DetectorConfig> &Configs,
                      const std::vector<size_t> &Indices,
                      const SweepOptions &Options,
                      std::vector<RunScores> &Results) {
  std::vector<DetectorConfig> Planned;
  Planned.reserve(Indices.size());
  for (size_t I : Indices)
    Planned.push_back(Configs[I]);
  SharedScanPlan Plan = planSharedScan(Planned);

  std::vector<size_t> Order(Plan.Groups.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  // The model factor is measured: single-thread on the pruned jess
  // paper plan, whose 28 groups hold the same member mix (so the member
  // terms below tie), the 14 weighted groups took 0.15-0.40 s (3.8 s in
  // all) and the 14 unweighted ones 0.04-0.24 s (1.8 s): about 2x. A
  // Manhattan group of the same configs (CW 1000) took about 2.3x its
  // weighted twin. Simulated on those group times, weighted-first cuts
  // the 4-thread makespan from 1.48 s (plan order) to 1.45 s.
  auto ModelFactor = [](ModelKind Model) {
    switch (Model) {
    case ModelKind::UnweightedSet:
      return 1.0;
    case ModelKind::WeightedSet:
      return 2.0;
    case ModelKind::ManhattanBBV:
      return 4.5;
    }
    return 1.0;
  };
  auto GroupCost = [&](const SharedScanGroup &G) {
    double Cost = 1.0; // The shared window advance.
    for (size_t Member : G.Members) {
      const WindowConfig &W = Planned[Member].Window;
      Cost += 1.0 / static_cast<double>(W.SkipFactor);
      if (W.TWPolicy == TWPolicyKind::Adaptive)
        Cost += 0.5; // Rough in-phase shard-advance share.
    }
    return Cost * ModelFactor(G.Key.Model);
  };
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return GroupCost(Plan.Groups[A]) > GroupCost(Plan.Groups[B]);
  });

  /// Per-worker engine arena: one reusable engine per model plus the
  /// group-sized run storage.
  struct EngineArena {
    std::array<std::unique_ptr<SharedScanEngineBase>, 3> Engines;
    std::vector<DetectorRun> Runs;
  };
  std::vector<EngineArena> Arenas(hardwareParallelism());

  parallelFor(
      Order.size(),
      [&](size_t N, unsigned Worker) {
        const SharedScanGroup &G = Plan.Groups[Order[N]];
        EngineArena &Arena = Arenas[Worker];

        std::unique_ptr<SharedScanEngineBase> &Slot =
            Arena.Engines[static_cast<size_t>(G.Key.Model)];
        if (!Slot || Slot->numSites() != Trace.numSites())
          Slot = makeSharedScanEngine(G.Key.Model, Trace.numSites());

        if (Arena.Runs.size() < G.Members.size())
          Arena.Runs.resize(G.Members.size());
        Slot->run(Planned, G.Members, Trace.elements().data(), Trace.size(),
                  Arena.Runs);

        for (size_t I = 0; I != G.Members.size(); ++I) {
          size_t Global = Indices[G.Members[I]];
          RunScores &R = Results[Global];
          R.Config = Configs[Global];
          scoreRun(Arena.Runs[I], Baselines, Options, R);
        }
      },
      /*Grain=*/1);
}

/// Observed execution for CollectStats: one reference PhaseDetector per
/// run, the only detector that emits the internal observer events the
/// counters are built from, with each run's detect and score stages
/// timed. Scores are bit-identical to the shared-scan engine's.
void runConfigsObserved(const BranchTrace &Trace,
                        const std::vector<BaselineSolution> &Baselines,
                        const std::vector<DetectorConfig> &Configs,
                        const std::vector<size_t> &Indices,
                        const SweepOptions &Options,
                        std::vector<RunScores> &Results) {
  parallelFor(
      Indices.size(),
      [&](size_t N, unsigned) {
        RunScores &R = Results[Indices[N]];
        R.Config = Configs[Indices[N]];
        CountingObserver Stats;
        Stopwatch Timer;
        std::unique_ptr<PhaseDetector> Detector =
            makeDetector(R.Config, Trace.numSites());
        DetectorRun Run = runDetector(*Detector, Trace, &Stats);
        R.DetectSeconds = Timer.seconds();
        R.Counters = Stats.counters();
        Timer.restart();
        scoreRun(Run, Baselines, Options, R);
        R.ScoreSeconds = Timer.seconds();
      },
      /*Grain=*/1);
}

} // namespace

std::vector<RunScores>
opd::runSweep(const BranchTrace &Trace,
              const std::vector<BaselineSolution> &Baselines,
              const std::vector<DetectorConfig> &Configs,
              const SweepOptions &Options, SweepStats *Stats) {
  if (Configs.empty()) {
    std::fprintf(stderr,
                 "runSweep: empty configuration list — an empty dimension "
                 "vector annihilates the cross product; lint the spec with "
                 "config_check\n");
    std::abort();
  }

  // A pruned sweep runs one representative per provable equivalence
  // class, then fans its scores out to every member. Anchored scoring
  // keeps the anchor-affecting merge rules disabled so the fanned-out
  // anchored scores are as bit-identical as the plain ones.
  ConfigPartition Partition;
  std::vector<size_t> Indices;
  if (Options.Prune) {
    ConfigCanonOptions Canon;
    Canon.AnchoredScoring = Options.ScoreAnchored;
    Partition = partitionConfigs(Configs, Canon);
    Indices.reserve(Partition.Classes.size());
    for (const ConfigClass &Class : Partition.Classes)
      Indices.push_back(Class.Representative);
  } else {
    Indices.resize(Configs.size());
    std::iota(Indices.begin(), Indices.end(), size_t{0});
  }

  std::vector<RunScores> Results(Configs.size());
  if (Options.CollectStats)
    runConfigsObserved(Trace, Baselines, Configs, Indices, Options, Results);
  else
    runConfigsShared(Trace, Baselines, Configs, Indices, Options, Results);

  if (Stats) {
    *Stats = SweepStats();
    Stats->NumConfigs = Configs.size();
    Stats->RunsExecuted = Indices.size();
    Stats->RunsPruned = Configs.size() - Indices.size();
    for (size_t I : Indices) {
      Stats->DetectSeconds += Results[I].DetectSeconds;
      Stats->ScoreSeconds += Results[I].ScoreSeconds;
    }
  }

  for (const ConfigClass &Class : Partition.Classes) {
    const RunScores &Rep = Results[Class.Representative];
    for (size_t Member : Class.Members) {
      if (Member == Class.Representative)
        continue;
      RunScores &R = Results[Member];
      R = Rep;
      // The scores are the class's; the identity stays the member's.
      R.Config = Configs[Member];
    }
  }
  return Results;
}

double opd::bestScore(
    const std::vector<RunScores> &Runs, size_t MPLIdx,
    const std::function<bool(const DetectorConfig &)> &Filter,
    bool Anchored) {
  double Best = -1.0;
  for (const RunScores &R : Runs) {
    if (!Filter(R.Config))
      continue;
    const std::vector<AccuracyScore> &Scores =
        Anchored ? R.AnchoredPerMPL : R.PerMPL;
    assert(MPLIdx < Scores.size() && "baseline index out of range");
    Best = std::max(Best, Scores[MPLIdx].Score);
  }
  return Best;
}

Table opd::sweepStatsTable(const std::vector<RunScores> &Runs,
                           const std::string &Title) {
  Table T(Title);
  T.setHeader({"configuration", "elements", "evals", "phases", "anchor corr",
               "resizes", "flushes", "detect ms", "score ms", "Melem/s"});
  for (const RunScores &R : Runs) {
    const RunCounters &C = R.Counters;
    double MElemPerSec =
        R.DetectSeconds > 0.0
            ? static_cast<double>(C.Elements) / R.DetectSeconds / 1e6
            : 0.0;
    T.addRow({R.Config.describe(), formatCount(C.Elements),
              formatCount(C.Evaluations), formatCount(C.PhasesOpened),
              formatCount(C.AnchorCorrections),
              formatCount(C.WindowResizes), formatCount(C.WindowFlushes),
              formatDouble(R.DetectSeconds * 1e3, 1),
              formatDouble(R.ScoreSeconds * 1e3, 1),
              formatDouble(MElemPerSec, 1)});
  }
  return T;
}
