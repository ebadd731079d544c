//===- harness/Sweep.h - Detector configuration sweeps ----------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation instantiates the framework over a cross product of
/// window, model, and analyzer policies (over 10,000 algorithms in the
/// paper) and reports *best scores* across slices of that space. SweepSpec
/// describes one cross product; runSweep() executes every configuration
/// over a trace once and scores it against each baseline MPL. A detector
/// run does not depend on the MPL, so one run serves all MPL scorings.
/// The runs go through the shared-scan engine (core/SharedScan.h): the
/// configurations are grouped by window-kernel shape and each group
/// rides a single trace pass.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_HARNESS_SWEEP_H
#define OPD_HARNESS_SWEEP_H

#include "baseline/BaselineSolution.h"
#include "core/DetectorConfig.h"
#include "core/SweepSpec.h"
#include "metrics/Scoring.h"
#include "obs/RunTrace.h"
#include "support/Table.h"
#include "trace/BranchTrace.h"

#include <functional>
#include <vector>

namespace opd {

/// One configuration's scores against every baseline.
struct RunScores {
  DetectorConfig Config;
  /// Scores[i] corresponds to Baselines[i].
  std::vector<AccuracyScore> PerMPL;
  /// Same, scored with anchor-corrected phase starts (Figure 8); filled
  /// only when SweepOptions::ScoreAnchored.
  std::vector<AccuracyScore> AnchoredPerMPL;
  /// Observability counters of this configuration's run; filled only
  /// when SweepOptions::CollectStats.
  RunCounters Counters;
  /// Per-stage wall time of this configuration: the detector run and
  /// the scoring passes; filled only when SweepOptions::CollectStats.
  double DetectSeconds = 0.0;
  double ScoreSeconds = 0.0;
};

struct SweepOptions {
  bool ScoreAnchored = false;
  /// Attach a CountingObserver to every run and record per-stage wall
  /// times into RunScores. The runs then go through the reference
  /// PhaseDetector, the only detector that emits observer events,
  /// instead of the shared-scan engine (core/SharedScan.h); the scores
  /// are bit-identical. Off by default: the unobserved engine is what
  /// the benches measure.
  bool CollectStats = false;
  /// Partition the configurations into provable equivalence classes
  /// (analysis/ConfigAnalysis.h) and run only one representative per
  /// class, fanning its scores back to every member. The returned
  /// RunScores are bit-identical to an unpruned sweep; only the number
  /// of detector runs changes. The canonicalizer is told whether
  /// anchored scoring is on (ScoreAnchored), so anchor-affecting fields
  /// are only merged when the anchored output is not being observed.
  bool Prune = false;
};

/// Work accounting of one runSweep() call.
struct SweepStats {
  /// Configurations requested.
  size_t NumConfigs = 0;
  /// Detector runs actually executed (== NumConfigs unless pruning).
  size_t RunsExecuted = 0;
  /// Runs avoided by equivalence-class pruning.
  size_t RunsPruned = 0;
  /// Aggregate wall time of the executed runs' stages; filled only when
  /// SweepOptions::CollectStats (the unobserved hot path is untimed).
  double DetectSeconds = 0.0;
  double ScoreSeconds = 0.0;
};

/// Runs every configuration over \p Trace once and scores it against
/// every baseline. Parallel across configurations. \p Configs must be
/// non-empty: an empty sweep is always a spec bug (an empty dimension
/// vector annihilates the cross product), so it aborts with a message
/// pointing at config_check rather than silently returning no results.
/// \p Stats, when given, receives the work accounting of this call.
std::vector<RunScores> runSweep(const BranchTrace &Trace,
                                const std::vector<BaselineSolution> &Baselines,
                                const std::vector<DetectorConfig> &Configs,
                                const SweepOptions &Options = {},
                                SweepStats *Stats = nullptr);

/// Maximum score at baseline index \p MPLIdx over the configurations
/// accepted by \p Filter; returns -1 when none match.
double bestScore(const std::vector<RunScores> &Runs, size_t MPLIdx,
                 const std::function<bool(const DetectorConfig &)> &Filter,
                 bool Anchored = false);

/// Renders the per-configuration observability counters of a sweep run
/// with CollectStats as a table: evaluations, phases, anchor
/// corrections, window churn, per-stage wall time, and throughput.
Table sweepStatsTable(const std::vector<RunScores> &Runs,
                      const std::string &Title = "Sweep statistics");

} // namespace opd

#endif // OPD_HARNESS_SWEEP_H
