//===- core/SharedScan.h - One trace pass, many detectors -------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared-scan execution engine: runs every configuration in a
/// window-kernel shape group through a **single** pass over the trace,
/// producing per-config DetectorRuns bit-identical to running each
/// config through its own detector.
///
/// The enabling observation is position purity: a detector whose
/// trailing window is not mid-phase holds windows that are a pure
/// function of the stream position — CW is the last CWSize elements,
/// TW the TWSize before them — independent of every decision the
/// detector ever made. Configs that agree on (model, CWSize, TWSize)
/// therefore share one free-running window/kernel; what differs per
/// config (skip stride, analyzer, threshold parameter, anchor/resize
/// policy) becomes a lightweight **cursor** over the shared kernel:
///
///  * Cursors whose state is a function of position (constant-TW
///    configs always; adaptive ones while out of phase) read their
///    decisions straight off the shared kernel — the per-position
///    similarity is computed once and fanned out to every threshold
///    and analyzer, instead of N kernels recomputing it.
///  * A post-flush refill is a countdown: after a phase ends at
///    position n keeping K seed elements, the windows provably stay
///    not-full (forced Transition output, no analyzer calls) until
///    position n + (CWSize - K) + TWSize, at which point the refilled
///    window bit-matches the free-running one — so a flushed cursor
///    stores only that resync position and performs zero work until
///    it passes.
///  * Only adaptive cursors *inside* a phase have decision-dependent
///    window state: an open phase reads a **shard**, advancing lazily
///    to its cursors' evaluation positions. A shard at position p holds
///    TW = [Base, p - CWLen) and CW = [p - CWLen, p), and Base never
///    moves. Once its CW is full (at entry for a Move resize; after a
///    Slide resize, once the CWSize - min(A, CWSize) elements left in
///    the CW have grown back to CWSize) that CW is exactly the group
///    window's, so the shard is **attached**: its TW [Base, p - CWSize)
///    is a difference of two trace prefixes. The group keeps one count
///    vector of E[0, p - CWSize), the elements that have left its CW
///    (one increment per position), and an attached shard stores only
///    the snapshot of E[0, Base) it took at attachment: its TW counts
///    are the difference, read against the group window's CW counts,
///    and advancing it does no per-element work. A read costs one pass
///    over the group's sites: the weighted MinSum is one
///    batchMinSumSplit sweep over the roster's whole 8-slot blocks (the
///    slots past the roster hold zero counts, so no scalar tail runs),
///    and the unweighted sites-in-both count is popcount(CW & TW) over
///    presence bitsets, one bit per site in as many 32-bit words as the
///    sites need: the group kernel sets its CW bits on its 0<->1 count
///    crossings or rebuilds them when it settles a batch, and the
///    shard's TW bits, cleared at attachment, gain each CW site whose
///    count Left - P is nonzero when a read tests it (the TW only grows
///    while attached, so a set bit stays true). Only
///    a Slide shard before its refill keeps detached windows, a
///    KernelWindows (core/FastKernels.h) copied from the group window
///    and resized per the anchor. Every kernel's similarity()
///    and similarityAtLeast() is a function of the two count vectors
///    (unweighted distinct counts, the weighted MinSum recomputed
///    exactly, Manhattan's full ascending loop), whatever sequence of
///    operations built them, so an attached read uses the kernel's own
///    formula and decides as the per-config detector does. The
///    weighted Threshold decision keeps its MinSum envelope, which for
///    an attached shard is a closed form in the steps since its last
///    exact read and the TW length then: the sum of the per-operation
///    widenings of those steps, sound for the same reason they are.
///    Shards are shared by what their windows hold, not by how they
///    were created: a phase entry joins any live shard with the same
///    Base whose CW length at the entry equals the one the anchor
///    resize would build, and a Slide shard whose CW refills hands its
///    cursors to the attached shard with the same Base, if one is live,
///    or else becomes that attached shard — the only later point where
///    two shards with one Base converge. On the paper sweep over jess
///    this cuts shard element-steps from 748M (shards keyed by entry
///    position, anchor value and resize policy) to about 309M, 97% of
///    them on attached shards, which the prefix counts make free: about
///    25M group increments (one per position per group) replace them.
///
/// Cursors with the same skip stride evaluate in lockstep (one stride
/// bucket), so the shared window advances through the trace in tight
/// eval-to-eval bursts, and a bucket visits only the cursors whose
/// decision can change:
///
///  * **Cohorts.** Cursors of a bucket that read one source (the shared
///    kernel or one shard), are in one state under one analyzer kind,
///    and — for Average — entered on that source at the same position
///    (so hold the same Welford stats) form a cohort, ordered so its
///    first member is the first that can flip: in phase the highest
///    threshold, out of phase the lowest, and the smallest Average
///    delta. The decisions are monotone in the parameter, so if the
///    first member stays every member stays: an evaluation costs one
///    check per cohort, plus one full evaluation per member that flips.
///    The check reads the cohort alone (source, state, analyzer, stats,
///    and the first member's parameter, kept by the cohort); a member
///    cursor is touched only when it flips.
///    Hysteresis cursors (per-cursor state) and cursors with a
///    non-finite parameter decide alone at every evaluation.
///  * **Sleepers.** A cursor in its post-flush refill countdown is not
///    visited until its first unforced evaluation, and a bucket holding
///    only sleepers jumps straight to the next wake-up.
///  * **Lazy runs.** A cursor keeps the offset where its pending run
///    started, so an evaluation that changes nothing writes nothing.
///
/// The trailing short batch evaluates every cursor one by one. On the
/// pruned paper sweep over jess this replaces about 1,389M per-cursor
/// evaluations with about 315M cohort checks and 0.23M evaluations.
///
/// The oracles are FastPhaseDetector and the reference PhaseDetector,
/// in tests: tests/SharedScanTest.cpp drives the full sweep grid through
/// the engine and both detectors and requires bit-identical
/// StateSequences, phases, and anchored phases on every batch-kernel
/// backend the host runs.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_SHAREDSCAN_H
#define OPD_CORE_SHAREDSCAN_H

#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"

#include <memory>
#include <vector>

namespace opd {

/// The window-kernel shape a shared-scan group agrees on. Everything
/// else in a DetectorConfig (skip, analyzer, parameter, anchor, resize,
/// TW policy) is per-cursor state.
struct SharedScanKey {
  /// The similarity model.
  ModelKind Model;
  /// Current-window size.
  uint32_t CWSize;
  /// Trailing-window (initial) size.
  uint32_t TWSize;

  friend bool operator==(const SharedScanKey &A, const SharedScanKey &B) {
    return A.Model == B.Model && A.CWSize == B.CWSize && A.TWSize == B.TWSize;
  }
  friend bool operator<(const SharedScanKey &A, const SharedScanKey &B) {
    if (A.Model != B.Model)
      return A.Model < B.Model;
    if (A.CWSize != B.CWSize)
      return A.CWSize < B.CWSize;
    return A.TWSize < B.TWSize;
  }
};

/// The shape group \p Config executes under.
SharedScanKey sharedScanKey(const DetectorConfig &Config);

/// One shared-scan group: the configs (as indices into the planned
/// list) that ride one trace pass.
struct SharedScanGroup {
  /// The shared window-kernel shape.
  SharedScanKey Key;
  /// Indices into the planned config list, in plan order.
  std::vector<size_t> Members;
};

/// A sweep's configs partitioned into shared-scan groups.
struct SharedScanPlan {
  /// The groups, ordered by first appearance in the config list.
  std::vector<SharedScanGroup> Groups;

  /// Size of the largest group (0 for an empty plan).
  size_t largestGroup() const {
    size_t Largest = 0;
    for (const SharedScanGroup &G : Groups)
      Largest = std::max(Largest, G.Members.size());
    return Largest;
  }
};

/// Partitions \p Configs into shared-scan groups by sharedScanKey().
/// Groups appear in first-appearance order and members in config order,
/// so the plan is deterministic for a given config list.
SharedScanPlan planSharedScan(const std::vector<DetectorConfig> &Configs);

/// What a SharedScanEngineBase::run() did with its in-phase shards.
struct SharedScanCounters {
  /// Shards forked (a fresh copy of the shared kernel at phase entry).
  uint64_t ShardsForked = 0;
  /// Phase entries that joined an active shard holding the same windows.
  uint64_t ShardJoins = 0;
  /// Cursor moves from a shard whose CW refilled onto its attached twin
  /// (a cohort moves all its members on its next check). This count and
  /// ShardSteps depend on the order of the cursors evaluated at one
  /// position, not only on the runs: a refill looks its twin up at the
  /// shard's first advance past it, and a twin whose last cursor left
  /// earlier at that position is already released, so the refilled
  /// shard then attaches itself instead. (An entry likewise joins only a
  /// live shard, so forks and joins could move too; on the jess paper
  /// sweep they equal a cursor-by-cursor order's.)
  uint64_t RefillMerges = 0;
  /// Elements consumed by shards, summed over every shard: the growth
  /// of their TWs. An attached shard's element costs no work (its TW is
  /// read off the group's prefix counts), so this counts the windows'
  /// growth, not increments.
  uint64_t ShardSteps = 0;
  /// Full per-cursor evaluations: each flip out of a cohort, each
  /// evaluation of a Hysteresis or non-finite-parameter cursor, and every
  /// cursor in a trailing short batch.
  uint64_t CursorEvaluations = 0;
  /// Cohort stay-checks: one per cohort per evaluation, plus one more
  /// for each member that flipped (the next member is checked in turn).
  uint64_t CohortChecks = 0;
};

/// A reusable shared-scan engine for one similarity model. The sweep
/// harness keeps one per model in each worker's arena and reuses it
/// for every group the worker runs: cursor arrays, shard pools, and kernel
/// count arrays all survive between run() calls, so a sweep performs a
/// handful of allocations per worker rather than one per group.
///
/// Engines are not thread-safe; use one per worker.
class SharedScanEngineBase {
public:
  virtual ~SharedScanEngineBase() = default;

  /// Enables (the default) or disables the batch kernels
  /// (core/BatchKernel.h) for subsequent runs; disabled, the group runs
  /// the portable min-sum and the scalar anchor scans. Both give the
  /// same output, so this selects code paths, not results. Only
  /// perfbench still calls it, passing a certificate verdict; tests run
  /// each backend through setBatchBackend() (core/BatchKernel.h).
  virtual void setBatchKernels(bool Enabled) = 0;

  /// Runs the group over \p Elements / \p NumElements, writing config
  /// Configs[Members[I]]'s output into Runs[I] (cleared first). Every
  /// member must match this engine's model and share one
  /// sharedScanKey(); Runs must hold at least Members.size() entries.
  virtual void run(const std::vector<DetectorConfig> &Configs,
                   const std::vector<size_t> &Members,
                   const SiteIndex *Elements, size_t NumElements,
                   std::vector<DetectorRun> &Runs) = 0;

  /// The number of sites the engine was built for.
  virtual SiteIndex numSites() const = 0;

  /// The shard work of the last run() (all zero before the first).
  const SharedScanCounters &counters() const { return Counters; }

protected:
  /// Filled by run().
  SharedScanCounters Counters;
};

/// Creates a shared-scan engine for \p Model over \p NumSites sites.
std::unique_ptr<SharedScanEngineBase>
makeSharedScanEngine(ModelKind Model, SiteIndex NumSites);

} // namespace opd

#endif // OPD_CORE_SHAREDSCAN_H
