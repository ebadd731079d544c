//===- tests/SharedScanTest.cpp - Shared-scan differential tests --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared-scan engine (core/SharedScan.h) is only admissible
/// because it is bit-identical to running each config through its own
/// detector. This suite is the guard: it drives the full configuration
/// shape grid through the engine and requires equal StateSequences,
/// detected phases, and anchored phases against both the per-config
/// fast path and the reference PhaseDetector, on every batch-kernel
/// backend the host runs; it holds the sweep harness's shared-scan
/// engine to bit-identical scores against its reference-detector stats
/// path (pruned and unpruned); and it pins the paper preset's group
/// structure so plan regressions are loud.
///
/// In-phase adaptive shards are shared by the windows they hold, not by
/// how they were created. The corner cases of that identity rule run on
/// a hand-built trace whose shard timeline is known exactly (forks,
/// joins, refill merges and the evaluation work are pinned through the
/// engine's counters), and a property test pins its premise: every
/// kernel's similarity is a function of the CW/TW count vectors alone,
/// whatever the order of the operations that produced them.
///
/// Cursors are evaluated by cohort: one check of the member that would
/// flip first settles all of them. Hand-built cases drive the cohort
/// corners (members entering and leaving together or one by one, ties,
/// a cohort moved by a refill merge, the trailing short batch), and a
/// seeded property test runs random groups, non-finite parameters
/// included.
///
/// The group window and the shards step through KernelWindows, the
/// window layer they share with the fast detector: a property test
/// steps it one element at a time and in random chunks, settled or
/// per operation, with phase entries, exits and flushes between them,
/// and holds both to the window lengths, counts and similarities
/// per-element consumes would build.
///
//===----------------------------------------------------------------------===//

#include "DifferentialGrid.h"
#include "core/BatchKernel.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "core/FastKernels.h"
#include "core/SharedScan.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <memory>

using namespace opd;

namespace {

/// "\p What [backend]", a differential leg's tag.
std::string legName(const char *What, BatchBackend B) {
  return std::string(What) + " [" + batchBackendName(B) + "]";
}

/// Runs \p Configs through the shared-scan engine the way the sweep
/// harness does — grouped by planSharedScan, one reused engine per
/// model — and returns one DetectorRun per config, in config order.
std::vector<DetectorRun>
runShared(const std::vector<DetectorConfig> &Configs,
          const BranchTrace &Trace) {
  SharedScanPlan Plan = planSharedScan(Configs);
  std::array<std::unique_ptr<SharedScanEngineBase>, 3> Engines;
  std::vector<DetectorRun> Out(Configs.size());
  std::vector<DetectorRun> GroupRuns;
  for (const SharedScanGroup &G : Plan.Groups) {
    std::unique_ptr<SharedScanEngineBase> &Engine =
        Engines[static_cast<size_t>(G.Key.Model)];
    if (!Engine)
      Engine = makeSharedScanEngine(G.Key.Model, Trace.numSites());
    if (GroupRuns.size() < G.Members.size())
      GroupRuns.resize(G.Members.size());
    Engine->run(Configs, G.Members, Trace.elements().data(), Trace.size(),
                GroupRuns);
    for (size_t I = 0; I != G.Members.size(); ++I)
      Out[G.Members[I]] = GroupRuns[I];
  }
  return Out;
}

} // namespace

TEST(SharedScanTest, PlanPartitionsByWindowKernelShape) {
  std::vector<DetectorConfig> Configs = differentialConfigs();
  SharedScanPlan Plan = planSharedScan(Configs);

  // Every config lands in exactly one group, under its own key.
  std::vector<size_t> Seen(Configs.size(), 0);
  for (const SharedScanGroup &G : Plan.Groups) {
    EXPECT_FALSE(G.Members.empty());
    for (size_t Member : G.Members) {
      ASSERT_LT(Member, Configs.size());
      ++Seen[Member];
      EXPECT_TRUE(sharedScanKey(Configs[Member]) == G.Key);
    }
  }
  for (size_t Count : Seen)
    EXPECT_EQ(Count, 1u);

  // Exactly one group per distinct (model, CW, TW) shape.
  std::map<SharedScanKey, size_t> Distinct;
  for (const DetectorConfig &C : Configs)
    ++Distinct[sharedScanKey(C)];
  EXPECT_EQ(Plan.Groups.size(), Distinct.size());
  EXPECT_EQ(Plan.largestGroup(),
            [&] {
              size_t Largest = 0;
              for (const auto &[Key, Count] : Distinct)
                Largest = std::max(Largest, Count);
              return Largest;
            }());

  // The plan is deterministic.
  SharedScanPlan Again = planSharedScan(Configs);
  ASSERT_EQ(Plan.Groups.size(), Again.Groups.size());
  for (size_t I = 0; I != Plan.Groups.size(); ++I) {
    EXPECT_TRUE(Plan.Groups[I].Key == Again.Groups[I].Key);
    EXPECT_EQ(Plan.Groups[I].Members, Again.Groups[I].Members);
  }
}

// The load-bearing test: every configuration in the shape/corner-case
// cross product produces bit-identical output through the shared scan,
// the per-config fast path, and the reference detector — on every
// batch-kernel backend the host runs.
TEST(SharedScanTest, BitIdenticalToFastAndReferenceAcrossTheConfigSpace) {
  const BenchmarkData &B = testBenchmark();
  std::vector<DetectorConfig> Configs = differentialConfigs();
  ASSERT_GT(Configs.size(), 500u);

  BackendGuard Guard;
  std::vector<BatchBackend> Backends = runnableBackends();
  std::vector<std::vector<DetectorRun>> Shared;
  for (BatchBackend Backend : Backends) {
    ASSERT_TRUE(setBatchBackend(Backend));
    Shared.push_back(runShared(Configs, B.Trace));
  }

  for (size_t I = 0; I != Configs.size(); ++I) {
    const DetectorConfig &Config = Configs[I];
    std::unique_ptr<FastDetectorBase> Fast =
        makeFastDetector(Config, B.Trace.numSites());
    DetectorRun FastRun = runDetector(*Fast, B.Trace);
    std::unique_ptr<PhaseDetector> Reference =
        makeDetector(Config, B.Trace.numSites());
    DetectorRun ReferenceRun = runDetector(*Reference, B.Trace);
    for (size_t K = 0; K != Backends.size(); ++K) {
      expectRunsEqual(FastRun, Shared[K][I], Config,
                      legName("shared vs fast", Backends[K]).c_str());
      expectRunsEqual(ReferenceRun, Shared[K][I], Config,
                      legName("shared vs reference", Backends[K]).c_str());
    }
  }
}

// Window/stride corners the grid's fixed sizes miss: a skip that never
// divides the trace, a skip exceeding the trace length (one short batch
// covers everything), and windows larger than the trace (never full —
// a single forced-Transition run).
TEST(SharedScanTest, StrideAndWindowCornerCases) {
  const BenchmarkData &B = testBenchmark();
  uint64_t TraceLen = B.Trace.size();
  ASSERT_GT(TraceLen, 0u);

  std::vector<DetectorConfig> Configs;
  for (ModelKind M : {ModelKind::UnweightedSet, ModelKind::WeightedSet})
    for (TWPolicyKind P : {TWPolicyKind::Constant, TWPolicyKind::Adaptive})
      for (uint32_t Skip :
           {uint32_t{97}, static_cast<uint32_t>(TraceLen + 13)}) {
        DetectorConfig C;
        C.Window.CWSize = 100;
        C.Window.TWSize = 100;
        C.Window.SkipFactor = Skip;
        C.Window.TWPolicy = P;
        C.Model = M;
        C.TheAnalyzer = AnalyzerKind::Threshold;
        C.AnalyzerParam = 0.6;
        Configs.push_back(C);
      }
  // Windows that never fill: every evaluation is a forced Transition.
  DetectorConfig Huge;
  Huge.Window.CWSize = static_cast<uint32_t>(TraceLen);
  Huge.Window.TWSize = static_cast<uint32_t>(TraceLen);
  Huge.Window.SkipFactor = 50;
  Huge.Model = ModelKind::UnweightedSet;
  Huge.TheAnalyzer = AnalyzerKind::Threshold;
  Huge.AnalyzerParam = 0.5;
  Configs.push_back(Huge);
  ASSERT_NE(TraceLen % 97, 0u);

  std::vector<DetectorRun> Shared = runShared(Configs, B.Trace);
  for (size_t I = 0; I != Configs.size(); ++I) {
    std::unique_ptr<FastDetectorBase> Fast =
        makeFastDetector(Configs[I], B.Trace.numSites());
    DetectorRun FastRun = runDetector(*Fast, B.Trace);
    expectRunsEqual(FastRun, Shared[I], Configs[I], "corner");
  }
}

// The sweep harness's two paths — the shared-scan engine (default) and
// the reference detector with a CountingObserver (CollectStats) — must
// produce bit-identical scores and the same work accounting, pruned or
// not.
TEST(SharedScanTest, SweepSharedEngineMatchesReferenceStatsPath) {
  const BenchmarkData &B = testBenchmark();
  SweepSpec Spec;
  Spec.CWSizes = {250};
  Spec.SkipFactors = {1, 10};
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.6},
                    {AnalyzerKind::Average, 0.05},
                    {AnalyzerKind::Hysteresis, 0.4},
                    // Always in phase: gives pruning classes to fan out.
                    {AnalyzerKind::Threshold, 0.0}};
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);

  for (bool Prune : {false, true}) {
    SweepOptions SharedOptions;
    SharedOptions.ScoreAnchored = true;
    SharedOptions.Prune = Prune;
    SweepOptions StatsOptions = SharedOptions;
    StatsOptions.CollectStats = true;

    SweepStats SharedStats, ReferenceStats;
    std::vector<RunScores> Shared =
        runSweep(B.Trace, B.Baselines, Configs, SharedOptions, &SharedStats);
    std::vector<RunScores> Reference = runSweep(
        B.Trace, B.Baselines, Configs, StatsOptions, &ReferenceStats);

    for (const SweepStats &S : {SharedStats, ReferenceStats}) {
      EXPECT_EQ(S.NumConfigs, Configs.size());
      EXPECT_EQ(S.RunsExecuted + S.RunsPruned, Configs.size());
      EXPECT_EQ(S.RunsExecuted, SharedStats.RunsExecuted);
      EXPECT_EQ(S.RunsPruned > 0, Prune);
    }
    // Only the observed path is timed.
    EXPECT_EQ(SharedStats.DetectSeconds, 0.0);
    EXPECT_GT(ReferenceStats.DetectSeconds, 0.0);

    ASSERT_EQ(Shared.size(), Reference.size());
    for (size_t I = 0; I != Shared.size(); ++I) {
      EXPECT_EQ(Shared[I].Config, Configs[I]);
      EXPECT_EQ(Reference[I].Config, Configs[I]);
      ASSERT_EQ(Shared[I].PerMPL.size(), Reference[I].PerMPL.size());
      for (size_t M = 0; M != Shared[I].PerMPL.size(); ++M) {
        EXPECT_EQ(Shared[I].PerMPL[M].Score, Reference[I].PerMPL[M].Score);
        EXPECT_EQ(Shared[I].PerMPL[M].Correlation,
                  Reference[I].PerMPL[M].Correlation);
        EXPECT_EQ(Shared[I].PerMPL[M].Sensitivity,
                  Reference[I].PerMPL[M].Sensitivity);
        EXPECT_EQ(Shared[I].PerMPL[M].FalsePositives,
                  Reference[I].PerMPL[M].FalsePositives);
      }
      ASSERT_EQ(Shared[I].AnchoredPerMPL.size(),
                Reference[I].AnchoredPerMPL.size());
      for (size_t M = 0; M != Shared[I].AnchoredPerMPL.size(); ++M)
        EXPECT_EQ(Shared[I].AnchoredPerMPL[M].Score,
                  Reference[I].AnchoredPerMPL[M].Score);
    }
  }
}

// An engine is an arena: running a group must not be affected by the
// groups the engine ran before (cursor arrays, shard pools, and kernel
// state are all reused). Run the groups twice through one engine set,
// in opposite orders, and require identical output.
TEST(SharedScanTest, EngineReuseAcrossGroupsMatchesFreshEngines) {
  const BenchmarkData &B = testBenchmark();
  std::vector<DetectorConfig> Configs = differentialConfigs();
  SharedScanPlan Plan = planSharedScan(Configs);
  ASSERT_GT(Plan.Groups.size(), 1u);

  std::array<std::unique_ptr<SharedScanEngineBase>, 3> Engines;
  for (size_t I = 0; I != 3; ++I)
    Engines[I] = makeSharedScanEngine(static_cast<ModelKind>(I),
                                      B.Trace.numSites());

  std::vector<DetectorRun> Forward(Configs.size());
  std::vector<DetectorRun> GroupRuns;
  for (const SharedScanGroup &G : Plan.Groups) {
    GroupRuns.resize(std::max(GroupRuns.size(), G.Members.size()));
    Engines[static_cast<size_t>(G.Key.Model)]->run(
        Configs, G.Members, B.Trace.elements().data(), B.Trace.size(),
        GroupRuns);
    for (size_t I = 0; I != G.Members.size(); ++I)
      Forward[G.Members[I]] = GroupRuns[I];
  }
  // Reverse pass through the same (now warm) engines.
  for (auto It = Plan.Groups.rbegin(); It != Plan.Groups.rend(); ++It) {
    const SharedScanGroup &G = *It;
    Engines[static_cast<size_t>(G.Key.Model)]->run(
        Configs, G.Members, B.Trace.elements().data(), B.Trace.size(),
        GroupRuns);
    for (size_t I = 0; I != G.Members.size(); ++I)
      expectRunsEqual(Forward[G.Members[I]], GroupRuns[I],
                      Configs[G.Members[I]], "warm reuse");
  }
}

//===----------------------------------------------------------------------===//
// Shard identity
//
// The trace below is ten never-repeating sites, then a loop over four
// sites from position 10 on (optionally ending in fresh never-repeating
// sites). At CW = TW = 20 every adaptive cursor's first full evaluation
// N, for any N in [40, 50], sees similarity 1 (Threshold 0.5 and an
// empty Average both open a phase) and anchors at the loop's first
// element: A = 50 - N, Base = 10, with either anchor kind. A Move shard
// then holds TW = [10, p - 20), CW = [p - 20, p) at every position p; a
// Slide shard holds TW = [10, 30), CW = [30, p) until its CW refills at
// p = 50, and the Move shard's windows from then on. So all Slide shards
// are one shard, all Move shards are one shard, and the two converge at
// position 50. A skip-S cursor evaluates at multiples of S.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t IdWindow = 20;

BranchTrace makeLoopTrace(uint64_t Len, uint64_t LoopEnd = UINT64_MAX) {
  BranchTrace Trace;
  uint32_t Fresh = 4;
  for (uint64_t Q = 0; Q != Len; ++Q) {
    bool Loop = Q >= 10 && Q < LoopEnd;
    uint32_t Site = Loop ? static_cast<uint32_t>(Q % 4) : Fresh++;
    Trace.append(ProfileElement(0, Site, true));
  }
  return Trace;
}

DetectorConfig idConfig(ResizeKind Resize, uint32_t Skip,
                        AnalyzerKind Analyzer,
                        ModelKind Model = ModelKind::UnweightedSet) {
  DetectorConfig C;
  C.Window.CWSize = IdWindow;
  C.Window.TWSize = IdWindow;
  C.Window.SkipFactor = Skip;
  C.Window.TWPolicy = TWPolicyKind::Adaptive;
  C.Window.Resize = Resize;
  C.Model = Model;
  C.TheAnalyzer = Analyzer;
  C.AnalyzerParam = Analyzer == AnalyzerKind::Average ? 0.1 : 0.5;
  return C;
}

/// (resize, skip) per cursor, in group (and therefore bucket) order.
using CursorSpec = std::vector<std::pair<ResizeKind, uint32_t>>;

/// What one shared-scan group run left behind: the engine's counters
/// and every member's run (on the last runnable backend).
struct GroupResult {
  SharedScanCounters Counters;
  std::vector<DetectorRun> Runs;
};

/// Runs \p Configs (one shape) as one shared-scan group over \p Trace
/// on every runnable batch-kernel backend, requiring every member's run
/// to be bit-identical to its own FastPhaseDetector and (unless
/// \p CheckReference is false) reference detector. Runs on \p Reused
/// if given, else on a fresh engine.
GroupResult runCheckedGroup(const std::vector<DetectorConfig> &Configs,
                            const BranchTrace &Trace,
                            bool CheckReference = true,
                            SharedScanEngineBase *Reused = nullptr) {
  std::vector<size_t> Members(Configs.size());
  for (size_t I = 0; I != Members.size(); ++I)
    Members[I] = I;
  std::unique_ptr<SharedScanEngineBase> Fresh;
  if (!Reused)
    Fresh = makeSharedScanEngine(Configs.front().Model, Trace.numSites());
  SharedScanEngineBase *Engine = Reused ? Reused : Fresh.get();
  GroupResult Result;
  BackendGuard Guard;
  for (BatchBackend Backend : runnableBackends()) {
    EXPECT_TRUE(setBatchBackend(Backend));
    Result.Runs.assign(Configs.size(), DetectorRun());
    Engine->run(Configs, Members, Trace.elements().data(), Trace.size(),
                Result.Runs);
    Result.Counters = Engine->counters();
    for (size_t I = 0; I != Configs.size(); ++I) {
      std::unique_ptr<FastDetectorBase> Fast =
          makeFastDetector(Configs[I], Trace.numSites());
      expectRunsEqual(runDetector(*Fast, Trace), Result.Runs[I], Configs[I],
                      legName("group vs fast", Backend).c_str());
      if (!CheckReference)
        continue;
      std::unique_ptr<PhaseDetector> Reference =
          makeDetector(Configs[I], Trace.numSites());
      expectRunsEqual(runDetector(*Reference, Trace), Result.Runs[I],
                      Configs[I],
                      legName("group vs reference", Backend).c_str());
    }
  }
  return Result;
}

/// Runs \p Spec as one shared-scan group under \p Analyzer and \p Model
/// through runCheckedGroup and returns the engine's counters.
SharedScanCounters runIdentityGroup(const CursorSpec &Spec,
                                    AnalyzerKind Analyzer, ModelKind Model,
                                    const BranchTrace &Trace) {
  std::vector<DetectorConfig> Configs;
  for (const auto &[Resize, Skip] : Spec)
    Configs.push_back(idConfig(Resize, Skip, Analyzer, Model));
  return runCheckedGroup(Configs, Trace).Counters;
}

/// Per analyzer (Threshold, then Average): full per-cursor evaluations
/// and cohort stay-checks.
struct ExpectedWork {
  uint64_t Evaluations, Checks;
};

struct ExpectedShards {
  uint64_t Forked, Joins, Merges;
  std::array<ExpectedWork, 2> Work;
};

/// runIdentityGroup under both analyzers on every model, pinning the
/// unweighted counters to \p Expected (on this trace the other models'
/// similarities differ, and with them the entry positions). The shard
/// counters of an Average group are pinned only if \p AverageMatches.
void checkIdentityCase(const CursorSpec &Spec, const BranchTrace &Trace,
                       ExpectedShards Expected,
                       bool AverageMatches = true) {
  for (AnalyzerKind Analyzer :
       {AnalyzerKind::Threshold, AnalyzerKind::Average}) {
    for (ModelKind Model : {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                            ModelKind::ManhattanBBV}) {
      SCOPED_TRACE(::testing::Message()
                   << "analyzer " << static_cast<int>(Analyzer) << " model "
                   << static_cast<int>(Model));
      SharedScanCounters C = runIdentityGroup(Spec, Analyzer, Model, Trace);
      if (Model != ModelKind::UnweightedSet)
        continue;
      const ExpectedWork &Work =
          Expected.Work[Analyzer == AnalyzerKind::Threshold ? 0 : 1];
      EXPECT_EQ(C.CursorEvaluations, Work.Evaluations);
      EXPECT_EQ(C.CohortChecks, Work.Checks);
      if (Analyzer == AnalyzerKind::Average && !AverageMatches)
        continue;
      EXPECT_EQ(C.ShardsForked, Expected.Forked);
      EXPECT_EQ(C.ShardJoins, Expected.Joins);
      EXPECT_EQ(C.RefillMerges, Expected.Merges);
      EXPECT_GT(C.ShardSteps, 0u);
    }
  }
}

constexpr ResizeKind Slide = ResizeKind::Slide;
constexpr ResizeKind Move = ResizeKind::Move;

} // namespace

// Two cursors entering a phase at different positions (40 and 42) with
// the same Base hold the same windows from 42 on: one fork, one join.
// Keyed by entry event, they would have forked a shard each. The work
// is one full evaluation per entry plus the skip-7 cursor's trailing
// short batch (120 = 17 * 7 + 1), and one stay-check per cohort per
// evaluation from each cursor's wake-up on: 1 + 80 at skip 1 (40, then
// 41..120), 1 + 11 at skip 7 (42, then 49..119).
TEST(SharedScanIdentityTest, DifferentEntriesSameBaseForkOneShard) {
  checkIdentityCase({{Move, 1}, {Move, 7}}, makeLoopTrace(120),
                    {1, 1, 0, {{{3, 93}, {3, 93}}}});
}

// A Slide cursor (entered at 40) refills at 50 into the Move shard
// forked at 42; the Move shard lags at 49 when the merge looks it up.
// The sliding cursor is the shard's only one, so it leaves (and frees)
// its shard on the evaluation where it merges.
TEST(SharedScanIdentityTest, SlideRefillsIntoMoveShardEnteredElsewhere) {
  checkIdentityCase({{Move, 7}, {Slide, 1}}, makeLoopTrace(120),
                    {2, 0, 1, {{{3, 93}, {3, 93}}}});
}

// Slide forks joining an older same-Base Slide shard (forked at 40 by
// the skip-5 cursor): the skip-7 cursor joins it lagging at 40 and the
// skip-3 cursor, evaluated after it at 42, joins it already at 42. At 50
// it refills into the Move shard; each of its three cursors merges on
// its next evaluation, the last (skip 7, at 56) freeing it.
TEST(SharedScanIdentityTest, SlideForksJoinOlderSlideShard) {
  checkIdentityCase({{Slide, 5}, {Slide, 7}, {Slide, 3}, {Move, 2}},
                    makeLoopTrace(120), {2, 2, 3, {{{5, 97}, {5, 97}}}});
}

// The loop ends at 45, so at 50 the Threshold cursors leave the phase:
// the Slide cursor (its bucket first) merges into the Move shard and
// releases it on that same evaluation, then the Move cursor releases it
// too. (The Average cursors leave at other positions.)
TEST(SharedScanIdentityTest, MergeOnTheEvaluationThatEndsThePhase) {
  checkIdentityCase({{Slide, 10}, {Move, 1}}, makeLoopTrace(120, 45),
                    {2, 0, 1, {{{4, 50}, {6, 50}}}},
                    /*AverageMatches=*/false);
}

// The trace ends at 53: the skip-7 Slide cursor last evaluates at 49
// (CW 19 long), so its refill and merge happen in the trailing short
// batch.
TEST(SharedScanIdentityTest, MergeInTheTrailingShortBatch) {
  checkIdentityCase({{Move, 1}, {Slide, 7}}, makeLoopTrace(53),
                    {2, 0, 1, {{{3, 16}, {3, 16}}}});
}

// Counters describe the last run() only.
TEST(SharedScanIdentityTest, CountersResetPerRun) {
  BranchTrace Trace = makeLoopTrace(120);
  std::vector<DetectorConfig> Configs = {
      idConfig(Move, 1, AnalyzerKind::Threshold),
      idConfig(Slide, 1, AnalyzerKind::Threshold)};
  std::unique_ptr<SharedScanEngineBase> Engine =
      makeSharedScanEngine(ModelKind::UnweightedSet, Trace.numSites());
  EXPECT_EQ(Engine->counters().ShardsForked, 0u);
  std::vector<DetectorRun> Runs(2);
  for (int Pass = 0; Pass != 2; ++Pass) {
    Engine->run(Configs, {0, 1}, Trace.elements().data(), Trace.size(), Runs);
    EXPECT_EQ(Engine->counters().ShardsForked, 2u);
    EXPECT_EQ(Engine->counters().RefillMerges, 1u);
    // Both shards step from their entry at 40: the Slide one to its merge
    // at 50, the Move one to the trace end.
    EXPECT_EQ(Engine->counters().ShardSteps, (50u - 40u) + (120u - 40u));
  }
}

// A Slide cursor (skip 7, entered at 42 with anchor 8) has refilled by
// 50, but its next evaluation is at 56: its shard goes from its detached
// windows straight to the attached Move shard forked at 40, live and
// ahead of it (Base 10 for both), without stepping its own windows.
TEST(SharedScanIdentityTest, LateRefillMergesIntoLiveAttachedShard) {
  checkIdentityCase({{Move, 1}, {Slide, 7}}, makeLoopTrace(120),
                    {2, 0, 1, {{{3, 93}, {3, 93}}}});
}

// With no attached twin live, a refill completing at the shard's own
// FullAt (50) makes the Slide shard the attached one. A Move cursor
// entering at 50 (skip 25, anchor 0, so Base 10) joins it, whether the
// Slide cursor's bucket has already found the refill at 50 or the join
// finds it. Checks: 1 + 80 at skip 1, and 50, 75, 100 at skip 25; the
// skip-25 cursor also evaluates in the trailing short batch.
TEST(SharedScanIdentityTest, RefilledSlideShardBecomesTheAttachedShard) {
  for (const CursorSpec &Spec :
       {CursorSpec{{Slide, 1}, {Move, 25}}, CursorSpec{{Move, 25}, {Slide, 1}}})
    checkIdentityCase(Spec, makeLoopTrace(120),
                      {1, 1, 0, {{{3, 84}, {3, 84}}}});
}

//===----------------------------------------------------------------------===//
// Path independence of the kernels
//===----------------------------------------------------------------------===//

namespace {

/// A kernel's windows as element lists.
struct WindowContents {
  std::vector<SiteIndex> CW, TW;
};

SiteIndex takeAt(std::vector<SiteIndex> &V, size_t I) {
  SiteIndex S = V[I];
  V[I] = V.back();
  V.pop_back();
  return S;
}

/// Drives \p K through a random walk over every mutator, with exact
/// similarity() calls (which clean a weighted kernel) sprinkled in, then
/// \p DirtyTail count-changing operations and no similarity call — each
/// of which widens a weighted kernel's MinSum envelope. Returns the
/// windows the walk ends on.
template <typename KernelT>
WindowContents randomWalk(KernelT &K, Xoshiro256 &Rng, SiteIndex NumSites,
                          unsigned Steps, unsigned DirtyTail) {
  WindowContents W;
  std::vector<SiteIndex> Enrolled;
  auto Site = [&] {
    SiteIndex S = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    Enrolled.push_back(S);
    return S;
  };
  auto Step = [&](bool AllowReplace) {
    // Bias toward growth while small, so the windows stay populated.
    unsigned Op = static_cast<unsigned>(Rng.nextBelow(AllowReplace ? 7 : 5));
    if (W.CW.size() + W.TW.size() < 40 && Rng.nextBool(0.5))
      Op = static_cast<unsigned>(Rng.nextBelow(2));
    switch (Op) {
    case 0: {
      SiteIndex S = Site();
      K.cwAdd(S);
      W.CW.push_back(S);
      break;
    }
    case 1: {
      SiteIndex S = Site();
      K.twAdd(S);
      W.TW.push_back(S);
      break;
    }
    case 2:
      if (!W.CW.empty())
        K.cwRemove(takeAt(W.CW, Rng.nextBelow(W.CW.size())));
      break;
    case 3:
      if (!W.TW.empty())
        K.twRemove(takeAt(W.TW, Rng.nextBelow(W.TW.size())));
      break;
    case 4:
      if (!W.CW.empty()) {
        SiteIndex S = takeAt(W.CW, Rng.nextBelow(W.CW.size()));
        K.moveCWToTW(S);
        W.TW.push_back(S);
      }
      break;
    case 5:
      if (!W.CW.empty()) {
        size_t I = Rng.nextBelow(W.CW.size());
        SiteIndex In = Site();
        K.cwReplace(In, W.CW[I]);
        W.CW[I] = In;
      }
      break;
    case 6:
      // twReplace's precondition: In was enrolled since the last reset.
      if (!W.TW.empty()) {
        size_t I = Rng.nextBelow(W.TW.size());
        SiteIndex In = Enrolled[Rng.nextBelow(Enrolled.size())];
        K.twReplace(In, W.TW[I]);
        W.TW[I] = In;
      }
      break;
    }
  };
  for (unsigned I = 0; I != Steps; ++I) {
    Step(/*AllowReplace=*/true);
    if (Rng.nextBool(0.05))
      (void)K.similarity();
  }
  (void)K.similarity();
  for (unsigned I = 0; I != DirtyTail; ++I)
    Step(/*AllowReplace=*/false);
  return W;
}

uint64_t bitsOf(double D) { return std::bit_cast<uint64_t>(D); }

/// Builds the windows of \p W into a fresh kernel in a different order
/// than the walk did — shuffled, with CW and TW adds interleaved — and
/// requires bit-equal similarity() and similarityAtLeast(T) against the
/// walked kernel \p Walked over a threshold sweep that includes the
/// exact similarity and its neighbouring doubles. Each threshold is
/// decided on a fresh copy of \p Walked, so a dirty kernel decides every
/// threshold from its envelope state.
template <typename KernelT>
void expectSameDecisions(const KernelT &Walked, WindowContents W,
                         Xoshiro256 &Rng, SiteIndex NumSites) {
  KernelT Direct(NumSites);
  for (size_t I = W.CW.size(); I > 1; --I)
    std::swap(W.CW[I - 1], W.CW[Rng.nextBelow(I)]);
  for (size_t I = W.TW.size(); I > 1; --I)
    std::swap(W.TW[I - 1], W.TW[Rng.nextBelow(I)]);
  size_t C = 0, T = 0;
  while (C != W.CW.size() || T != W.TW.size()) {
    if (T == W.TW.size() || (C != W.CW.size() && Rng.nextBool(0.5)))
      Direct.cwAdd(W.CW[C++]);
    else
      Direct.twAdd(W.TW[T++]);
  }
  ASSERT_EQ(Direct.cwTotal(), Walked.cwTotal());
  ASSERT_EQ(Direct.twTotal(), Walked.twTotal());

  double Exact = Direct.similarity();
  KernelT Copy = Walked;
  EXPECT_EQ(bitsOf(Copy.similarity()), bitsOf(Exact));

  std::vector<double> Thresholds = {-0.5, 0.0, 1.0, 1.5, Exact,
                                    std::nextafter(Exact, -1.0),
                                    std::nextafter(Exact, 2.0)};
  for (int I = 1; I != 100; ++I)
    Thresholds.push_back(I / 100.0);
  for (double Th : Thresholds) {
    Copy = Walked;
    bool Expected = Exact >= Th;
    EXPECT_EQ(Copy.similarityAtLeast(Th), Expected) << "threshold " << Th;
    EXPECT_EQ(Direct.similarityAtLeast(Th), Expected) << "threshold " << Th;
  }
}

template <ModelKind M> void checkPathIndependence() {
  using Kernel =
      typename fastkernels::KernelOf<M, PlainKernelArith>::type;
  constexpr SiteIndex NumSites = 24;
  Xoshiro256 Rng(0x5eed0000 + static_cast<uint64_t>(M));
  // Tails: clean, a narrow envelope, and (weighted) a wide one.
  for (unsigned DirtyTail : {0u, 1u, 3u, 400u}) {
    for (int Trial = 0; Trial != 40; ++Trial) {
      SCOPED_TRACE(::testing::Message()
                   << "tail " << DirtyTail << " trial " << Trial);
      Kernel Walked(NumSites);
      BackendGuard Guard;
      for (BatchBackend Backend : runnableBackends()) {
        ASSERT_TRUE(setBatchBackend(Backend));
        Walked.reset();
        WindowContents W = randomWalk(Walked, Rng, NumSites,
                                      /*Steps=*/300, DirtyTail);
        expectSameDecisions(Walked, std::move(W), Rng, NumSites);
      }
    }
  }
}

} // namespace

// The premise of shard sharing: two kernels holding equal CW/TW count
// vectors decide identically, however they got there — through any mix
// of adds, removes, replaces and CW-to-TW moves, and for the weighted
// kernel with a clean MinSum or a stale one inside its envelope.
TEST(SharedScanIdentityTest, KernelDecisionsAreFunctionsOfTheCounts) {
  checkPathIndependence<ModelKind::UnweightedSet>();
  checkPathIndependence<ModelKind::WeightedSet>();
  checkPathIndependence<ModelKind::ManhattanBBV>();
}

//===----------------------------------------------------------------------===//
// Cohorts
//
// The engine settles a cohort (cursors of one bucket on one source, in
// one state, under one analyzer kind and, for Average, with one set of
// stats) with one check of the member that would flip first. Each case
// below is one group on a hand-built trace at CW = TW = 20, run on all
// three models and every runnable kernel backend and bit-checked against
// FastPhaseDetector and the reference detector; the positions in the
// comments, and the structural expectations, are the unweighted
// model's. An evaluation at N decides the batch [N - skip, N), so a
// phase entered at N begins at N - skip.
//===----------------------------------------------------------------------===//

namespace {

/// A trace segment: Len elements looping over Sites sites numbered from
/// Base, or, with Sites == 0, Len never-repeating sites.
struct Segment {
  uint32_t Sites, Len, Base;
};

BranchTrace makeSegmentTrace(std::initializer_list<Segment> Segments) {
  BranchTrace Trace;
  uint32_t Fresh = 1000;
  for (const Segment &S : Segments)
    for (uint32_t I = 0; I != S.Len; ++I)
      Trace.append(ProfileElement(
          0, S.Sites == 0 ? Fresh++ : S.Base + I % S.Sites, true));
  return Trace;
}

DetectorConfig cohortConfig(TWPolicyKind Policy, ResizeKind Resize,
                            uint32_t Skip, AnalyzerKind Analyzer,
                            double Param) {
  DetectorConfig C = idConfig(Resize, Skip, Analyzer);
  C.Window.TWPolicy = Policy;
  C.AnalyzerParam = Param;
  return C;
}

/// Appends one config per parameter in \p Params.
void addConfigs(std::vector<DetectorConfig> &Configs, TWPolicyKind Policy,
                ResizeKind Resize, uint32_t Skip, AnalyzerKind Analyzer,
                std::initializer_list<double> Params) {
  for (double P : Params)
    Configs.push_back(cohortConfig(Policy, Resize, Skip, Analyzer, P));
}

/// runCheckedGroup on every model; returns the unweighted result.
GroupResult runCohortCase(std::vector<DetectorConfig> Configs,
                          const BranchTrace &Trace) {
  GroupResult Unweighted;
  for (ModelKind Model : {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                          ModelKind::ManhattanBBV}) {
    SCOPED_TRACE(::testing::Message()
                 << "model " << static_cast<int>(Model));
    for (DetectorConfig &C : Configs)
      C.Model = Model;
    GroupResult R = runCheckedGroup(Configs, Trace);
    if (Model == ModelKind::UnweightedSet)
      Unweighted = std::move(R);
  }
  return Unweighted;
}

/// The [begin, end) of each member's \p Nth detected phase.
std::vector<std::pair<uint64_t, uint64_t>>
nthPhases(const GroupResult &R, size_t Nth) {
  std::vector<std::pair<uint64_t, uint64_t>> Out;
  for (const DetectorRun &Run : R.Runs) {
    EXPECT_GT(Run.DetectedPhases.size(), Nth);
    if (Run.DetectedPhases.size() > Nth)
      Out.emplace_back(Run.DetectedPhases[Nth].Begin,
                       Run.DetectedPhases[Nth].End);
    else
      Out.emplace_back(0, 0);
  }
  return Out;
}

using Phases = std::vector<std::pair<uint64_t, uint64_t>>;

constexpr TWPolicyKind Constant = TWPolicyKind::Constant;
constexpr TWPolicyKind Adaptive = TWPolicyKind::Adaptive;
constexpr AnalyzerKind Threshold = AnalyzerKind::Threshold;
constexpr AnalyzerKind Average = AnalyzerKind::Average;

} // namespace

// Five Average cursors (a tied delta among them) open a phase at 40 on
// one shard, so they form one cohort with one set of stats. When loop A
// gives way to loop B at 70 the similarity falls a step per position
// (4/5, 4/6, 4/7, 4/8), and the deltas leave one per evaluation,
// smallest first: their phases end at 70 (the tied pair), 71, 72, 73.
// Every cursor enters twice (again after its refill), each entry a
// fork or a join.
TEST(SharedScanCohortTest, AverageDeltasEnterTogetherLeaveOnePerEvaluation) {
  BranchTrace Trace = makeSegmentTrace({{0, 10, 0}, {4, 60, 0}, {4, 60, 10}});
  std::vector<DetectorConfig> Configs;
  addConfigs(Configs, Adaptive, Move, 1, Average,
             {0.45, 0.1, 0.4, 0.25, 0.1});
  GroupResult R = runCohortCase(Configs, Trace);
  EXPECT_EQ(nthPhases(R, 0),
            (Phases{{39, 73}, {39, 70}, {39, 72}, {39, 71}, {39, 70}}));
  EXPECT_EQ(R.Counters.ShardsForked + R.Counters.ShardJoins,
            uint64_t(5 + 5));
}

// The same cohort at skip 10 meets fresh sites: between evaluations 60
// and 70 the similarity collapses, and every member leaves on the one
// evaluation at 70.
TEST(SharedScanCohortTest, AverageDeltasAllLeaveOnOneEvaluation) {
  BranchTrace Trace = makeSegmentTrace({{0, 10, 0}, {4, 60, 0}, {0, 40, 0}});
  std::vector<DetectorConfig> Configs;
  addConfigs(Configs, Adaptive, Move, 10, Average, {0.1, 0.25, 0.4, 0.45});
  addConfigs(Configs, Constant, Move, 10, Average, {0.25, 0.1});
  GroupResult R = runCohortCase(Configs, Trace);
  EXPECT_EQ(nthPhases(R, 0), Phases(6, {30, 70}));
  // The adaptive members share one shard on both entries (at 40, and
  // after the refill at 110): a fork and three joins each time.
  EXPECT_EQ(R.Counters.ShardsForked, 2u);
  EXPECT_EQ(R.Counters.ShardJoins, 6u);
}

// Several thresholds cross on one evaluation, in both directions. In
// phase on a shard: at 72 (similarity 4/6) thresholds 0.75 and 0.7
// leave together. Out of phase on the shared kernel: after fresh
// sites, loop C's sites reach the TW one per position from 150, and
// the similarity steps 1/4, 2/4, 3/4 — so 0.55, 0.6 and 0.7, all awake
// by then, enter together at 153.
TEST(SharedScanCohortTest, SeveralThresholdsCrossOnOneEvaluation) {
  {
    SCOPED_TRACE("shard, in phase to transition");
    BranchTrace Trace =
        makeSegmentTrace({{0, 10, 0}, {4, 60, 0}, {4, 60, 10}});
    std::vector<DetectorConfig> Configs;
    addConfigs(Configs, Adaptive, Move, 1, Threshold,
               {0.9, 0.75, 0.7, 0.6, 0.55});
    GroupResult R = runCohortCase(Configs, Trace);
    EXPECT_EQ(nthPhases(R, 0),
              (Phases{{39, 70}, {39, 71}, {39, 71}, {39, 72}, {39, 73}}));
    EXPECT_EQ(R.Counters.ShardsForked, 1u + 4u);
  }
  {
    SCOPED_TRACE("synced, transition to in phase");
    BranchTrace Trace = makeSegmentTrace(
        {{0, 10, 0}, {4, 60, 0}, {0, 60, 0}, {4, 60, 10}});
    std::vector<DetectorConfig> Configs;
    addConfigs(Configs, Constant, Move, 1, Threshold,
               {0.5, 0.55, 0.6, 0.7, 0.9});
    GroupResult R = runCohortCase(Configs, Trace);
    Phases Second = nthPhases(R, 1);
    EXPECT_EQ(Second[1].first, 152u);
    EXPECT_EQ(Second[2].first, 152u);
    EXPECT_EQ(Second[3].first, 152u);
    EXPECT_EQ(Second[0].first, 151u);
    EXPECT_EQ(Second[4].first, 153u);
  }
}

// Tied parameters — repeated thresholds and deltas, and -0.0 against
// 0.0 — share a cohort and must decide alike, in the order the ties
// happen to sit in it.
TEST(SharedScanCohortTest, TiedParametersDecideAlike) {
  BranchTrace Trace = makeSegmentTrace(
      {{0, 10, 0}, {4, 60, 0}, {4, 60, 10}, {0, 30, 0}, {3, 50, 20}});
  std::vector<DetectorConfig> Configs;
  for (TWPolicyKind Policy : {Constant, Adaptive}) {
    addConfigs(Configs, Policy, Slide, 1, Threshold,
               {0.6, 0.7, 0.6, 0.0, 0.7, -0.0, 0.6});
    addConfigs(Configs, Policy, Slide, 1, Average, {0.1, 0.2, 0.1, 0.1});
  }
  GroupResult R = runCohortCase(Configs, Trace);
  for (size_t I = 0; I != Configs.size(); ++I)
    for (size_t J = I + 1; J != Configs.size(); ++J)
      if (Configs[I].Window.TWPolicy == Configs[J].Window.TWPolicy &&
          Configs[I].TheAnalyzer == Configs[J].TheAnalyzer &&
          Configs[I].AnalyzerParam == Configs[J].AnalyzerParam)
        expectRunsEqual(R.Runs[I], R.Runs[J], Configs[J], "tie");
}

// A refill merge moves a whole cohort. Three Slide thresholds enter at
// 40 on one shard (one fork, two joins), a Move threshold forks the
// Move shard, and at 50 the Slide shard refills into it: all three
// cursors move at once, as one cohort (it stays apart from the Move
// one). Checks: four at 40, where every member of the one out-of-phase
// cohort flips in turn, then two per position over 41..120.
TEST(SharedScanCohortTest, RefillMergeMovesAWholeCohort) {
  BranchTrace Trace = makeLoopTrace(120);
  std::vector<DetectorConfig> Configs;
  addConfigs(Configs, Adaptive, Slide, 1, Threshold, {0.5, 0.6, 0.7});
  addConfigs(Configs, Adaptive, Move, 1, Threshold, {0.5});
  GroupResult R = runCohortCase(Configs, Trace);
  EXPECT_EQ(R.Counters.ShardsForked, 2u);
  EXPECT_EQ(R.Counters.ShardJoins, 2u);
  EXPECT_EQ(R.Counters.RefillMerges, 3u);
  EXPECT_EQ(R.Counters.CursorEvaluations, 4u);
  EXPECT_EQ(R.Counters.CohortChecks, 4u + 2u * 80u);

  // Average cohorts keep their own stats across the move: the Slide and
  // Move cohorts read one shard from 50 on but stay apart.
  std::vector<DetectorConfig> Averages;
  addConfigs(Averages, Adaptive, Slide, 1, Average, {0.1, 0.3});
  addConfigs(Averages, Adaptive, Move, 1, Average, {0.1});
  GroupResult A = runCohortCase(Averages, Trace);
  EXPECT_EQ(A.Counters.RefillMerges, 2u);
}

// The trailing short batch evaluates every cursor one by one: at 87
// (87 = 12 * 7 + 3) the skip-7 bucket holds sleepers (thresholds that
// left at 70 and refill past the trace end) next to a cohort member (an
// Average delta of 2, which never leaves); the skip-3 bucket holds only
// sleepers and jumps past its remaining evaluations; and the skip-500
// bucket's one batch covers the whole trace, its cursors waking in it
// (threshold 0.1 enters, 0.5 does not).
TEST(SharedScanCohortTest, TrailingShortBatchHoldsSleepersAndCohorts) {
  BranchTrace Trace = makeSegmentTrace({{0, 10, 0}, {4, 60, 0}, {0, 17, 0}});
  ASSERT_EQ(Trace.size(), 87u);
  std::vector<DetectorConfig> Configs;
  addConfigs(Configs, Constant, Move, 7, Threshold, {0.5, 0.9});
  addConfigs(Configs, Adaptive, Move, 7, Average, {0.1, 2.0});
  addConfigs(Configs, Constant, Move, 3, Threshold, {0.5, 0.6});
  addConfigs(Configs, Adaptive, Slide, 500, Threshold, {0.1, 0.5});
  GroupResult R = runCohortCase(Configs, Trace);
  EXPECT_EQ(R.Runs[3].DetectedPhases.back().End, 87u);
  EXPECT_EQ(R.Runs[6].DetectedPhases, (std::vector<PhaseInterval>{{0, 87}}));
  EXPECT_TRUE(R.Runs[7].DetectedPhases.empty());
}

// Random groups: random shapes, strides, analyzers and policies, with
// Threshold and Average parameters drawn to include ties, values at or
// beyond [0, 1], infinities and NaN (cursors with non-finite parameters,
// like Hysteresis ones, decide alone), over random loop/fresh/noise
// traces.
TEST(SharedScanCohortTest, RandomGroupsMatchTheFastDetector) {
  Xoshiro256 Rng(0xc0407);
  const double Inf = std::numeric_limits<double>::infinity();
  const std::vector<double> Pool = {0.5,  0.5,  0.25, 0.75, 0.6, 0.0,
                                    -0.0, -0.3, 1.0,  1.5,  Inf, -Inf,
                                    std::numeric_limits<double>::quiet_NaN()};
  for (int Trial = 0; Trial != 80; ++Trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << Trial);
    BranchTrace Trace;
    uint32_t Fresh = 1000;
    uint64_t Len = 150 + Rng.nextBelow(300);
    while (Trace.size() < Len) {
      uint64_t SegLen = 5 + Rng.nextBelow(70);
      uint64_t Kind = Rng.nextBelow(3);
      uint32_t Sites = 1 + static_cast<uint32_t>(Rng.nextBelow(6));
      uint32_t Base = 8 * static_cast<uint32_t>(Rng.nextBelow(4));
      for (uint64_t I = 0; I != SegLen; ++I) {
        uint32_t Site = Kind == 0   ? Fresh++
                        : Kind == 1 ? Base + static_cast<uint32_t>(I % Sites)
                                    : static_cast<uint32_t>(Rng.nextBelow(40));
        Trace.append(ProfileElement(0, Site, true));
      }
    }

    ModelKind Model = static_cast<ModelKind>(Rng.nextBelow(3));
    uint32_t CW = 3 + static_cast<uint32_t>(Rng.nextBelow(25));
    uint32_t TW = 3 + static_cast<uint32_t>(Rng.nextBelow(25));
    std::vector<DetectorConfig> Configs(8 + Rng.nextBelow(25));
    for (DetectorConfig &C : Configs) {
      C.Model = Model;
      C.Window.CWSize = CW;
      C.Window.TWSize = TW;
      const uint32_t Skips[] = {1, 1, 2, 3, 5, CW,
                                static_cast<uint32_t>(Trace.size() + 7)};
      C.Window.SkipFactor = Skips[Rng.nextBelow(std::size(Skips))];
      C.Window.TWPolicy = Rng.nextBool(0.5) ? Adaptive : Constant;
      C.Window.Anchor = Rng.nextBool(0.5) ? AnchorKind::RightmostNoisy
                                          : AnchorKind::LeftmostNonNoisy;
      C.Window.Resize = Rng.nextBool(0.5) ? Slide : Move;
      uint64_t Analyzer = Rng.nextBelow(10);
      C.TheAnalyzer = Analyzer < 5   ? Threshold
                      : Analyzer < 9 ? Average
                                     : AnalyzerKind::Hysteresis;
      C.AnalyzerParam = Rng.nextBool(0.7)
                            ? Pool[Rng.nextBelow(Pool.size())]
                            : Rng.nextDouble() * 1.4 - 0.2;
      // A hysteresis analyzer needs an exit threshold at or below its
      // enter threshold, which only a non-negative one provides.
      if (C.TheAnalyzer == AnalyzerKind::Hysteresis)
        C.AnalyzerParam = Rng.nextDouble();
    }
    runCheckedGroup(Configs, Trace, /*CheckReference=*/false);
  }
}

//===----------------------------------------------------------------------===//
// Attached shards
//
// A shard whose CW is full keeps only its TW counts and reads them
// against the group window's CW; its count array is indexed by site
// (unweighted, Manhattan) or by the group window's roster slot
// (weighted), and goes back to the pool cleared. These cases hold the
// edges of that representation to the fast and reference detectors.
//===----------------------------------------------------------------------===//

// 40 never-repeating sites, then a loop: at the first full evaluation
// no TW element is in the CW, so either anchor is the TW's end (A ==
// TW) and a Move entry opens its phase on an empty TW. Threshold 0
// stays in phase from there on, as the TW fills from the elements
// leaving the CW; Average deltas enter on empty stats.
TEST(SharedScanAttachedTest, MoveEntryAtTheTWEndStartsFromAnEmptyTW) {
  BranchTrace Trace = makeSegmentTrace({{0, 40, 0}, {4, 80, 0}});
  std::vector<DetectorConfig> Configs;
  addConfigs(Configs, Adaptive, Move, 1, Threshold, {0.0, 0.5});
  addConfigs(Configs, Adaptive, Move, 3, Threshold, {0.0});
  addConfigs(Configs, Adaptive, Move, 1, Average, {0.2});
  Configs.push_back(Configs.front());
  Configs.back().Window.Anchor = AnchorKind::LeftmostNonNoisy;
  GroupResult R = runCohortCase(Configs, Trace);
  for (size_t I : {size_t{0}, Configs.size() - 1})
    EXPECT_EQ(R.Runs[I].DetectedPhases,
              (std::vector<PhaseInterval>{{39, Trace.size()}}));
  EXPECT_GE(R.Counters.ShardsForked, 1u);
}

// A site seen for the first time (position 210) while the weighted
// attached shards of the second phase are live: it is enrolled in the
// group window's roster at a new slot, and its count must start at
// zero although the first phase's shards, back in the pool, counted
// twelve other sites and the fresh segment's sites enrolled while they
// were live too.
TEST(SharedScanAttachedTest, SiteEnrolledWhileWeightedAttachedShardIsLive) {
  BranchTrace Trace = makeSegmentTrace({{0, 10, 0},
                                        {12, 100, 0},
                                        {0, 40, 0},
                                        {4, 60, 20},
                                        {0, 1, 0},
                                        {4, 60, 20}});
  std::vector<DetectorConfig> Configs;
  for (ResizeKind Resize : {Move, Slide}) {
    addConfigs(Configs, Adaptive, Resize, 1, Threshold, {0.5, 0.8});
    addConfigs(Configs, Adaptive, Resize, 4, Threshold, {0.5});
    addConfigs(Configs, Adaptive, Resize, 1, Average, {0.1, 0.3});
  }
  for (DetectorConfig &C : Configs)
    C.Model = ModelKind::WeightedSet;
  GroupResult R = runCheckedGroup(Configs, Trace);
  // The Threshold 0.5 Move cursor is in phase across position 210.
  bool Covered = false;
  for (const PhaseInterval &P : R.Runs[0].DetectedPhases)
    Covered |= P.Begin <= 210 && P.End > 211;
  EXPECT_TRUE(Covered);
  EXPECT_GE(R.Counters.ShardsForked, 2u);
}

// One engine runs groups of different CW in turn, on every model. The
// group window's roster and touched sites restart with each group, so
// a pooled shard's counts must have been cleared against the group that
// used them.
TEST(SharedScanAttachedTest, EngineReusedAcrossGroupsWithDifferentCW) {
  BranchTrace Trace = makeSegmentTrace({{0, 10, 0},
                                        {12, 100, 0},
                                        {0, 40, 0},
                                        {4, 60, 20},
                                        {0, 1, 0},
                                        {7, 90, 30}});
  for (ModelKind Model : {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                          ModelKind::ManhattanBBV}) {
    std::unique_ptr<SharedScanEngineBase> Engine =
        makeSharedScanEngine(Model, Trace.numSites());
    for (uint32_t CW : {20u, 7u, 33u, 7u}) {
      SCOPED_TRACE(::testing::Message() << "model " << static_cast<int>(Model)
                                        << " cw " << CW);
      std::vector<DetectorConfig> Configs;
      for (ResizeKind Resize : {Move, Slide}) {
        addConfigs(Configs, Adaptive, Resize, 1, Threshold, {0.5, 0.7});
        addConfigs(Configs, Adaptive, Resize, 3, Average, {0.1});
      }
      for (DetectorConfig &C : Configs) {
        C.Model = Model;
        C.Window.CWSize = CW;
        C.Window.TWSize = CW + 5;
      }
      runCheckedGroup(Configs, Trace, /*CheckReference=*/true, Engine.get());
      EXPECT_GT(Engine->counters().ShardSteps, 0u);
    }
  }
}

// One weighted engine runs a group over a trace that loops over four
// sites (roster slots 0 to 3) and then over eight more (slots 4 to 11),
// then a group of another shape whose attached shards read during the
// first stretch, while the roster holds only slots 0 to 3. Those reads
// sweep whole 8-slot blocks, so slots 4 to 7 must read as zero: the
// first group's counts left there would change the MinSum. The reused
// engine must give the fresh engine's runs and counters.
TEST(SharedScanAttachedTest, WeightedEngineReusedOnASmallerRoster) {
  BranchTrace Trace = makeSegmentTrace({{4, 120, 0}, {8, 150, 20}});
  auto group = [](uint32_t CW, uint32_t TW) {
    std::vector<DetectorConfig> Configs;
    for (ResizeKind Resize : {Move, Slide}) {
      addConfigs(Configs, Adaptive, Resize, 1, Threshold, {0.5, 0.9});
      addConfigs(Configs, Adaptive, Resize, 1, Average, {0.01, 0.2});
    }
    for (DetectorConfig &C : Configs) {
      C.Model = ModelKind::WeightedSet;
      C.Window.CWSize = CW;
      C.Window.TWSize = TW;
    }
    return Configs;
  };
  std::vector<DetectorConfig> First = group(20, 25), Second = group(9, 11);
  std::unique_ptr<SharedScanEngineBase> Engine =
      makeSharedScanEngine(ModelKind::WeightedSet, Trace.numSites());
  runCheckedGroup(First, Trace, /*CheckReference=*/true, Engine.get());
  GroupResult Reused =
      runCheckedGroup(Second, Trace, /*CheckReference=*/true, Engine.get());
  GroupResult Fresh = runCheckedGroup(Second, Trace);
  for (size_t I = 0; I != Second.size(); ++I)
    expectRunsEqual(Fresh.Runs[I], Reused.Runs[I], Second[I],
                    "reused vs fresh engine");
  EXPECT_EQ(Reused.Counters.ShardsForked, Fresh.Counters.ShardsForked);
  EXPECT_EQ(Reused.Counters.ShardSteps, Fresh.Counters.ShardSteps);
  // The second group is in phase during the first stretch.
  bool Early = false;
  for (const DetectorRun &Run : Reused.Runs)
    for (const PhaseInterval &P : Run.DetectedPhases)
      Early |= P.Begin < 100;
  EXPECT_TRUE(Early);
}

// Sites interned across bitset word boundaries (multiples of 32, so
// of 64 too): 60 never-repeating sites take indices 0-59, so a loop
// over eight more takes 60-67; 55 more fresh ones push a second loop to
// 123-130; a loop over 70 sites reuses 60-67 and adds 131-192; then the
// second loop returns. The CW and TW presence bitsets of the unweighted
// attached reads straddle words while adaptive phases are open, over
// seven words: Threshold 0 stays in phase
// across the segment changes, where the CW and TW hold different
// sites. Bit-checked on all three models.
TEST(SharedScanAttachedTest, SitesStraddlingBitsetWordsInAnAdaptivePhase) {
  BranchTrace Trace = makeSegmentTrace({{0, 60, 0},
                                        {8, 90, 5000},
                                        {0, 55, 0},
                                        {8, 70, 6000},
                                        {70, 280, 5000},
                                        {8, 60, 6000}});
  ASSERT_EQ(Trace.numSites(), 193u);
  std::vector<DetectorConfig> Configs;
  for (ResizeKind Resize : {Move, Slide}) {
    addConfigs(Configs, Adaptive, Resize, 1, Threshold, {0.0, 0.5, 0.8});
    addConfigs(Configs, Adaptive, Resize, 3, Average, {0.05, 0.3});
  }
  GroupResult R = runCohortCase(Configs, Trace);
  EXPECT_GE(R.Counters.ShardsForked, 2u);
  // Threshold 0 (Move) holds one phase from its first entry to the end.
  ASSERT_EQ(R.Runs[0].DetectedPhases.size(), 1u);
  EXPECT_EQ(R.Runs[0].DetectedPhases[0].End, Trace.size());
}

// Run storage grows to what the output needs, not to a flip per batch:
// skip-1 runs over a long trace with few transitions, through the engine
// and through runDetector, each into fresh storage.
TEST(SharedScanStorageTest, RunStorageIsOutputSized) {
  BranchTrace Trace = makeLoopTrace(120000);
  std::vector<DetectorConfig> Configs;
  addConfigs(Configs, Adaptive, Move, 1, Threshold, {0.5});
  addConfigs(Configs, Constant, Move, 1, Threshold, {0.5});
  addConfigs(Configs, Adaptive, Slide, 1, Average, {0.1});
  auto ExpectOutputSized = [](const DetectorRun &Run) {
    const std::vector<StateRun> &Runs = Run.States.runs();
    EXPECT_LE(Runs.size(), 4u) << "the loop trace should barely flip";
    EXPECT_LE(Runs.capacity(), 2 * Runs.size() + 4);
  };
  for (ModelKind Model : {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                          ModelKind::ManhattanBBV}) {
    SCOPED_TRACE(::testing::Message() << "model " << static_cast<int>(Model));
    std::vector<size_t> Members;
    for (DetectorConfig &C : Configs) {
      C.Model = Model;
      Members.push_back(Members.size());
    }
    std::unique_ptr<SharedScanEngineBase> Engine =
        makeSharedScanEngine(Model, Trace.numSites());
    std::vector<DetectorRun> Runs(Configs.size());
    Engine->run(Configs, Members, Trace.elements().data(), Trace.size(),
                Runs);
    for (const DetectorRun &Run : Runs)
      ExpectOutputSized(Run);
    for (const DetectorConfig &C : Configs) {
      std::unique_ptr<FastDetectorBase> Detector =
          makeFastDetector(C, Trace.numSites());
      ExpectOutputSized(runDetector(*Detector, Trace));
    }
  }
}

//===----------------------------------------------------------------------===//
// KernelWindows
//
// The fast detector, the shared-scan group window and its shards step
// their windows through one KernelWindows::advance, in chunks of
// whatever length the caller has at hand: one element, a skip batch, or
// the span to the next evaluation. The windows must not depend on the
// chunking, and must hold what per-element consume() calls would.
//===----------------------------------------------------------------------===//

namespace {

/// The window lengths per-element WindowedModel::consume() calls and a
/// startPhase() resize produce, kept as plain arithmetic: the oracle for
/// KernelWindows' bookkeeping.
struct WindowLengths {
  uint64_t Base = 0, TWLen = 0, CWLen = 0;

  void consume(uint64_t CW, uint64_t TW, bool Grow) {
    if (CWLen < CW)
      ++CWLen;
    else if (Grow || TWLen < TW)
      ++TWLen;
    else
      ++Base;
  }
  void resize(uint64_t A, bool Slide) {
    uint64_t Take = Slide ? std::min(A, CWLen) : 0;
    Base += A;
    TWLen = TWLen - A + Take;
    CWLen -= Take;
  }
};

/// Requires \p K, stepped in chunks, to hold what \p Fresh, built from
/// scratch over the same windows, holds: every count and total, the
/// quantities a settled batch rebuilds (the unweighted distinct counts
/// and CW bits), and bit-identical similarities and threshold decisions.
/// The decisions are read off a copy, so \p K keeps a weighted kernel's
/// deferred MinSum unless \p ReadK.
template <typename Kernel>
void expectSameKernel(Kernel &K, Kernel &Fresh, SiteIndex NumSites,
                      bool ReadK) {
  ASSERT_EQ(K.cwTotal(), Fresh.cwTotal());
  ASSERT_EQ(K.twTotal(), Fresh.twTotal());
  for (SiteIndex S = 0; S != NumSites; ++S) {
    ASSERT_EQ(K.cwCount(S), Fresh.cwCount(S)) << "site " << S;
    ASSERT_EQ(K.twCount(S), Fresh.twCount(S)) << "site " << S;
  }
  if constexpr (requires { K.bothDistinct(); }) {
    ASSERT_EQ(K.cwDistinct(), Fresh.cwDistinct());
    ASSERT_EQ(K.bothDistinct(), Fresh.bothDistinct());
  }
  if constexpr (requires { K.cwBit(0); }) {
    for (SiteIndex S = 0; S != NumSites; ++S)
      ASSERT_EQ(K.cwBit(S), Fresh.cwBit(S)) << "site " << S;
  }
  double Sim = Fresh.similarity();
  for (double T : {Sim, std::nextafter(Sim, -1.0), std::nextafter(Sim, 2.0),
                   0.25, 0.5, 0.75}) {
    Kernel Copy = K;
    ASSERT_EQ(Copy.similarityAtLeast(T), Sim >= T) << "threshold " << T;
  }
  Kernel Copy = K;
  Kernel &Read = ReadK ? K : Copy;
  ASSERT_EQ(bitsOf(Read.similarity()), bitsOf(Sim));
}

/// Steps one KernelWindows one element at a time and another in chunks
/// over a skewed random trace (a few hot sites, so the touched-site
/// count, the settle threshold, keeps moving), with phase entries,
/// exits and flushes at chunk boundaries, and holds both to the window
/// lengths and kernel per-element consumes would build. Chunk lengths
/// cluster around the settle threshold (one below, at, one above) and
/// past CW + TW, where an element enters and leaves both windows inside
/// one batch.
template <typename Kernel> void checkChunking(uint64_t Seed) {
  using Windows = fastkernels::KernelWindows<Kernel>;
  constexpr SiteIndex NumSites = 70;
  constexpr uint64_t CW = 30, TW = 300, Len = 60000;
  Xoshiro256 Rng(Seed);
  std::vector<SiteIndex> E(Len);
  for (SiteIndex &S : E)
    S = static_cast<SiteIndex>(Rng.nextBool(0.9) ? Rng.nextBelow(6)
                                                 : Rng.nextBelow(NumSites));

  Windows Stepped{Kernel(NumSites)};
  Windows Chunked{Kernel(NumSites)};
  WindowLengths Expected;
  // The sites that entered the windows since the last flush: what the
  // kernel's settle() costs (touched sites, or the weighted roster).
  std::vector<bool> Touched(NumSites);
  uint64_t NumTouched = 0;
  auto Touch = [&](uint64_t From, uint64_t To) {
    for (uint64_t I = From; I != To; ++I)
      if (!Touched[E[I]]) {
        Touched[E[I]] = true;
        ++NumTouched;
      }
  };
  bool Grow = false;
  unsigned Slides = 0, FillEdges = 0, GrowEdges = 0, Flushes = 0;
  unsigned Settled = 0, PerOp = 0, Straddles = 0, GrowSettled = 0;
  uint64_t Pos = 0;
  while (Pos != Len) {
    uint64_t Threshold = std::max<uint64_t>(2, NumTouched);
    uint64_t N;
    switch (Rng.nextBelow(4)) {
    case 0:
      N = Threshold - 1 + Rng.nextBelow(3);
      break;
    case 1:
      N = CW + TW + 1 + Rng.nextBelow(CW + TW);
      break;
    default:
      N = 1 + Rng.nextBelow(2 * (CW + TW));
      break;
    }
    N = std::min(Len - Pos, N);
    SCOPED_TRACE(::testing::Message() << "chunk [" << Pos << ", "
                                      << Pos + N << ")");
    // The settle rule, stated from the trace: a multi-element batch at
    // least as long as the touched-site count settles.
    bool Settles = Kernel::Settles && N > 1 && N >= NumTouched;
    ASSERT_EQ(Chunked.settles(N), Settles) << NumTouched << " touched";
    Settled += Settles;
    PerOp += !Settles && N > 1;
    GrowSettled += Settles && Grow;
    Straddles += Settles && N > CW + TW;
    // Chunks that cross from the CW fill, or from TW growth into the
    // rotation, inside one advance.
    uint64_t Fill = CW - std::min(CW, Chunked.CWLen);
    uint64_t GrowRoom = TW - std::min(TW, Chunked.TWLen);
    FillEdges += Fill != 0 && N > Fill;
    GrowEdges += !Grow && GrowRoom != 0 && N > Fill + GrowRoom;
    for (uint64_t I = 0; I != N; ++I) {
      Stepped.advance(E.data(), 1, CW, TW, Grow);
      Expected.consume(CW, TW, Grow);
    }
    Chunked.advance(E.data(), N, CW, TW, Grow);
    Touch(Pos, Pos + N);
    Pos += N;

    // A phase edge at this position: entry resizes both windows at the
    // anchor, exit stops the TW growth and, like endPhase(), sometimes
    // flushes the kernel down to a seed of the last elements. Phases
    // are short, so some end with the TW below TWSize and the TW growth
    // resumes out of phase.
    if (Rng.nextBool(Grow ? 0.7 : 0.3)) {
      Grow = !Grow;
      if (Grow) {
        AnchorKind Kind = Rng.nextBool(0.5) ? AnchorKind::RightmostNoisy
                                            : AnchorKind::LeftmostNonNoisy;
        bool Slide = Rng.nextBool(0.5);
        uint64_t A = Chunked.anchor(E.data(), Kind);
        ASSERT_EQ(Stepped.anchor(E.data(), Kind), A);
        Slides += Slide && std::min(A, Chunked.CWLen) != 0;
        Stepped.resizeForPhase(E.data(), A, Slide);
        Chunked.resizeForPhase(E.data(), A, Slide);
        Expected.resize(A, Slide);
      } else if (Rng.nextBool(0.5)) {
        uint64_t Keep = std::min<uint64_t>(1 + Rng.nextBelow(CW),
                                           Expected.TWLen + Expected.CWLen);
        for (Windows *W : {&Stepped, &Chunked}) {
          W->K.reset();
          W->Base = Pos - Keep;
          W->TWLen = 0;
          W->CWLen = Keep;
          for (uint64_t I = Pos - Keep; I != Pos; ++I)
            W->K.cwAdd(E[I]);
        }
        Expected = WindowLengths{Pos - Keep, 0, Keep};
        std::fill(Touched.begin(), Touched.end(), false);
        NumTouched = 0;
        Touch(Pos - Keep, Pos);
        ++Flushes;
      }
    }

    ASSERT_EQ(Stepped.end(), Pos);
    ASSERT_EQ(Chunked.Base, Expected.Base);
    ASSERT_EQ(Chunked.TWLen, Expected.TWLen);
    ASSERT_EQ(Chunked.CWLen, Expected.CWLen);
    ASSERT_EQ(Stepped.Base, Expected.Base);
    ASSERT_EQ(Stepped.TWLen, Expected.TWLen);
    ASSERT_EQ(Stepped.CWLen, Expected.CWLen);

    // A kernel built from scratch over the same windows: decisions are
    // functions of the counts (KernelDecisionsAreFunctionsOfTheCounts).
    Kernel Fresh(NumSites);
    for (uint64_t I = 0; I != Expected.TWLen; ++I)
      Fresh.twAdd(E[Expected.Base + I]);
    for (uint64_t I = Expected.Base + Expected.TWLen; I != Pos; ++I)
      Fresh.cwAdd(E[I]);
    expectSameKernel(Stepped.K, Fresh, NumSites, /*ReadK=*/true);
    expectSameKernel(Chunked.K, Fresh, NumSites, Rng.nextBool(0.5));
  }
  // The walk reached the paths the chunking could get wrong.
  EXPECT_GT(Slides, 0u);
  EXPECT_GT(FillEdges, 1u);
  EXPECT_GT(GrowEdges, 1u);
  EXPECT_GT(Flushes, 1u);
  EXPECT_GT(PerOp, 1u);
  if (Kernel::Settles) {
    EXPECT_GT(Settled, 1u);
    EXPECT_GT(GrowSettled, 1u);
    EXPECT_GT(Straddles, 1u);
  }
}

} // namespace

// One element at a time or in chunks of up to 2(CW+TW) elements, with
// phase entries (Move and Slide resizes), exits and flushes at chunk
// boundaries: the same windows, counts and settled quantities, and
// bit-identical similarities and decisions, as per-element consume()
// calls would build. Chunks at or above the settle threshold take the
// settled path (plain count steps, one settle()).
TEST(KernelWindowsTest, ChunkingDoesNotChangeTheWindows) {
  using fastkernels::KernelOf;
  checkChunking<KernelOf<ModelKind::UnweightedSet, PlainKernelArith>::type>(
      0x3d0c0000);
  checkChunking<KernelOf<ModelKind::WeightedSet, PlainKernelArith>::type>(
      0x3d0c0001);
  checkChunking<KernelOf<ModelKind::ManhattanBBV, PlainKernelArith>::type>(
      0x3d0c0002);
}
