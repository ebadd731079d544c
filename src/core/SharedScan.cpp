//===- core/SharedScan.cpp - One trace pass, many detectors ------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Bit-identity argument, in terms of the FastWindowedModel
// (core/FastKernels.h) a per-config detector drives. The model, the
// engine's group window and its shards all step through one
// KernelWindows::advance, the single consume: it feeds the kernel the
// operation sequence of per-element consume() calls (CW fill, TW growth
// while growing or below TWSize, then rotation), whatever the length of
// the stretch it is handed. The points below are about which windows
// each one holds, not how they are stepped.
//
//  1. Out of phase, the model's consume never reads PhaseOpen, and a
//     constant-equivalent TW (adaptive with InPhaseGrowth=false behaves
//     identically) caps at TWSize — so the windows are exactly
//     CW = trace(q-CW, q], TW = trace(q-CW-TW, q-CW] at every position
//     q, which is what the engine's one free-running window maintains
//     (advance with Grow off). Kernel counts are a function of window
//     contents, and the weighted kernel's MinSum recompute is exact
//     integer arithmetic over those counts, so decisions off the shared
//     kernel match the reference's bit for bit.
//
//  2. endPhase() at position n keeps Keep = min(skip, CWSize,
//     TWLen+CWLen) seed elements and flushes the kernel. From there the
//     model refills: CWSize-Keep elements to fill the CW, then TWSize
//     rotations to fill the TW, during which windowsFull() is false —
//     every evaluation is a forced Transition and no analyzer runs. At
//     position n + (CWSize-Keep) + TWSize the refilled windows hold
//     exactly the last CWSize elements and the TWSize before them:
//     the free-running window again (1). So a flushed cursor stores
//     ResyncAt = n + (CWSize-Keep) + TWSize and is a pure countdown.
//
//  3. In phase, an adaptive model diverges: startPhase() drops the TW
//     prefix at the anchor (optionally sliding CW elements across), and
//     InPhaseGrowth makes every subsequent consume grow the TW. But
//     none of that depends on any later decision: from then on the TW
//     start (Base) stays put, the CW refills one element per position
//     up to CWSize, and the TW takes what the CW rotates out. So at
//     position p a shard holds TW = [Base, p-CWLen), CW = [p-CWLen, p),
//     where CWLen is CWSize from FullAt on: the entry position N for a
//     Move resize, N + min(A, CWSize) for a Slide (phase entry only
//     happens synced, where the cursor's window IS the shared window by
//     (1)). While a phase is open the reference windowsFull() is
//     TWLen>0 && CWLen>0, which the shard checks before each decision.
//
//     From FullAt on the shard's CW is the group window's CW [p-CW, p)
//     at every position the scan reaches, so the shard is *attached*,
//     and its TW [Base, p-CW) is a difference of two prefixes of the
//     trace. The engine keeps one count vector per group, Left = the
//     counts of E[0, p-CW) (one increment per position, for the element
//     the group CW hands over), and at attachment the shard stores the
//     snapshot P = counts of E[0, Base) (AttachedTW in core/
//     FastKernels.h: Left minus its TW counts, built from the group TW).
//     Its TW counts at any later p are then Left - P, exactly: each is
//     below 2^32, the bound the counts carry, so the uint32 difference
//     is right even where Left has wrapped. The shard's own step from p
//     to p+1 is only its TW length. A read is the kernel's own formula
//     over the group CW counts and Left - P: the unweighted
//     sites-in-both count (popcount of the group's CW presence bits and
//     the shard's TW bits, where a CW site gets its TW bit once Left !=
//     P there: the TW only grows, so a site seen in it stays), the
//     weighted MinSum (batchMinSumSplit over Left and P, the same
//     integer sum), Manhattan's ascending loop over Left[s] - P[s].
//     Every kernel decision is a function of those two count vectors
//     (the SharedScanTest path-independence property), so reads match
//     the per-config model's bit for bit. The weighted Threshold decision
//     also keeps the kernel's deferral: NCW is fixed and every step is
//     the model's cwReplace then twAdd, so the per-operation widenings
//     of the MinSum envelope sum, over the K steps since the last exact
//     read, to a closed form in K and the TW length then
//     (FastWeightedSetKernel::attachedSimilarityAtLeast).
//     The envelope is sound whether or not a step's operations moved
//     anything, so a decision it settles is the exact one; only the
//     recompute schedule differs, never a decision. The unweighted
//     kernel bounds its count the same way (a step moves it by -1 to
//     +2). Before FullAt only a Slide-resized shard exists: it copies
//     the group window at entry, applies the same
//     KernelWindows::resizeForPhase as startPhase, and advances with
//     Grow on (which only refills the CW) until its CW refills.
//
//     Shards are refcounted and shared by window identity: two shards
//     with one Base and one CW length at p are the same shard from p
//     on. A phase entry at N with anchor value A builds Base =
//     N-CW-TW+A and FullAt = N (Move) or N+min(A,CW) (Slide); it joins
//     a live shard matching both at N, advancing it there first. Two
//     shards with one Base but different CW lengths at p differ until
//     the shorter CW refills, so the refill is the one other merge
//     point: at its first advance past FullAt the refilled shard
//     forwards to an attached twin with its Base if one is live (each of
//     its cohorts moves over on its next check), and otherwise attaches
//     itself. endPhase() never reads the buffer beyond the kept seed,
//     whose length needs only the window length p - Base.
//
//  4. Constant-TW models also flush at endPhase, but in phase their
//     consume path is the free-running one (TWGrows is false once the
//     TW is full, PhaseOpen's windowsFull() variant is always true for
//     a full window) — so constant cursors never need shards at all.
//
//  5. Cohorts decide for all their members with one check. A cohort is
//     a set of cursors in one stride bucket that read one source (the
//     shared kernel or one shard), are in one state under one analyzer
//     kind, and — for Average — hold the same Welford stats, because
//     they entered on that source at the same position and have since
//     seen the same similarity at every evaluation. Such members differ
//     only in their parameter, and the decision is monotone in it:
//       - Threshold: `sim >= T` is monotone in T, and the weighted
//         kernel's similarityAtLeast(T) is bit-identical to
//         `similarity() >= T` (the KernelDecisionsAreFunctionsOfTheCounts
//         property), so it is monotone too. Out of phase the lowest T
//         enters first; in phase the highest T leaves first.
//       - Average: the member stays iff `sim >= fl(Mean - delta)`, and
//         round-to-nearest subtraction is monotone in delta, so the
//         smallest delta leaves first.
//     Members are ordered so the first is the first that can flip. If
//     it stays, every member provably stays and nothing else is done
//     (Average applies the one stats update for all); if it flips, it
//     leaves the cohort through the per-cursor path and the next member
//     is tried. Both paths call one decision function, decideOn(). The
//     check reads only the cohort: its source, state, analyzer kind and
//     stats, and the head member's parameter, which the cohort keeps
//     whenever its member list changes. A member's own source and stats
//     are synced from the cohort when it leaves (a flip, or the end of
//     the scan), so a refill merge moves a cohort by its source alone. Two
//     kinds of cursor stay on the per-cursor path at every evaluation:
//     Hysteresis, whose dual-threshold state is per cursor, and any
//     cursor with a non-finite parameter (a NaN compares unordered, so
//     the ordering the argument needs does not exist). A cursor in its
//     refill countdown (2) sleeps: its evaluations are forced
//     Transitions that change nothing, so it is not visited until the
//     first evaluation position at or past ResyncAt, and a bucket
//     holding only sleepers jumps straight there. Runs are kept lazily:
//     a cursor stores the offset where its pending run started, and the
//     run extends to whatever evaluation ends it (buckets evaluate at
//     contiguous batches, so the pending run covers every batch since).
//     Which cursor of a tie flips first, and in which order cohorts are
//     visited, cannot change any output: a decision reads only the
//     windows, and shards are shared by window identity (3).
//
// Analyzer state is tiny: the threshold compare, the average analyzer's
// mean-only Welford stats (reset on both phase edges, updated on P->P
// with the evaluation's similarity; a cohort member's live copy is its
// cohort's), and the hysteresis analyzer's internal state (which the
// reference only advances when windowsFull() — forced-Transition
// evaluations must NOT touch it, and its resetStats() is a no-op, so it
// survives flushes).
//
// The multi-threshold fan-out: at each evaluation position the shared
// similarity is computed once (one weighted-kernel division) and every
// synced cursor compares it — FastWeightedSetKernel::similarityAtLeast
// documents that the comparison is provably identical to the
// division-free decision the fast detector takes. Shard-backed
// Threshold decisions keep the kernel-side similarityAtLeast, whose
// envelopes (3) defer the exact recomputes, and every read of a shard
// at one position after the first reuses its memoized exact value.
//
//===----------------------------------------------------------------------===//

#include "core/SharedScan.h"

#include "core/FastKernels.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>

using namespace opd;
using namespace opd::fastkernels;

SharedScanKey opd::sharedScanKey(const DetectorConfig &Config) {
  return SharedScanKey{Config.Model, Config.Window.CWSize,
                       Config.Window.TWSize};
}

SharedScanPlan
opd::planSharedScan(const std::vector<DetectorConfig> &Configs) {
  SharedScanPlan Plan;
  std::map<SharedScanKey, size_t> GroupOf;
  for (size_t I = 0; I != Configs.size(); ++I) {
    SharedScanKey Key = sharedScanKey(Configs[I]);
    auto [It, Inserted] = GroupOf.try_emplace(Key, Plan.Groups.size());
    if (Inserted)
      Plan.Groups.push_back(SharedScanGroup{Key, {}});
    Plan.Groups[It->second].Members.push_back(I);
  }
  return Plan;
}

namespace {

/// The engine for one similarity model. One instance serves any number
/// of groups of that model sequentially; all pools survive run() calls.
template <ModelKind M>
class SharedScanEngine final : public SharedScanEngineBase {
  using Kernel = typename KernelOf<M, PlainKernelArith>::type;

  /// The in-phase windows of adaptive cursors, advancing lazily to their
  /// evaluation positions. At position p a shard holds TW = [Base, p -
  /// CWLen) and CW = [p - CWLen, p); the TW grows while the phase is
  /// open, so Base never moves, and a shard's identity is (Base, its CW
  /// length at a position): see findShard. From FullAt on the CW is the
  /// group window's, and the shard is **attached**: it keeps only the
  /// counts of E[0, Base), and its TW counts are the group's Left minus
  /// those, read against the group window's CW; an advance is no
  /// per-element work. Before FullAt (a Slide resize moved CW elements
  /// into the TW, and the CW is refilling) it keeps detached windows.
  struct Shard {
    /// The TW start, fixed while the phase is open.
    uint64_t Base = 0;
    /// The first position at which the CW is full: the entry position,
    /// plus the elements a Slide resize moved out of the CW.
    uint64_t FullAt = 0;
    /// The position the shard was last advanced to; it is attached iff
    /// LastPos >= FullAt.
    uint64_t LastPos = 0;
    /// Attached: the TW as a prefix snapshot against Left (all zero
    /// while the shard is free).
    AttachedTW TW;
    /// Refilling: the detached windows over the trace (assignment reuses
    /// the kernel's arrays).
    KernelWindows<Kernel> W;
    /// Set when a refill made this shard a duplicate of an attached
    /// shard with the same Base: the shard its cursors move to. Holds one
    /// reference on it until this shard is released.
    Shard *Into = nullptr;
    /// Cursors currently reading this shard (plus merged-in shards).
    uint32_t Refs = 0;

    explicit Shard(SiteIndex NumSites) : W{Kernel(NumSites)} {
      TW.Prefix.assign(W.K.attachedSize(), 0);
    }
    bool attached() const { return LastPos >= FullAt; }
  };

  /// FastMeanStats's mean-only Welford state (the Average analyzer).
  struct MeanStats {
    uint64_t N = 0;
    double Mean = 0.0;
  };

  /// One config's detector state over the shared window.
  struct Cursor {
    // Config-derived constants.
    uint32_t Skip;
    AnalyzerKind Analyzer;
    TWPolicyKind Policy;
    AnchorKind Anchor;
    ResizeKind Resize;
    /// Threshold / average delta / hysteresis enter threshold.
    double P0;
    /// Hysteresis exit threshold.
    double P1;

    // Detector state.
    PhaseState State = PhaseState::Transition;
    /// First position at which the windows are full again (out of
    /// phase, evaluations before this are forced Transitions).
    uint64_t ResyncAt = 0;
    /// While asleep: the first evaluation position at or after ResyncAt.
    uint64_t WakeAt = 0;
    /// The anchored phase-start estimate set at the last T->P edge.
    uint64_t LastAnchor = 0;
    /// Non-null iff adaptive and in phase.
    Shard *Sh = nullptr;

    // Analyzer state (average: mean-only Welford, a cohort member's live
    // copy held by its cohort; hysteresis: the internal dual-threshold
    // state).
    MeanStats Stats;
    PhaseState HystState = PhaseState::Transition;

    // Run accumulation (mirrors FastPhaseDetector::consumeTrace): the
    // pending run's state and the trace offset it started at. It covers
    // every batch up to the cursor's last evaluation.
    PhaseState RunState = PhaseState::Transition;
    uint64_t RunStart = 0;
    /// The output run this cursor writes.
    DetectorRun *Run = nullptr;
    /// The cursor's AnchoredStarts (pooled by the engine).
    std::vector<uint64_t> *Anchored = nullptr;
  };

  /// Cursors of one bucket whose decisions one check settles: one
  /// source, analyzer kind and state, and (Average) one set of stats.
  /// The check reads only the cohort: a member's Sh and Stats are stale
  /// while it is filed here, and are synced (syncMember) when it leaves.
  struct Cohort {
    /// The shard the members read, or null for the shared kernel.
    Shard *Source = nullptr;
    /// The parameter of Members.back(), the member checked.
    double Head = 0.0;
    /// Average: the members' common stats.
    MeanStats Stats;
    AnalyzerKind Analyzer = AnalyzerKind::Threshold;
    PhaseState State = PhaseState::Transition;
    /// Average in phase: the position every member entered at.
    uint64_t EntryPos = 0;
    /// Members, ascending by flipRank(): the member that flips first is
    /// at the back.
    std::vector<Cursor *> Members;
  };

  /// Cursors sharing a skip stride, evaluated in lockstep. Every cursor
  /// is in exactly one of a cohort, the sleepers, or Solo.
  struct Bucket {
    uint64_t Skip = 0;
    /// The next position this bucket evaluates at.
    uint64_t NextEval = 0;
    /// Cohorts[0, NumCohorts) are live; the rest keep their arrays.
    std::vector<Cohort> Cohorts;
    size_t NumCohorts = 0;
    /// Cursors in their refill countdown, ascending by WakeAt from
    /// SleepHead on.
    std::vector<Cursor *> Sleepers;
    size_t SleepHead = 0;
    /// The first sleeper's WakeAt (UINT64_MAX when none sleeps).
    uint64_t NextWake = UINT64_MAX;
    /// Cursors that decide alone at every evaluation: Hysteresis, and
    /// any non-finite parameter.
    std::vector<Cursor *> Solo;
  };

public:
  explicit SharedScanEngine(SiteIndex NumSites)
      : Shared{Kernel(NumSites)}, Sites(NumSites),
        Left(Shared.K.attachedSize(), 0) {}

  void setBatchKernels(bool Enabled) override {
    Shared.K.setBatchEnabled(Enabled);
  }
  SiteIndex numSites() const override { return Sites; }

  void run(const std::vector<DetectorConfig> &Configs,
           const std::vector<size_t> &Members, const SiteIndex *Elements,
           size_t NumElements, std::vector<DetectorRun> &Runs) override {
    assert(!Members.empty() && "shared scan group must be nonempty");
    assert(Runs.size() >= Members.size() && "one output run per member");
    setupGroup(Configs, Members, Runs);
    Counters = SharedScanCounters();
    this->Elements = Elements;
    this->NumElements = NumElements;

    // Main loop: advance the shared window in eval-to-eval bursts.
    uint64_t Pos = 0;
    uint64_t Checks = 0;
    while (Pos < NumElements) {
      uint64_t Target = NumElements;
      for (const Bucket &B : buckets())
        Target = std::min<uint64_t>(Target, B.NextEval);
      assert(Target > Pos && "evaluation positions must advance");
      Shared.advance(Elements, Target - Pos, CW, TW, /*Grow=*/false);
      if (CountLeft)
        countLeft(Pos, Target);
      Pos = Target;
      for (Bucket &B : buckets()) {
        if (B.NextEval != Pos)
          continue;
        evalBucket(B, Pos, Checks);
        B.NextEval = nextEval(B, Pos);
      }
    }

    Counters.CohortChecks += Checks;

    // From here on cursors are evaluated and flushed one by one.
    for (Bucket &B : buckets())
      for (Cohort &K : std::span(B.Cohorts.data(), B.NumCohorts))
        for (Cursor *C : K.Members)
          syncMember(K, *C);

    // Trailing partial batches: a bucket whose stride does not divide the
    // trace evaluates once more over the short remainder, exactly like
    // the reference's final short batch. (A skip larger than the trace
    // degenerates to one short batch covering it all.)
    for (Bucket &B : buckets())
      if (uint64_t Rem = NumElements % B.Skip)
        evalEachCursor(B, NumElements, Rem);

    // Flush the pending runs and finalize the per-config outputs.
    for (Cursor &C : Cursors) {
      if (C.RunStart != NumElements)
        C.Run->States.append(C.RunState, NumElements - C.RunStart);
      finalizeAnchoredPhases(*C.Run, *C.Anchored);
      if (C.Sh)
        releaseShard(C.Sh);
      C.Sh = nullptr;
    }
    Shared.K.clearAttached(Left);
  }

private:
  void setupGroup(const std::vector<DetectorConfig> &Configs,
                  const std::vector<size_t> &Members,
                  std::vector<DetectorRun> &Runs) {
    const DetectorConfig &First = Configs[Members.front()];
    assert(First.Model == M && "config does not match this engine's model");
    CW = First.Window.CWSize;
    TW = First.Window.TWSize;
    assert(CW > 0 && "current window must be nonempty");
    assert(TW > 0 && "trailing window must be nonempty");

    Shared.K.reset();
    Shared.Base = Shared.TWLen = Shared.CWLen = 0;
    SimPos = AnchorPos[0] = AnchorPos[1] = UINT64_MAX;
    assert(ActiveShards.empty() && "shards must not leak across runs");

    Cursors.clear();
    Cursors.reserve(Members.size());
    NumBuckets = 0;
    CountLeft = false;
    if (AnchoredPool.size() < Members.size())
      AnchoredPool.resize(Members.size());

    for (size_t I = 0; I != Members.size(); ++I) {
      const DetectorConfig &Config = Configs[Members[I]];
      assert(sharedScanKey(Config) == sharedScanKey(First) &&
             "group members must share one window-kernel shape");
      Cursor C;
      C.Skip = Config.Window.SkipFactor;
      assert(C.Skip > 0 && "skip factor must be positive");
      C.Analyzer = Config.TheAnalyzer;
      C.Policy = Config.Window.TWPolicy;
      C.Anchor = Config.Window.Anchor;
      C.Resize = Config.Window.Resize;
      C.P0 = Config.AnalyzerParam;
      C.P1 = Config.TheAnalyzer == AnalyzerKind::Hysteresis
                 ? hysteresisExitThreshold(Config.AnalyzerParam)
                 : 0.0;
      C.ResyncAt = static_cast<uint64_t>(CW) + TW;
      C.Run = &Runs[I];
      C.Run->clear();
      C.Anchored = &AnchoredPool[I];
      C.Anchored->clear();
      CountLeft |= C.Policy == TWPolicyKind::Adaptive;

      // Within the reservation above: cohorts, sleepers and Solo hold
      // pointers into Cursors.
      Cursors.push_back(C);
      Cursor *Ptr = &Cursors.back();
      // Every cursor starts in the initial fill's countdown.
      Bucket &B = bucketFor(C.Skip);
      if (C.Analyzer == AnalyzerKind::Hysteresis || !std::isfinite(C.P0))
        B.Solo.push_back(Ptr);
      else
        sleep(B, *Ptr);
    }
  }

  std::span<Bucket> buckets() { return {Buckets.data(), NumBuckets}; }

  /// The bucket for \p Skip, reusing a previous group's bucket arrays.
  Bucket &bucketFor(uint64_t Skip) {
    for (Bucket &B : buckets())
      if (B.Skip == Skip)
        return B;
    if (NumBuckets == Buckets.size())
      Buckets.emplace_back();
    Bucket &B = Buckets[NumBuckets++];
    B.Skip = Skip;
    B.NextEval = Skip;
    B.NumCohorts = 0;
    B.Sleepers.clear();
    B.SleepHead = 0;
    B.NextWake = UINT64_MAX;
    B.Solo.clear();
    return B;
  }

  /// The shared similarity at evaluation position \p N, computed once
  /// and fanned out to every cursor.
  OPD_FORCE_INLINE double sharedSim(uint64_t N) {
    if (SimPos != N) {
      Sim = Shared.K.similarity();
      SimPos = N;
    }
    return Sim;
  }

  /// The anchor position (TW index) of \p Kind on the shared window at
  /// position \p N, memoized per evaluation position — cursors entering
  /// a phase at the same position share the scan.
  uint64_t anchor(AnchorKind Kind, uint64_t N) {
    size_t Slot = Kind == AnchorKind::RightmostNoisy ? 0 : 1;
    if (AnchorPos[Slot] != N) {
      assert(Shared.end() == N && Shared.TWLen == TW && "window not full yet");
      AnchorVal[Slot] = Shared.anchor(Elements, Kind);
      AnchorPos[Slot] = N;
    }
    return AnchorVal[Slot];
  }

  /// The active, unmerged shard other than \p Except with TW start
  /// \p Base whose CW length at \p N equals that of a shard whose CW is
  /// full from \p FullAt on, or null. A shard's windows at \p N are TW =
  /// [Base, N - CWLen), CW = [N - CWLen, N), and every kernel decision is
  /// a function of those two count vectors, so such a shard is
  /// interchangeable with any other holding the same windows.
  Shard *findShard(uint64_t Base, uint64_t FullAt, uint64_t N,
                   const Shard *Except) const {
    for (Shard *S : ActiveShards)
      if (S != Except && !S->Into && S->Base == Base &&
          std::max(S->FullAt, N) == std::max(FullAt, N))
        return S;
    return nullptr;
  }

  /// Forks or joins the shard for a phase opening at \p N with anchor
  /// value \p A under \p Resize.
  Shard *acquireShard(uint64_t N, uint64_t A, ResizeKind Resize) {
    // The windows startPhase builds: the TW prefix up to the anchor
    // dropped, then (Slide) Take elements moved from the CW's front.
    uint64_t Base = N - CW - TW + A;
    uint64_t Take = Resize == ResizeKind::Slide ? std::min<uint64_t>(A, CW) : 0;
    if (Shard *S = findShard(Base, N + Take, N, nullptr)) {
      ++S->Refs;
      ++Counters.ShardJoins;
      S = shardAt(S, N);
      assert(S->Base == Base &&
             (S->attached() ? S->TW.NTW == TW - A
                            : S->W.TWLen == TW - A + Take &&
                                  S->W.CWLen == CW - Take) &&
             "a joined shard must hold the windows a fork would build");
      return S;
    }

    Shard *S;
    if (!FreeShards.empty()) {
      S = FreeShards.back();
      FreeShards.pop_back();
    } else {
      ShardPool.push_back(std::make_unique<Shard>(Sites));
      S = ShardPool.back().get();
    }
    ++Counters.ShardsForked;
    S->Base = Base;
    S->FullAt = N + Take;
    S->Refs = 1;
    ActiveShards.push_back(S);
    if (Take == 0) {
      attach(*S, N);
    } else {
      // Seed from the shared windows (the entering cursor's windows are
      // the shared ones: phase entry only happens synced), then apply
      // startPhase's anchor resize.
      S->W = Shared;
      S->W.resizeForPhase(Elements, A, /*Slide=*/true);
      S->LastPos = N;
    }
    return S;
  }

  /// Makes \p S attached at \p N, its CW the group window's. Left
  /// minus the group TW counts E[0, N - CW - TW); the elements from
  /// there to Base are put in, or those from Base on taken out, which
  /// gives the snapshot of E[0, Base): the shard's TW [Base, N - CW) is
  /// Left minus it.
  void attach(Shard &S, uint64_t N) {
    assert(Shared.end() == N && Shared.TWLen == TW && "window not full yet");
    assert(CountLeft && "only adaptive cursors open shards");
    Shared.K.attachTW(S.TW, Left.data());
    uint32_t *Prefix = S.TW.Prefix.data();
    for (uint64_t Q = Shared.Base; Q < S.Base; ++Q)
      ++Prefix[Shared.K.attachedIndex(Elements[Q])];
    for (uint64_t Q = S.Base; Q < Shared.Base; ++Q)
      --Prefix[Shared.K.attachedIndex(Elements[Q])];
    S.TW.NTW = N - CW - S.Base;
    S.LastPos = N;
  }

  /// Counts into Left the elements that left the group CW as the scan
  /// moved from \p From to \p To: Left holds E[0, To - CW) after.
  void countLeft(uint64_t From, uint64_t To) {
    uint32_t *L = Left.data();
    for (uint64_t Q = From > CW ? From - CW : 0, E = To > CW ? To - CW : 0;
         Q < E; ++Q)
      ++L[Shared.K.attachedIndex(Elements[Q])];
  }

  /// Drops \p Count references to \p S, freeing it at zero.
  void releaseShard(Shard *S, uint32_t Count = 1) {
    assert(S->Refs >= Count && "releasing an unreferenced shard");
    S->Refs -= Count;
    if (S->Refs != 0)
      return;
    if (S->Into) {
      releaseShard(S->Into);
      S->Into = nullptr;
    }
    Shared.K.clearAttached(S->TW.Prefix);
    // Swap-erase: shards are independent, order is irrelevant.
    auto It = std::find(ActiveShards.begin(), ActiveShards.end(), S);
    assert(It != ActiveShards.end() && "released shard not active");
    *It = ActiveShards.back();
    ActiveShards.pop_back();
    FreeShards.push_back(S);
  }

  /// Advances \p S to position \p N with the in-phase consume, which
  /// grows the TW by the element leaving the CW at every position. An
  /// attached shard's CW is the group window's and its TW is read off
  /// Left, both already at \p N, so only its TW length moves.
  OPD_FORCE_INLINE void advanceShard(Shard &S, uint64_t N) {
    Counters.ShardSteps += N - S.LastPos;
    if (!S.attached()) {
      refill(S, N);
      return;
    }
    S.TW.NTW += N - S.LastPos;
    S.LastPos = N;
  }

  /// Advances refilling shard \p S to \p N. Before FullAt its own
  /// windows take the elements (CW adds only: the TW does not move while
  /// the CW refills). From FullAt on its windows are an attached shard's,
  /// the one point after entry where two shards with the same Base
  /// converge: \p S links to its attached twin if one is live, or else
  /// attaches itself at \p N.
  OPD_NOINLINE void refill(Shard &S, uint64_t N) {
    if (N < S.FullAt) {
      S.W.advance(Elements, N - S.LastPos, CW, TW, /*Grow=*/true);
      S.LastPos = N;
      return;
    }
    S.Into = findShard(S.Base, S.FullAt, N, &S);
    if (S.Into)
      ++S.Into->Refs;
    else
      attach(S, N);
  }

  /// Advances shard \p S to \p N and moves \p Refs references on it (one
  /// per cursor reading it) along any refill merges; returns the shard
  /// they end on. A merged shard is not advanced again: its twin holds
  /// the same windows from the merge on.
  Shard *shardAt(Shard *S, uint64_t N, uint32_t Refs = 1) {
    for (;;) {
      if (!S->Into)
        advanceShard(*S, N);
      Shard *T = S->Into;
      if (!T)
        return S;
      T->Refs += Refs;
      releaseShard(S, Refs);
      Counters.RefillMerges += Refs;
      S = T;
    }
  }

  /// The order a cohort in \p State hands its members to the per-cursor
  /// path: ascending rank, the back flipping first. In phase the highest
  /// threshold leaves first; otherwise the lowest threshold enters first
  /// and the smallest Average delta leaves first.
  static double flipRank(const Cursor &C, PhaseState State) {
    return State == PhaseState::InPhase &&
                   C.Analyzer == AnalyzerKind::Threshold
               ? C.P0
               : -C.P0;
  }

  /// Puts refilling cursor \p C to sleep in \p B until the first
  /// evaluation position at or after its ResyncAt.
  void sleep(Bucket &B, Cursor &C) {
    C.WakeAt = (C.ResyncAt + B.Skip - 1) / B.Skip * B.Skip;
    auto It = std::upper_bound(
        B.Sleepers.begin() + B.SleepHead, B.Sleepers.end(), C.WakeAt,
        [](uint64_t Wake, const Cursor *S) { return Wake < S->WakeAt; });
    B.Sleepers.insert(It, &C);
    B.NextWake = B.Sleepers[B.SleepHead]->WakeAt;
  }

  /// Files cursor \p C, just evaluated or woken at \p N, where its
  /// next evaluation finds it: asleep, or in the cohort of its source,
  /// analyzer and state (created if none is live).
  void fileCursor(Bucket &B, Cursor &C, uint64_t N) {
    if (C.State == PhaseState::Transition && N < C.ResyncAt) {
      sleep(B, C);
      return;
    }
    // A cursor filed in phase entered at N; Average cohorts hold the
    // stats of one entry position.
    uint64_t Entry = C.State == PhaseState::InPhase &&
                             C.Analyzer == AnalyzerKind::Average
                         ? N
                         : 0;
    Cohort *K = nullptr;
    for (size_t I = 0; I != B.NumCohorts && !K; ++I) {
      Cohort &Cand = B.Cohorts[I];
      if (Cand.Source == C.Sh && Cand.Analyzer == C.Analyzer &&
          Cand.State == C.State && Cand.EntryPos == Entry)
        K = &Cand;
    }
    if (!K) {
      if (B.NumCohorts == B.Cohorts.size())
        B.Cohorts.emplace_back();
      K = &B.Cohorts[B.NumCohorts++];
      K->Source = C.Sh;
      K->Analyzer = C.Analyzer;
      K->State = C.State;
      K->EntryPos = Entry;
      K->Stats = C.Stats;
      K->Members.clear();
    }
    double Rank = flipRank(C, K->State);
    auto It = std::upper_bound(
        K->Members.begin(), K->Members.end(), Rank,
        [&](double R, const Cursor *X) { return R < flipRank(*X, K->State); });
    K->Members.insert(It, &C);
    K->Head = K->Members.back()->P0;
  }

  /// One evaluation of bucket \p B at \p N (a full batch of B.Skip
  /// elements): wakes the sleepers due, settles each cohort with one
  /// check plus one evaluation per member that flips, evaluates the Solo
  /// cursors, then files the flipped cursors for their next evaluation.
  /// Only the shard advance and the stay-checks are inline; the rare
  /// paths (wake-ups, flips, merges, filing) are out of line, which
  /// keeps the scan loop small.
  /// Adds the stay-checks of the loop to \p Checks (flipMembers counts
  /// its own): a counter in memory, bumped per check, slows the scan
  /// loop measurably.
  OPD_FORCE_INLINE void evalBucket(Bucket &B, uint64_t N, uint64_t &Checks) {
    if (B.NextWake <= N)
      wakeSleepers(B, N);
    Checks += B.NumCohorts;
    for (size_t I = 0; I != B.NumCohorts; ++I) {
      Cohort &K = B.Cohorts[I];
      if (Shard *S = K.Source) {
        if (S->LastPos != N && !S->Into)
          advanceShard(*S, N);
        if (S->Into)
          followMerge(K, N);
      }
      if (!stays(K, N))
        flipMembers(K, N, B.Skip);
    }
    for (Cursor *C : B.Solo)
      evalCursor(*C, N, B.Skip);
    if (!Flipped.empty())
      fileFlipped(B, N);
  }

  /// Files the sleepers of \p B whose refill is over by \p N.
  OPD_NOINLINE void wakeSleepers(Bucket &B, uint64_t N) {
    while (B.SleepHead != B.Sleepers.size() &&
           B.Sleepers[B.SleepHead]->WakeAt <= N)
      fileCursor(B, *B.Sleepers[B.SleepHead++], N);
    if (B.SleepHead == B.Sleepers.size()) {
      B.Sleepers.clear();
      B.SleepHead = 0;
      B.NextWake = UINT64_MAX;
    } else {
      B.NextWake = B.Sleepers[B.SleepHead]->WakeAt;
    }
  }

  /// Moves cohort \p K, whose shard has refilled into its twin, to the
  /// twin at \p N — the whole cohort at once (it stays apart from any
  /// cohort already there).
  OPD_NOINLINE void followMerge(Cohort &K, uint64_t N) {
    K.Source = shardAt(K.Source, N, static_cast<uint32_t>(K.Members.size()));
  }

  /// The stay-check of cohort \p K at \p N: whether its first member
  /// keeps its state, in which case every member provably does (and an
  /// Average cohort takes the one stats update for all). It reads the
  /// cohort alone; no member is touched.
  OPD_FORCE_INLINE bool stays(Cohort &K, uint64_t N) {
    assert(!K.Members.empty() && "live cohorts are nonempty");
    double SimHere = 0.0;
    if (decideOn(K.Source, K.Analyzer, K.Head, K.Stats, N, SimHere) !=
        K.State)
      return false;
    if (K.State == PhaseState::InPhase && K.Analyzer == AnalyzerKind::Average)
      updateStats(K.Stats, SimHere);
    return true;
  }

  /// Gives member \p C of \p K the source and stats the cohort holds
  /// for all its members.
  static void syncMember(const Cohort &K, Cursor &C) {
    C.Sh = K.Source;
    C.Stats = K.Stats;
  }

  /// Hands the first members of \p K to evalCursor (onto Flipped) while
  /// they flip; called once the first has failed its stay-check.
  OPD_NOINLINE void flipMembers(Cohort &K, uint64_t N, uint64_t L) {
    do {
      Cursor *C = K.Members.back();
      K.Members.pop_back();
      syncMember(K, *C);
      evalCursor(*C, N, L);
      Flipped.push_back(C);
      if (K.Members.empty())
        return;
      K.Head = K.Members.back()->P0;
    } while (++Counters.CohortChecks, !stays(K, N));
  }

  /// Retires the cohorts the flips of this evaluation emptied (keeping
  /// their member arrays as spares), then files the flipped cursors.
  OPD_NOINLINE void fileFlipped(Bucket &B, uint64_t N) {
    for (size_t I = 0; I < B.NumCohorts;) {
      if (B.Cohorts[I].Members.empty())
        std::swap(B.Cohorts[I], B.Cohorts[--B.NumCohorts]);
      else
        ++I;
    }
    for (Cursor *C : Flipped)
      fileCursor(B, *C, N);
    Flipped.clear();
  }

  /// The position after \p Pos at which \p B evaluates next: one stride
  /// on, or, when every cursor in it sleeps, the first wake-up.
  uint64_t nextEval(const Bucket &B, uint64_t Pos) const {
    uint64_t Next = Pos + B.Skip;
    if (B.NumCohorts == 0 && B.Solo.empty())
      Next = std::max(Next, B.NextWake);
    return Next;
  }

  /// Evaluates every cursor of \p B one by one at \p N over \p L
  /// elements (the trailing short batch; nothing is filed afterwards).
  /// Cohort members have been synced.
  void evalEachCursor(Bucket &B, uint64_t N, uint64_t L) {
    for (Cohort &K : std::span(B.Cohorts.data(), B.NumCohorts))
      for (Cursor *C : K.Members)
        evalCursor(*C, N, L);
    for (size_t I = B.SleepHead; I != B.Sleepers.size(); ++I)
      evalCursor(*B.Sleepers[I], N, L);
    for (Cursor *C : B.Solo)
      evalCursor(*C, N, L);
  }

  /// Whether shard \p S, advanced to the scan position, has both windows
  /// nonempty: the in-phase windowsFull(). An anchor drop that emptied
  /// the TW (Move) or a slide that emptied the CW fails it.
  static bool shardFull(const Shard &S) {
    return S.attached() ? S.TW.NTW != 0 : S.W.TWLen != 0 && S.W.CWLen != 0;
  }

  /// The similarity of shard \p S, advanced to the scan position.
  OPD_FORCE_INLINE double shardSim(Shard &S) {
    return S.attached() ? Shared.K.attachedSimilarity(S.TW, Left.data())
                        : S.W.K.similarity();
  }

  /// similarity() >= T on shard \p S, advanced to the scan position:
  /// the kernel-side decision, whose envelope defers the dirty
  /// recomputes the raw similarity would force.
  OPD_FORCE_INLINE bool shardAtLeast(Shard &S, double T) {
    return S.attached()
               ? Shared.K.attachedSimilarityAtLeast(S.TW, Left.data(), T)
               : S.W.K.similarityAtLeast(T);
  }

  /// The state a Threshold or Average evaluation at \p N decides off
  /// source \p Src (a shard advanced to \p N, or null for the shared
  /// kernel) with parameter \p P and Average stats \p Stats — the
  /// decision of FastPhaseDetector::processBatchInline, with the phase
  /// edges and run accounting left to evalCursor. Sets \p SimHere to the
  /// similarity an Average decision read. The one decision function:
  /// cohort stay-checks and per-cursor evaluations both call it.
  OPD_FORCE_INLINE PhaseState decideOn(Shard *Src, AnalyzerKind Analyzer,
                                       double P, const MeanStats &Stats,
                                       uint64_t N, double &SimHere) {
    if (Src) {
      // Adaptive, in phase: decide off the shard.
      if (!shardFull(*Src))
        return PhaseState::Transition;
      if (Analyzer == AnalyzerKind::Threshold)
        return shardAtLeast(*Src, P) ? PhaseState::InPhase
                                     : PhaseState::Transition;
      SimHere = shardSim(*Src);
    } else {
      // Synced (constant cursors in or out of phase; adaptive out of
      // phase): decide off the shared kernel, one similarity for all.
      SimHere = sharedSim(N);
      if (Analyzer == AnalyzerKind::Threshold)
        return SimHere >= P ? PhaseState::InPhase : PhaseState::Transition;
    }
    return averageDecide(Stats, P, SimHere);
  }

  /// The state an evaluation of \p C at \p N decides: decideOn() for
  /// the cursor, after the refill countdown and the shard's advance, or
  /// the cursor's own Hysteresis state.
  OPD_FORCE_INLINE PhaseState decide(Cursor &C, uint64_t N,
                                     double &SimHere) {
    if (C.State == PhaseState::Transition && N < C.ResyncAt)
      // Refilling after a flush: windows provably not full — forced
      // Transition, and the analyzer is NOT consulted (the hysteresis
      // state must survive untouched).
      return PhaseState::Transition;
    // Most evaluations find the shard already advanced here by another
    // cursor.
    if (C.Sh && (C.Sh->LastPos != N || C.Sh->Into))
      C.Sh = shardAt(C.Sh, N);
    if (C.Analyzer != AnalyzerKind::Hysteresis)
      return decideOn(C.Sh, C.Analyzer, C.P0, C.Stats, N, SimHere);
    if (!C.Sh)
      return hysteresisDecide(C, sharedSim(N));
    if (!shardFull(*C.Sh))
      return PhaseState::Transition;
    return hysteresisDecide(C, shardSim(*C.Sh));
  }

  /// One evaluation of \p C at position \p N covering \p L elements —
  /// the cursor replica of FastPhaseDetector::processBatchInline plus
  /// consumeTrace's run accumulation.
  void evalCursor(Cursor &C, uint64_t N, uint64_t L) {
    ++Counters.CursorEvaluations;
    double SimHere = 0.0;
    PhaseState New = decide(C, N, SimHere);

    // Phase edges, in processBatchInline's order.
    if (C.State == PhaseState::Transition && New == PhaseState::InPhase) {
      uint64_t A = anchor(C.Anchor, N);
      C.LastAnchor = N - CW - TW + A;
      if (C.Policy == TWPolicyKind::Adaptive)
        C.Sh = acquireShard(N, A, C.Resize);
      if (C.Analyzer == AnalyzerKind::Average)
        C.Stats = MeanStats();
    } else if (C.State == PhaseState::InPhase &&
               New == PhaseState::InPhase &&
               C.Analyzer == AnalyzerKind::Average) {
      updateStats(C.Stats, SimHere);
    }
    if (C.State == PhaseState::InPhase && New == PhaseState::Transition) {
      // endPhase: the seed kept is min(skip, CWSize, window length);
      // refill completes (CWSize - Keep) + TWSize elements later. A
      // shard's windows at N are [Base, N).
      uint64_t WindowLen = C.Sh ? N - C.Sh->Base : CW + TW;
      uint64_t Keep = std::min<uint64_t>(
          std::min<uint64_t>(C.Skip, CW), WindowLen);
      C.ResyncAt = N + (CW - Keep) + TW;
      if (C.Sh) {
        releaseShard(C.Sh);
        C.Sh = nullptr;
      }
      if (C.Analyzer == AnalyzerKind::Average)
        C.Stats = MeanStats();
    }

    // Run accumulation, as consumeTrace: the batch is [N - L, N), and
    // the pending run covers every batch before it since RunStart.
    if (New != C.RunState) {
      uint64_t Begin = N - L;
      if (C.RunState == PhaseState::Transition &&
          New == PhaseState::InPhase)
        C.Anchored->push_back(C.LastAnchor);
      if (Begin != C.RunStart)
        C.Run->States.append(C.RunState, Begin - C.RunStart);
      C.RunState = New;
      C.RunStart = Begin;
    }
    C.State = New;
  }

  /// FastAverageAnalyzer::processValue over \p Stats with delta \p
  /// Delta (the sweep path never sets an entry threshold, so an
  /// empty-stats evaluation opens a phase unconditionally).
  static PhaseState averageDecide(const MeanStats &Stats, double Delta,
                                  double Similarity) {
    if (Stats.N == 0)
      return PhaseState::InPhase;
    return Similarity >= Stats.Mean - Delta ? PhaseState::InPhase
                                            : PhaseState::Transition;
  }

  /// FastHysteresisAnalyzer::processValue over the cursor's state.
  static PhaseState hysteresisDecide(Cursor &C, double Similarity) {
    double Threshold =
        C.HystState == PhaseState::InPhase ? C.P1 : C.P0;
    C.HystState = Similarity >= Threshold ? PhaseState::InPhase
                                          : PhaseState::Transition;
    return C.HystState;
  }

  /// FastMeanStats::push — the identical Welford mean update.
  static void updateStats(MeanStats &S, double Similarity) {
    ++S.N;
    S.Mean += (Similarity - S.Mean) / static_cast<double>(S.N);
  }

  // Shared free-running windows over the trace, and their sizes.
  KernelWindows<Kernel> Shared;
  SiteIndex Sites;
  uint64_t CW = 0;
  uint64_t TW = 0;
  /// The counts of E[0, p - CW), the elements that have left the group
  /// CW by scan position p (AttachedTW layout): attached shards read
  /// their TW off it. Kept only while the group has an adaptive cursor
  /// (CountLeft), and zero between runs.
  std::vector<uint32_t> Left;
  bool CountLeft = false;

  // The trace being scanned (valid during run()).
  const SiteIndex *Elements = nullptr;
  size_t NumElements = 0;

  // Per-evaluation-position memoization: each value and the position it
  // was taken at.
  uint64_t SimPos = UINT64_MAX;
  double Sim = 0.0;
  uint64_t AnchorPos[2] = {UINT64_MAX, UINT64_MAX};
  uint64_t AnchorVal[2] = {0, 0};

  // Cursors and their stride buckets (rebuilt per group, capacity kept:
  // Buckets[0, NumBuckets) are this group's).
  std::vector<Cursor> Cursors;
  std::vector<Bucket> Buckets;
  size_t NumBuckets = 0;
  std::vector<std::vector<uint64_t>> AnchoredPool;
  /// Cursors that flipped in the current evaluation, to be filed.
  std::vector<Cursor *> Flipped;

  // Shard storage: ShardPool owns, Active/Free partition the pointers.
  std::vector<std::unique_ptr<Shard>> ShardPool;
  std::vector<Shard *> ActiveShards;
  std::vector<Shard *> FreeShards;
};

} // namespace

std::unique_ptr<SharedScanEngineBase>
opd::makeSharedScanEngine(ModelKind Model, SiteIndex NumSites) {
  switch (Model) {
  case ModelKind::UnweightedSet:
    return std::make_unique<SharedScanEngine<ModelKind::UnweightedSet>>(
        NumSites);
  case ModelKind::WeightedSet:
    return std::make_unique<SharedScanEngine<ModelKind::WeightedSet>>(
        NumSites);
  case ModelKind::ManhattanBBV:
    return std::make_unique<SharedScanEngine<ModelKind::ManhattanBBV>>(
        NumSites);
  }
  return nullptr;
}
