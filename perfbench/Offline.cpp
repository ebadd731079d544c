//===- perfbench/Offline.cpp - The two offline workloads ------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// sweep: the pruned paper cross product (10,080 configs) over one seeded
// jess trace through runSweep, scored at the six standard MPLs. A seeded
// sample of configs is re-run through the fast detector and scored again;
// the scores must match runSweep's bit for bit.
//
// trace_oracle: Table 1 at the paper's trace scale. Every pass compiles
// and interprets the eight bundled workloads (seeded, about 69M branches
// in total), builds the oracle at the seven extended MPLs and scores one
// fixed fast-path detector run per workload. The set-up passes and every
// timed pass must repeat the same trace, oracle and score digests and keep
// the Table 1 invariants.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/ConfigAnalysis.h"
#include "analysis/KernelBounds.h"
#include "baseline/BaselineSolution.h"
#include "core/FastDetector.h"
#include "core/SharedScan.h"
#include "harness/Experiment.h"
#include "harness/Sweep.h"
#include "metrics/Scoring.h"
#include "support/Parallel.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <random>

using namespace opd;
using namespace perfbench;

namespace {

double median(std::vector<double> V) { return summarize(std::move(V)).Median; }

/// The end-to-end record of an offline job whose untraced passes took
/// \p Passes seconds and decided \p ElementsPerPass elements each. A pass
/// returns all its results at once, so it is both the job's session and
/// the ack of every result in it.
void recordOfflineJob(Record &R, double SetupS,
                      const std::vector<double> &Passes,
                      double ElementsPerPass, double RssMb) {
  std::vector<double> Ms, Us;
  for (double Sec : Passes) {
    Ms.push_back(Sec * 1e3);
    Us.push_back(Sec * 1e6);
  }
  double Job = median(Passes);
  R.endToEnd(SetupS, Job, ElementsPerPass / Job / 1e6,
             summarize(Ms, PassChunk), summarize(Us, PassChunk), RssMb);
}

uint64_t digestScore(const AccuracyScore &S, uint64_t H) {
  H = fnv1a(&S.Correlation, sizeof(double), H);
  H = fnv1a(&S.Sensitivity, sizeof(double), H);
  H = fnv1a(&S.FalsePositives, sizeof(double), H);
  H = fnv1a(&S.Score, sizeof(double), H);
  H = fnv1a(&S.MatchedBoundaries, sizeof(uint64_t), H);
  H = fnv1a(&S.BaselineBoundaries, sizeof(uint64_t), H);
  return fnv1a(&S.DetectedBoundaries, sizeof(uint64_t), H);
}

bool sameScores(const std::vector<AccuracyScore> &A,
                const std::vector<AccuracyScore> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (digestScore(A[I], 0) != digestScore(B[I], 0))
      return false;
  return true;
}

/// A word-at-a-time multiplicative digest; fast enough to hash a 15M
/// element trace outside the timed region without dominating the run.
uint64_t digestWords(const uint32_t *P, size_t N, uint64_t H) {
  for (size_t I = 0; I != N; ++I)
    H = (H ^ P[I]) * 0x100000001b3ULL + (H >> 29);
  return H;
}

//===----------------------------------------------------------------------===//
// sweep
//===----------------------------------------------------------------------===//

struct SweepInput {
  BranchTrace Trace;
  std::vector<BaselineSolution> Baselines;
  std::vector<DetectorConfig> Configs;
  uint64_t Events = 0;
  uint64_t Phases = 0;
};

SweepInput prepareSweep(const Options &O, Tracer *T) {
  SweepInput In;
  ExecutionResult Exec =
      generateTrace(seededWorkload("jess", O.Seed), O.Smoke ? 0.1 : 1.0, T);
  {
    Span S(T, "baseline", "computeBaselines");
    In.Baselines =
        computeBaselines(Exec.CallLoop, Exec.Branches.size(), StandardMPLs);
  }
  for (const BaselineSolution &B : In.Baselines)
    In.Phases += B.numPhases();
  In.Events = Exec.CallLoop.size();
  In.Trace = std::move(Exec.Branches);
  In.Configs = enumerateCrossProduct(paperCrossSpec());
  if (O.Smoke) {
    std::vector<DetectorConfig> Few;
    for (size_t I = 0; I < In.Configs.size(); I += 97)
      Few.push_back(In.Configs[I]);
    In.Configs = std::move(Few);
  }
  return In;
}

SweepOptions sweepOptions() {
  SweepOptions Opts;
  Opts.Prune = true;
  return Opts;
}

uint64_t digestRuns(const std::vector<RunScores> &Runs) {
  uint64_t H = 1469598103934665603ULL;
  for (const RunScores &R : Runs)
    for (const AccuracyScore &S : R.PerMPL)
      H = digestScore(S, H);
  return H;
}

/// Re-runs a seeded sample of configs through the fast detector and
/// scoreDetection; returns how many differ from \p Runs.
size_t checkSweepSample(const Options &O, const SweepInput &In,
                        const std::vector<RunScores> &Runs, size_t Samples) {
  std::mt19937_64 Rng(O.Seed * 7919 + 17);
  size_t Mismatches = 0;
  for (size_t K = 0; K != Samples; ++K) {
    size_t I = size_t(Rng() % In.Configs.size());
    std::unique_ptr<FastDetectorBase> D =
        makeFastDetector(In.Configs[I], In.Trace.numSites());
    DetectorRun Run;
    runDetector(*D, In.Trace, Run);
    std::vector<AccuracyScore> Expected;
    for (const BaselineSolution &B : In.Baselines)
      Expected.push_back(scoreDetection(Run.States, B.states()));
    if (O.InjectMismatch && K == 0)
      Expected[0].Score += 1.0;
    if (!(Runs[I].Config == In.Configs[I]) ||
        !sameScores(Expected, Runs[I].PerMPL))
      ++Mismatches;
  }
  return Mismatches;
}

/// runSweep's default execution plan, called layer by layer on one
/// thread with a span around each call: partitionConfigs, planSharedScan,
/// the group's KernelBounds admission, SharedScanEngineBase::run, and
/// scoreDetection. Fills \p Results like runSweep (representatives only,
/// fanned out to their classes).
void decomposedSweep(const SweepInput &In, Tracer *T,
                     std::vector<RunScores> &Results, size_t &NumGroups,
                     size_t &NumReps) {
  Results.assign(In.Configs.size(), RunScores());
  ConfigPartition Partition;
  {
    Span S(T, "analysis", "partitionConfigs");
    ConfigCanonOptions Canon;
    Canon.AnchoredScoring = false;
    Partition = partitionConfigs(In.Configs, Canon);
  }
  std::vector<DetectorConfig> Planned;
  for (const ConfigClass &C : Partition.Classes)
    Planned.push_back(In.Configs[C.Representative]);
  SharedScanPlan Plan;
  {
    Span S(T, "core", "planSharedScan");
    Plan = planSharedScan(Planned);
  }
  NumGroups = Plan.Groups.size();
  NumReps = Planned.size();

  TraceBounds Bounds;
  Bounds.TraceLen = In.Trace.size();
  Bounds.NumSites = In.Trace.numSites();
  std::array<std::unique_ptr<SharedScanEngineBase>, 3> Engines;
  std::vector<DetectorRun> Runs;
  for (size_t GI = 0; GI != Plan.Groups.size(); ++GI) {
    const SharedScanGroup &G = Plan.Groups[GI];
    std::unique_ptr<SharedScanEngineBase> &Engine =
        Engines[size_t(G.Key.Model)];
    if (!Engine)
      Engine = makeSharedScanEngine(G.Key.Model, In.Trace.numSites());
    bool Admitted = true;
    {
      Span S(T, "analysis", "certifyKernel", GI + 1);
      for (size_t Member : G.Members)
        Admitted = Admitted &&
                   admitsBatchLanes(certifyKernel(Planned[Member], Bounds));
    }
    Engine->setBatchKernels(Admitted);
    if (Runs.size() < G.Members.size())
      Runs.resize(G.Members.size());
    {
      Span S(T, "core", "SharedScanEngine::run", GI + 1);
      Engine->run(Planned, G.Members, In.Trace.elements().data(),
                  In.Trace.size(), Runs);
    }
    Span S(T, "metrics", "scoreDetection", GI + 1);
    for (size_t I = 0; I != G.Members.size(); ++I) {
      RunScores &R = Results[Partition.Classes[G.Members[I]].Representative];
      R.Config = Planned[G.Members[I]];
      for (const BaselineSolution &B : In.Baselines)
        R.PerMPL.push_back(scoreDetection(Runs[I].States, B.states()));
    }
  }
  for (const ConfigClass &C : Partition.Classes)
    for (size_t Member : C.Members)
      if (Member != C.Representative) {
        Results[Member].PerMPL = Results[C.Representative].PerMPL;
        Results[Member].Config = In.Configs[Member];
      }
}

/// The single-thread half of the traced sweep (run under OPD_THREADS=1):
/// one runSweep pass for the harness's own share, and the decomposed
/// pass for the layer spans.
bool sweepSingleThread(const Options &O, const SweepInput &In, Record &R) {
  Tracer T;
  std::vector<RunScores> Runs;
  SweepStats Stats;
  {
    Span S(&T, "harness", "runSweep");
    Runs = runSweep(In.Trace, In.Baselines, In.Configs, sweepOptions(), &Stats);
  }
  double SweepSeconds = T.totalSeconds("runSweep");

  Tracer Layers;
  std::vector<RunScores> Decomposed;
  size_t Groups = 0, Reps = 0;
  decomposedSweep(In, &Layers, Decomposed, Groups, Reps);

  size_t Mismatches = 0;
  for (size_t I = 0; I != Runs.size(); ++I)
    if (!sameScores(Runs[I].PerMPL, Decomposed[I].PerMPL))
      ++Mismatches;
  R.Attempted += Runs.size();
  R.Failed += Mismatches;

  std::map<std::string, double> Self = Layers.selfSeconds();
  double LayerSeconds = Self["analysis"] + Self["core"] + Self["metrics"];
  R.metric("harness.sweep_1t_s", SweepSeconds, "s");
  R.metric("harness.self_s", std::max(0.0, SweepSeconds - LayerSeconds), "s");
  R.metric("analysis.partition_s", Layers.totalSeconds("partitionConfigs"),
           "s");
  R.metric("core.plan_s", Layers.totalSeconds("planSharedScan"), "s");
  R.metric("core.sharedscan_s", Layers.totalSeconds("SharedScanEngine::run"),
           "s");
  R.metric("core.sharedscan_groups", double(Groups), "count");
  R.metric("core.cursors_per_group", Groups ? double(Reps) / double(Groups) : 0,
           "count");
  R.metric("metrics.score_s", Layers.totalSeconds("scoreDetection"), "s");
  R.metric("metrics.scorings", double(Reps * In.Baselines.size()), "count");
  R.metric("trace.span_coverage", LayerSeconds / SweepSeconds, "ratio");
  R.metric("trace.spans", double(T.size() + Layers.size()), "count");
  Layers.dump(O.OutDir + "/spans_sweep_single.jsonl");
  return true;
}

} // namespace

bool perfbench::runSweepWorkload(const Options &O, Record &R) {
  // Set-up is repeated and its median reported, so that work moved into
  // set-up shows against a steady figure. The repetitions come in rounds,
  // one before the first pass and one after each pass: a slow spell of a
  // shared host lasts a second or more and would move one batch of
  // back-to-back set-ups (a few tens of ms each) as a whole.
  constexpr size_t SetupRepsPerRound = 3;
  Tracer SetupSpans;
  std::vector<double> SetupTimes;
  SweepInput In;
  auto SetUp = [&] {
    for (size_t Rep = 0; Rep != SetupRepsPerRound; ++Rep) {
      Clock::time_point T0 = Clock::now();
      In = prepareSweep(O, O.Trace ? &SetupSpans : nullptr);
      SetupTimes.push_back(secondsSince(T0));
    }
  };
  SetUp();
  R.info("trace_elements", double(In.Trace.size()));
  R.info("configs", double(In.Configs.size()));
  R.info("mpls", double(In.Baselines.size()));

  if (O.Part == "single")
    return sweepSingleThread(O, In, R);

  // Passes run until the measuring time is used up; with tracing on they
  // alternate untraced and traced so the overhead is a paired figure.
  Tracer T;
  std::vector<double> Untraced, Traced;
  std::vector<RunScores> Runs;
  SweepStats Stats;
  uint64_t FirstDigest = 0;
  size_t DigestMismatches = 0;
  double PeakRss = 0.0;
  Clock::time_point Start = Clock::now();
  for (size_t Pass = 0; Pass == 0 || secondsSince(Start) < O.Seconds ||
                        (O.Trace && Traced.empty());
       ++Pass) {
    bool WithSpans = O.Trace && Pass % 2 == 1;
    Clock::time_point T0 = Clock::now();
    {
      Span S(WithSpans ? &T : nullptr, "harness", "runSweep", Pass);
      Runs = runSweep(In.Trace, In.Baselines, In.Configs, sweepOptions(),
                      &Stats);
    }
    (WithSpans ? Traced : Untraced).push_back(secondsSince(T0));
    uint64_t D = digestRuns(Runs);
    if (Pass == 0) {
      FirstDigest = D;
      // Later passes reuse what the first allocated; their extra peak
      // is allocator noise across worker threads.
      PeakRss = peakRssMb();
    } else if (D != FirstDigest) {
      ++DigestMismatches;
    }
    // The same seed gives the same inputs, so later passes and the
    // sample check below see what the first pass saw.
    SetUp();
  }
  size_t Passes = Untraced.size() + Traced.size();
  size_t Sampled = O.Smoke ? 8 : 32;
  size_t SampleMismatches = checkSweepSample(O, In, Runs, Sampled);
  R.Attempted += Passes + Sampled;
  R.Failed += DigestMismatches + SampleMismatches;
  R.info("passes", double(Passes));
  R.info("runs_executed", double(Stats.RunsExecuted));
  R.info("sample_checked", double(Sampled));

  if (!O.Trace) {
    recordOfflineJob(R, median(SetupTimes), Untraced,
                     double(Stats.RunsExecuted) * double(In.Trace.size()),
                     PeakRss);
    return true;
  }

  R.traceGeneration(SetupSpans, SetupTimes.size(), In.Trace.size(),
                    In.Events);
  R.metric("baseline.oracle_s",
           SetupSpans.totalSeconds("computeBaselines") /
               double(SetupTimes.size()),
           "s");
  R.metric("baseline.phases", double(In.Phases), "count");
  double TracedMedian = median(Traced);
  R.metric("harness.sweep_s", TracedMedian, "s");
  R.metric("harness.sweep_untraced_s", median(Untraced), "s");
  R.metric("analysis.runs_executed_ratio",
           double(Stats.RunsExecuted) / double(In.Configs.size()), "ratio");
  R.metric("trace.overhead_ratio", TracedMedian / median(Untraced), "ratio");
  T.dump(O.OutDir + "/spans_sweep.jsonl");
  return true;
}

//===----------------------------------------------------------------------===//
// trace_oracle
//===----------------------------------------------------------------------===//

namespace {

/// Scale at which the eight workloads total about 66M branches.
constexpr double PaperTraceScale = 5.0;

/// What one workload of one pass produced, reduced to digests and counts.
struct OracleResult {
  uint64_t TraceDigest = 0;
  uint64_t OracleDigest = 0;
  uint64_t ScoreDigest = 0;
  uint64_t Branches = 0;
  uint64_t Events = 0;
  uint64_t Phases = 0;
  bool InvariantsHold = true;

  bool sameOutputs(const OracleResult &O) const {
    return TraceDigest == O.TraceDigest && OracleDigest == O.OracleDigest &&
           ScoreDigest == O.ScoreDigest;
  }
};

/// Table 1's invariants: the branch count is the trace length, the run
/// ended normally, and every oracle solution covers the trace with
/// sorted, disjoint phases of at least MPL elements whose P states sum
/// to the phase lengths.
bool table1Invariants(const ExecutionResult &Exec,
                      const std::vector<BaselineSolution> &Baselines) {
  uint64_t N = Exec.Branches.size();
  if (Exec.Stats.DynamicBranches != N || Exec.Stats.HaltedByDepth ||
      Exec.Stats.HaltedByFuel || N == 0)
    return false;
  for (const BaselineSolution &B : Baselines) {
    if (B.totalElements() != N || B.states().size() != N)
      return false;
    uint64_t InPhase = 0, PrevEnd = 0;
    for (const PhaseInterval &P : B.phases()) {
      if (P.Begin < PrevEnd || P.End <= P.Begin || P.End > N ||
          P.length() < B.mpl())
        return false;
      InPhase += P.length();
      PrevEnd = P.End;
    }
    double F = B.fractionInPhase();
    if (InPhase != B.states().numInPhase() || F < 0.0 || F > 1.0)
      return false;
  }
  return true;
}

/// One pass over the eight workloads. Only the layer calls are timed;
/// digests and invariant checks run between them, off the clock.
double oraclePass(const std::vector<Workload> &Workloads, double Scale,
                  Tracer *T, std::vector<OracleResult> &Out) {
  double JobSeconds = 0.0;
  Out.assign(Workloads.size(), OracleResult());
  DetectorConfig Config = fixedDetectorConfig();
  for (size_t WI = 0; WI != Workloads.size(); ++WI) {
    const Workload &W = Workloads[WI];
    uint64_t Group = WI + 1;
    Clock::time_point T0 = Clock::now();
    ExecutionResult Exec = generateTrace(W, Scale, T, Group);
    std::vector<BaselineSolution> Baselines;
    {
      Span S(T, "baseline", "computeBaselines", Group);
      Baselines = computeBaselines(Exec.CallLoop, Exec.Branches.size(),
                                   ExtendedMPLs);
    }
    DetectorRun Run;
    {
      Span S(T, "core", "runDetector", Group);
      std::unique_ptr<FastDetectorBase> D =
          makeFastDetector(Config, Exec.Branches.numSites());
      runDetector(*D, Exec.Branches, Run);
    }
    std::vector<AccuracyScore> Scores;
    {
      Span S(T, "metrics", "scoreDetection", Group);
      for (const BaselineSolution &B : Baselines)
        Scores.push_back(scoreDetection(Run.States, B.states()));
    }
    JobSeconds += secondsSince(T0);

    OracleResult &R = Out[WI];
    R.Branches = Exec.Branches.size();
    R.Events = Exec.CallLoop.size();
    R.TraceDigest = digestWords(Exec.Branches.elements().data(),
                                Exec.Branches.size(), Exec.Branches.numSites());
    for (const CallLoopEvent &E : Exec.CallLoop.events()) {
      uint32_t Words[4] = {uint32_t(E.Kind), E.Id, uint32_t(E.Offset),
                           uint32_t(E.Offset >> 32)};
      R.TraceDigest = digestWords(Words, 4, R.TraceDigest);
    }
    R.OracleDigest = 1469598103934665603ULL;
    for (const BaselineSolution &B : Baselines) {
      R.Phases += B.numPhases();
      for (const PhaseInterval &P : B.phases()) {
        R.OracleDigest = fnv1a(&P.Begin, sizeof(P.Begin), R.OracleDigest);
        R.OracleDigest = fnv1a(&P.End, sizeof(P.End), R.OracleDigest);
      }
    }
    R.ScoreDigest = 1469598103934665603ULL;
    for (const AccuracyScore &S : Scores)
      R.ScoreDigest = digestScore(S, R.ScoreDigest);
    R.InvariantsHold = table1Invariants(Exec, Baselines);
  }
  return JobSeconds;
}

} // namespace

bool perfbench::runTraceOracleWorkload(const Options &O, Record &R) {
  std::vector<Workload> Workloads;
  for (const Workload &W : standardWorkloads())
    Workloads.push_back(seededWorkload(W.Name, O.Seed));
  double Scale = O.Smoke ? 0.05 : PaperTraceScale;
  size_t Checks = 0, Failures = 0;
  auto Check = [&](const std::vector<OracleResult> &Results,
                   const std::vector<OracleResult> &Reference) {
    for (size_t WI = 0; WI != Results.size(); ++WI) {
      ++Checks;
      if (!Results[WI].InvariantsHold ||
          !Results[WI].sameOutputs(Reference[WI]))
        ++Failures;
    }
  };

  // Set-up: reference passes, which must repeat one another, and whose
  // digests every timed pass of the same seed must repeat too.
  constexpr size_t SetupReps = 3;
  std::vector<OracleResult> Reference;
  std::vector<double> SetupTimes;
  for (size_t Rep = 0; Rep != SetupReps; ++Rep) {
    std::vector<OracleResult> Results;
    Clock::time_point T0 = Clock::now();
    oraclePass(Workloads, Scale, nullptr, Results);
    SetupTimes.push_back(secondsSince(T0));
    if (Rep == 0)
      Reference = std::move(Results);
    else
      Check(Results, Reference);
  }
  if (O.InjectMismatch)
    Reference[0].OracleDigest ^= 1;
  uint64_t TotalBranches = 0, TotalEvents = 0, TotalPhases = 0;
  for (const OracleResult &Ref : Reference) {
    TotalBranches += Ref.Branches;
    TotalEvents += Ref.Events;
    TotalPhases += Ref.Phases;
  }
  R.info("scale", Scale);
  R.info("total_branches", double(TotalBranches));
  R.info("mpls", double(ExtendedMPLs.size()));

  Tracer T;
  std::vector<double> Untraced, Traced;
  std::map<std::string, std::vector<double>> LayerSamples;
  std::vector<double> Coverage;
  Clock::time_point Start = Clock::now();
  for (size_t Pass = 0; Pass == 0 || secondsSince(Start) < O.Seconds ||
                        (O.Trace && Traced.empty());
       ++Pass) {
    bool WithSpans = O.Trace && Pass % 2 == 1;
    std::vector<OracleResult> Results;
    Tracer PassTracer;
    double Job = oraclePass(Workloads, Scale, WithSpans ? &PassTracer : nullptr,
                            Results);
    Check(Results, Reference);
    if (!WithSpans) {
      Untraced.push_back(Job);
      continue;
    }
    Traced.push_back(Job);
    std::map<std::string, double> Self = PassTracer.selfSeconds();
    double Covered = 0.0;
    for (const auto &[Layer, Seconds] : Self) {
      LayerSamples[Layer].push_back(Seconds);
      Covered += Seconds;
    }
    Coverage.push_back(Covered / Job);
    LayerSamples["core.fast_meps"].push_back(
        double(TotalBranches) / PassTracer.totalSeconds("runDetector") / 1e6);
    // The last traced pass is the one written out.
    T = std::move(PassTracer);
  }
  R.Attempted += Checks;
  R.Failed += Failures;
  R.info("passes", double(Untraced.size() + Traced.size()));

  if (!O.Trace) {
    recordOfflineJob(R, median(SetupTimes), Untraced, double(TotalBranches),
                     peakRssMb());
    return true;
  }

  R.metric("lang.compile_s", median(LayerSamples["lang"]), "s");
  R.metric("vm.interpret_s", median(LayerSamples["vm"]), "s");
  R.metric("vm.branches", double(TotalBranches), "count");
  R.metric("vm.call_loop_events", double(TotalEvents), "count");
  R.metric("baseline.oracle_s", median(LayerSamples["baseline"]), "s");
  R.metric("baseline.phases", double(TotalPhases), "count");
  R.metric("core.fast_detect_s", median(LayerSamples["core"]), "s");
  R.metric("core.fast_meps", median(LayerSamples["core.fast_meps"]),
           "Melem/s");
  R.metric("metrics.score_s", median(LayerSamples["metrics"]), "s");
  R.metric("metrics.scorings",
           double(Workloads.size() * ExtendedMPLs.size()), "count");
  R.metric("trace.span_coverage", median(Coverage), "ratio");
  R.metric("trace.overhead_ratio", median(Traced) / median(Untraced), "ratio");
  R.metric("trace.spans", double(T.size()), "count");
  T.dump(O.OutDir + "/spans_trace_oracle.jsonl");
  return true;
}
