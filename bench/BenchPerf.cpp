//===- bench/BenchPerf.cpp - Overhead microbenchmarks -------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper defers overhead analysis to future work (Section 7, "we plan
/// to investigate and optimize the overhead of accurate phase
/// detection"). This google-benchmark binary provides that measurement
/// for this implementation: per-element detector cost across model and
/// window policies, kernel and analyzer costs, the costs of the offline
/// stages (interpretation, oracle construction, scoring), and the serving
/// session's ingest path.
///
//===----------------------------------------------------------------------===//

#include "baseline/BaselineSolution.h"
#include "core/BatchKernel.h"
#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"
#include "core/FastDetector.h"
#include "core/RelatedWork.h"
#include "core/SharedScan.h"
#include "harness/Experiment.h"
#include "metrics/Scoring.h"
#include "obs/RunTrace.h"
#include "serve/Session.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace opd;

namespace {

/// A mid-size trace shared across benchmarks (jess at reduced scale).
const BenchmarkData &sharedBenchmark() {
  static const std::vector<BenchmarkData> Data =
      prepareBenchmarks({"jess"}, {10000}, /*Scale=*/0.25);
  return Data.front();
}

DetectorConfig configFor(ModelKind Model, TWPolicyKind Policy) {
  DetectorConfig C;
  C.Window.CWSize = 5000;
  C.Window.TWSize = 5000;
  C.Window.TWPolicy = Policy;
  C.Model = Model;
  C.TheAnalyzer = AnalyzerKind::Threshold;
  C.AnalyzerParam = 0.6;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Online detector throughput (the number that matters for VM deployment)
//===----------------------------------------------------------------------===//

static void BM_Detector(benchmark::State &State, ModelKind Model,
                        TWPolicyKind Policy) {
  const BenchmarkData &B = sharedBenchmark();
  std::unique_ptr<PhaseDetector> D =
      makeDetector(configFor(Model, Policy), B.Trace.numSites());
  for (auto _ : State) {
    DetectorRun Run = runDetector(*D, B.Trace);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}

BENCHMARK_CAPTURE(BM_Detector, unweighted_constant,
                  ModelKind::UnweightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_Detector, unweighted_adaptive,
                  ModelKind::UnweightedSet, TWPolicyKind::Adaptive);
BENCHMARK_CAPTURE(BM_Detector, weighted_constant, ModelKind::WeightedSet,
                  TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_Detector, weighted_adaptive, ModelKind::WeightedSet,
                  TWPolicyKind::Adaptive);

// The monomorphic fast path (core/FastDetector.h) over the exact
// configurations of BM_Detector above: kernel and analyzer inlined into
// the consume loop, the DetectorRun reused across iterations the way a
// pooled detector reuses it. Output is bit-identical to the reference path;
// the ratio of the two is the cost of per-element virtual dispatch.
static void BM_FastDetector(benchmark::State &State, ModelKind Model,
                            TWPolicyKind Policy) {
  const BenchmarkData &B = sharedBenchmark();
  std::unique_ptr<FastDetectorBase> D =
      makeFastDetector(configFor(Model, Policy), B.Trace.numSites());
  DetectorRun Run;
  for (auto _ : State) {
    runDetector(*D, B.Trace, Run);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}

BENCHMARK_CAPTURE(BM_FastDetector, unweighted_constant,
                  ModelKind::UnweightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_FastDetector, unweighted_adaptive,
                  ModelKind::UnweightedSet, TWPolicyKind::Adaptive);
BENCHMARK_CAPTURE(BM_FastDetector, weighted_constant,
                  ModelKind::WeightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_FastDetector, weighted_adaptive,
                  ModelKind::WeightedSet, TWPolicyKind::Adaptive);

// The configurations of BM_FastDetector as one-config groups through
// the shared-scan engine (core/SharedScan.h), the way the sweep harness
// runs a config whose (model, CW, TW) shape no other config shares. The
// output is the fast detector's; over BM_FastDetector at the same
// capture this is the size-1 group's cost (docs/PERFORMANCE.md).
static void BM_SharedScanGroupOfOne(benchmark::State &State, ModelKind Model,
                                    TWPolicyKind Policy) {
  const BenchmarkData &B = sharedBenchmark();
  const std::vector<DetectorConfig> Configs = {configFor(Model, Policy)};
  const std::vector<size_t> Members = {0};
  std::unique_ptr<SharedScanEngineBase> Engine =
      makeSharedScanEngine(Model, B.Trace.numSites());
  std::vector<DetectorRun> Runs(1);
  for (auto _ : State) {
    Engine->run(Configs, Members, B.Trace.elements().data(), B.Trace.size(),
                Runs);
    benchmark::DoNotOptimize(Runs[0].States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}

BENCHMARK_CAPTURE(BM_SharedScanGroupOfOne, unweighted_constant,
                  ModelKind::UnweightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_SharedScanGroupOfOne, unweighted_adaptive,
                  ModelKind::UnweightedSet, TWPolicyKind::Adaptive);
BENCHMARK_CAPTURE(BM_SharedScanGroupOfOne, weighted_constant,
                  ModelKind::WeightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_SharedScanGroupOfOne, weighted_adaptive,
                  ModelKind::WeightedSet, TWPolicyKind::Adaptive);

// The fast path again, with the batch-kernel dispatch backend pinned
// (core/BatchKernel.h): the SIMD/portable pair isolates what the AVX2
// lanes buy over the portable scalar blocks on the same SoA layout,
// while either one over BM_Detector is the full batch-layer speedup.
// Only the weighted cases are pinned — the weighted min-sum recompute
// is where the lanes do their work; the dense models' anchor scans are
// covered by the BM_FastDetector ratios. The backend slot is process
// state, so it is restored after each benchmark's measurement loop.
static void BM_BatchDetector(benchmark::State &State, ModelKind Model,
                             TWPolicyKind Policy, BatchBackend Backend) {
  const BenchmarkData &B = sharedBenchmark();
  BatchBackend Saved = activeBatchBackend();
  if (!setBatchBackend(Backend)) {
    State.SkipWithError("batch backend unavailable on this host");
    return;
  }
  std::unique_ptr<FastDetectorBase> D =
      makeFastDetector(configFor(Model, Policy), B.Trace.numSites());
  DetectorRun Run;
  for (auto _ : State) {
    runDetector(*D, B.Trace, Run);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
  setBatchBackend(Saved);
}

static void BM_BatchSimdDetector(benchmark::State &State, ModelKind Model,
                                 TWPolicyKind Policy) {
  BM_BatchDetector(State, Model, Policy, BatchBackend::AVX2);
}

// The AVX-512 backend, which CPU detection picks by default where the
// host runs it; skipped with an error elsewhere. No BENCH_PERF.json case
// reads it: on such a host it is the default BM_FastDetector path.
static void BM_BatchAvx512Detector(benchmark::State &State, ModelKind Model,
                                   TWPolicyKind Policy) {
  BM_BatchDetector(State, Model, Policy, BatchBackend::AVX512);
}

static void BM_BatchPortableDetector(benchmark::State &State,
                                     ModelKind Model, TWPolicyKind Policy) {
  BM_BatchDetector(State, Model, Policy, BatchBackend::Portable);
}

BENCHMARK_CAPTURE(BM_BatchSimdDetector, weighted_constant,
                  ModelKind::WeightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_BatchSimdDetector, weighted_adaptive,
                  ModelKind::WeightedSet, TWPolicyKind::Adaptive);
BENCHMARK_CAPTURE(BM_BatchAvx512Detector, weighted_constant,
                  ModelKind::WeightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_BatchAvx512Detector, weighted_adaptive,
                  ModelKind::WeightedSet, TWPolicyKind::Adaptive);
BENCHMARK_CAPTURE(BM_BatchPortableDetector, weighted_constant,
                  ModelKind::WeightedSet, TWPolicyKind::Constant);
BENCHMARK_CAPTURE(BM_BatchPortableDetector, weighted_adaptive,
                  ModelKind::WeightedSet, TWPolicyKind::Adaptive);

static void BM_DetectorSkipFactor(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  DetectorConfig C =
      configFor(ModelKind::UnweightedSet, TWPolicyKind::Constant);
  C.Window.SkipFactor = static_cast<uint32_t>(State.range(0));
  std::unique_ptr<PhaseDetector> D = makeDetector(C, B.Trace.numSites());
  for (auto _ : State) {
    DetectorRun Run = runDetector(*D, B.Trace);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_DetectorSkipFactor)->Arg(1)->Arg(16)->Arg(256)->Arg(5000);

// The fast path at the same skip factors. Above skip 1 a batch advances
// the windows in one append and one KernelWindows::advance (consumeBatch
// in core/FastKernels.h); over BM_DetectorSkipFactor at the same argument
// this is the fast/reference ratio at skip > 1.
static void BM_FastDetectorSkipFactor(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  DetectorConfig C =
      configFor(ModelKind::UnweightedSet, TWPolicyKind::Constant);
  C.Window.SkipFactor = static_cast<uint32_t>(State.range(0));
  std::unique_ptr<FastDetectorBase> D =
      makeFastDetector(C, B.Trace.numSites());
  DetectorRun Run;
  for (auto _ : State) {
    runDetector(*D, B.Trace, Run);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_FastDetectorSkipFactor)->Arg(1)->Arg(16)->Arg(256)->Arg(5000);

namespace {
/// The db trace at scale 2, the session perfbench's serve_bulk streams.
const BranchTrace &serveBulkTrace() {
  static const ExecutionResult Exec = executeWorkload(*findWorkload("db"), 2.0);
  return Exec.Branches;
}
} // namespace

// The detector of perfbench's serve_bulk session, offline: db at scale 2,
// CW = TW = 1000, skip 100, constant TW, threshold 0.5. This is the
// per-element window cost of a served session without the wire and the
// TCP loop around it.
static void BM_FastDetectorServeBulk(benchmark::State &State,
                                     ModelKind Model) {
  const BranchTrace &T = serveBulkTrace();
  DetectorConfig C = configFor(Model, TWPolicyKind::Constant);
  C.Window.CWSize = 1000;
  C.Window.TWSize = 1000;
  C.Window.SkipFactor = 100;
  C.AnalyzerParam = 0.5;
  std::unique_ptr<FastDetectorBase> D = makeFastDetector(C, T.numSites());
  DetectorRun Run;
  for (auto _ : State) {
    runDetector(*D, T, Run);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(T.size()));
}
BENCHMARK_CAPTURE(BM_FastDetectorServeBulk, unweighted,
                  ModelKind::UnweightedSet);
BENCHMARK_CAPTURE(BM_FastDetectorServeBulk, weighted, ModelKind::WeightedSet);

// The observability hooks must be zero-cost when no observer is attached
// (the BM_Detector numbers above) and cheap when one is: this measures a
// full run with a CountingObserver against unweighted_adaptive above.
static void BM_DetectorObserved(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  std::unique_ptr<PhaseDetector> D = makeDetector(
      configFor(ModelKind::UnweightedSet, TWPolicyKind::Adaptive),
      B.Trace.numSites());
  for (auto _ : State) {
    CountingObserver Observer;
    DetectorRun Run = runDetector(*D, B.Trace, &Observer);
    benchmark::DoNotOptimize(Observer.counters().Evaluations);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_DetectorObserved);

static void BM_LuDetectorRun(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  LuDetector D({});
  for (auto _ : State) {
    DetectorRun Run = runDetector(D, B.Trace);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_LuDetectorRun);

static void BM_DasDetectorRun(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  DasDetector D({}, B.Trace.numSites());
  for (auto _ : State) {
    DetectorRun Run = runDetector(D, B.Trace);
    benchmark::DoNotOptimize(Run.States.size());
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(B.Trace.size()));
}
BENCHMARK(BM_DasDetectorRun);

//===----------------------------------------------------------------------===//
// Kernel microbenchmarks
//===----------------------------------------------------------------------===//

static void BM_KernelSteadyState(benchmark::State &State, ModelKind Kind) {
  const SiteIndex NumSites = 256;
  std::unique_ptr<SimilarityKernel> K = makeKernel(Kind, NumSites);
  Xoshiro256 Rng(1);
  std::vector<SiteIndex> CW, TW;
  for (int I = 0; I < 1000; ++I) {
    SiteIndex S = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    K->cwAdd(S);
    CW.push_back(S);
    S = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    K->twAdd(S);
    TW.push_back(S);
  }
  size_t Cursor = 0;
  for (auto _ : State) {
    SiteIndex In = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    K->cwReplace(In, CW[Cursor]);
    CW[Cursor] = In;
    In = static_cast<SiteIndex>(Rng.nextBelow(NumSites));
    K->twReplace(In, TW[Cursor]);
    TW[Cursor] = In;
    benchmark::DoNotOptimize(K->similarity());
    Cursor = (Cursor + 1) % CW.size();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK_CAPTURE(BM_KernelSteadyState, unweighted,
                  ModelKind::UnweightedSet);
BENCHMARK_CAPTURE(BM_KernelSteadyState, weighted, ModelKind::WeightedSet);

static void BM_WeightedKernelDirtyRecompute(benchmark::State &State) {
  const SiteIndex NumSites = static_cast<SiteIndex>(State.range(0));
  WeightedSetKernel K(NumSites);
  Xoshiro256 Rng(2);
  for (int I = 0; I < 2000; ++I) {
    K.cwAdd(static_cast<SiteIndex>(Rng.nextBelow(NumSites)));
    K.twAdd(static_cast<SiteIndex>(Rng.nextBelow(NumSites)));
  }
  for (auto _ : State) {
    // Growing the TW dirties the kernel; similarity() then recomputes.
    K.twAdd(static_cast<SiteIndex>(Rng.nextBelow(NumSites)));
    benchmark::DoNotOptimize(K.similarity());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WeightedKernelDirtyRecompute)->Arg(64)->Arg(256)->Arg(1024);

//===----------------------------------------------------------------------===//
// Serving ingest
//===----------------------------------------------------------------------===//

// One db session streamed through ServeSession in-process, with the
// perfbench serve_bulk shape: CW = TW = 1000, skip 100, unweighted
// constant, threshold 0.5, 4096-element frames. Arg 0 feeds and pumps
// one frame at a time, as a server does per read; arg 1 feeds until the
// ingress watermark and then pumps the backlog, which is where the
// pending buffer's growth policy shows.
static void BM_ServeSessionIngest(benchmark::State &State) {
  const BranchTrace &T = serveBulkTrace();
  const std::vector<SiteIndex> &E = T.elements();
  HelloMsg Hello;
  Hello.Flags = HelloWantProgress | HelloWantAnchors;
  Hello.NumSites = T.numSites();
  Hello.Config.Window.CWSize = 1000;
  Hello.Config.Window.TWSize = 1000;
  Hello.Config.Window.SkipFactor = 100;
  Hello.Config.AnalyzerParam = 0.5;
  std::vector<uint8_t> HelloBytes, FinishBytes;
  appendHello(HelloBytes, Hello);
  appendFinish(FinishBytes);
  std::vector<std::vector<uint8_t>> Frames;
  for (size_t At = 0; At < E.size(); At += 4096) {
    Frames.emplace_back();
    appendElements(Frames.back(), E.data() + At,
                   std::min<size_t>(4096, E.size() - At));
  }

  const bool FillFirst = State.range(0) != 0;
  DetectorCache Cache;
  std::vector<uint8_t> Out;
  for (auto _ : State) {
    ServeSession Sess(1, ServeLimits(), Cache);
    Sess.feed(HelloBytes.data(), HelloBytes.size());
    for (const std::vector<uint8_t> &F : Frames) {
      Sess.feed(F.data(), F.size());
      if (!FillFirst || Sess.ingressSaturated())
        while (Sess.pump()) {
        }
    }
    Sess.feed(FinishBytes.data(), FinishBytes.size());
    while (Sess.pump()) {
    }
    Out.clear();
    Sess.takeOutput(Out);
    benchmark::DoNotOptimize(Out.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(E.size()));
}
BENCHMARK(BM_ServeSessionIngest)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

//===----------------------------------------------------------------------===//
// Offline stages
//===----------------------------------------------------------------------===//

static void BM_InterpretWorkload(benchmark::State &State) {
  const Workload *W = findWorkload("db");
  for (auto _ : State) {
    ExecutionResult R = executeWorkload(*W, 0.1);
    benchmark::DoNotOptimize(R.Branches.size());
    State.SetItemsProcessed(State.items_processed() +
                            static_cast<int64_t>(R.Branches.size()));
  }
}
BENCHMARK(BM_InterpretWorkload);

static void BM_BaselineConstruction(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  for (auto _ : State) {
    std::vector<BaselineSolution> Sols =
        computeBaselines(B.CallLoop, B.Trace.size(), {1000, 10000, 100000});
    benchmark::DoNotOptimize(Sols.size());
  }
}
BENCHMARK(BM_BaselineConstruction);

static void BM_Scoring(benchmark::State &State) {
  const BenchmarkData &B = sharedBenchmark();
  std::unique_ptr<PhaseDetector> D = makeDetector(
      configFor(ModelKind::UnweightedSet, TWPolicyKind::Adaptive),
      B.Trace.numSites());
  DetectorRun Run = runDetector(*D, B.Trace);
  for (auto _ : State) {
    AccuracyScore S =
        scoreDetection(Run.States, B.Baselines.front().states());
    benchmark::DoNotOptimize(S.Score);
  }
}
BENCHMARK(BM_Scoring);

BENCHMARK_MAIN();
