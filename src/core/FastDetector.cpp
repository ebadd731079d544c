//===- core/FastDetector.cpp - Monomorphic fast-path detectors ---------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The per-config execution engine over the monomorphic kernel/model
// templates and analyzer decisions in core/FastKernels.h:
// FastPhaseDetector is PhaseDetector's unobserved processBatchImpl with
// every model call resolved at compile time, the decision-identical
// substitutions argued in FastKernels.h (decision functions without the
// confidence bookkeeping; shared-product MinSum deltas; the
// division-free threshold decision), a window advance of one append and
// one loop per skip batch (FastWindowedModel::consumeBatch), and a
// consumeTrace() that accumulates state runs in registers. Like the
// reference kernels, every fast kernel is parameterized by an arithmetic
// policy (PlainKernelArith in production, compiled to the exact
// pre-policy arithmetic; CheckedKernelArith in the KernelBounds shadow
// mode, where every step is overflow-checked and recorded).
//
// The shared-scan engine (core/SharedScan.cpp) calls the same decision
// functions cursor by cursor; FastDetectorTest and SharedScanTest
// require bit-identical output from all paths, so a missed replication
// of any reference change fails loudly.
//
//===----------------------------------------------------------------------===//

#include "core/FastDetector.h"

#include "core/FastKernels.h"

#include <algorithm>

using namespace opd;
using namespace opd::fastkernels;

namespace {

/// The monomorphic detector: PhaseDetector's unobserved processBatchImpl
/// with every model call resolved at compile time and the analyzer's
/// decision one of FastKernels.h's decision functions, plus a
/// consumeTrace() override that keeps the whole run in one stack frame.
template <ModelKind M, TWPolicyKind Policy, AnalyzerKind A,
          typename ArithT = PlainKernelArith>
class FastPhaseDetector final : public FastDetectorBase {
public:
  FastPhaseDetector(const DetectorConfig &Config, SiteIndex NumSites,
                    ArithT Arith = ArithT())
      : Model(Config.Window, NumSites, Arith), Sites(NumSites) {
    setAnalyzer(Config);
  }

  SiteIndex numSites() const override { return Sites; }

  PhaseState processBatch(const SiteIndex *Elements, size_t N) override {
    return processBatchInline(Elements, N);
  }

  void consumeTrace(const SiteIndex *Elements, size_t NumElements,
                    StateSequence &States,
                    std::vector<uint64_t> &AnchoredStarts) override {
    // skip == 1 is the per-element worst case, where a batch has no
    // steady state to amortize: with the batch length a compile-time
    // constant, consumeBatch() folds to a single consume() and the
    // length clamp folds away entirely.
    if (Model.config().SkipFactor == 1)
      runTrace<true>(Elements, NumElements, States, AnchoredStarts);
    else
      runTrace<false>(Elements, NumElements, States, AnchoredStarts);
  }

  size_t batchSize() const override { return Model.config().SkipFactor; }

  void reset() override {
    Model.reset();
    Stats = MeanStats();
    HystState = PhaseState::Transition;
    State = PhaseState::Transition;
    LastAnchor = 0;
  }

  uint64_t lastPhaseStartEstimate() const override { return LastAnchor; }

  std::string describe() const override {
    return describeDetector(Model.config(), M, *makeAnalyzer(A, Param)) +
           " [fast]";
  }

  void reconfigure(const DetectorConfig &Config) override {
    Model.reconfigure(Config.Window);
    setAnalyzer(Config);
    reset();
  }

private:
  /// Takes \p Config's analyzer parameter (checking the shape).
  void setAnalyzer(const DetectorConfig &Config) {
    assert(Config.Model == M && Config.TheAnalyzer == A &&
           "config does not match this shape");
    Param = Config.AnalyzerParam;
    ExitParam = hysteresisExitThreshold(Param);
  }

  /// consumeTrace's loop over batches of the skip factor, or of one
  /// element when \p SingleElement makes that a compile-time constant.
  template <bool SingleElement>
  OPD_FORCE_INLINE void runTrace(const SiteIndex *Elements,
                                 size_t NumElements, StateSequence &States,
                                 std::vector<uint64_t> &AnchoredStarts) {
    size_t Batch = SingleElement ? 1 : Model.config().SkipFactor;
    // The pending state run, accumulated in registers: States.append()
    // merges equal-state runs anyway, so emitting whole runs on state
    // changes produces the identical StateSequence with one call per
    // run instead of one per batch.
    PhaseState RunState = PhaseState::Transition;
    uint64_t RunLen = 0;
    for (uint64_t Offset = 0; Offset < NumElements; Offset += Batch) {
      size_t N = SingleElement
                     ? 1
                     : std::min<size_t>(Batch, NumElements - Offset);
      PhaseState S = processBatchInline(Elements + Offset, N);
      if (S == RunState) {
        RunLen += N;
        continue;
      }
      // RunState is the previous batch's state (or Transition at the
      // start), so this is exactly the reference's Prev->S edge test.
      if (RunState == PhaseState::Transition && S == PhaseState::InPhase)
        AnchoredStarts.push_back(LastAnchor);
      if (RunLen != 0)
        States.append(RunState, RunLen);
      RunState = S;
      RunLen = N;
    }
    if (RunLen != 0)
      States.append(RunState, RunLen);
  }

  /// The T->P edge: anchor, phase start, stats reset. Out of line — it
  /// runs once per detected phase, and keeping its register demands out
  /// of processBatchInline keeps the per-element loop unspilled.
  OPD_NOINLINE void enterPhase() {
    LastAnchor = Model.computeAnchorOffset();
    Model.startPhase();
    Stats = MeanStats();
  }

  /// The P->T edge: flush the windows, reset stats. Out of line for the
  /// same reason as enterPhase().
  OPD_NOINLINE void leavePhase() {
    Model.endPhase();
    Stats = MeanStats();
  }

  OPD_FORCE_INLINE PhaseState processBatchInline(const SiteIndex *Elements,
                                                 size_t N) {
    Model.consumeBatch(Elements, N);

    PhaseState NewState;
    if (!Model.windowsFull()) {
      NewState = PhaseState::Transition;
    } else if constexpr (A == AnalyzerKind::Threshold) {
      // The threshold decision needs only the decision bit, never the
      // similarity value itself (no stats to update), so the kernel can
      // decide without dividing (see similarityAtLeast).
      NewState = Model.similarityAtLeast(Param) ? PhaseState::InPhase
                                                : PhaseState::Transition;
      if (State == PhaseState::Transition && NewState == PhaseState::InPhase)
        enterPhase();
    } else {
      double Similarity = Model.similarity();
      if constexpr (A == AnalyzerKind::Average)
        NewState = decideAverage(Similarity, Param, Stats);
      else
        NewState = decideHysteresis(Similarity, Param, ExitParam, HystState);
      if (State == PhaseState::Transition &&
          NewState == PhaseState::InPhase) {
        enterPhase();
      } else if (A == AnalyzerKind::Average &&
                 State == PhaseState::InPhase &&
                 NewState == PhaseState::InPhase) {
        Stats.push(Similarity);
      }
    }

    if (State == PhaseState::InPhase &&
        NewState == PhaseState::Transition) {
      leavePhase();
    }

    State = NewState;
    return State;
  }

  FastWindowedModel<M, Policy, ArithT> Model;
  /// The analyzer parameter: threshold, average delta or hysteresis
  /// enter threshold.
  double Param = 0.0;
  /// The hysteresis exit threshold.
  double ExitParam = 0.0;
  /// The Average analyzer's phase statistics.
  MeanStats Stats;
  /// The Hysteresis analyzer's state.
  PhaseState HystState = PhaseState::Transition;
  PhaseState State = PhaseState::Transition;
  uint64_t LastAnchor = 0;
  SiteIndex Sites;
};

template <ModelKind M, TWPolicyKind Policy, typename ArithT>
std::unique_ptr<FastDetectorBase>
makeForAnalyzer(const DetectorConfig &C, SiteIndex NumSites, ArithT Arith) {
  switch (C.TheAnalyzer) {
  case AnalyzerKind::Threshold:
    return std::make_unique<
        FastPhaseDetector<M, Policy, AnalyzerKind::Threshold, ArithT>>(
        C, NumSites, Arith);
  case AnalyzerKind::Average:
    return std::make_unique<
        FastPhaseDetector<M, Policy, AnalyzerKind::Average, ArithT>>(
        C, NumSites, Arith);
  case AnalyzerKind::Hysteresis:
    return std::make_unique<
        FastPhaseDetector<M, Policy, AnalyzerKind::Hysteresis, ArithT>>(
        C, NumSites, Arith);
  }
  return nullptr;
}

template <ModelKind M, typename ArithT>
std::unique_ptr<FastDetectorBase>
makeForPolicy(const DetectorConfig &C, SiteIndex NumSites, ArithT Arith) {
  switch (C.Window.TWPolicy) {
  case TWPolicyKind::Constant:
    return makeForAnalyzer<M, TWPolicyKind::Constant>(C, NumSites, Arith);
  case TWPolicyKind::Adaptive:
    return makeForAnalyzer<M, TWPolicyKind::Adaptive>(C, NumSites, Arith);
  }
  return nullptr;
}

template <typename ArithT>
std::unique_ptr<FastDetectorBase>
makeForModel(const DetectorConfig &C, SiteIndex NumSites, ArithT Arith) {
  switch (C.Model) {
  case ModelKind::UnweightedSet:
    return makeForPolicy<ModelKind::UnweightedSet>(C, NumSites, Arith);
  case ModelKind::WeightedSet:
    return makeForPolicy<ModelKind::WeightedSet>(C, NumSites, Arith);
  case ModelKind::ManhattanBBV:
    return makeForPolicy<ModelKind::ManhattanBBV>(C, NumSites, Arith);
  }
  return nullptr;
}

} // namespace

size_t opd::fastShapeIndex(const DetectorConfig &Config) {
  return (static_cast<size_t>(Config.Model) * 2 +
          static_cast<size_t>(Config.Window.TWPolicy)) *
             3 +
         static_cast<size_t>(Config.TheAnalyzer);
}

std::unique_ptr<FastDetectorBase>
opd::makeFastDetector(const DetectorConfig &Config, SiteIndex NumSites) {
  return makeForModel(Config, NumSites, PlainKernelArith());
}

std::unique_ptr<FastDetectorBase>
opd::makeCheckedFastDetector(const DetectorConfig &Config, SiteIndex NumSites,
                             KernelValueProbe &Probe) {
  return makeForModel(Config, NumSites, CheckedKernelArith(Probe));
}
