//===- core/PhaseDetector.cpp - The online phase detector --------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/PhaseDetector.h"

#include "support/Format.h"

#include <algorithm>

using namespace opd;

DetectorObserver::~DetectorObserver() = default;

OnlineDetector::~OnlineDetector() = default;

void OnlineDetector::consumeTrace(const SiteIndex *Elements,
                                  size_t NumElements, StateSequence &States,
                                  std::vector<uint64_t> &AnchoredStarts) {
  size_t Batch = batchSize();
  assert(Batch > 0 && "batch size must be positive");
  PhaseState Prev = PhaseState::Transition;
  for (uint64_t Offset = 0; Offset < NumElements; Offset += Batch) {
    size_t N = std::min<size_t>(Batch, NumElements - Offset);
    PhaseState S = processBatch(Elements + Offset, N);
    // One state per input element (the batch shares its state).
    States.append(S, N);
    if (Prev == PhaseState::Transition && S == PhaseState::InPhase)
      AnchoredStarts.push_back(lastPhaseStartEstimate());
    Prev = S;
  }
}

PhaseDetector::PhaseDetector(const WindowConfig &Window, ModelKind Model,
                             std::unique_ptr<Analyzer> TheAnalyzer,
                             SiteIndex NumSites, KernelValueProbe *Probe)
    : Model(Window, Model, NumSites, Probe),
      TheAnalyzer(std::move(TheAnalyzer)) {
  assert(this->TheAnalyzer && "detector requires an analyzer");
}

template <bool Observed>
PhaseState PhaseDetector::processBatchImpl(const SiteIndex *Elements,
                                           size_t N) {
  // Figure 3: the model consumes the new profile elements and updates the
  // windows.
  for (size_t I = 0; I != N; ++I)
    Model.consume(Elements[I]);

  // Until the windows fill, the detector reports T (Figure 2, row B).
  PhaseState NewState;
  if (!Model.windowsFull()) {
    NewState = PhaseState::Transition;
  } else {
    double Similarity = Model.similarity();
    NewState = TheAnalyzer->processValue(Similarity);
    if constexpr (Observed)
      Observer->onEvaluation(Model.consumed(), Similarity, NewState,
                             TheAnalyzer->confidence());

    if (State == PhaseState::Transition &&
        NewState == PhaseState::InPhase) {
      // Start phase: anchor the TW at the phase start and reset the
      // analyzer's phase statistics.
      LastAnchor = Model.computeAnchorOffset();
      if constexpr (Observed)
        Observer->onAnchor(Model.consumed(), Model.config().Anchor,
                           LastAnchor);
      Model.startPhase();
      if constexpr (Observed)
        if (Model.config().TWPolicy == TWPolicyKind::Adaptive)
          Observer->onWindowResize(Model.consumed(), Model.config().Resize,
                                   Model.twLength(), Model.cwLength());
      TheAnalyzer->resetStats();
    } else if (State == PhaseState::InPhase &&
               NewState == PhaseState::InPhase) {
      // In phase: track the phase's statistics.
      TheAnalyzer->updateStats(Similarity);
    }
  }

  if (State == PhaseState::InPhase && NewState == PhaseState::Transition) {
    // End phase: flush the windows; the analyzer drops the dead phase's
    // statistics (the optional reset of Figure 3).
    Model.endPhase();
    if constexpr (Observed)
      Observer->onWindowFlush(Model.consumed(), Model.cwLength());
    TheAnalyzer->resetStats();
  }

  State = NewState;
  return State;
}

PhaseState PhaseDetector::processBatch(const SiteIndex *Elements, size_t N) {
  return processBatchImpl<false>(Elements, N);
}

PhaseState PhaseDetector::processBatchObserved(const SiteIndex *Elements,
                                               size_t N) {
  assert(Observer && "observed entry point requires an attached observer");
  return processBatchImpl<true>(Elements, N);
}

void PhaseDetector::reset() {
  Model.reset();
  TheAnalyzer->reset();
  State = PhaseState::Transition;
  LastAnchor = 0;
}

std::string PhaseDetector::describe() const {
  return describeDetector(Model.config(), Model.modelKind(), *TheAnalyzer);
}

std::string opd::describeDetector(const WindowConfig &W, ModelKind Model,
                                  const Analyzer &TheAnalyzer) {
  std::string Out = modelKindName(Model);
  Out += " ";
  Out += twPolicyName(W.TWPolicy);
  Out += "-tw cw=" + std::to_string(W.CWSize) +
         " tw=" + std::to_string(W.TWSize) +
         " skip=" + std::to_string(W.SkipFactor);
  if (W.TWPolicy == TWPolicyKind::Adaptive) {
    Out += std::string(" ") + anchorKindName(W.Anchor) + "/" +
           resizeKindName(W.Resize);
  }
  Out += " ";
  Out += TheAnalyzer.describe();
  return Out;
}
