//===- core/PhaseDetector.h - The online phase detector ---------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PhaseDetector composes a WindowedModel and an Analyzer into the
/// framework of Figure 3: a detection client feeds it the most recent
/// skipFactor profile elements and receives the new P/T state.
///
/// OnlineDetector is the abstract interface every online detector in this
/// repository implements (the framework detectors here plus the
/// related-work detectors in core/RelatedWork.h); the DetectorRunner and
/// the sweep harness operate on it.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_PHASEDETECTOR_H
#define OPD_CORE_PHASEDETECTOR_H

#include "core/Analyzer.h"
#include "core/DetectorObserver.h"
#include "core/WindowedModel.h"
#include "trace/StateSequence.h"

#include <memory>
#include <string>

namespace opd {

/// Abstract online phase detector: a state machine fed batches of profile
/// elements, emitting one state per batch.
class OnlineDetector {
public:
  virtual ~OnlineDetector();

  /// Consumes \p N elements (normally batchSize(); the final batch of a
  /// trace may be shorter) and returns the state covering them.
  virtual PhaseState processBatch(const SiteIndex *Elements, size_t N) = 0;

  /// Streams \p NumElements elements through the detector in
  /// batchSize()-sized batches (the trailing partial batch included),
  /// appending one state per element to \p States and recording
  /// lastPhaseStartEstimate() into \p AnchoredStarts at every T->P
  /// transition. The default implementation loops over processBatch —
  /// one virtual dispatch per batch; the monomorphic fast-path detectors
  /// (core/FastDetector.h) override it with a fully inlined loop, so a
  /// whole run costs a single virtual dispatch. Both produce
  /// bit-identical output. Callers must reset() first; runDetector() is
  /// the normal entry point.
  virtual void consumeTrace(const SiteIndex *Elements, size_t NumElements,
                            StateSequence &States,
                            std::vector<uint64_t> &AnchoredStarts);

  /// Elements per batch (the skipFactor).
  virtual size_t batchSize() const = 0;

  /// Clears all state for a fresh stream.
  virtual void reset() = 0;

  /// After a T->P transition, the detector's estimate of where the phase
  /// actually began (global element offset). Detectors without anchoring
  /// return the transition offset itself. Only meaningful immediately
  /// after processBatch returned a transition into P.
  virtual uint64_t lastPhaseStartEstimate() const = 0;

  /// One-line description for tables.
  virtual std::string describe() const = 0;

  /// processBatch with the attached observer's internal events emitted.
  /// runDetector() selects this entry point once per run when an
  /// observer is attached, so the plain processBatch path carries no
  /// observation code at all. The default forwards to processBatch —
  /// right for detectors without internal model/analyzer events (the
  /// related-work detectors; the runner emits the stream-level events
  /// for them).
  virtual PhaseState processBatchObserved(const SiteIndex *Elements,
                                          size_t N) {
    return processBatch(Elements, N);
  }

  /// Attaches an observer (nullptr detaches). The observer outlives the
  /// run it watches. The default implementation ignores the observer —
  /// detectors without internal events need no storage; PhaseDetector
  /// overrides both accessors and emits every event.
  virtual void setObserver(DetectorObserver *O) { (void)O; }

  /// The attached observer, or nullptr.
  virtual DetectorObserver *observer() const { return nullptr; }
};

/// The framework detector of Figure 3.
class PhaseDetector final : public OnlineDetector {
public:
  /// \p Probe, when non-null, builds the model over the
  /// CheckedKernelArith-instrumented kernel (see WindowedModel); null
  /// gives the production kernel.
  PhaseDetector(const WindowConfig &Window, ModelKind Model,
                std::unique_ptr<Analyzer> TheAnalyzer, SiteIndex NumSites,
                KernelValueProbe *Probe = nullptr);

  /// Figure 3's processProfile(profileElements).
  PhaseState processBatch(const SiteIndex *Elements, size_t N) override;

  PhaseState processBatchObserved(const SiteIndex *Elements,
                                  size_t N) override;

  size_t batchSize() const override { return Model.config().SkipFactor; }

  void reset() override;

  uint64_t lastPhaseStartEstimate() const override { return LastAnchor; }

  std::string describe() const override;

  void setObserver(DetectorObserver *O) override { Observer = O; }

  DetectorObserver *observer() const override { return Observer; }

  /// Current state (P/T).
  PhaseState state() const { return State; }

  /// Confidence in the current state (the framework's optional feature;
  /// Section 2): the analyzer's normalized decision margin, or 0 while
  /// the windows are still filling.
  double confidence() const {
    return Model.windowsFull() ? TheAnalyzer->confidence() : 0.0;
  }

  /// The model, for tests and diagnostics.
  const WindowedModel &model() const { return Model; }

private:
  /// Shared body of both entry points; the Observed instantiation emits
  /// the observer events, the plain one compiles to the event-free
  /// pre-observability code (the zero-cost property BenchPerf checks).
  template <bool Observed>
  PhaseState processBatchImpl(const SiteIndex *Elements, size_t N);

  WindowedModel Model;
  std::unique_ptr<Analyzer> TheAnalyzer;
  PhaseState State = PhaseState::Transition;
  uint64_t LastAnchor = 0;
  /// Kept last so attaching observability does not shift the layout of
  /// the hot model/analyzer members relative to an observer-free build.
  DetectorObserver *Observer = nullptr;
};

/// PhaseDetector::describe()'s text for a detector over \p Window and
/// \p Model deciding with \p TheAnalyzer; the fast detector appends its
/// tag to the same text.
std::string describeDetector(const WindowConfig &Window, ModelKind Model,
                             const Analyzer &TheAnalyzer);

} // namespace opd

#endif // OPD_CORE_PHASEDETECTOR_H
