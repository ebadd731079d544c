//===- core/DetectorRunner.cpp - Stream a trace through a detector -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/DetectorRunner.h"

#include <algorithm>

using namespace opd;

DetectorRun opd::runDetector(OnlineDetector &Detector,
                             const BranchTrace &Trace) {
  DetectorRun Run;
  runDetector(Detector, Trace, Run);
  return Run;
}

void opd::runDetector(OnlineDetector &Detector, const BranchTrace &Trace,
                      DetectorRun &Run) {
  Detector.reset();
  Run.clear();
  const std::vector<SiteIndex> &Elements = Trace.elements();
  assert(Detector.batchSize() > 0 && "batch size must be positive");

  // Output-sized storage: a reused Run keeps its capacity, a fresh one
  // grows to the runs the trace actually produces.
  std::vector<uint64_t> AnchoredStarts;
  Detector.consumeTrace(Elements.data(), Elements.size(), Run.States,
                        AnchoredStarts);

  finalizeAnchoredPhases(Run, AnchoredStarts);
}

void opd::finalizeAnchoredPhases(DetectorRun &Run,
                                 const std::vector<uint64_t> &AnchoredStarts) {
  Run.States.phasesInto(Run.DetectedPhases);
  assert(AnchoredStarts.size() == Run.DetectedPhases.size() &&
         "one anchored start per detected phase");

  // Build the anchor-corrected phases: each start is pulled back to the
  // anchor estimate, clamped so the list stays sorted and disjoint.
  Run.AnchoredPhases.clear();
  Run.AnchoredPhases.reserve(Run.DetectedPhases.size());
  uint64_t PrevEnd = 0;
  for (size_t I = 0; I != Run.DetectedPhases.size(); ++I) {
    PhaseInterval P = Run.DetectedPhases[I];
    uint64_t Anchor = I < AnchoredStarts.size() ? AnchoredStarts[I] : P.Begin;
    P.Begin = std::clamp(Anchor, PrevEnd, P.Begin);
    Run.AnchoredPhases.push_back(P);
    PrevEnd = P.End;
  }
}
