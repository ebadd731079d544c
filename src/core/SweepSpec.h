//===- core/SweepSpec.h - Detector configuration cross products -*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SweepSpec describes one cross product of framework parameters (the
/// paper's evaluation enumerates over 10,000 such points) and
/// enumerateCrossProduct() expands it. The spec lives in core — not in
/// the sweep harness — so the static config-space analyzer
/// (analysis/ConfigAnalysis.h) can reason about it without dragging in
/// traces or baselines; harness/Sweep.h re-exports it for clients.
///
/// The expansion has no special cases: every dimension multiplies every
/// policy, so a Constant point is listed once per anchor x resize, and
/// Fixed Interval is emitted even where it coincides with an enumerated
/// (Constant, skip == CW) point. ConfigAnalysis proves that redundancy
/// away (partitionConfigs, SweepOptions::Prune) instead of the
/// enumerator hand-special-casing it.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_SWEEPSPEC_H
#define OPD_CORE_SWEEPSPEC_H

#include "core/DetectorConfig.h"

#include <string>
#include <vector>

namespace opd {

/// One analyzer instantiation in a sweep.
struct AnalyzerSpec {
  AnalyzerKind Kind;
  double Param;
};

/// A cross product of framework parameters.
struct SweepSpec {
  std::vector<uint32_t> CWSizes;
  /// TW size = CW size * factor (the paper co-sizes the windows; factor 1
  /// everywhere in the reproduction, other factors serve the ablations).
  std::vector<uint32_t> TWFactors = {1};
  std::vector<uint32_t> SkipFactors = {1};
  std::vector<TWPolicyKind> TWPolicies = {TWPolicyKind::Constant,
                                          TWPolicyKind::Adaptive};
  /// Also enumerate the prior literature's Fixed Interval policy
  /// (Constant TW with skipFactor == CW size == TW size).
  bool IncludeFixedInterval = false;
  std::vector<ModelKind> Models = {ModelKind::UnweightedSet,
                                   ModelKind::WeightedSet};
  std::vector<AnalyzerSpec> Analyzers;
  std::vector<AnchorKind> Anchors = {AnchorKind::RightmostNoisy};
  std::vector<ResizeKind> Resizes = {ResizeKind::Slide};
};

/// The paper's analyzer set: thresholds .5/.6/.7/.8 and average deltas
/// .01/.05/.1/.2/.3/.4.
std::vector<AnalyzerSpec> paperAnalyzers();

/// A trimmed analyzer set for the slow full-cross-product benches:
/// thresholds .6/.8 and deltas .05/.2.
std::vector<AnalyzerSpec> reducedAnalyzers();

/// Expands the cross product with no special cases (see file comment).
std::vector<DetectorConfig> enumerateCrossProduct(const SweepSpec &Spec);

/// The paper's full evaluation space as this reproduction frames it:
/// the seven CW sizes of Tables 1-2, TW factors {1, 2}, skip factors
/// {1, 10, 100, 250}, both window policies plus Fixed Interval, both
/// models, the complete analyzer set, and both anchor and resize
/// policies. enumerateCrossProduct() expands it to >10,000 points.
SweepSpec paperCrossSpec();

/// Named sweep specs of the reproduction benches, shared between the
/// bench binaries and the tools' --preset so the checked spec is the
/// executed spec. Known names: "table2", "fig4", "fig5", "fig6",
/// "fig7", "fig8", "ablation13", and "paper" (paperCrossSpec()).
/// \p Analyzers fills the analyzer dimension (the benches pass their
/// --full-dependent set). Aborts on an unknown name; see
/// benchSweepNames().
SweepSpec benchSweepSpec(const std::string &Name,
                         const std::vector<AnalyzerSpec> &Analyzers);

/// The names benchSweepSpec() accepts, in table/figure order.
const std::vector<std::string> &benchSweepNames();

} // namespace opd

#endif // OPD_CORE_SWEEPSPEC_H
