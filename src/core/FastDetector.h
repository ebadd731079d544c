//===- core/FastDetector.h - Monomorphic fast-path detectors ----*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference PhaseDetector dispatches every kernel update through
/// SimilarityKernel's virtual interface and every decision through
/// Analyzer's — fine for one detector, but the evaluation streams the
/// same traces through thousands of configurations, and the per-element
/// virtual calls dominate.
///
/// makeFastDetector() instead picks one of NumFastShapes template
/// instantiations — one per (model x TW policy x analyzer kind) shape —
/// in which the kernel is held by concrete type and the analyzer decision
/// is a free function of the shape's kind (core/FastKernels.h), so their
/// per-element operations inline into the consume loop, and
/// consumeTrace() is overridden with a fully monomorphic loop: a whole
/// run costs a single virtual dispatch.
///
/// The fast path is an optimization, not a fork: it produces
/// bit-identical StateSequences, anchored phases, and scores to the
/// reference detector (tests/FastDetectorTest.cpp holds the two equal
/// across the entire sweep space). The reference PhaseDetector remains
/// the detector of record — it alone emits observer events, so observed
/// runs and stat collection stay on it.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_FASTDETECTOR_H
#define OPD_CORE_FASTDETECTOR_H

#include "core/DetectorConfig.h"

#include <memory>

namespace opd {

/// Abstract base of the monomorphic fast-path detectors: an
/// OnlineDetector that can additionally be re-targeted at another
/// configuration of the same shape, so a reuse pool (the serving
/// detector cache) keeps the kernel's per-site count arrays across the
/// configs sharing a shape.
class FastDetectorBase : public OnlineDetector {
public:
  /// Re-targets this instantiation at \p Config — which must map to this
  /// detector's shape (fastShapeIndex) — without reallocating the
  /// kernel's per-site arrays, then resets for a fresh stream.
  virtual void reconfigure(const DetectorConfig &Config) = 0;

  /// The site-space size this instantiation's kernel arrays were built
  /// for. reconfigure() cannot change it, so reuse pools (the serving
  /// detector cache) key their free lists on
  /// (fastShapeIndex, numSites) to decide whether an instance can be
  /// re-targeted at a new stream or must be rebuilt.
  virtual SiteIndex numSites() const = 0;
};

/// Number of distinct fast-path instantiations: model (3) x TW policy
/// (2) x analyzer kind (3).
constexpr size_t NumFastShapes = 18;

/// Index of \p Config's instantiation shape, in [0, NumFastShapes).
/// Configs with equal shape differ only in runtime parameters (window
/// sizes, skip factor, anchor/resize, analyzer parameter) and can share
/// one reconfigure()d detector instance.
size_t fastShapeIndex(const DetectorConfig &Config);

/// Builds the monomorphic fast-path detector for \p Config, sized for
/// \p NumSites distinct profile elements. Output is bit-identical to
/// makeDetector(Config, NumSites)'s.
std::unique_ptr<FastDetectorBase>
makeFastDetector(const DetectorConfig &Config, SiteIndex NumSites);

/// Builds the fast-path detector for \p Config with the
/// CheckedKernelArith-instrumented kernel: every kernel arithmetic step
/// is overflow-checked and its value recorded into \p Probe (which must
/// outlive the detector). This is the fast-path half of the KernelBounds
/// shadow mode (analysis/KernelBounds.h) — decision-identical to
/// makeFastDetector, plus observation.
std::unique_ptr<FastDetectorBase>
makeCheckedFastDetector(const DetectorConfig &Config, SiteIndex NumSites,
                        KernelValueProbe &Probe);

} // namespace opd

#endif // OPD_CORE_FASTDETECTOR_H
