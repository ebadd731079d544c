//===- core/DetectorConfig.h - Detector instantiation configs ---*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A DetectorConfig captures one point in the framework's parameter space
/// (window policy x model policy x analyzer policy). The evaluation
/// instantiates thousands of these; makeDetector() builds the concrete
/// PhaseDetector. validateConfig() is the one rule for which points are
/// legal: the server, the tools and the config lint all ask it.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_DETECTORCONFIG_H
#define OPD_CORE_DETECTORCONFIG_H

#include "core/PhaseDetector.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

namespace opd {

/// One instantiation of the framework.
struct DetectorConfig {
  WindowConfig Window;
  ModelKind Model = ModelKind::UnweightedSet;
  AnalyzerKind TheAnalyzer = AnalyzerKind::Threshold;
  /// Threshold value or average delta, depending on TheAnalyzer.
  double AnalyzerParam = 0.5;

  /// One-line description for tables.
  std::string describe() const;

  /// True for the "Fixed Interval" policy of the prior literature:
  /// Constant TW with skipFactor == CW size (== TW size).
  bool isFixedInterval() const {
    return Window.TWPolicy == TWPolicyKind::Constant &&
           Window.SkipFactor == Window.CWSize;
  }

  /// Field-wise equality (exact on AnalyzerParam; sweep dimensions are
  /// enumerated, not computed, so exact comparison is meaningful).
  friend bool operator==(const DetectorConfig &A, const DetectorConfig &B) {
    return A.Window == B.Window && A.Model == B.Model &&
           A.TheAnalyzer == B.TheAnalyzer &&
           A.AnalyzerParam == B.AnalyzerParam;
  }
  friend bool operator!=(const DetectorConfig &A, const DetectorConfig &B) {
    return !(A == B);
  }
};

/// Upper bounds validateConfig() applies to the window sizes and the skip
/// factor. The defaults admit any uint32_t; the server passes its own.
struct ConfigLimits {
  uint32_t MaxWindow = std::numeric_limits<uint32_t>::max();
  uint32_t MaxSkip = std::numeric_limits<uint32_t>::max();
};

/// Decides whether \p Config is a legal point of the parameter space:
/// CW and TW in [1, MaxWindow], skip in [1, MaxSkip], a finite
/// AnalyzerParam, and a Hysteresis enter threshold of at least 0 (the
/// derived exit threshold, never below 0, must not exceed it). Returns ""
/// for a legal config, else one line naming the first field at fault.
std::string validateConfig(const DetectorConfig &Config,
                           const ConfigLimits &Limits = {});

/// Builds the detector \p Config describes, sized for \p NumSites
/// distinct profile elements.
std::unique_ptr<PhaseDetector> makeDetector(const DetectorConfig &Config,
                                            SiteIndex NumSites);

/// Builds the detector \p Config describes with the
/// CheckedKernelArith-instrumented kernel: every kernel arithmetic step
/// is overflow-checked and its value recorded into \p Probe (which must
/// outlive the detector). The shadow mode of the KernelBounds
/// certificates (analysis/KernelBounds.h) — behaviorally identical to
/// makeDetector, plus observation.
std::unique_ptr<PhaseDetector> makeCheckedDetector(const DetectorConfig &Config,
                                                   SiteIndex NumSites,
                                                   KernelValueProbe &Probe);

} // namespace opd

#endif // OPD_CORE_DETECTORCONFIG_H
