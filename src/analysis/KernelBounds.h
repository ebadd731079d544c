//===- analysis/KernelBounds.h - Kernel value-range certifier ---*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interval-domain abstract interpreter over the window-kernel
/// dataflow (element ingest -> per-site count updates -> weighted or
/// unweighted min-sum delta -> threshold comparison). Given a
/// DetectorConfig and optional trace statistics it derives a sound upper
/// bound for every KernelQuantity the configured detector shape computes
/// and emits a KernelCertificate stating:
///
///  (a) whether any unsigned count, product, or accumulator can wrap
///      its storage width (uint32_t counts, uint64_t everything else);
///  (b) the minimal bit-width per quantity;
///  (c) whether the division-free threshold decision
///      (FastWeightedSetKernel::similarityAtLeast) is exact outright —
///      every integer fed to it below 2^53, so the double conversions
///      round nothing — or needs its margin-plus-exact-division
///      fallback, or does not apply because the analyzer consumes the
///      similarity quotient itself.
///
/// The abstract domain is intervals [0, Max] with Max in unsigned
/// 128-bit arithmetic (so a derived bound above 2^64 is representable,
/// not silently wrapped) plus an explicit "unbounded" top element for
/// the adaptive trailing window when no trace length is known.
///
/// The derivation mirrors the window invariants of WindowedModel and
/// KernelWindows (the windows of the fast detector and the shared-scan
/// engine):
///
///  * |CW| <= CWSize always (fill, slide-refill, and endPhase reseed
///    all keep CWLen <= Config.CWSize).
///  * Constant TW: |TW| <= TWSize. Adaptive TW: |TW| <= trace length
///    (it can hold at most every consumed element), unbounded when the
///    trace length is unknown.
///  * A per-site count never exceeds its window's length, nor the
///    site's total multiplicity in the trace when that is known.
///  * Distinct-site counters never exceed the window length or the
///    site-table size.
///  * ProductCWTW = cw[s]*|TW| <= CWCountMax*NTWMax, and symmetrically
///    for ProductTWCW; both factors are window-consistent at every
///    evaluation point, including the post-increment products the
///    fast-path deltas form.
///  * MinSum = sum_s min(cw[s]*|TW|, tw[s]*|CW|) <= sum_s cw[s]*|TW|
///    = |CW|*|TW| <= NCWMax*NTWMax.
///
/// Certificates are validated three ways (see docs/ANALYSIS.md): the
/// CheckedKernelArith shadow instrumentation in core asserts observed
/// runtime values stay within these intervals across the full
/// differential suite, adversarial boundary configs prove the analyzer
/// rejects what must be rejected, and examples/kernel_check re-proves
/// every sweep preset in ctest/CI.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_ANALYSIS_KERNELBOUNDS_H
#define OPD_ANALYSIS_KERNELBOUNDS_H

#include "core/DetectorConfig.h"
#include "core/FastDetector.h"
#include "lang/Diagnostics.h"

#include <array>

namespace opd {

/// Optional trace statistics tightening the certifier's intervals. A
/// zero field means "unknown": the certifier then uses the sound
/// worst case over all traces (for an adaptive TW with an unknown
/// trace length, that is the unbounded top element).
struct TraceBounds {
  /// Total profile elements in the trace (0 = unknown).
  uint64_t TraceLen = 0;
  /// Maximum occurrences of any single site (0 = unknown).
  uint64_t MaxMultiplicity = 0;
  /// Number of distinct sites (0 = unknown).
  SiteIndex NumSites = 0;
};

/// The certified interval [0, Max] of one KernelQuantity.
struct QuantityBound {
  /// The quantity this bound covers.
  KernelQuantity Quantity = KernelQuantity::CWCount;
  /// The configured shape's dataflow computes this quantity at all.
  /// Bounds for inapplicable quantities are zeroed and prove nothing.
  bool Applicable = false;
  /// A finite upper bound was derived. False only for TW-dependent
  /// quantities of an adaptive-TW config with no known trace length.
  bool Bounded = false;
  /// The upper bound, saturated at UINT64_MAX (Bits reports the true
  /// magnitude when the unsaturated bound needs more than 64 bits).
  uint64_t Max = 0;
  /// Minimal storage width: ceil(log2(Max+1)), computed on the
  /// unsaturated 128-bit bound (so values up to 128; 0 for an
  /// inapplicable or unbounded quantity).
  unsigned Bits = 0;
  /// The bound fits the quantity's declared storage (uint32_t for the
  /// per-site counts, uint64_t for everything else). False when
  /// !Bounded: what cannot be bounded cannot be certified to fit.
  bool FitsStorage = false;
};

/// How the threshold analyzer's decision relates to the division-free
/// integer comparison (certificate component (c)).
enum class ThresholdExactness : uint8_t {
  /// Every integer feeding the comparison is provably < 2^53: the
  /// double conversions are exact, so the decision needs neither the
  /// rounding margin nor the fallback division to be exact.
  ExactWithin53,
  /// Some integer may reach 2^53 (or is unbounded): the doubles may
  /// round and decisions near the threshold need the margin check and
  /// exact-division fallback (still bit-identical to the reference).
  MarginFallback,
  /// No division-free decision exists for this shape: the analyzer
  /// consumes the similarity quotient itself (Average/Hysteresis) or
  /// the model's similarity is inherently floating-point (ManhattanBBV).
  QuotientPath,
};

/// Stable mnemonic for \p E ("exact-53" / "margin-fallback" /
/// "quotient-path").
const char *thresholdExactnessName(ThresholdExactness E);

/// The certifier's verdict for one DetectorConfig (or, after
/// mergeCertificate, the worst case over a set of same-shape configs).
struct KernelCertificate {
  /// The certified configuration (the first merged one, for summaries).
  DetectorConfig Config;
  /// The trace statistics the intervals were tightened with.
  TraceBounds Stats;
  /// fastShapeIndex(Config): which of the NumFastShapes monomorphic
  /// instantiations this certificate gates.
  size_t Shape = 0;
  /// Number of configs merged into this certificate (1 after
  /// certifyKernel).
  size_t NumConfigs = 1;
  /// Per-quantity certified intervals, indexed by KernelQuantity.
  std::array<QuantityBound, NumKernelQuantities> Bounds{};
  /// Every applicable quantity is bounded and fits its storage: no
  /// unsigned wraparound anywhere in the kernel dataflow (certificate
  /// component (a)).
  bool NoWraparound = false;
  /// Certificate component (c): the threshold-decision exactness.
  ThresholdExactness Exactness = ThresholdExactness::QuotientPath;

  /// The bound for \p Q.
  const QuantityBound &bound(KernelQuantity Q) const {
    return Bounds[static_cast<unsigned>(Q)];
  }
};

/// Runs the abstract interpreter for \p Config under \p Stats and
/// returns the certificate. Pure function of its arguments; sound for
/// every trace consistent with \p Stats (and for every trace at all
/// when \p Stats is default-constructed).
KernelCertificate certifyKernel(const DetectorConfig &Config,
                                const TraceBounds &Stats = TraceBounds());

/// Widens \p Into to also cover \p C (same shape required): per-quantity
/// interval join, conjunction of the wraparound claims, weakest
/// exactness. Folding every config of a sweep into one certificate per
/// shape gives each shape's worst case (kernel_check reports those).
void mergeCertificate(KernelCertificate &Into, const KernelCertificate &C);

/// Returns Cert.NoWraparound. The batch kernels need no admission
/// (batchMinSum's runtime totals guard keeps them exact), so this is
/// kept only because perfbench/Offline.cpp still calls it to choose
/// SharedScanEngineBase::setBatchKernels; it goes once perfbench stops.
bool admitsBatchLanes(const KernelCertificate &Cert);

/// Reports \p Cert's findings into \p Diags using the stable diagnostic
/// codes (kernel-count-overflow, kernel-product-overflow,
/// kernel-product-near-64bit, kernel-unbounded-tw — see
/// analysis/ConfigAnalysis.h for the catalogue). An error means the
/// config must not run on the current kernels; warnings flag configs
/// within 6 bits of the 64-bit cliff or with unprovable adaptive-TW
/// growth.
void lintCertificate(const KernelCertificate &Cert, DiagnosticEngine &Diags);

} // namespace opd

#endif // OPD_ANALYSIS_KERNELBOUNDS_H
