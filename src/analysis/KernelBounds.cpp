//===- analysis/KernelBounds.cpp - Kernel value-range certifier -------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelBounds.h"

#include <algorithm>
#include <limits>

using namespace opd;

namespace {

/// Spec-level diagnostics have no source text to point at.
constexpr SourceLoc SpecLoc{0, 0};

/// The abstract domain: intervals [0, Max] in unsigned 128-bit
/// arithmetic, plus an explicit unbounded top element. 128 bits suffice
/// exactly: every concrete quantity is a uint64_t (or narrower), so the
/// product of two in-range factors — the widest expression the kernel
/// dataflow forms — fits 128 bits, and a derived bound above 2^64 stays
/// representable instead of silently wrapping inside the certifier.
using U128 = unsigned __int128;

struct Interval {
  bool Bounded = false;
  U128 Max = 0;
};

constexpr Interval top() { return {false, 0}; }
constexpr Interval upTo(U128 Max) { return {true, Max}; }

/// Interval meet on upper bounds: the concrete value is known to be
/// below both arguments.
Interval meet(Interval A, Interval B) {
  if (!A.Bounded)
    return B;
  if (!B.Bounded)
    return A;
  return upTo(std::min(A.Max, B.Max));
}

/// Abstract multiplication: [0,a] * [0,b] = [0, a*b]; anything times an
/// unbounded factor is unbounded (the other factor is never provably 0).
Interval mul(Interval A, Interval B) {
  if (!A.Bounded || !B.Bounded)
    return top();
  return upTo(A.Max * B.Max);
}

/// Interval join on upper bounds (certificate merging).
Interval join(Interval A, Interval B) {
  if (!A.Bounded || !B.Bounded)
    return top();
  return upTo(std::max(A.Max, B.Max));
}

/// ceil(log2(V+1)): the minimal number of bits that can store V.
unsigned bitsFor(U128 V) {
  unsigned Bits = 0;
  while (V != 0) {
    V >>= 1;
    ++Bits;
  }
  return Bits;
}

/// True if \p Q is a per-site count held in uint32_t storage.
bool isCountQuantity(KernelQuantity Q) {
  return Q == KernelQuantity::CWCount || Q == KernelQuantity::TWCount;
}

/// True if \p Q is one of the uint64_t cross-products or the MinSum
/// accumulator (the quantities the overflow diagnostics gate on).
bool isProductQuantity(KernelQuantity Q) {
  return Q == KernelQuantity::ProductCWTW ||
         Q == KernelQuantity::ProductTWCW || Q == KernelQuantity::MinSum;
}

/// The quantities the model \p M actually computes.
bool applicableTo(ModelKind M, KernelQuantity Q) {
  switch (Q) {
  case KernelQuantity::CWCount:
  case KernelQuantity::TWCount:
  case KernelQuantity::CWTotal:
  case KernelQuantity::TWTotal:
    return true;
  case KernelQuantity::CWDistinct:
  case KernelQuantity::BothDistinct:
    return M == ModelKind::UnweightedSet;
  case KernelQuantity::ProductCWTW:
  case KernelQuantity::ProductTWCW:
  case KernelQuantity::MinSum:
    return M == ModelKind::WeightedSet;
  }
  return false;
}

/// Fills one QuantityBound from the abstract value \p I.
QuantityBound makeBound(KernelQuantity Q, bool Applicable, Interval I) {
  QuantityBound B;
  B.Quantity = Q;
  B.Applicable = Applicable;
  if (!Applicable)
    return B;
  B.Bounded = I.Bounded;
  if (!I.Bounded)
    return B;
  constexpr U128 U64Max = std::numeric_limits<uint64_t>::max();
  B.Max = I.Max > U64Max ? std::numeric_limits<uint64_t>::max()
                         : static_cast<uint64_t>(I.Max);
  B.Bits = bitsFor(I.Max);
  U128 Storage = isCountQuantity(Q)
                     ? static_cast<U128>(std::numeric_limits<uint32_t>::max())
                     : U64Max;
  B.FitsStorage = I.Max <= Storage;
  return B;
}

/// Worst case of two exactness claims (ExactWithin53 strongest).
ThresholdExactness weaker(ThresholdExactness A, ThresholdExactness B) {
  auto Rank = [](ThresholdExactness E) {
    switch (E) {
    case ThresholdExactness::ExactWithin53:
      return 0;
    case ThresholdExactness::MarginFallback:
      return 1;
    case ThresholdExactness::QuotientPath:
      return 2;
    }
    return 2;
  };
  return Rank(A) >= Rank(B) ? A : B;
}

/// Recomputes NoWraparound from the per-quantity bounds.
void summarize(KernelCertificate &Cert) {
  Cert.NoWraparound = true;
  for (const QuantityBound &B : Cert.Bounds)
    if (B.Applicable && (!B.Bounded || !B.FitsStorage))
      Cert.NoWraparound = false;
}

} // namespace

const char *opd::thresholdExactnessName(ThresholdExactness E) {
  switch (E) {
  case ThresholdExactness::ExactWithin53:
    return "exact-53";
  case ThresholdExactness::MarginFallback:
    return "margin-fallback";
  case ThresholdExactness::QuotientPath:
    return "quotient-path";
  }
  return "unknown";
}

KernelCertificate opd::certifyKernel(const DetectorConfig &Config,
                                     const TraceBounds &Stats) {
  KernelCertificate Cert;
  Cert.Config = Config;
  Cert.Stats = Stats;
  Cert.Shape = fastShapeIndex(Config);
  Cert.NumConfigs = 1;

  const WindowConfig &W = Config.Window;

  // Window-length invariants (see the header comment): the CW never
  // exceeds its configured size under any policy; a Constant TW never
  // exceeds its size; an Adaptive TW is bounded only by the trace.
  Interval NCW = upTo(W.CWSize);
  Interval NTW = W.TWPolicy == TWPolicyKind::Constant
                     ? upTo(W.TWSize)
                     : (Stats.TraceLen ? upTo(Stats.TraceLen) : top());

  // A per-site count is bounded by its window's length and by the
  // site's total multiplicity in the trace (itself at most the trace
  // length).
  Interval Mult = Stats.MaxMultiplicity
                      ? upTo(Stats.MaxMultiplicity)
                      : (Stats.TraceLen ? upTo(Stats.TraceLen) : top());
  Interval Sites = Stats.NumSites ? upTo(Stats.NumSites) : top();

  Interval CWCount = meet(NCW, Mult);
  Interval TWCount = meet(NTW, Mult);

  // Distinct-site counters: at most the window length, at most the
  // site-table size.
  Interval CWDistinct = meet(NCW, Sites);
  Interval BothDistinct = meet(meet(CWDistinct, NTW), Sites);

  // The weighted dataflow's widest expressions. Each product is
  // evaluated in full before the min() that discards the larger one, so
  // each must individually fit uint64_t; this covers the fast path's
  // post-increment/post-decrement products too, because the bumped
  // count is itself a reachable count value below CWCount/TWCount.
  Interval ProductCWTW = mul(CWCount, NTW);
  Interval ProductTWCW = mul(TWCount, NCW);

  // MinSum = sum_s min(cw[s]*NTW, tw[s]*NCW) <= sum_s cw[s]*NTW
  //        = NCW*NTW.
  Interval MinSum = mul(NCW, NTW);

  auto Set = [&](KernelQuantity Q, Interval I) {
    Cert.Bounds[static_cast<unsigned>(Q)] =
        makeBound(Q, applicableTo(Config.Model, Q), I);
  };
  Set(KernelQuantity::CWCount, CWCount);
  Set(KernelQuantity::TWCount, TWCount);
  Set(KernelQuantity::CWTotal, NCW);
  Set(KernelQuantity::TWTotal, NTW);
  Set(KernelQuantity::CWDistinct, CWDistinct);
  Set(KernelQuantity::BothDistinct, BothDistinct);
  Set(KernelQuantity::ProductCWTW, ProductCWTW);
  Set(KernelQuantity::ProductTWCW, ProductTWCW);
  Set(KernelQuantity::MinSum, MinSum);

  summarize(Cert);

  // Certificate component (c): the threshold-decision exactness.
  if (Config.TheAnalyzer != AnalyzerKind::Threshold ||
      Config.Model == ModelKind::ManhattanBBV) {
    // Average/Hysteresis consume the similarity quotient itself, and
    // the Manhattan similarity is inherently floating-point.
    Cert.Exactness = ThresholdExactness::QuotientPath;
  } else if (Config.Model == ModelKind::UnweightedSet) {
    // The unweighted decision divides two distinct-site counters, each
    // below 2^32 < 2^53: both doubles are exact.
    Cert.Exactness = ThresholdExactness::ExactWithin53;
  } else {
    // Weighted: the division-free comparison reads MinSum and
    // double(NCW)*double(NTW); NCW*NTW bounds both sides.
    constexpr U128 TwoTo53 = static_cast<U128>(1) << 53;
    Cert.Exactness = MinSum.Bounded && MinSum.Max < TwoTo53
                         ? ThresholdExactness::ExactWithin53
                         : ThresholdExactness::MarginFallback;
  }
  return Cert;
}

void opd::mergeCertificate(KernelCertificate &Into,
                           const KernelCertificate &C) {
  assert(Into.Shape == C.Shape && "merging certificates across shapes");
  Into.NumConfigs += C.NumConfigs;
  for (unsigned I = 0; I != NumKernelQuantities; ++I) {
    QuantityBound &A = Into.Bounds[I];
    const QuantityBound &B = C.Bounds[I];
    assert(A.Applicable == B.Applicable &&
           "same-shape certificates must agree on applicability");
    if (!A.Applicable)
      continue;
    // Rebuild the joined bound through the same 128-bit path so the
    // saturated Max / Bits fields stay mutually consistent. A saturated
    // uint64_t Max only ever joins with another saturated one at the
    // same reported value, so joining the saturated fields is exact.
    Interval IA = A.Bounded ? upTo(A.Max) : top();
    Interval IB = B.Bounded ? upTo(B.Max) : top();
    unsigned MaxBits = std::max(A.Bits, B.Bits);
    bool Fits = A.FitsStorage && B.FitsStorage;
    A = makeBound(A.Quantity, true, join(IA, IB));
    // bitsFor() on the saturated Max under-reports a >64-bit bound;
    // restore the wider source's true bit count and fit claim.
    A.Bits = std::max(A.Bits, MaxBits);
    A.FitsStorage = A.Bounded && Fits;
  }
  summarize(Into);
  Into.Exactness = weaker(Into.Exactness, C.Exactness);
}

void opd::lintCertificate(const KernelCertificate &Cert,
                          DiagnosticEngine &Diags) {
  const std::string Desc = Cert.Config.describe();
  // Within 6 bits of the 64-bit cliff: one more decimal digit of window
  // size would overflow.
  constexpr uint64_t NearLimit = static_cast<uint64_t>(1) << 58;

  bool AnyUnbounded = false;
  for (const QuantityBound &B : Cert.Bounds) {
    if (!B.Applicable)
      continue;
    if (!B.Bounded) {
      AnyUnbounded = true;
      continue;
    }
    if (isCountQuantity(B.Quantity) && !B.FitsStorage) {
      Diags.report(DiagSeverity::Error, SpecLoc, "kernel-count-overflow",
                   std::string(kernelQuantityName(B.Quantity)) +
                       " can reach " + std::to_string(B.Max) + " (" +
                       std::to_string(B.Bits) +
                       " bits), wrapping the uint32_t window counts; '" +
                       Desc + "' must not run on the integer kernels");
      continue;
    }
    if (!isProductQuantity(B.Quantity))
      continue;
    if (!B.FitsStorage) {
      Diags.report(DiagSeverity::Error, SpecLoc, "kernel-product-overflow",
                   std::string(kernelQuantityName(B.Quantity)) +
                       " needs " + std::to_string(B.Bits) +
                       " bits, wrapping the uint64_t kernel arithmetic; '" +
                       Desc + "' must not run on the integer kernels");
    } else if (B.Max >= NearLimit) {
      Diags.report(DiagSeverity::Warning, SpecLoc,
                   "kernel-product-near-64bit",
                   std::string(kernelQuantityName(B.Quantity)) +
                       " can reach " + std::to_string(B.Max) + " (" +
                       std::to_string(B.Bits) +
                       " bits), within 6 bits of the uint64_t limit; '" +
                       Desc + "' leaves no headroom for larger windows");
    }
  }

  if (AnyUnbounded)
    Diags.report(
        DiagSeverity::Warning, SpecLoc, "kernel-unbounded-tw",
        "adaptive TW growth is unbounded without a trace length; cannot "
        "certify the TW-dependent quantities of '" +
            Desc + "' (provide --trace-len to bound them)");
}

bool opd::admitsBatchLanes(const KernelCertificate &Cert) {
  return Cert.NoWraparound;
}
