//===- core/SimilarityKernel.h - Window similarity kernels ------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Similarity kernels maintain per-site occurrence counts for the trailing
/// window (TW) and current window (CW) and compute the similarity value
/// between them (the paper's model policies, Section 2):
///
///  * UnweightedSetKernel — asymmetric working-set similarity: the
///    fraction of *distinct* CW elements that also appear in the TW,
///    independent of frequency.
///  * WeightedSetKernel — symmetric weighted similarity: the sum over
///    elements of min(relative weight in CW, relative weight in TW).
///
/// Both kernels are incremental. The weighted kernel maintains the
/// integer sum  S = sum_s min(cw[s]*|TW|, tw[s]*|CW|)  exactly while the
/// window totals are stable (the replace operations) and falls back to a
/// recomputation over the touched sites after totals change (window
/// fill, flush, anchor, or adaptive TW growth). The online detector is
/// thus O(1) per element in steady state with a constant TW and
/// O(touched sites) per element only while an adaptive TW is growing.
///
/// All kernels track the distinct sites touched since the last reset()
/// (a flag array plus a touched list), so a phase flush — reset(), called
/// on every P->T transition — costs O(distinct sites touched) instead of
/// O(numSites), and the weighted recomputation sums over the touched
/// list only (an integer sum, so the iteration order cannot perturb the
/// result).
///
/// Every kernel arithmetic step routes through a compile-time *arithmetic
/// policy* (PlainKernelArith in production, CheckedKernelArith under
/// test). The incremental MinSum updates are written in a non-wrapping
/// gain/loss form: the replaced-in site's term only rises and the
/// replaced-out site's term only falls, so the gain is added and the loss
/// subtracted as two separately non-negative deltas, and no intermediate
/// ever exceeds the analysis bound NCW*NTW. analysis/KernelBounds.h
/// derives sound upper bounds for each KernelQuantity per DetectorConfig
/// and certifies exactly this no-wraparound property; CheckedKernelArith
/// is the runtime shadow that validates those certificates.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_SIMILARITYKERNEL_H
#define OPD_CORE_SIMILARITYKERNEL_H

#include "trace/ProfileElement.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace opd {

/// The model policies. UnweightedSet and WeightedSet are the paper's
/// two models; ManhattanBBV is the frequency-vector distance used by the
/// basic-block-vector line of work the paper builds on (Sherwood et
/// al.), expressed as a similarity: 1 - (normalized L1 distance)/2.
enum class ModelKind : uint8_t {
  UnweightedSet, ///< Asymmetric working-set model.
  WeightedSet,   ///< Symmetric min-relative-weight model.
  ManhattanBBV,  ///< 1 - normalized Manhattan distance (extension).
};

/// Short mnemonic ("unweighted"/"weighted") for tables.
const char *modelKindName(ModelKind Kind);

/// Inverse of modelKindName, ignoring case; false on an unknown name.
bool parseModelKind(std::string_view Text, ModelKind &Kind);

/// Every distinct integer quantity the kernel dataflow computes. The
/// abstract interpreter (analysis/KernelBounds.h) derives a sound upper
/// bound per quantity and DetectorConfig; CheckedKernelArith observes the
/// runtime value of the same quantities so tests can compare the two.
enum class KernelQuantity : uint8_t {
  CWCount,      ///< Per-site occurrence count in the CW (uint32_t).
  TWCount,      ///< Per-site occurrence count in the TW (uint32_t).
  CWTotal,      ///< |CW|: total occurrences in the CW (uint64_t).
  TWTotal,      ///< |TW|: total occurrences in the TW (uint64_t).
  CWDistinct,   ///< Distinct sites present in the CW (unweighted model).
  BothDistinct, ///< Distinct sites present in both windows.
  ProductCWTW,  ///< cw[s]*|TW|, the left min() operand (uint64_t).
  ProductTWCW,  ///< tw[s]*|CW|, the right min() operand (uint64_t).
  MinSum,       ///< sum_s min(cw[s]*|TW|, tw[s]*|CW|) (uint64_t).
};

/// Number of KernelQuantity enumerators (array sizing).
constexpr unsigned NumKernelQuantities = 9;

/// Stable kebab-case mnemonic for \p Q ("cw-count", "product-cw-tw", ...),
/// shared by the certifier's reports and the probe's test output.
const char *kernelQuantityName(KernelQuantity Q);

/// Runtime witness for the kernel value-range analysis: records the
/// maximum observed value and the number of overflow events per
/// KernelQuantity. CheckedKernelArith feeds one of these; tests compare
/// the observed maxima against the certificates' predicted bounds (every
/// observed value must be <= the bound, and overflowCount must be zero
/// whenever the certificate claims no wraparound).
class KernelValueProbe {
public:
  KernelValueProbe() { reset(); }

  /// Records \p V as an observed value of \p Q.
  void observe(KernelQuantity Q, uint64_t V) {
    uint64_t &Max = ObservedMax[static_cast<unsigned>(Q)];
    if (V > Max)
      Max = V;
  }

  /// Records one overflow (wraparound) event on \p Q.
  void noteOverflow(KernelQuantity Q) {
    ++Overflows[static_cast<unsigned>(Q)];
  }

  /// Largest value observed for \p Q since the last reset().
  uint64_t observedMax(KernelQuantity Q) const {
    return ObservedMax[static_cast<unsigned>(Q)];
  }

  /// Number of overflow events recorded for \p Q since the last reset().
  uint64_t overflowCount(KernelQuantity Q) const {
    return Overflows[static_cast<unsigned>(Q)];
  }

  /// Sum of overflowCount over all quantities.
  uint64_t totalOverflows() const {
    uint64_t Total = 0;
    for (uint64_t N : Overflows)
      Total += N;
    return Total;
  }

  /// Zeroes all maxima and overflow counters.
  void reset() {
    ObservedMax.fill(0);
    Overflows.fill(0);
  }

private:
  std::array<uint64_t, NumKernelQuantities> ObservedMax;
  std::array<uint64_t, NumKernelQuantities> Overflows;
};

/// Production arithmetic policy: plain unsigned operations, no
/// observation. Every method is a trivial inline forwarder, so a kernel
/// instantiated with this policy compiles to exactly the arithmetic it
/// would contain without the policy layer.
struct PlainKernelArith {
  /// Distinguishes the policies at compile time (e.g. for tests).
  static constexpr bool Checked = false;

  /// Returns A * B.
  uint64_t mul(KernelQuantity, uint64_t A, uint64_t B) const {
    return A * B;
  }
  /// Returns A + B.
  uint64_t add(KernelQuantity, uint64_t A, uint64_t B) const {
    return A + B;
  }
  /// Returns A - B.
  uint64_t sub(KernelQuantity, uint64_t A, uint64_t B) const {
    return A - B;
  }
  /// Observes a post-increment uint32_t count value (no-op).
  void observeCount(KernelQuantity, uint32_t) const {}
  /// Observes a uint64_t quantity value (no-op).
  void observeValue(KernelQuantity, uint64_t) const {}
};

/// Shadow arithmetic policy: every operation is overflow-checked via the
/// compiler builtins (well-defined even when the mathematical result does
/// not fit) and every result is recorded in a KernelValueProbe. Used by
/// makeCheckedKernel / makeCheckedDetector / makeCheckedFastDetector to
/// validate KernelBounds certificates dynamically.
struct CheckedKernelArith {
  /// Records observations and overflow events into \p Probe.
  explicit CheckedKernelArith(KernelValueProbe &Probe) : Probe(&Probe) {}

  /// Distinguishes the policies at compile time (e.g. for tests).
  static constexpr bool Checked = true;

  /// Returns A * B mod 2^64; notes an overflow if the true product does
  /// not fit, otherwise observes the result.
  uint64_t mul(KernelQuantity Q, uint64_t A, uint64_t B) const {
    uint64_t R;
    if (__builtin_mul_overflow(A, B, &R)) {
      Probe->noteOverflow(Q);
      return R;
    }
    Probe->observe(Q, R);
    return R;
  }

  /// Returns A + B mod 2^64; notes an overflow if the true sum does not
  /// fit, otherwise observes the result.
  uint64_t add(KernelQuantity Q, uint64_t A, uint64_t B) const {
    uint64_t R;
    if (__builtin_add_overflow(A, B, &R)) {
      Probe->noteOverflow(Q);
      return R;
    }
    Probe->observe(Q, R);
    return R;
  }

  /// Returns A - B mod 2^64; notes an overflow if A < B (unsigned wrap).
  /// The result is not observed: a difference is never larger than a
  /// value the probe already saw.
  uint64_t sub(KernelQuantity Q, uint64_t A, uint64_t B) const {
    uint64_t R;
    if (__builtin_sub_overflow(A, B, &R))
      Probe->noteOverflow(Q);
    return R;
  }

  /// Observes a post-increment uint32_t count: a post-increment value of
  /// zero means the count wrapped past UINT32_MAX.
  void observeCount(KernelQuantity Q, uint32_t V) const {
    if (V == 0) {
      Probe->noteOverflow(Q);
      return;
    }
    Probe->observe(Q, V);
  }

  /// Observes a uint64_t quantity value.
  void observeValue(KernelQuantity Q, uint64_t V) const {
    Probe->observe(Q, V);
  }

private:
  KernelValueProbe *Probe;
};

/// Base class: occupancy counts plus the operations the window machinery
/// performs. All operations must keep counts consistent; similarity() may
/// be called at any time.
class SimilarityKernel {
public:
  explicit SimilarityKernel(SiteIndex NumSites)
      : CWCounts(NumSites, 0), TWCounts(NumSites, 0),
        SiteTouched(NumSites, 0) {}
  virtual ~SimilarityKernel();

  /// Zeroes all counts and derived state. Costs O(distinct sites touched
  /// since the last reset), not O(numSites): endPhase() calls this on
  /// every P->T transition, and on noisy traces with frequent flushes the
  /// windows only ever held a small fraction of the site space.
  virtual void reset();

  /// Adds/removes one occurrence of \p S to/from a window. These change
  /// the window totals.
  virtual void cwAdd(SiteIndex S) = 0;
  virtual void cwRemove(SiteIndex S) = 0;
  virtual void twAdd(SiteIndex S) = 0;
  virtual void twRemove(SiteIndex S) = 0;

  /// Totals-stable combined operations (remove \p Out, add \p In). The
  /// removal runs first so the window totals never exceed the window
  /// bound, even transiently — the KernelBounds certificates
  /// (analysis/KernelBounds.h) certify NCW/NTW against that invariant
  /// and the checked shadow arithmetic observes every intermediate. The
  /// weighted kernel overrides these with O(1) updates.
  virtual void cwReplace(SiteIndex In, SiteIndex Out) {
    cwRemove(Out);
    cwAdd(In);
  }
  virtual void twReplace(SiteIndex In, SiteIndex Out) {
    twRemove(Out);
    twAdd(In);
  }

  /// Moves one occurrence of \p S from the CW into the TW (the element
  /// crossing the window boundary). Changes both totals.
  virtual void moveCWToTW(SiteIndex S) {
    cwRemove(S);
    twAdd(S);
  }

  /// The similarity of the current window contents, in [0, 1]. An empty
  /// CW yields 0.
  virtual double similarity() = 0;

  /// Test hook: resets the kernel and installs \p CW / \p TW as the
  /// per-site occurrence counts directly, recomputing the totals and
  /// derived state. Boundary tests use this to reach count magnitudes
  /// (near UINT32_MAX) that streaming that many elements cannot. Both
  /// vectors must have numSites() entries.
  virtual void seedCountsForTest(const std::vector<uint32_t> &CW,
                                 const std::vector<uint32_t> &TW);

  /// True if \p S occurs in the CW (used by the anchor policies: a TW
  /// element absent from the CW is "noisy").
  bool inCW(SiteIndex S) const {
    assert(S < CWCounts.size() && "site out of range");
    return CWCounts[S] != 0;
  }

  /// Window totals (number of occurrences, not distinct sites).
  uint64_t cwTotal() const { return NCW; }
  uint64_t twTotal() const { return NTW; }

  /// Number of sites the kernel was sized for.
  SiteIndex numSites() const {
    return static_cast<SiteIndex>(CWCounts.size());
  }

protected:
  /// Records \p S as holding a (possibly) nonzero count until the next
  /// reset(). Every operation that adds an occurrence must call this;
  /// remove operations need not (a removed site was added first).
  void touch(SiteIndex S) {
    if (!SiteTouched[S]) {
      SiteTouched[S] = 1;
      TouchedSites.push_back(S);
    }
  }

  std::vector<uint32_t> CWCounts;
  std::vector<uint32_t> TWCounts;
  uint64_t NCW = 0;
  uint64_t NTW = 0;
  /// Flag per site: S appears in TouchedSites. Kept as a byte array so
  /// the hot-path check is one predictable load.
  std::vector<uint8_t> SiteTouched;
  /// The distinct sites touched since the last reset(); reset() zeroes
  /// exactly these instead of sweeping both O(numSites) count arrays.
  std::vector<SiteIndex> TouchedSites;
};

/// Asymmetric working-set similarity (unweighted model).
///
/// The per-element mutators are defined inline: the monomorphic fast-path
/// detectors (core/FastDetector.cpp) hold kernels by concrete final type,
/// so these inline straight into the per-element loop. Virtual callers
/// bind the same definitions through the vtable.
///
/// \tparam ArithT the arithmetic policy (PlainKernelArith in production).
template <typename ArithT = PlainKernelArith>
class UnweightedSetKernelT final : public SimilarityKernel {
public:
  /// \p A is the arithmetic policy instance (defaulted in production).
  explicit UnweightedSetKernelT(SiteIndex NumSites, ArithT A = ArithT())
      : SimilarityKernel(NumSites), Arith(A) {}

  void reset() override {
    SimilarityKernel::reset();
    CWDistinct = 0;
    BothDistinct = 0;
  }

  void cwAdd(SiteIndex S) override {
    assert(S < CWCounts.size() && "site out of range");
    touch(S);
    if (CWCounts[S]++ == 0) {
      ++CWDistinct;
      Arith.observeValue(KernelQuantity::CWDistinct, CWDistinct);
      if (TWCounts[S] != 0) {
        ++BothDistinct;
        Arith.observeValue(KernelQuantity::BothDistinct, BothDistinct);
      }
    }
    Arith.observeCount(KernelQuantity::CWCount, CWCounts[S]);
    ++NCW;
    Arith.observeValue(KernelQuantity::CWTotal, NCW);
  }

  void cwRemove(SiteIndex S) override {
    assert(S < CWCounts.size() && "site out of range");
    assert(CWCounts[S] != 0 && "removing a site not in the CW");
    if (--CWCounts[S] == 0) {
      --CWDistinct;
      if (TWCounts[S] != 0)
        --BothDistinct;
    }
    --NCW;
  }

  void twAdd(SiteIndex S) override {
    assert(S < TWCounts.size() && "site out of range");
    touch(S);
    if (TWCounts[S]++ == 0 && CWCounts[S] != 0) {
      ++BothDistinct;
      Arith.observeValue(KernelQuantity::BothDistinct, BothDistinct);
    }
    Arith.observeCount(KernelQuantity::TWCount, TWCounts[S]);
    ++NTW;
    Arith.observeValue(KernelQuantity::TWTotal, NTW);
  }

  void twRemove(SiteIndex S) override {
    assert(S < TWCounts.size() && "site out of range");
    assert(TWCounts[S] != 0 && "removing a site not in the TW");
    if (--TWCounts[S] == 0 && CWCounts[S] != 0)
      --BothDistinct;
    --NTW;
  }

  double similarity() override {
    if (CWDistinct == 0)
      return 0.0;
    return static_cast<double>(BothDistinct) /
           static_cast<double>(CWDistinct);
  }

  void seedCountsForTest(const std::vector<uint32_t> &CW,
                         const std::vector<uint32_t> &TW) override {
    SimilarityKernel::seedCountsForTest(CW, TW);
    CWDistinct = 0;
    BothDistinct = 0;
    for (SiteIndex S = 0, E = numSites(); S != E; ++S) {
      if (CWCounts[S] != 0) {
        ++CWDistinct;
        if (TWCounts[S] != 0)
          ++BothDistinct;
      }
    }
  }

private:
  ArithT Arith;
  /// Number of distinct sites present in the CW.
  uint64_t CWDistinct = 0;
  /// Number of distinct sites present in both windows.
  uint64_t BothDistinct = 0;
};

/// Symmetric min-relative-weight similarity (weighted model).
///
/// \tparam ArithT the arithmetic policy (PlainKernelArith in production).
template <typename ArithT = PlainKernelArith>
class WeightedSetKernelT final : public SimilarityKernel {
public:
  /// \p A is the arithmetic policy instance (defaulted in production).
  explicit WeightedSetKernelT(SiteIndex NumSites, ArithT A = ArithT())
      : SimilarityKernel(NumSites), Arith(A) {}

  void reset() override {
    SimilarityKernel::reset();
    MinSum = 0;
    Dirty = false;
  }

  void cwAdd(SiteIndex S) override {
    assert(S < CWCounts.size() && "site out of range");
    touch(S);
    ++CWCounts[S];
    Arith.observeCount(KernelQuantity::CWCount, CWCounts[S]);
    ++NCW;
    Arith.observeValue(KernelQuantity::CWTotal, NCW);
    Dirty = true;
  }

  void cwRemove(SiteIndex S) override {
    assert(CWCounts[S] != 0 && "removing a site not in the CW");
    --CWCounts[S];
    --NCW;
    Dirty = true;
  }

  void twAdd(SiteIndex S) override {
    assert(S < TWCounts.size() && "site out of range");
    touch(S);
    ++TWCounts[S];
    Arith.observeCount(KernelQuantity::TWCount, TWCounts[S]);
    ++NTW;
    Arith.observeValue(KernelQuantity::TWTotal, NTW);
    Dirty = true;
  }

  void twRemove(SiteIndex S) override {
    assert(TWCounts[S] != 0 && "removing a site not in the TW");
    --TWCounts[S];
    --NTW;
    Dirty = true;
  }

  void cwReplace(SiteIndex In, SiteIndex Out) override {
    assert(In < CWCounts.size() && Out < CWCounts.size() &&
           "site out of range");
    assert(CWCounts[Out] != 0 && "replacing a site not in the CW");
    if (In == Out)
      return;
    touch(In);
    if (Dirty) {
      ++CWCounts[In];
      --CWCounts[Out];
      return;
    }
    // Gain/loss form: raising cw[In] can only raise In's term, lowering
    // cw[Out] can only lower Out's term. Both deltas are non-negative,
    // and the loss is at most term(Out) — one of MinSum's summands — so
    // neither the intermediate differences nor the running sum can wrap
    // while the certified bound MinSum <= NCW*NTW holds.
    uint64_t TIn = term(In);
    uint64_t TOut = term(Out);
    ++CWCounts[In];
    Arith.observeCount(KernelQuantity::CWCount, CWCounts[In]);
    --CWCounts[Out];
    uint64_t Gain = Arith.sub(KernelQuantity::MinSum, term(In), TIn);
    uint64_t Loss = Arith.sub(KernelQuantity::MinSum, TOut, term(Out));
    MinSum = Arith.add(KernelQuantity::MinSum, MinSum, Gain);
    MinSum = Arith.sub(KernelQuantity::MinSum, MinSum, Loss);
  }

  void twReplace(SiteIndex In, SiteIndex Out) override {
    assert(In < TWCounts.size() && Out < TWCounts.size() &&
           "site out of range");
    assert(TWCounts[Out] != 0 && "replacing a site not in the TW");
    if (In == Out)
      return;
    touch(In);
    if (Dirty) {
      ++TWCounts[In];
      --TWCounts[Out];
      return;
    }
    // Same gain/loss argument as cwReplace, with the TW count moving.
    uint64_t TIn = term(In);
    uint64_t TOut = term(Out);
    ++TWCounts[In];
    Arith.observeCount(KernelQuantity::TWCount, TWCounts[In]);
    --TWCounts[Out];
    uint64_t Gain = Arith.sub(KernelQuantity::MinSum, term(In), TIn);
    uint64_t Loss = Arith.sub(KernelQuantity::MinSum, TOut, term(Out));
    MinSum = Arith.add(KernelQuantity::MinSum, MinSum, Gain);
    MinSum = Arith.sub(KernelQuantity::MinSum, MinSum, Loss);
  }

  double similarity() override {
    if (NCW == 0 || NTW == 0)
      return 0.0;
    if (Dirty)
      recompute();
    return static_cast<double>(MinSum) /
           (static_cast<double>(NCW) * static_cast<double>(NTW));
  }

  void seedCountsForTest(const std::vector<uint32_t> &CW,
                         const std::vector<uint32_t> &TW) override {
    SimilarityKernel::seedCountsForTest(CW, TW);
    MinSum = 0;
    Dirty = true;
  }

  /// Test hook: the integer min-sum under the current counts (recomputing
  /// if a total changed since the last replace). Boundary tests compare
  /// this against an independent wide-integer evaluation.
  uint64_t minSumForTest() {
    if (Dirty)
      recompute();
    return MinSum;
  }

private:
  /// min(cw[s]*NTW, tw[s]*NCW) under the current totals.
  uint64_t term(SiteIndex S) {
    return std::min(
        Arith.mul(KernelQuantity::ProductCWTW, CWCounts[S], NTW),
        Arith.mul(KernelQuantity::ProductTWCW, TWCounts[S], NCW));
  }

  void recompute() {
    // term(S) == 0 for any untouched site (both counts zero), so summing
    // the touched list is exact. The sum is an integer, so the list's
    // insertion order cannot perturb the result — bit-identical to a full
    // ascending sweep.
    MinSum = 0;
    for (SiteIndex S : TouchedSites)
      MinSum = Arith.add(KernelQuantity::MinSum, MinSum, term(S));
    Dirty = false;
  }

  ArithT Arith;
  /// Sum of term(s) over all sites; valid iff !Dirty.
  uint64_t MinSum = 0;
  /// Set whenever a total changed; similarity() recomputes lazily.
  bool Dirty = false;
};

/// Frequency-vector similarity via Manhattan (L1) distance between the
/// windows' relative-weight vectors: 1 - (1/2) * sum_s |cw_s/|CW| -
/// tw_s/|TW||, in [0, 1]. Equals the weighted-set similarity
/// mathematically (sum min = 1 - L1/2 for distributions) but is kept as
/// an independently implemented kernel: it recomputes from the counts on
/// every similarity() call, which makes it the brute-force
/// cross-check for WeightedSetKernel's incremental bookkeeping and the
/// cost model for a non-incremental implementation (bench_perf).
///
/// \tparam ArithT the arithmetic policy (PlainKernelArith in production).
template <typename ArithT = PlainKernelArith>
class ManhattanKernelT final : public SimilarityKernel {
public:
  /// \p A is the arithmetic policy instance (defaulted in production).
  explicit ManhattanKernelT(SiteIndex NumSites, ArithT A = ArithT())
      : SimilarityKernel(NumSites), Arith(A) {}

  void reset() override { SimilarityKernel::reset(); }

  void cwAdd(SiteIndex S) override {
    assert(S < CWCounts.size() && "site out of range");
    touch(S);
    ++CWCounts[S];
    Arith.observeCount(KernelQuantity::CWCount, CWCounts[S]);
    ++NCW;
    Arith.observeValue(KernelQuantity::CWTotal, NCW);
  }

  void cwRemove(SiteIndex S) override {
    assert(CWCounts[S] != 0 && "removing a site not in the CW");
    --CWCounts[S];
    --NCW;
  }

  void twAdd(SiteIndex S) override {
    assert(S < TWCounts.size() && "site out of range");
    touch(S);
    ++TWCounts[S];
    Arith.observeCount(KernelQuantity::TWCount, TWCounts[S]);
    ++NTW;
    Arith.observeValue(KernelQuantity::TWTotal, NTW);
  }

  void twRemove(SiteIndex S) override {
    assert(TWCounts[S] != 0 && "removing a site not in the TW");
    --TWCounts[S];
    --NTW;
  }

  double similarity() override {
    // Floating-point throughout: this kernel's decision path never forms
    // the uint64_t cross-products, so only counts and totals appear in
    // its value-range certificate.
    if (NCW == 0 || NTW == 0)
      return 0.0;
    double Distance = 0.0;
    double InvCW = 1.0 / static_cast<double>(NCW);
    double InvTW = 1.0 / static_cast<double>(NTW);
    for (SiteIndex S = 0, E = numSites(); S != E; ++S) {
      double Diff = static_cast<double>(CWCounts[S]) * InvCW -
                    static_cast<double>(TWCounts[S]) * InvTW;
      Distance += Diff < 0 ? -Diff : Diff;
    }
    return 1.0 - Distance / 2.0;
  }

private:
  ArithT Arith;
};

/// The production kernel types: plain arithmetic, unchanged layout and
/// codegen relative to the pre-policy implementations.
using UnweightedSetKernel = UnweightedSetKernelT<PlainKernelArith>;
/// \copydoc UnweightedSetKernel
using WeightedSetKernel = WeightedSetKernelT<PlainKernelArith>;
/// \copydoc UnweightedSetKernel
using ManhattanKernel = ManhattanKernelT<PlainKernelArith>;

/// Creates the kernel for \p Kind.
std::unique_ptr<SimilarityKernel> makeKernel(ModelKind Kind,
                                             SiteIndex NumSites);

/// Creates the CheckedKernelArith-instrumented kernel for \p Kind,
/// recording observations and overflow events into \p Probe (which must
/// outlive the kernel).
std::unique_ptr<SimilarityKernel>
makeCheckedKernel(ModelKind Kind, SiteIndex NumSites,
                  KernelValueProbe &Probe);

} // namespace opd

#endif // OPD_CORE_SIMILARITYKERNEL_H
