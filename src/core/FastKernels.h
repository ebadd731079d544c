//===- core/FastKernels.h - Monomorphic kernel/model templates --*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The non-virtual kernels, the analyzer decision functions, and the
/// windowed model behind the monomorphic fast path. These mirror
/// core/WindowedModel.cpp, core/Analyzer.h and the unobserved path of
/// core/PhaseDetector.cpp statement for statement; the deltas are
/// concrete kernel types (so every call inlines), the TW policy as a
/// compile-time constant, analyzer decisions as free functions over
/// caller-held state, and decision-identical substitutions documented
/// where they are made.
///
/// They are a header so the fast detector (core/FastDetector.cpp) and
/// the shared-scan execution engine (core/SharedScan.cpp) drive the same
/// kernels, windows and decisions — the engine runs one free-running
/// window fanning results out to many analyzer cursors — without a
/// second copy of any of them. Everything here is an internal
/// implementation detail of the two engines: the supported entry points
/// remain makeFastDetector() and makeSharedScanEngine().
///
/// Bit-identity contract: any behavioral change to the reference
/// detector must be replicated here — FastDetectorTest and
/// SharedScanTest run every sweep configuration shape through the
/// reference and derived paths and require bit-identical output, so a
/// missed replication fails loudly.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_FASTKERNELS_H
#define OPD_CORE_FASTKERNELS_H

#include "core/BatchKernel.h"
#include "core/DetectorConfig.h"
#include "core/WindowedModel.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <vector>

// The fast kernels only pay off if the per-element operations dissolve
// into the consume loop, but the fully-inlined loop is large enough that
// the compiler's inline-growth budget starts refusing them (measured:
// gcc -O3 leaves twReplace/similarity as out-of-line calls). Force the
// hot operations in.
#ifndef OPD_FORCE_INLINE
#if defined(__GNUC__) || defined(__clang__)
#define OPD_FORCE_INLINE inline __attribute__((always_inline))
#define OPD_NOINLINE __attribute__((noinline))
#else
#define OPD_FORCE_INLINE inline
#define OPD_NOINLINE
#endif
#endif

namespace opd {
namespace fastkernels {
// Internal linkage on purpose: the consume loops lose
// measurable throughput (~10% on the unweighted shapes) when the
// kernels get vague linkage — each translation unit optimizes its own
// private copy instead.
namespace {

//===----------------------------------------------------------------------===//
// Non-virtual kernels
//
// The reference kernels are virtual classes; even though the fast models
// hold them by concrete value (so every call site is direct), the
// compiler emits the virtual overrides as standalone functions and — in
// the large fully-inlined consume loop — refuses to inline them, leaving
// two or three function calls per element. These kernels are the same
// algorithms as plain inline members with no vtable at all, which is
// what lets the per-element loop absorb them.
//
// All three kernels are copy-assignable, and assignment reuses the
// destination's per-site arrays (std::vector::operator= does not shrink
// capacity): the shared-scan engine seeds its in-phase shard kernels by
// assigning the free-running kernel into a pooled instance, so a phase
// entry costs one array copy and zero allocations after warmup.
//===----------------------------------------------------------------------===//

/// A trailing window kept apart from a kernel and read against that
/// kernel's CW: the shared-scan engine's attached shards (core/
/// SharedScan.cpp), whose CW is the group window's. The window is
/// E[Base, q) for the q at which the kernel's CW starts, held as a
/// prefix snapshot: Prefix counts E[0, Base), and the caller's running
/// vector Left counts E[0, q), so the TW counts are Left - Prefix. That
/// uint32 difference is exact mod 2^32 even where Left has wrapped,
/// since every true TW count is below 2^32. Both vectors sit at the
/// indices the kernel's attachedIndex() gives, and a read is the
/// kernel's own similarity formula over its CW counts and Left -
/// Prefix. The last exact read is memoized against NTW, which rises by
/// one with every element the window takes.
struct AttachedTW {
  /// Per-index prefix counts; every entry is zero while no window is
  /// held.
  std::vector<uint32_t> Prefix;
  /// The unweighted kernel's presence bitset of the TW, one bit per
  /// site: cleared at attachment, and a read sets the bit of each CW
  /// site it finds in the TW. The TW only grows while attached, so every
  /// set bit stays true.
  std::vector<uint32_t> TWSeen;
  /// The TW length.
  uint64_t NTW = 0;
  /// The NTW of the memoized exact read (UINT64_MAX: none yet).
  uint64_t ExactNTW = UINT64_MAX;
  /// Its similarity, and the exact integer behind it: the weighted
  /// kernel's MinSum, the unweighted kernel's count of sites in both
  /// windows.
  double ExactSim = 0.0;
  uint64_t ExactSum = 0;
};

/// The state and touched-site machinery of SimilarityKernel without the
/// vtable.
class FastKernelBase {
public:
  explicit FastKernelBase(SiteIndex NumSites)
      : CWCounts(NumSites, 0), TWCounts(NumSites, 0),
        SiteTouched(NumSites, 0) {}

  bool inCW(SiteIndex S) const {
    assert(S < CWCounts.size() && "site out of range");
    return CWCounts[S] != 0;
  }
  uint64_t cwTotal() const { return NCW; }
  uint64_t twTotal() const { return NTW; }
  uint32_t cwCount(SiteIndex S) const { return CWCounts[S]; }
  uint32_t twCount(SiteIndex S) const { return TWCounts[S]; }
  SiteIndex numSites() const {
    return static_cast<SiteIndex>(CWCounts.size());
  }

  /// Kernels with dense per-site CW counts support the blocked anchor
  /// membership scans (core/BatchKernel.h) directly over this array.
  static constexpr bool HasDenseCW = true;
  const uint32_t *cwCountsData() const { return CWCounts.data(); }

  void setBatchEnabled(bool Enabled) { BatchEnabled = Enabled; }
  bool batchEnabled() const { return BatchEnabled; }

  /// AttachedTW layout: dense per-site counts, like TWCounts.
  size_t attachedSize() const { return TWCounts.size(); }
  OPD_FORCE_INLINE static uint32_t attachedIndex(SiteIndex S) { return S; }

  /// Makes \p A hold this kernel's TW against running counts \p Left of
  /// everything before this CW. \p A must be cleared; every site in a
  /// window since reset() is in TouchedSites.
  void attachTW(AttachedTW &A, const uint32_t *Left) const {
    for (SiteIndex S : TouchedSites)
      A.Prefix[S] = Left[S] - TWCounts[S];
    A.NTW = NTW;
    A.ExactNTW = UINT64_MAX;
  }

  /// Zeroes every entry of \p Counts (AttachedTW layout) that can have
  /// moved since this kernel's reset().
  void clearAttached(std::vector<uint32_t> &Counts) const {
    for (SiteIndex S : TouchedSites)
      Counts[S] = 0;
  }

protected:
  /// Same contract as SimilarityKernel::touch().
  OPD_FORCE_INLINE void touch(SiteIndex S) {
    if (!SiteTouched[S]) {
      SiteTouched[S] = 1;
      TouchedSites.push_back(S);
    }
  }

  /// O(distinct sites touched) count reset, as SimilarityKernel::reset().
  void resetCounts() {
    for (SiteIndex S : TouchedSites) {
      CWCounts[S] = 0;
      TWCounts[S] = 0;
      SiteTouched[S] = 0;
    }
    TouchedSites.clear();
    NCW = NTW = 0;
  }

  std::vector<uint32_t> CWCounts;
  std::vector<uint32_t> TWCounts;
  uint64_t NCW = 0;
  uint64_t NTW = 0;
  std::vector<uint8_t> SiteTouched;
  std::vector<SiteIndex> TouchedSites;
  bool BatchEnabled = true;
};

/// Non-virtual mirror of UnweightedSetKernel. The arithmetic policy is
/// a private base so the empty production policy occupies no storage
/// (empty-base optimization keeps the layout identical to a policy-free
/// kernel).
///
/// The per-operation mutators keep CWDistinct and BothDistinct exact by
/// testing each count for a 0<->1 crossing. KernelWindows can instead
/// step a batch with the plain count operations (cwAddCount and
/// friends), which move only the counts and totals, and call settle()
/// once: it recounts both quantities, and the CW presence bits that
/// attachedSimilarity() reads, over the touched sites.
template <typename ArithT = PlainKernelArith>
class FastUnweightedSetKernel : public FastKernelBase, private ArithT {
public:
  explicit FastUnweightedSetKernel(SiteIndex NumSites, ArithT A = ArithT())
      : FastKernelBase(NumSites), ArithT(A),
        CWBits((static_cast<size_t>(NumSites) + 31) / 32, 0) {}

  void reset() {
    // Every set bit is a touched site's, so zeroing the touched sites'
    // words clears them all.
    for (SiteIndex S : TouchedSites)
      CWBits[S / 32] = 0;
    resetCounts();
    CWDistinct = 0;
    BothDistinct = 0;
  }

  OPD_FORCE_INLINE void cwAdd(SiteIndex S) {
    assert(S < CWCounts.size() && "site out of range");
    touch(S);
    if (CWCounts[S]++ == 0) {
      CWBits[S / 32] |= 1u << (S % 32);
      ++CWDistinct;
      this->observeValue(KernelQuantity::CWDistinct, CWDistinct);
      if (TWCounts[S] != 0) {
        ++BothDistinct;
        this->observeValue(KernelQuantity::BothDistinct, BothDistinct);
      }
    }
    this->observeCount(KernelQuantity::CWCount, CWCounts[S]);
    ++NCW;
    this->observeValue(KernelQuantity::CWTotal, NCW);
  }

  OPD_FORCE_INLINE void cwRemove(SiteIndex S) {
    assert(S < CWCounts.size() && "site out of range");
    assert(CWCounts[S] != 0 && "removing a site not in the CW");
    if (--CWCounts[S] == 0) {
      CWBits[S / 32] &= ~(1u << (S % 32));
      --CWDistinct;
      if (TWCounts[S] != 0)
        --BothDistinct;
    }
    --NCW;
  }

  OPD_FORCE_INLINE void twAdd(SiteIndex S) {
    assert(S < TWCounts.size() && "site out of range");
    touch(S);
    if (TWCounts[S]++ == 0 && CWCounts[S] != 0) {
      ++BothDistinct;
      this->observeValue(KernelQuantity::BothDistinct, BothDistinct);
    }
    this->observeCount(KernelQuantity::TWCount, TWCounts[S]);
    ++NTW;
    this->observeValue(KernelQuantity::TWTotal, NTW);
  }

  OPD_FORCE_INLINE void twRemove(SiteIndex S) {
    assert(S < TWCounts.size() && "site out of range");
    assert(TWCounts[S] != 0 && "removing a site not in the TW");
    if (--TWCounts[S] == 0 && CWCounts[S] != 0)
      --BothDistinct;
    --NTW;
  }

  // Remove before add: the totals never exceed the window bound, even
  // transiently, matching the KernelBounds-certified invariant.
  OPD_FORCE_INLINE void cwReplace(SiteIndex In, SiteIndex Out) {
    cwRemove(Out);
    cwAdd(In);
  }
  OPD_FORCE_INLINE void twReplace(SiteIndex In, SiteIndex Out) {
    twRemove(Out);
    twAdd(In);
  }
  OPD_FORCE_INLINE void moveCWToTW(SiteIndex S) {
    cwRemove(S);
    twAdd(S);
  }

  /// Whether KernelWindows may step a batch with the plain count
  /// operations and settle() once. The checked kernel stays on the
  /// per-operation path: its probe observes the distinct counts there.
  static constexpr bool Settles = !ArithT::Checked;

  /// The plain count operations: the counts and totals of cwAdd and
  /// friends, without the distinct counts and CW bits, which are stale
  /// until settle().
  OPD_FORCE_INLINE void cwAddCount(SiteIndex S) {
    touch(S);
    ++CWCounts[S];
    ++NCW;
  }
  OPD_FORCE_INLINE void cwRemoveCount(SiteIndex S) {
    assert(CWCounts[S] != 0 && "removing a site not in the CW");
    --CWCounts[S];
    --NCW;
  }
  /// Precondition: \p S has been in the CW since reset(), as every
  /// element KernelWindows moves into the TW has.
  OPD_FORCE_INLINE void twAddCount(SiteIndex S) {
    assert(SiteTouched[S] && "TW add of a site never in the CW");
    ++TWCounts[S];
    ++NTW;
  }
  OPD_FORCE_INLINE void twRemoveCount(SiteIndex S) {
    assert(TWCounts[S] != 0 && "removing a site not in the TW");
    --TWCounts[S];
    --NTW;
  }

  /// What settle() costs: one pass over the touched sites.
  size_t settleCost() const { return TouchedSites.size(); }

  /// Recounts CWDistinct, BothDistinct and the CW bits from the counts:
  /// every site with a nonzero count is a touched one. A bit is stored
  /// only when it flips, which few do in one batch; rewriting every
  /// touched site's word would chain the stores to a shared word.
  void settle() {
    uint64_t Distinct = 0;
    uint64_t Both = 0;
    for (SiteIndex S : TouchedSites) {
      uint32_t InCW = CWCounts[S] != 0;
      Distinct += InCW;
      Both += InCW & uint32_t{TWCounts[S] != 0};
      uint32_t &Word = CWBits[S / 32];
      if (((Word >> (S % 32)) & 1u) != InCW)
        Word ^= 1u << (S % 32);
    }
    CWDistinct = Distinct;
    BothDistinct = Both;
  }

  uint64_t cwDistinct() const { return CWDistinct; }
  uint64_t bothDistinct() const { return BothDistinct; }
  /// Whether site \p S's CW presence bit is set.
  bool cwBit(SiteIndex S) const {
    return (CWBits[S / 32] >> (S % 32)) & 1u;
  }

  OPD_FORCE_INLINE double similarity() { return similarityOf(BothDistinct); }

  OPD_FORCE_INLINE bool similarityAtLeast(double T) {
    return similarity() >= T;
  }

  /// Makes \p A hold this kernel's TW against \p Left, with no site
  /// seen in it yet.
  void attachTW(AttachedTW &A, const uint32_t *Left) const {
    FastKernelBase::attachTW(A, Left);
    A.TWSeen.assign(CWBits.size(), 0);
  }

  /// similarity() with \p A's TW (against \p Left) in place of this
  /// kernel's: the sites in both windows are counted afresh, since the
  /// CW moves under \p A, as popcount(CW & TW) over the presence
  /// bitsets. First each CW site not yet seen in the TW is tested (its
  /// TW count Left - Prefix is nonzero iff Left != Prefix).
  OPD_FORCE_INLINE double attachedSimilarity(AttachedTW &A,
                                             const uint32_t *Left) const {
    if (A.ExactNTW != A.NTW) {
      const uint32_t *Prefix = A.Prefix.data();
      uint64_t Both = 0;
      for (size_t W = 0, E = CWBits.size(); W != E; ++W) {
        uint32_t CW = CWBits[W];
        uint32_t TW = A.TWSeen[W];
        for (uint32_t New = CW & ~TW; New != 0; New &= New - 1) {
          unsigned Bit = static_cast<unsigned>(std::countr_zero(New));
          size_t S = W * 32 + Bit;
          TW |= uint32_t{Left[S] != Prefix[S]} << Bit;
        }
        A.TWSeen[W] = TW;
        Both += static_cast<uint64_t>(std::popcount(CW & TW));
      }
      A.ExactSum = Both;
      A.ExactSim = similarityOf(Both);
      A.ExactNTW = A.NTW;
    }
    return A.ExactSim;
  }

  /// attachedSimilarity(A) >= T, bit for bit. Same precondition as the
  /// weighted kernel's: since the last exact read only in-phase grow
  /// steps (cwReplace, then twAdd of the element the CW lost) changed
  /// \p A and this kernel. One step moves the count of sites in both
  /// windows by -1 (the outgoing site leaves the CW) up to +2 (the
  /// incoming site joins the CW, the outgoing one the TW), so after K
  /// steps it lies in [Both - K, Both + 2K]. similarityOf() is monotone
  /// in the count, so a bound on the same side of T decides.
  OPD_FORCE_INLINE bool attachedSimilarityAtLeast(AttachedTW &A,
                                                  const uint32_t *Left,
                                                  double T) const {
    if (A.ExactNTW < A.NTW) {
      uint64_t K = A.NTW - A.ExactNTW;
      if (similarityOf(A.ExactSum > K ? A.ExactSum - K : 0) >= T)
        return true;
      if (!(similarityOf(A.ExactSum + 2 * K) >= T))
        return false;
    }
    return attachedSimilarity(A, Left) >= T;
  }

private:
  /// The similarity with \p Both sites in both windows.
  OPD_FORCE_INLINE double similarityOf(uint64_t Both) const {
    if (CWDistinct == 0)
      return 0.0;
    return static_cast<double>(Both) / static_cast<double>(CWDistinct);
  }

  /// Presence bitset of the CW, one bit per site (CWCounts[S] != 0), in
  /// 32-bit words, the type of the counts the window loops store
  /// anyway. With 64-bit words, whose stores the compiler must assume
  /// may alias the kernel's 64-bit totals, a skip-16 fast detector run
  /// took 1.5x as long.
  std::vector<uint32_t> CWBits;
  uint64_t CWDistinct = 0;
  uint64_t BothDistinct = 0;
};

/// Non-virtual weighted-set kernel, restructured as a structure-of-
/// arrays batch kernel: instead of dense per-site count arrays plus a
/// touched-site index list (whose recompute gathers counts through the
/// list), the touched sites live in a packed roster — interleaved
/// (cw, tw) count-pair lanes plus the owning site per slot, with a
/// per-site slot map for O(1) lookup. The min-sum recompute that
/// dominates the weighted-adaptive shape (it runs per element while an
/// adaptive TW grows) then becomes one contiguous sweep over the count
/// pairs, dispatched to the SIMD or portable block kernel
/// (core/BatchKernel.h); the interleaving also lands a site's two counts
/// on the same cache line for the replace-delta path. The sum is an
/// integer sum of non-negative terms, so neither the roster order nor
/// the lane evaluation order can perturb it — bit-identical to the
/// reference kernel's touched-list recompute.
///
/// The replace-operation MinSum delta is computed from shared products:
/// min(cw*NTW, tw*NCW) before and after a count bump reuses the same two
/// products, halving the multiplies of the reference WeightedSetKernel
/// on the steady-state path, and similarity() divides by a cached
/// double(NCW)*double(NTW). Both are the same arithmetic the reference
/// kernel performs, so MinSum and the returned similarity are
/// bit-identical.
///
/// A batch KernelWindows settles moves only the counts and totals
/// (cwAddCount and friends); settle() then marks MinSum dirty with an
/// envelope that decides nothing, so the next read pays one recompute
/// over the roster instead of the batch paying two delta updates per
/// element.
///
/// Under the CheckedKernelArith shadow policy the recompute keeps the
/// scalar per-step instrumented loop (the probe must observe every
/// product and partial sum), so certificates are validated against the
/// exact same sequence of observations as before.
template <typename ArithT = PlainKernelArith>
class FastWeightedSetKernel : private ArithT {
public:
  explicit FastWeightedSetKernel(SiteIndex NumSites, ArithT A = ArithT())
      : ArithT(A), Slot(NumSites, InvalidSlot), RosterSites(NumSites),
        RosterCounts(2 * wholeMinSumBlocks(NumSites)) {}

  bool inCW(SiteIndex S) const {
    assert(S < Slot.size() && "site out of range");
    uint32_t I = Slot[S];
    return I != InvalidSlot && cwAt(I) != 0;
  }
  uint64_t cwTotal() const { return NCW; }
  uint64_t twTotal() const { return NTW; }
  uint32_t cwCount(SiteIndex S) const {
    return Slot[S] == InvalidSlot ? 0 : cwAt(Slot[S]);
  }
  uint32_t twCount(SiteIndex S) const {
    return Slot[S] == InvalidSlot ? 0 : twAt(Slot[S]);
  }
  SiteIndex numSites() const { return static_cast<SiteIndex>(Slot.size()); }

  /// The CW counts live in packed roster lanes, not densely by site, so
  /// the anchor scans take the scalar inCW path (anchoring runs once per
  /// phase transition; the win here is the per-element recompute).
  static constexpr bool HasDenseCW = false;
  const uint32_t *cwCountsData() const { return nullptr; }

  void setBatchEnabled(bool Enabled) { BatchEnabled = Enabled; }
  bool batchEnabled() const { return BatchEnabled; }

  void reset() {
    // O(roster) un-enrollment, the counterpart of FastKernelBase's
    // O(touched) resetCounts(): only enrolled sites have live slots. The
    // freed slots' pairs are zeroed, so every pair past the roster is
    // zero, as the min-sum's whole blocks need.
    for (uint32_t I = 0; I != RosterSize; ++I)
      Slot[RosterSites[I]] = InvalidSlot;
    std::fill_n(RosterCounts.begin(), 2 * static_cast<size_t>(RosterSize),
                0u);
    RosterSize = 0;
    NCW = NTW = 0;
    MinSum = 0;
    BoundLo = BoundHi = 0;
    Dirty = false;
  }

  OPD_FORCE_INLINE void cwAdd(SiteIndex S) {
    assert(S < Slot.size() && "site out of range");
    uint32_t I = slotOf(S);
    ++cwAt(I);
    this->observeCount(KernelQuantity::CWCount, cwAt(I));
    ++NCW;
    this->observeValue(KernelQuantity::CWTotal, NCW);
    // cw[S] and NCW rise, nothing falls: every term is nondecreasing,
    // and the total rise is at most sum_i tw_i + NTW = 2*NTW (each
    // term's tw-side operand gains tw_i from the NCW bump, and term S
    // gains at most max(NTW, tw_S) <= NTW on top).
    markDirty();
    widenUp(saturatingDouble(NTW));
  }

  OPD_FORCE_INLINE void cwRemove(SiteIndex S) {
    assert(Slot[S] != InvalidSlot && cwAt(Slot[S]) != 0 &&
           "removing a site not in the CW");
    --cwAt(Slot[S]);
    --NCW;
    // Mirror of cwAdd: everything is nonincreasing, by at most 2*NTW.
    markDirty();
    widenDown(saturatingDouble(NTW));
  }

  OPD_FORCE_INLINE void twAdd(SiteIndex S) {
    assert(S < Slot.size() && "site out of range");
    uint32_t I = slotOf(S);
    ++twAt(I);
    this->observeCount(KernelQuantity::TWCount, twAt(I));
    ++NTW;
    this->observeValue(KernelQuantity::TWTotal, NTW);
    // tw[S] and NTW rise: every term is nondecreasing, total rise at
    // most sum_i cw_i + NCW = 2*NCW (the symmetric cwAdd argument).
    markDirty();
    widenUp(saturatingDouble(NCW));
  }

  OPD_FORCE_INLINE void twRemove(SiteIndex S) {
    assert(Slot[S] != InvalidSlot && twAt(Slot[S]) != 0 &&
           "removing a site not in the TW");
    --twAt(Slot[S]);
    --NTW;
    // Mirror of twAdd: everything is nonincreasing, by at most 2*NCW.
    markDirty();
    widenDown(saturatingDouble(NCW));
  }

  OPD_FORCE_INLINE void cwReplace(SiteIndex In, SiteIndex Out) {
    assert(In < Slot.size() && Out < Slot.size() && "site out of range");
    assert(Slot[Out] != InvalidSlot && cwAt(Slot[Out]) != 0 &&
           "replacing a site not in the CW");
    if (In == Out)
      return;
    uint32_t II = slotOf(In);
    uint32_t OI = Slot[Out];
    if (Dirty) {
      ++cwAt(II);
      --cwAt(OI);
      // Totals are unchanged; In's term rises by at most NTW and Out's
      // falls by at most NTW.
      widenUp(NTW);
      widenDown(NTW);
      return;
    }
    // term(S) = min(cw*NTW, tw*NCW); after ++cw[In]/--cw[Out] only the
    // first operand moves, by +-NTW (cw[Out] >= 1, so no underflow).
    // Gain/loss form: In's term only rises, Out's only falls, and the
    // loss is one of MinSum's summands — so with the certified bound
    // MinSum <= NCW*NTW no step here can wrap (see SimilarityKernel.h).
    uint64_t AIn =
        this->mul(KernelQuantity::ProductCWTW, cwAt(II), NTW);
    uint64_t BIn =
        this->mul(KernelQuantity::ProductTWCW, twAt(II), NCW);
    uint64_t AOut =
        this->mul(KernelQuantity::ProductCWTW, cwAt(OI), NTW);
    uint64_t BOut =
        this->mul(KernelQuantity::ProductTWCW, twAt(OI), NCW);
    uint64_t AInNew = this->add(KernelQuantity::ProductCWTW, AIn, NTW);
    uint64_t AOutNew = this->sub(KernelQuantity::ProductCWTW, AOut, NTW);
    ++cwAt(II);
    this->observeCount(KernelQuantity::CWCount, cwAt(II));
    --cwAt(OI);
    uint64_t Gain = this->sub(KernelQuantity::MinSum,
                              std::min(AInNew, BIn), std::min(AIn, BIn));
    uint64_t Loss = this->sub(KernelQuantity::MinSum, std::min(AOut, BOut),
                              std::min(AOutNew, BOut));
    MinSum = this->add(KernelQuantity::MinSum, MinSum, Gain);
    MinSum = this->sub(KernelQuantity::MinSum, MinSum, Loss);
  }

  /// Precondition (which every FastWindowedModel call site satisfies):
  /// In has already been added to a window since the last reset() — in
  /// the model, twReplace only moves the element leaving the CW into
  /// the TW, and everything that entered the CW was enrolled on the way
  /// in. That makes the enrollment check a guaranteed no-op here, so it
  /// is elided from this per-element path.
  OPD_FORCE_INLINE void twReplace(SiteIndex In, SiteIndex Out) {
    assert(In < Slot.size() && Out < Slot.size() && "site out of range");
    assert(Slot[Out] != InvalidSlot && twAt(Slot[Out]) != 0 &&
           "replacing a site not in the TW");
    assert(Slot[In] != InvalidSlot && "twReplace of a never-enrolled site");
    if (In == Out)
      return;
    uint32_t II = Slot[In];
    uint32_t OI = Slot[Out];
    if (Dirty) {
      ++twAt(II);
      --twAt(OI);
      // Totals are unchanged; In's term rises by at most NCW and Out's
      // falls by at most NCW.
      widenUp(NCW);
      widenDown(NCW);
      return;
    }
    // Same gain/loss argument as cwReplace, with the TW count moving.
    uint64_t AIn =
        this->mul(KernelQuantity::ProductTWCW, twAt(II), NCW);
    uint64_t BIn =
        this->mul(KernelQuantity::ProductCWTW, cwAt(II), NTW);
    uint64_t AOut =
        this->mul(KernelQuantity::ProductTWCW, twAt(OI), NCW);
    uint64_t BOut =
        this->mul(KernelQuantity::ProductCWTW, cwAt(OI), NTW);
    uint64_t AInNew = this->add(KernelQuantity::ProductTWCW, AIn, NCW);
    uint64_t AOutNew = this->sub(KernelQuantity::ProductTWCW, AOut, NCW);
    ++twAt(II);
    this->observeCount(KernelQuantity::TWCount, twAt(II));
    --twAt(OI);
    uint64_t Gain = this->sub(KernelQuantity::MinSum,
                              std::min(AInNew, BIn), std::min(AIn, BIn));
    uint64_t Loss = this->sub(KernelQuantity::MinSum, std::min(AOut, BOut),
                              std::min(AOutNew, BOut));
    MinSum = this->add(KernelQuantity::MinSum, MinSum, Gain);
    MinSum = this->sub(KernelQuantity::MinSum, MinSum, Loss);
  }

  OPD_FORCE_INLINE void moveCWToTW(SiteIndex S) {
    cwRemove(S);
    twAdd(S);
  }

  /// Whether KernelWindows may step a batch with the plain count
  /// operations and settle() once. The checked kernel stays on the
  /// per-operation path: its probe observes the replace deltas there.
  static constexpr bool Settles = !ArithT::Checked;

  /// The plain count operations: the counts and totals of cwAdd and
  /// friends, leaving MinSum and its envelope to settle().
  OPD_FORCE_INLINE void cwAddCount(SiteIndex S) {
    ++cwAt(slotOf(S));
    ++NCW;
  }
  OPD_FORCE_INLINE void cwRemoveCount(SiteIndex S) {
    assert(Slot[S] != InvalidSlot && cwAt(Slot[S]) != 0 &&
           "removing a site not in the CW");
    --cwAt(Slot[S]);
    --NCW;
  }
  /// Precondition: \p S has been in the CW since reset(), as every
  /// element KernelWindows moves into the TW has (see twReplace).
  OPD_FORCE_INLINE void twAddCount(SiteIndex S) {
    assert(Slot[S] != InvalidSlot && "TW add of a site never in the CW");
    ++twAt(Slot[S]);
    ++NTW;
  }
  OPD_FORCE_INLINE void twRemoveCount(SiteIndex S) {
    assert(Slot[S] != InvalidSlot && twAt(Slot[S]) != 0 &&
           "removing a site not in the TW");
    --twAt(Slot[S]);
    --NTW;
  }

  /// What settle() leaves to the next read: one min-sum sweep over the
  /// roster.
  size_t settleCost() const { return RosterSize; }

  /// Marks MinSum dirty with an envelope that decides nothing, so the
  /// next read recomputes it from the counts.
  void settle() {
    Dirty = true;
    BoundLo = 0;
    BoundHi = UINT64_MAX;
  }

  OPD_FORCE_INLINE double similarity() {
    if (NCW == 0 || NTW == 0)
      return 0.0;
    if (Dirty) {
      recomputeMinSum();
      // The same product the reference divides by, computed once per
      // totals change instead of per element.
      Denom = static_cast<double>(NCW) * static_cast<double>(NTW);
      Dirty = false;
    }
    return static_cast<double>(MinSum) / Denom;
  }

  /// similarity() >= T without the per-element division. Outside a
  /// conservative relative margin (1e-12, thousands of ulps wider than
  /// the half-ulp each of the division and the T * Denom product can
  /// contribute) the rounded quotient provably lands on the same side
  /// of T; inside the margin the exact reference division decides. The
  /// result is therefore bit-identical to similarity() >= T for every
  /// input, including T <= 0 (the comparison against a non-positive
  /// bound is always true, as is similarity() >= T).
  ///
  /// While the kernel is dirty, the decision first consults the
  /// [BoundLo, BoundHi] envelope the mutators maintain around the true
  /// MinSum: the quotient is monotone in the numerator, so when even the
  /// lower bound clears the threshold (or even the upper bound misses
  /// it, each by the same margin) the exact recompute provably decides
  /// the same way and is skipped — MinSum stays stale, Dirty stays set,
  /// and the next similarity() recompute restores exactness. Only the
  /// indecisive band pays the O(roster) sweep, which is what makes the
  /// threshold analyzer's weighted-adaptive path cheap between
  /// recomputes while remaining decision-identical to the reference.
  OPD_FORCE_INLINE bool similarityAtLeast(double T) {
    if (NCW == 0 || NTW == 0)
      return similarity() >= T;
    if (Dirty) {
      if constexpr (ArithT::Checked)
        // The shadow probe must observe the recompute arithmetic at
        // every reference decision point, so the checked kernel never
        // defers.
        return similarity() >= T;
      bool AtLeast;
      if (boundsDecide(BoundLo, BoundHi,
                       static_cast<double>(NCW) * static_cast<double>(NTW),
                       T, AtLeast))
        return AtLeast;
      return similarity() >= T;
    }
    return exactAtLeast(MinSum, Denom, T);
  }

  /// AttachedTW layout: one count per roster slot, in whole min-sum
  /// blocks, so an exact read sweeps this kernel's CW lanes and the
  /// attached counts side by side (batchMinSumSplit).
  size_t attachedSize() const { return wholeMinSumBlocks(Slot.size()); }
  OPD_FORCE_INLINE uint32_t attachedIndex(SiteIndex S) const {
    assert(Slot[S] != InvalidSlot && "attached site was never in a window");
    return Slot[S];
  }

  /// Makes \p A hold this kernel's TW against running counts \p Left of
  /// everything before this CW. \p A must be cleared.
  void attachTW(AttachedTW &A, const uint32_t *Left) const {
    for (uint32_t I = 0; I != RosterSize; ++I)
      A.Prefix[I] = Left[I] - twAt(I);
    A.NTW = NTW;
    A.ExactNTW = UINT64_MAX;
  }

  /// Zeroes every entry of \p Counts (AttachedTW layout) that can have
  /// moved since this kernel's reset(): sites enrolled later get slots
  /// past the roster, whose entries stay zero.
  void clearAttached(std::vector<uint32_t> &Counts) const {
    std::fill_n(Counts.begin(), RosterSize, 0u);
  }

  /// similarity() with \p A's TW (against \p Left) in place of this
  /// kernel's: the exact MinSum over this CW and \p A's counts, divided
  /// as similarity() does.
  OPD_FORCE_INLINE double attachedSimilarity(AttachedTW &A,
                                             const uint32_t *Left) const {
    if (NCW == 0 || A.NTW == 0)
      return 0.0;
    if (A.ExactNTW != A.NTW) {
      A.ExactSum =
          BatchEnabled
              ? batchMinSumSplit(RosterCounts.data(), Left, A.Prefix.data(),
                                 wholeMinSumBlocks(RosterSize), NCW, A.NTW)
              : batchMinSumSplitPortable(RosterCounts.data(), Left,
                                         A.Prefix.data(), RosterSize, NCW,
                                         A.NTW);
      A.ExactSim = static_cast<double>(A.ExactSum) /
                   (static_cast<double>(NCW) * static_cast<double>(A.NTW));
      A.ExactNTW = A.NTW;
    }
    return A.ExactSim;
  }

  /// similarityAtLeast() with \p A's TW in place of this kernel's:
  /// bit-identical to attachedSimilarity(A) >= T. Precondition: since
  /// its last exact read, \p A and this kernel changed only by in-phase
  /// grow steps, each one this CW replacing an element (NCW fixed) and
  /// the element leaving it joining \p A.
  ///
  /// Such a step is cwReplace then twAdd, whose per-operation envelope
  /// widenings (see the mutators) sum over the K = NTW - ExactNTW steps
  /// since the exact read to a closed form: MinSum fell by at most
  /// sum_j NTW_j = K*ExactNTW + K(K-1)/2 (NTW_j = ExactNTW + j, the TW
  /// length before step j) and rose by at most that plus 2*K*NCW. That
  /// envelope is sound, so it decides like similarityAtLeast()'s;
  /// outside it the exact read decides.
  OPD_FORCE_INLINE bool attachedSimilarityAtLeast(AttachedTW &A,
                                                  const uint32_t *Left,
                                                  double T) const {
    if (NCW == 0 || A.NTW == 0)
      return attachedSimilarity(A, Left) >= T;
    double D = static_cast<double>(NCW) * static_cast<double>(A.NTW);
    if (A.ExactNTW < A.NTW) {
      uint64_t K = A.NTW - A.ExactNTW;
      uint64_t Down = saturatingAdd(
          saturatingMul(K, A.ExactNTW),
          K % 2 ? saturatingMul(K, (K - 1) / 2) : saturatingMul(K / 2, K - 1));
      uint64_t Up =
          saturatingAdd(Down, saturatingMul(K, saturatingDouble(NCW)));
      uint64_t Lo = A.ExactSum > Down ? A.ExactSum - Down : 0;
      bool AtLeast;
      if (boundsDecide(Lo, saturatingAdd(A.ExactSum, Up), D, T, AtLeast))
        return AtLeast;
    }
    attachedSimilarity(A, Left);
    return exactAtLeast(A.ExactSum, D, T);
  }

private:
  static constexpr uint32_t InvalidSlot = UINT32_MAX;

  /// Whether an envelope [Lo, Hi] around the MinSum over denominator
  /// \p D decides similarity() >= T by itself, and if so how (\p
  /// AtLeast). The quotient is monotone in the numerator, so a bound
  /// clearing T * D by the relative margin decides for the exact value.
  static OPD_FORCE_INLINE bool boundsDecide(uint64_t Lo, uint64_t Hi,
                                            double D, double T,
                                            bool &AtLeast) {
    double Bound = T * D;
    if (static_cast<double>(Lo) >= Bound + Bound * 1e-12)
      return AtLeast = true;
    if (static_cast<double>(Hi) <= Bound - Bound * 1e-12) {
      AtLeast = false;
      return true;
    }
    return false;
  }

  /// MinSum / Denom >= T, taking the division only inside the margin.
  static OPD_FORCE_INLINE bool exactAtLeast(uint64_t Sum, double Denom,
                                            double T) {
    double Num = static_cast<double>(Sum);
    double Bound = T * Denom;
    if (Num >= Bound + Bound * 1e-12)
      return true;
    if (Num <= Bound - Bound * 1e-12)
      return false;
    return Num / Denom >= T;
  }

  static OPD_FORCE_INLINE uint64_t saturatingAdd(uint64_t A, uint64_t B) {
    return A > UINT64_MAX - B ? UINT64_MAX : A + B;
  }

  static OPD_FORCE_INLINE uint64_t saturatingMul(uint64_t A, uint64_t B) {
    return A != 0 && B > UINT64_MAX / A ? UINT64_MAX : A * B;
  }

  /// Transitions to the dirty state, seeding the MinSum bound envelope
  /// from the last exact value. While dirty, every mutator widens the
  /// envelope by a sound per-operation delta bound (see the mutators),
  /// so BoundLo <= true MinSum <= BoundHi holds at every decision point.
  OPD_FORCE_INLINE void markDirty() {
    if (!Dirty) {
      Dirty = true;
      BoundLo = BoundHi = MinSum;
    }
  }

  /// 2*X, saturating (the per-op envelope deltas; saturation keeps the
  /// bounds sound even for absurd totals near 2^63).
  static OPD_FORCE_INLINE uint64_t saturatingDouble(uint64_t X) {
    return X > UINT64_MAX / 2 ? UINT64_MAX : 2 * X;
  }

  OPD_FORCE_INLINE void widenUp(uint64_t X) {
    BoundHi = BoundHi > UINT64_MAX - X ? UINT64_MAX : BoundHi + X;
  }

  OPD_FORCE_INLINE void widenDown(uint64_t X) {
    BoundLo = BoundLo > X ? BoundLo - X : 0;
  }

  /// Slot of site \p S, enrolling it into the roster on first use (the
  /// counterpart of FastKernelBase::touch): both count lanes of a slot
  /// past the roster are already zero (see reset()).
  OPD_FORCE_INLINE uint32_t slotOf(SiteIndex S) {
    uint32_t I = Slot[S];
    if (I == InvalidSlot) {
      I = RosterSize++;
      Slot[S] = I;
      RosterSites[I] = S;
      assert(cwAt(I) == 0 && twAt(I) == 0 && "stale pair past the roster");
    }
    return I;
  }

  OPD_FORCE_INLINE void recomputeMinSum() {
    if constexpr (ArithT::Checked) {
      // The shadow probe must observe every product and partial sum, so
      // the checked recompute stays a scalar per-step instrumented loop
      // (roster order is enrollment order — the same first-touch order
      // the pre-roster TouchedSites recompute observed in).
      uint64_t Sum = 0;
      for (uint32_t I = 0; I != RosterSize; ++I)
        Sum = this->add(
            KernelQuantity::MinSum, Sum,
            std::min(
                this->mul(KernelQuantity::ProductCWTW, cwAt(I), NTW),
                this->mul(KernelQuantity::ProductTWCW, twAt(I), NCW)));
      MinSum = Sum;
    } else if (BatchEnabled) {
      MinSum = batchMinSum(RosterCounts.data(), wholeMinSumBlocks(RosterSize),
                           NCW, NTW);
    } else {
      MinSum = batchMinSumPortable(RosterCounts.data(), RosterSize, NCW, NTW);
    }
  }

  /// Slot I's count pair lives at RosterCounts[2I] (CW) and
  /// RosterCounts[2I+1] (TW) — the interleaved layout batchMinSum sweeps.
  OPD_FORCE_INLINE uint32_t &cwAt(uint32_t I) {
    return RosterCounts[2 * static_cast<size_t>(I)];
  }
  OPD_FORCE_INLINE uint32_t cwAt(uint32_t I) const {
    return RosterCounts[2 * static_cast<size_t>(I)];
  }
  OPD_FORCE_INLINE uint32_t &twAt(uint32_t I) {
    return RosterCounts[2 * static_cast<size_t>(I) + 1];
  }
  OPD_FORCE_INLINE uint32_t twAt(uint32_t I) const {
    return RosterCounts[2 * static_cast<size_t>(I) + 1];
  }

  /// Per-site roster slot, or InvalidSlot while un-enrolled.
  std::vector<uint32_t> Slot;
  /// Packed SoA roster over the enrolled sites: the owning site per slot
  /// plus the interleaved (cw, tw) count pairs the batch min-sum sweeps
  /// contiguously, in whole blocks (the pairs past the roster are zero).
  std::vector<SiteIndex> RosterSites;
  std::vector<uint32_t> RosterCounts;
  uint32_t RosterSize = 0;

  uint64_t NCW = 0;
  uint64_t NTW = 0;
  uint64_t MinSum = 0;
  /// Sound envelope around the true MinSum while Dirty (see markDirty);
  /// meaningless when !Dirty (MinSum itself is exact then).
  uint64_t BoundLo = 0;
  uint64_t BoundHi = 0;
  /// double(NCW) * double(NTW); valid iff !Dirty and both totals nonzero.
  double Denom = 0.0;
  bool Dirty = false;
  bool BatchEnabled = true;
};

/// Non-virtual mirror of ManhattanKernel. similarity() must keep the
/// reference's full ascending floating-point loop: FP addition is not
/// associative, so any reordering would break bit-identity.
template <typename ArithT = PlainKernelArith>
class FastManhattanKernel : public FastKernelBase, private ArithT {
public:
  explicit FastManhattanKernel(SiteIndex NumSites, ArithT A = ArithT())
      : FastKernelBase(NumSites), ArithT(A) {}

  void reset() { resetCounts(); }

  /// Every similarity() is a full pass over the sites whatever the
  /// stepping, so batches stay on the per-operation path.
  static constexpr bool Settles = false;

  OPD_FORCE_INLINE void cwAdd(SiteIndex S) {
    assert(S < CWCounts.size() && "site out of range");
    touch(S);
    ++CWCounts[S];
    this->observeCount(KernelQuantity::CWCount, CWCounts[S]);
    ++NCW;
    this->observeValue(KernelQuantity::CWTotal, NCW);
  }

  OPD_FORCE_INLINE void cwRemove(SiteIndex S) {
    assert(CWCounts[S] != 0 && "removing a site not in the CW");
    --CWCounts[S];
    --NCW;
  }

  OPD_FORCE_INLINE void twAdd(SiteIndex S) {
    assert(S < TWCounts.size() && "site out of range");
    touch(S);
    ++TWCounts[S];
    this->observeCount(KernelQuantity::TWCount, TWCounts[S]);
    ++NTW;
    this->observeValue(KernelQuantity::TWTotal, NTW);
  }

  OPD_FORCE_INLINE void twRemove(SiteIndex S) {
    assert(TWCounts[S] != 0 && "removing a site not in the TW");
    --TWCounts[S];
    --NTW;
  }

  // Remove before add: the totals never exceed the window bound, even
  // transiently, matching the KernelBounds-certified invariant.
  OPD_FORCE_INLINE void cwReplace(SiteIndex In, SiteIndex Out) {
    cwRemove(Out);
    cwAdd(In);
  }
  OPD_FORCE_INLINE void twReplace(SiteIndex In, SiteIndex Out) {
    twRemove(Out);
    twAdd(In);
  }
  OPD_FORCE_INLINE void moveCWToTW(SiteIndex S) {
    cwRemove(S);
    twAdd(S);
  }

  OPD_FORCE_INLINE double similarity() {
    const uint32_t *TW = TWCounts.data();
    return similarityWith(NTW, [TW](SiteIndex S) { return TW[S]; });
  }

  OPD_FORCE_INLINE bool similarityAtLeast(double T) {
    return similarity() >= T;
  }

  /// similarity() with \p A's TW (against \p Left) in place of this
  /// kernel's.
  OPD_FORCE_INLINE double attachedSimilarity(AttachedTW &A,
                                             const uint32_t *Left) const {
    if (A.ExactNTW != A.NTW) {
      const uint32_t *Prefix = A.Prefix.data();
      A.ExactSim = similarityWith(
          A.NTW, [Left, Prefix](SiteIndex S) { return Left[S] - Prefix[S]; });
      A.ExactNTW = A.NTW;
    }
    return A.ExactSim;
  }

  OPD_FORCE_INLINE bool attachedSimilarityAtLeast(AttachedTW &A,
                                                  const uint32_t *Left,
                                                  double T) const {
    return attachedSimilarity(A, Left) >= T;
  }

private:
  /// The similarity of this kernel's CW against the TW whose count at
  /// site S is \p TWCount(S), totalling \p TWTotal.
  template <typename CountFn>
  OPD_FORCE_INLINE double similarityWith(uint64_t TWTotal,
                                         CountFn TWCount) const {
    if (NCW == 0 || TWTotal == 0)
      return 0.0;
    double Distance = 0.0;
    double InvCW = 1.0 / static_cast<double>(NCW);
    double InvTW = 1.0 / static_cast<double>(TWTotal);
    for (SiteIndex S = 0, E = numSites(); S != E; ++S) {
      double Diff = static_cast<double>(CWCounts[S]) * InvCW -
                    static_cast<double>(TWCount(S)) * InvTW;
      Distance += Diff < 0 ? -Diff : Diff;
    }
    return 1.0 - Distance / 2.0;
  }
};

/// Maps a ModelKind to its fast kernel type under arithmetic policy
/// \p ArithT.
template <ModelKind M, typename ArithT> struct KernelOf;
/// \copydoc KernelOf
template <typename ArithT> struct KernelOf<ModelKind::UnweightedSet, ArithT> {
  /// The kernel type.
  using type = FastUnweightedSetKernel<ArithT>;
};
/// \copydoc KernelOf
template <typename ArithT> struct KernelOf<ModelKind::WeightedSet, ArithT> {
  /// The kernel type.
  using type = FastWeightedSetKernel<ArithT>;
};
/// \copydoc KernelOf
template <typename ArithT> struct KernelOf<ModelKind::ManhattanBBV, ArithT> {
  /// The kernel type.
  using type = FastManhattanKernel<ArithT>;
};

//===----------------------------------------------------------------------===//
// Analyzer decisions
//
// The one fast copy of each per-config rule the reference analyzers
// (core/Analyzer.h) and PhaseDetector::endPhase apply. The fast detector
// and the shared-scan cursors and cohorts call these; the state they
// read (stats, the hysteresis state) stays with the caller. What the
// reference computes besides the decision, the confidence margin and
// RunningStats' variance, min and max, never feeds a P/T decision, so
// it is dropped. FastDetectorTest holds each function step for step
// equal to its makeAnalyzer() analyzer.
//===----------------------------------------------------------------------===//

/// The Average analyzer's phase statistics: the Mean update sequence of
/// RunningStats::push, without the folds that never feed Mean.
struct MeanStats {
  uint64_t N = 0;
  double Mean = 0.0;

  OPD_FORCE_INLINE void push(double X) {
    ++N;
    Mean += (X - Mean) / static_cast<double>(N);
  }
};

/// ThresholdAnalyzer::processValue: P iff the similarity meets the
/// threshold.
OPD_FORCE_INLINE PhaseState decideThreshold(double Similarity,
                                            double Threshold) {
  return Similarity >= Threshold ? PhaseState::InPhase
                                 : PhaseState::Transition;
}

/// AverageAnalyzer::processValue as makeAnalyzer() builds it (no entry
/// threshold): P with no phase statistics yet, else P iff the similarity
/// is at least the running mean minus \p Delta.
OPD_FORCE_INLINE PhaseState decideAverage(double Similarity, double Delta,
                                          const MeanStats &Stats) {
  if (Stats.N == 0)
    return PhaseState::InPhase;
  return decideThreshold(Similarity, Stats.Mean - Delta);
}

/// HysteresisAnalyzer::processValue over the caller's analyzer state
/// \p State: the \p Exit threshold applies in phase, \p Enter (whose
/// hysteresisExitThreshold() \p Exit is) otherwise. The reference
/// advances \p State only at an evaluation with full windows, and no
/// phase edge resets it.
OPD_FORCE_INLINE PhaseState decideHysteresis(double Similarity, double Enter,
                                             double Exit, PhaseState &State) {
  State = decideThreshold(Similarity,
                          State == PhaseState::InPhase ? Exit : Enter);
  return State;
}

/// WindowedModel::endPhase's seed: the flush keeps the last
/// min(\p Skip, \p CW, \p WindowLen) elements of the \p WindowLen the
/// windows held, and the kernel restarts from them.
OPD_FORCE_INLINE uint64_t flushSeedLength(uint64_t Skip, uint64_t CW,
                                          uint64_t WindowLen) {
  return std::min(std::min(Skip, CW), WindowLen);
}

/// Minimal growable array for the model's element buffer. Exists only
/// because std::vector::push_back is too large for the compiler to
/// inline into the fully-expanded consume loop (measured: gcc -O3
/// emits it as an out-of-line call per element, and the call forces
/// every cached kernel pointer back to memory around it). The hot push
/// is a compare, a store, and an increment; growth stays out of line.
/// append() is the batch form: one capacity check and one memcpy.
class ElementBuffer {
public:
  ElementBuffer() = default;
  ~ElementBuffer() { delete[] Data; }
  ElementBuffer(const ElementBuffer &) = delete;
  ElementBuffer &operator=(const ElementBuffer &) = delete;

  OPD_FORCE_INLINE void push_back(SiteIndex S) {
    if (Size == Cap)
      grow(1);
    Data[Size++] = S;
  }
  OPD_FORCE_INLINE void append(const SiteIndex *Src, size_t N) {
    if (Cap - Size < N)
      grow(N);
    std::memcpy(Data + Size, Src, N * sizeof(SiteIndex));
    Size += N;
  }
  SiteIndex operator[](size_t I) const {
    assert(I < Size && "buffer index out of range");
    return Data[I];
  }
  size_t size() const { return Size; }
  SiteIndex *begin() { return Data; }
  const SiteIndex *begin() const { return Data; }
  SiteIndex *end() { return Data + Size; }
  const SiteIndex *end() const { return Data + Size; }
  void clear() { Size = 0; }
  /// Shrink to the first N elements (endPhase keeps only the seed).
  void truncate(size_t N) {
    assert(N <= Size && "truncate cannot grow the buffer");
    Size = N;
  }
  /// Drop the first N elements, sliding the rest down (compaction).
  void dropFront(size_t N) {
    assert(N <= Size && "dropping more than the buffer holds");
    std::memmove(Data, Data + N, (Size - N) * sizeof(SiteIndex));
    Size -= N;
  }

private:
  /// Doubles (first allocation 1024), or sizes to fit when \p Need more
  /// elements would not fit in the doubled capacity.
  OPD_NOINLINE void grow(size_t Need) {
    size_t NewCap = std::max<size_t>(Cap ? Cap * 2 : 1024, Size + Need);
    SiteIndex *NewData = new SiteIndex[NewCap];
    std::copy(Data, Data + Size, NewData);
    delete[] Data;
    Data = NewData;
    Cap = NewCap;
  }

  SiteIndex *Data = nullptr;
  size_t Size = 0;
  size_t Cap = 0;
};

/// The CW and TW of one windowed model over a contiguous element array
/// E: TW = E[Base, Base+TWLen), CW = E[Base+TWLen, end()). The fast
/// detector's model (over its element buffer), the shared-scan group
/// window and its in-phase shards (over the trace) all step through
/// these members, the single copy of the paper's window stepping; the
/// window sizes, skip and policies stay with the callers.
///
/// A batch is stepped one of two ways. The per-operation path calls the
/// kernel's mutators (cwReplace, twAdd, ...), which keep every derived
/// quantity exact after each element. The settled path, for a kernel
/// with Settles, moves only the counts and totals (cwAddCount, ...) and
/// then calls the kernel's settle() once, which rebuilds the derived
/// quantities from the counts. Either way the kernel is exact when
/// advance() returns, so no caller sees the difference.
template <typename Kernel> struct KernelWindows {
  Kernel K;
  uint64_t Base = 0;
  uint64_t TWLen = 0;
  uint64_t CWLen = 0;

  /// One past the last CW element (the elements consumed so far).
  uint64_t end() const { return Base + TWLen + CWLen; }

  /// Consumes E[end(), end()+N) with the count updates of N per-element
  /// WindowedModel::consume() calls: while the CW is below \p CWSize an
  /// element is added to it; then, while \p Grow holds or the TW is below
  /// \p TWSize, the CW's oldest element moves into the TW; after that both
  /// windows rotate one element right. The fill edges (CW below CWSize,
  /// or TW below TWSize out of growth) are out of line; the steady state
  /// is one loop, grow() or rotate().
  OPD_FORCE_INLINE void advance(const SiteIndex *E, uint64_t N,
                                uint64_t CWSize, uint64_t TWSize, bool Grow) {
    if constexpr (Kernel::Settles) {
      if (settles(N)) {
        advanceSettled(E, N, CWSize, TWSize, Grow);
        return;
      }
    }
    step<false>(E, N, CWSize, TWSize, Grow);
  }

  /// Whether advance() takes the settled path for a batch of \p N
  /// elements: when the kernel settles, and the batch is at least as
  /// long as one settle() costs, so the saved per-element work pays for
  /// it. A one-element step is always per-operation.
  bool settles(uint64_t N) const {
    if constexpr (Kernel::Settles)
      return N > 1 && N >= K.settleCost();
    else
      return false;
  }

  /// The anchor position of \p Kind as a TW index in [0, TWLen].
  /// Kernels with dense per-site CW counts dispatch to the blocked
  /// membership scans, which return the index of the first matching
  /// element in scan order, exactly what the scalar loops below compute
  /// (core/BatchKernel.h documents the equivalence).
  uint64_t anchor(const SiteIndex *E, AnchorKind Kind) const {
    const SiteIndex *TW = E + Base;
    if constexpr (Kernel::HasDenseCW) {
      if (K.batchEnabled()) {
        if (Kind == AnchorKind::RightmostNoisy)
          return batchRightmostNoisy(K.cwCountsData(), TW, TWLen);
        return batchLeftmostNonNoisy(K.cwCountsData(), TW, TWLen);
      }
    }
    if (Kind == AnchorKind::RightmostNoisy) {
      for (uint64_t I = TWLen; I != 0; --I)
        if (!K.inCW(TW[I - 1]))
          return I;
      return 0;
    }
    for (uint64_t I = 0; I != TWLen; ++I)
      if (K.inCW(TW[I]))
        return I;
    return TWLen;
  }

  /// startPhase's resize for anchor \p A: drops the TW prefix before the
  /// anchor, then, under \p Slide, moves min(A, CWLen) elements from the
  /// CW's front into the TW (the CW refills as later elements arrive).
  void resizeForPhase(const SiteIndex *E, uint64_t A, bool Slide) {
    assert(A <= TWLen && "anchor beyond the trailing window");
    // Taken against the anchor before the drop counts it down.
    uint64_t Take = Slide ? std::min(A, CWLen) : 0;
    for (; A != 0; --A, --TWLen)
      K.twRemove(E[Base++]);
    for (; Take != 0; --Take, --CWLen)
      K.moveCWToTW(E[Base + TWLen++]);
  }

private:
  /// advance()'s settled path, out of line: the plain count loops, then
  /// one settle().
  OPD_NOINLINE void advanceSettled(const SiteIndex *E, uint64_t N,
                                   uint64_t CWSize, uint64_t TWSize,
                                   bool Grow) {
    step<true>(E, N, CWSize, TWSize, Grow);
    K.settle();
  }

  /// The stepping of advance(), with the kernel's plain count operations
  /// if \p Plain and its mutators otherwise.
  template <bool Plain>
  OPD_FORCE_INLINE void step(const SiteIndex *E, uint64_t N, uint64_t CWSize,
                             uint64_t TWSize, bool Grow) {
    if (CWLen < CWSize || (!Grow && TWLen < TWSize))
      N -= fillEdges<Plain>(E, N, CWSize, TWSize, Grow);
    if (Grow)
      grow<Plain>(E, N);
    else
      rotate<Plain>(E, N);
  }

  /// advance()'s fill edges: adds up to N elements to the CW until it
  /// holds \p CWSize (never more: CWLen <= CWSize always), then, unless
  /// \p Grow, grows the TW with the rest until it holds \p TWSize.
  /// Returns how many elements it consumed.
  template <bool Plain>
  OPD_NOINLINE uint64_t fillEdges(const SiteIndex *E, uint64_t N,
                                  uint64_t CWSize, uint64_t TWSize,
                                  bool Grow) {
    uint64_t F = std::min(N, CWSize - CWLen);
    const SiteIndex *S = E + end();
    for (uint64_t J = 0; J != F; ++J) {
      if constexpr (Plain)
        K.cwAddCount(S[J]);
      else
        K.cwAdd(S[J]);
    }
    CWLen += F;
    uint64_t G =
        Grow ? 0 : std::min(N - F, TWSize - std::min(TWSize, TWLen));
    grow<Plain>(E, G);
    return F + G;
  }

  /// N steps in which the CW's oldest element moves into the TW as
  /// E[end()] enters the CW. The plain steps count each window down
  /// before up, so no count passes its window size even for a moment.
  template <bool Plain>
  OPD_FORCE_INLINE void grow(const SiteIndex *E, uint64_t N) {
    const SiteIndex *Y = E + Base + TWLen;
    const SiteIndex *S = Y + CWLen;
    for (uint64_t J = 0; J != N; ++J) {
      if constexpr (Plain) {
        K.cwRemoveCount(Y[J]);
        K.cwAddCount(S[J]);
        K.twAddCount(Y[J]);
      } else {
        K.cwReplace(S[J], Y[J]);
        K.twAdd(Y[J]);
      }
    }
    TWLen += N;
  }

  /// N steps in which both windows move one element right: E[end()]
  /// enters the CW, the CW's oldest element moves into the TW, and the
  /// TW's oldest element leaves.
  template <bool Plain>
  OPD_FORCE_INLINE void rotate(const SiteIndex *E, uint64_t N) {
    const SiteIndex *Z = E + Base;
    const SiteIndex *Y = Z + TWLen;
    const SiteIndex *S = Y + CWLen;
    for (uint64_t J = 0; J != N; ++J) {
      if constexpr (Plain) {
        K.cwRemoveCount(Y[J]);
        K.cwAddCount(S[J]);
        K.twRemoveCount(Z[J]);
        K.twAddCount(Y[J]);
      } else {
        K.cwReplace(S[J], Y[J]);
        K.twReplace(Y[J], Z[J]);
      }
    }
    Base += N;
  }
};

/// WindowedModel with the kernel held by concrete value and the TW
/// policy fixed at compile time. Statement-for-statement mirror of
/// WindowedModel/WindowedModel.cpp, with the window stepping in
/// KernelWindows over the element buffer (W.Base is the buffer index of
/// the TW start).
template <ModelKind M, TWPolicyKind Policy,
          typename ArithT = PlainKernelArith>
class FastWindowedModel {
  using Kernel = typename KernelOf<M, ArithT>::type;

public:
  FastWindowedModel(const WindowConfig &Config, SiteIndex NumSites,
                    ArithT Arith = ArithT())
      : Config(Config), W{Kernel(NumSites, Arith)} {
    assert(Config.TWPolicy == Policy && "config does not match this shape");
    assert(Config.CWSize > 0 && "current window must be nonempty");
    assert(Config.TWSize > 0 && "trailing window must be nonempty");
    assert(Config.SkipFactor > 0 && "skip factor must be positive");
  }

  OPD_FORCE_INLINE void consume(SiteIndex S) {
    ++GlobalConsumed;
    Buffer.push_back(S);

    if (W.CWLen < Config.CWSize) {
      consumeFill(S);
      return;
    }

    SiteIndex Y = Buffer[W.Base + W.TWLen];
    W.K.cwReplace(S, Y);
    bool TWGrows = twGrowsInPhase() || W.TWLen < Config.TWSize;
    if (TWGrows) {
      W.K.twAdd(Y);
      ++W.TWLen;
    } else {
      SiteIndex Z = Buffer[W.Base];
      W.K.twReplace(Y, Z);
      ++W.Base;
    }
    compactBuffer();
  }

  /// Advances the windows over one skip batch. The kernel ends it with
  /// the state of N consume() calls: a one-element batch is consume()
  /// itself, anything longer is one advanceBatch() call.
  OPD_FORCE_INLINE void consumeBatch(const SiteIndex *E, size_t N) {
    if (N == 1)
      consume(E[0]);
    else
      advanceBatch(E, N);
  }

  /// consumeBatch's multi-element path: appends the N elements with one
  /// copy, steps the windows over them with one KernelWindows::advance,
  /// and moves the consumed count and compacts once. Compaction only
  /// moves bytes, so running it after the advance changes no kernel
  /// input. Out of line, so the per-batch code inlined into the detector
  /// stays small.
  OPD_NOINLINE void advanceBatch(const SiteIndex *E, size_t N) {
    Buffer.append(E, N);
    W.advance(Buffer.begin(), N, Config.CWSize, Config.TWSize,
              twGrowsInPhase());
    GlobalConsumed += N;
    compactBuffer();
    assert(W.end() == Buffer.size() && "window bookkeeping out of sync");
  }

  /// The CW-fill path, kept out of the hot loop: it only runs for the
  /// first CWSize elements after a flush, where per-element cost is
  /// dominated by the kernel add anyway.
  OPD_NOINLINE void consumeFill(SiteIndex S) {
    ++W.CWLen;
    W.K.cwAdd(S);
  }

  bool windowsFull() const {
    if (PhaseOpen)
      return W.TWLen > 0 && W.CWLen > 0;
    return W.CWLen == Config.CWSize && W.TWLen >= Config.TWSize;
  }

  OPD_FORCE_INLINE double similarity() { return W.K.similarity(); }

  OPD_FORCE_INLINE bool similarityAtLeast(double T) {
    return W.K.similarityAtLeast(T);
  }

  uint64_t computeAnchorOffset() const {
    return offsetOfTWIndex(anchorPosition());
  }

  void startPhase() {
    if constexpr (Policy == TWPolicyKind::Adaptive) {
      W.resizeForPhase(Buffer.begin(), anchorPosition(),
                       Config.Resize == ResizeKind::Slide);
      InPhaseGrowth = true;
    }
    PhaseOpen = true;
  }

  void endPhase() {
    uint64_t Keep =
        flushSeedLength(Config.SkipFactor, Config.CWSize, W.TWLen + W.CWLen);
    std::copy(Buffer.end() - static_cast<ptrdiff_t>(Keep), Buffer.end(),
              Buffer.begin());
    Buffer.truncate(Keep);
    W.Base = 0;
    W.TWLen = 0;
    W.CWLen = Keep;
    W.K.reset();
    for (SiteIndex S : Buffer)
      W.K.cwAdd(S);
    InPhaseGrowth = false;
    PhaseOpen = false;
  }

  void reset() {
    Buffer.clear();
    W.Base = W.TWLen = W.CWLen = 0;
    InPhaseGrowth = PhaseOpen = false;
    GlobalConsumed = 0;
    W.K.reset();
  }

  /// Swaps in a new same-policy window configuration; the kernel keeps
  /// its per-site arrays (reset() zeroes only the touched entries).
  void reconfigure(const WindowConfig &NewConfig) {
    assert(NewConfig.TWPolicy == Policy &&
           "config does not match this shape");
    assert(NewConfig.CWSize > 0 && "current window must be nonempty");
    assert(NewConfig.TWSize > 0 && "trailing window must be nonempty");
    assert(NewConfig.SkipFactor > 0 && "skip factor must be positive");
    Config = NewConfig;
    reset();
  }

  uint64_t consumed() const { return GlobalConsumed; }
  const WindowConfig &config() const { return Config; }

private:
  /// Whether the TW grows even at or past its size (adaptive, in phase).
  bool twGrowsInPhase() const {
    return Policy == TWPolicyKind::Adaptive && InPhaseGrowth;
  }

  uint64_t offsetOfTWIndex(uint64_t I) const {
    return GlobalConsumed - (W.TWLen + W.CWLen) + I;
  }

  uint64_t anchorPosition() const {
    assert(W.end() == Buffer.size() && "window bookkeeping out of sync");
    return W.anchor(Buffer.begin(), Config.Anchor);
  }

  void compactBuffer() {
    if (W.Base > WindowedModel::CompactionThreshold &&
        W.Base * 2 > Buffer.size()) {
      Buffer.dropFront(W.Base);
      W.Base = 0;
    }
  }

  WindowConfig Config;
  KernelWindows<Kernel> W;

  ElementBuffer Buffer;

  bool PhaseOpen = false;
  bool InPhaseGrowth = false;

  uint64_t GlobalConsumed = 0;
};

} // namespace
} // namespace fastkernels
} // namespace opd

#endif // OPD_CORE_FASTKERNELS_H
