//===- core/WindowedModel.h - CW/TW window machinery ------------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// WindowedModel implements the similarity-model component of the
/// framework (Figure 1): it maintains the trailing window (TW) and
/// current window (CW) over the profile-element stream under a window
/// policy, feeds a SimilarityKernel, and provides the anchor/resize
/// operations of Section 5.
///
/// Window mechanics (Figure 2): new elements enter the CW; once the CW is
/// full, its oldest element crosses into the TW. A Constant TW drops its
/// oldest element when over capacity; an Adaptive TW grows without bound
/// while a phase is open (after startPhase()). endPhase() flushes both
/// windows, keeping the last skipFactor elements as the new CW seed, and
/// the detector reports T until the windows refill.
///
/// Anchoring (Section 5): at a phase start the anchor point is either one
/// element right of the rightmost noisy TW element (RN) or the leftmost
/// non-noisy TW element (LNN), where "noisy" means present in the TW but
/// absent from the CW. Under the Adaptive policy the TW is then resized:
/// Slide keeps the TW length and moves it right (shrinking the CW, which
/// keeps being compared while it refills); Move shrinks the TW to start
/// at the anchor and leaves the CW alone.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_WINDOWEDMODEL_H
#define OPD_CORE_WINDOWEDMODEL_H

#include "core/SimilarityKernel.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace opd {

/// Trailing-window policies (Section 2, "Window Policy").
enum class TWPolicyKind : uint8_t {
  Constant, ///< TW keeps a fixed size.
  Adaptive, ///< TW grows to hold the whole current phase.
};

/// Anchor-point policies (Section 5).
enum class AnchorKind : uint8_t {
  RightmostNoisy,   ///< RN: one right of the rightmost noisy element.
  LeftmostNonNoisy, ///< LNN: the leftmost non-noisy element.
};

/// TW resize policies applied at the anchor (Section 5).
enum class ResizeKind : uint8_t {
  Slide, ///< Slide the TW right, shrinking the CW.
  Move,  ///< Move the TW's left boundary right, shrinking the TW.
};

const char *twPolicyName(TWPolicyKind Kind);
const char *anchorKindName(AnchorKind Kind);
const char *resizeKindName(ResizeKind Kind);

/// The window-policy parameters of one detector instantiation.
struct WindowConfig {
  /// Current-window size in profile elements.
  uint32_t CWSize = 1000;
  /// Trailing-window (initial/constant) size.
  uint32_t TWSize = 1000;
  /// Elements consumed per similarity evaluation. 1 gives the paper's
  /// most-responsive detectors; SkipFactor == CWSize == TWSize with a
  /// Constant TW models the extant fixed-interval approach.
  uint32_t SkipFactor = 1;
  TWPolicyKind TWPolicy = TWPolicyKind::Constant;
  AnchorKind Anchor = AnchorKind::RightmostNoisy;
  ResizeKind Resize = ResizeKind::Slide;

  /// Field-wise equality, including fields a given policy never reads
  /// (analysis/ConfigCanon.h normalizes those before comparing).
  friend bool operator==(const WindowConfig &A, const WindowConfig &B) {
    return A.CWSize == B.CWSize && A.TWSize == B.TWSize &&
           A.SkipFactor == B.SkipFactor && A.TWPolicy == B.TWPolicy &&
           A.Anchor == B.Anchor && A.Resize == B.Resize;
  }
  friend bool operator!=(const WindowConfig &A, const WindowConfig &B) {
    return !(A == B);
  }
};

/// Window state machine + similarity kernel. The PhaseDetector drives it
/// per Figure 3: consume() per element, windowsFull()/similarity() at
/// evaluation points, startPhase()/endPhase() at state transitions.
class WindowedModel {
public:
  /// \p Probe, when non-null, swaps the kernel for its
  /// CheckedKernelArith-instrumented twin so every arithmetic step is
  /// overflow-checked and recorded (the KernelBounds shadow mode);
  /// production callers leave it null and get the plain kernel.
  WindowedModel(const WindowConfig &Config, ModelKind Model,
                SiteIndex NumSites, KernelValueProbe *Probe = nullptr);

  /// Consumes one profile element.
  void consume(SiteIndex S);

  /// True when both windows hold enough elements to compare: the CW is at
  /// capacity (or refilling after a Slide anchor) and the TW is at least
  /// its configured size.
  bool windowsFull() const;

  /// The similarity of the current windows (kernel-defined).
  double similarity() { return Kernel->similarity(); }

  /// Computes the anchor offset (global element offset where the phase
  /// is considered to begin) without modifying the windows. Valid only
  /// when windowsFull().
  uint64_t computeAnchorOffset() const;

  /// Marks a phase start: anchors and resizes the TW (Adaptive policy
  /// only; a Constant TW is unaffected) and switches the TW to growth
  /// mode under the Adaptive policy.
  void startPhase();

  /// Marks a phase end: flushes both windows, keeping the last skipFactor
  /// elements as the new CW seed (Figure 2, rows F-G).
  void endPhase();

  /// Clears everything, ready to consume a fresh stream.
  void reset();

  /// Total number of elements consumed so far.
  uint64_t consumed() const { return GlobalConsumed; }

  /// Current window sizes (for tests and diagnostics).
  uint64_t cwLength() const { return CWLen; }
  uint64_t twLength() const { return TWLen; }

  const WindowConfig &config() const { return Config; }
  ModelKind modelKind() const { return Model; }

  /// Direct kernel access (tests compare against brute force).
  const SimilarityKernel &kernel() const { return *Kernel; }

  /// The element buffer's dead prefix (elements the windows have slid
  /// past) is erased once it exceeds this many elements and outweighs the
  /// live suffix; below the threshold the memmove would cost more than
  /// the slack is worth. Public so tests can exercise compaction right at
  /// the boundary.
  static constexpr size_t CompactionThreshold = 65536;

private:
  /// Global offset of the element stored at TW-relative index \p I.
  uint64_t offsetOfTWIndex(uint64_t I) const {
    return GlobalConsumed - (TWLen + CWLen) + I;
  }

  /// Anchor position within the TW, in [0, TWLen].
  uint64_t anchorPosition() const;

  /// Drops \p N elements from the TW's left edge.
  void dropTWPrefix(uint64_t N);

  void compactBuffer();

  WindowConfig Config;
  ModelKind Model;
  std::unique_ptr<SimilarityKernel> Kernel;

  /// Element storage: TW = Buffer[Head, Head+TWLen), CW follows it.
  std::vector<SiteIndex> Buffer;
  size_t Head = 0;
  uint64_t TWLen = 0;
  uint64_t CWLen = 0;

  /// A phase is currently open (between startPhase and endPhase).
  bool PhaseOpen = false;
  /// Adaptive TW is currently growing (phase open).
  bool InPhaseGrowth = false;

  uint64_t GlobalConsumed = 0;
};

} // namespace opd

#endif // OPD_CORE_WINDOWEDMODEL_H
