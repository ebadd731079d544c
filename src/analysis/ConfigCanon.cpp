//===- analysis/ConfigCanon.cpp - Detector-config canonicalizer -------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/ConfigCanon.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace opd;

const char *opd::mergeRuleName(MergeRule Rule) {
  switch (Rule) {
  case MergeRule::IdenticalConfig:
    return "identical-config";
  case MergeRule::DeadResizeConstantTW:
    return "dead-resize-constant-tw";
  case MergeRule::DeadAnchorUnanchored:
    return "dead-anchor-unanchored";
  case MergeRule::SaturatedAnalyzerAlwaysP:
    return "saturated-analyzer-always-p";
  case MergeRule::DeadModelSaturated:
    return "dead-model-saturated";
  case MergeRule::DeadPolicySaturated:
    return "dead-policy-saturated";
  case MergeRule::DeadWindowSplitSaturated:
    return "dead-window-split-saturated";
  case MergeRule::UnsatisfiableAnalyzerAlwaysT:
    return "unsatisfiable-analyzer-always-t";
  case MergeRule::DeadConfigUnsatisfiable:
    return "dead-config-unsatisfiable";
  }
  return "unknown";
}

const char *opd::mergeRuleJustification(MergeRule Rule) {
  switch (Rule) {
  case MergeRule::IdenticalConfig:
    return "the enumerated points are field-wise equal before any rewrite";
  case MergeRule::DeadResizeConstantTW:
    return "the resize policy is read only inside startPhase() under the "
           "Adaptive TW policy; a Constant TW never resizes";
  case MergeRule::DeadAnchorUnanchored:
    return "under a Constant TW the anchor policy influences only the "
           "anchor-corrected phase starts, which are not being scored";
  case MergeRule::SaturatedAnalyzerAlwaysP:
    return "the analyzer provably maps every similarity in [0, 1] to P, "
           "so any always-P analyzer yields the same state sequence";
  case MergeRule::DeadModelSaturated:
    return "under an always-P analyzer the similarity value is never "
           "compared, and anchoring reads only occupancy counts that "
           "every model maintains identically";
  case MergeRule::DeadPolicySaturated:
    return "under an always-P analyzer the single phase start anchors "
           "before any resize and no phase ever ends, so the TW policy "
           "cannot affect any output";
  case MergeRule::DeadWindowSplitSaturated:
    return "under an always-P analyzer the flip to P happens at the "
           "first batch boundary with CW+TW elements consumed; only the "
           "sum matters when anchors are not being scored";
  case MergeRule::UnsatisfiableAnalyzerAlwaysT:
    return "the analyzer provably maps every similarity in [0, 1] to T, "
           "so no phase ever starts and the output is all-T";
  case MergeRule::DeadConfigUnsatisfiable:
    return "under an always-T analyzer the all-T, phase-free output is "
           "independent of every other parameter";
  }
  return "unknown";
}

AnalyzerRange opd::classifyAnalyzer(AnalyzerKind Kind, double Param) {
  switch (Kind) {
  case AnalyzerKind::Threshold:
    // Similarity is in [0, 1] and the comparison is >=.
    if (Param <= 0.0)
      return AnalyzerRange::AlwaysInPhase;
    if (Param > 1.0)
      return AnalyzerRange::AlwaysTransition;
    return AnalyzerRange::Normal;
  case AnalyzerKind::Average:
    // The decision threshold is mean - delta with mean in [0, 1]; a
    // delta >= 1 drives it to <= 0 for every reachable mean, and the
    // statistics-free first evaluation enters optimistically, so the
    // analyzer can never report T. It can never be always-T: the
    // optimistic first evaluation always reports P.
    if (Param >= 1.0)
      return AnalyzerRange::AlwaysInPhase;
    return AnalyzerRange::Normal;
  case AnalyzerKind::Hysteresis:
    // hysteresisExitThreshold() derives exit = max(0, enter - 0.15).
    // enter == 0 means entry is unconditional and exit (= 0) is
    // unreachable from below; enter > 1 means entry is unreachable. A
    // negative enter is unconstructible (the derived exit would exceed
    // it) — classified Normal so no merge is claimed; the lint reports it
    // as an error.
    if (Param == 0.0)
      return AnalyzerRange::AlwaysInPhase;
    if (Param > 1.0)
      return AnalyzerRange::AlwaysTransition;
    return AnalyzerRange::Normal;
  }
  return AnalyzerRange::Normal;
}

CanonResult opd::canonicalizeConfig(const DetectorConfig &Config,
                                    const ConfigCanonOptions &Options) {
  CanonResult Result;
  Result.Canonical = Config;
  DetectorConfig &C = Result.Canonical;
  auto apply = [&](MergeRule Rule) { Result.Applied.push_back(Rule); };

  AnalyzerRange Range = classifyAnalyzer(Config.TheAnalyzer,
                                         Config.AnalyzerParam);

  if (Range == AnalyzerRange::AlwaysTransition) {
    // The output is all-T of trace length whatever the rest of the
    // configuration says; collapse to one canonical point.
    if (C.TheAnalyzer != AnalyzerKind::Threshold || C.AnalyzerParam != 2.0) {
      C.TheAnalyzer = AnalyzerKind::Threshold;
      C.AnalyzerParam = 2.0;
      apply(MergeRule::UnsatisfiableAnalyzerAlwaysT);
    }
    WindowConfig W;
    W.CWSize = 1;
    W.TWSize = 1;
    W.SkipFactor = 1;
    W.TWPolicy = TWPolicyKind::Constant;
    W.Anchor = AnchorKind::RightmostNoisy;
    W.Resize = ResizeKind::Slide;
    if (C.Window != W || C.Model != ModelKind::UnweightedSet) {
      C.Window = W;
      C.Model = ModelKind::UnweightedSet;
      apply(MergeRule::DeadConfigUnsatisfiable);
    }
    return Result;
  }

  if (Range == AnalyzerRange::AlwaysInPhase) {
    if (C.TheAnalyzer != AnalyzerKind::Threshold || C.AnalyzerParam != 0.0) {
      C.TheAnalyzer = AnalyzerKind::Threshold;
      C.AnalyzerParam = 0.0;
      apply(MergeRule::SaturatedAnalyzerAlwaysP);
    }
    if (C.Model != ModelKind::UnweightedSet) {
      C.Model = ModelKind::UnweightedSet;
      apply(MergeRule::DeadModelSaturated);
    }
    if (C.Window.TWPolicy != TWPolicyKind::Constant) {
      C.Window.TWPolicy = TWPolicyKind::Constant;
      apply(MergeRule::DeadPolicySaturated);
    }
    if (!Options.AnchoredScoring) {
      // Only CW+TW gates the single T->P flip; normalize the split to
      // (sum - 1, 1) when the sum stays representable.
      uint64_t Sum = static_cast<uint64_t>(C.Window.CWSize) +
                     static_cast<uint64_t>(C.Window.TWSize);
      uint64_t CanonCW = Sum - 1;
      if (CanonCW <= std::numeric_limits<uint32_t>::max() &&
          (C.Window.CWSize != CanonCW || C.Window.TWSize != 1)) {
        C.Window.CWSize = static_cast<uint32_t>(CanonCW);
        C.Window.TWSize = 1;
        apply(MergeRule::DeadWindowSplitSaturated);
      }
    }
  }

  if (C.Window.TWPolicy == TWPolicyKind::Constant) {
    if (C.Window.Resize != ResizeKind::Slide) {
      C.Window.Resize = ResizeKind::Slide;
      apply(MergeRule::DeadResizeConstantTW);
    }
    if (!Options.AnchoredScoring &&
        C.Window.Anchor != AnchorKind::RightmostNoisy) {
      C.Window.Anchor = AnchorKind::RightmostNoisy;
      apply(MergeRule::DeadAnchorUnanchored);
    }
  }

  return Result;
}

std::string opd::configKey(const DetectorConfig &Config) {
  uint64_t ParamBits = 0;
  static_assert(sizeof(ParamBits) == sizeof(Config.AnalyzerParam),
                "double must be 64-bit for the bit-pattern key");
  std::memcpy(&ParamBits, &Config.AnalyzerParam, sizeof(ParamBits));

  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%u/%u/%u/%u/%u/%u|%u|%u/%016llx",
                Config.Window.CWSize, Config.Window.TWSize,
                Config.Window.SkipFactor,
                static_cast<unsigned>(Config.Window.TWPolicy),
                static_cast<unsigned>(Config.Window.Anchor),
                static_cast<unsigned>(Config.Window.Resize),
                static_cast<unsigned>(Config.Model),
                static_cast<unsigned>(Config.TheAnalyzer),
                static_cast<unsigned long long>(ParamBits));
  return Buf;
}
