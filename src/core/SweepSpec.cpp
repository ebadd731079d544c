//===- core/SweepSpec.cpp - Detector configuration cross products -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/SweepSpec.h"

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

using namespace opd;

namespace {

/// The TW size CW * TWFactor, multiplied in 64 bits. A spec whose product
/// passes UINT32_MAX has no such window; its builder must reject it
/// (buildSweepSpec in examples/ToolCommon.h does).
uint32_t twSize(uint32_t CW, uint32_t TWFactor) {
  uint64_t TW = uint64_t(CW) * TWFactor;
  assert(TW <= UINT32_MAX && "TW size past uint32_t");
  return static_cast<uint32_t>(TW);
}

} // namespace

std::vector<AnalyzerSpec> opd::paperAnalyzers() {
  return {
      {AnalyzerKind::Threshold, 0.5}, {AnalyzerKind::Threshold, 0.6},
      {AnalyzerKind::Threshold, 0.7}, {AnalyzerKind::Threshold, 0.8},
      {AnalyzerKind::Average, 0.01},  {AnalyzerKind::Average, 0.05},
      {AnalyzerKind::Average, 0.1},   {AnalyzerKind::Average, 0.2},
      {AnalyzerKind::Average, 0.3},   {AnalyzerKind::Average, 0.4},
  };
}

std::vector<AnalyzerSpec> opd::reducedAnalyzers() {
  return {
      {AnalyzerKind::Threshold, 0.6},
      {AnalyzerKind::Threshold, 0.8},
      {AnalyzerKind::Average, 0.05},
      {AnalyzerKind::Average, 0.2},
  };
}

std::vector<DetectorConfig>
opd::enumerateCrossProduct(const SweepSpec &Spec) {
  std::vector<DetectorConfig> Configs;
  auto addConfig = [&](const WindowConfig &W, ModelKind M,
                       const AnalyzerSpec &A) {
    DetectorConfig C;
    C.Window = W;
    C.Model = M;
    C.TheAnalyzer = A.Kind;
    C.AnalyzerParam = A.Param;
    Configs.push_back(C);
  };

  for (uint32_t CW : Spec.CWSizes) {
    for (uint32_t TWFactor : Spec.TWFactors) {
      for (ModelKind M : Spec.Models) {
        for (const AnalyzerSpec &A : Spec.Analyzers) {
          for (AnchorKind Anchor : Spec.Anchors) {
            for (ResizeKind Resize : Spec.Resizes) {
              WindowConfig W;
              W.CWSize = CW;
              W.TWSize = twSize(CW, TWFactor);
              W.Anchor = Anchor;
              W.Resize = Resize;
              for (TWPolicyKind Policy : Spec.TWPolicies) {
                W.TWPolicy = Policy;
                for (uint32_t Skip : Spec.SkipFactors) {
                  W.SkipFactor = Skip;
                  addConfig(W, M, A);
                }
              }
              if (Spec.IncludeFixedInterval) {
                W.TWPolicy = TWPolicyKind::Constant;
                W.SkipFactor = CW;
                addConfig(W, M, A);
              }
            }
          }
        }
      }
    }
  }
  return Configs;
}

SweepSpec opd::paperCrossSpec() {
  SweepSpec Spec;
  Spec.CWSizes = {500, 1000, 5000, 10000, 25000, 50000, 100000};
  Spec.TWFactors = {1, 2};
  Spec.SkipFactors = {1, 10, 100, 250};
  Spec.TWPolicies = {TWPolicyKind::Constant, TWPolicyKind::Adaptive};
  Spec.IncludeFixedInterval = true;
  Spec.Models = {ModelKind::UnweightedSet, ModelKind::WeightedSet};
  Spec.Analyzers = paperAnalyzers();
  Spec.Anchors = {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy};
  Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  return Spec;
}

SweepSpec opd::benchSweepSpec(const std::string &Name,
                              const std::vector<AnalyzerSpec> &Analyzers) {
  SweepSpec Spec;
  Spec.Analyzers = Analyzers;
  if (Name == "table2") {
    Spec.CWSizes = {500, 1000, 5000, 10000, 25000, 50000, 100000};
    Spec.IncludeFixedInterval = true;
  } else if (Name == "fig4") {
    Spec.CWSizes = {500, 1000, 5000, 10000, 25000, 50000, 100000};
    Spec.IncludeFixedInterval = true;
  } else if (Name == "fig5") {
    // CW = 1/2 MPL for each MPL of interest.
    Spec.CWSizes = {500, 5000, 25000, 50000};
  } else if (Name == "fig6") {
    Spec.CWSizes = {500, 5000, 25000, 50000};
    Spec.Models = {ModelKind::UnweightedSet};
  } else if (Name == "fig7") {
    // CW = 1/2 MPL for each standard MPL.
    Spec.CWSizes = {500, 2500, 5000, 12500, 25000, 50000};
    Spec.TWPolicies = {TWPolicyKind::Adaptive};
    Spec.Anchors = {AnchorKind::RightmostNoisy,
                    AnchorKind::LeftmostNonNoisy};
    Spec.Resizes = {ResizeKind::Slide, ResizeKind::Move};
  } else if (Name == "fig8") {
    Spec.CWSizes = {500, 5000, 25000, 50000, 100000};
  } else if (Name == "ablation13") {
    Spec.CWSizes = {500, 1000, 2500, 5000};
    Spec.IncludeFixedInterval = true;
  } else if (Name == "paper") {
    Spec = paperCrossSpec();
    Spec.Analyzers = Analyzers;
  } else {
    std::fprintf(stderr, "benchSweepSpec: unknown sweep name '%s'\n",
                 Name.c_str());
    std::abort();
  }
  return Spec;
}

const std::vector<std::string> &opd::benchSweepNames() {
  static const std::vector<std::string> Names = {
      "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation13",
      "paper"};
  return Names;
}
