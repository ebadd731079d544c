//===- core/DetectorConfig.cpp - Detector instantiation configs -------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/DetectorConfig.h"

#include "support/Format.h"

#include <cmath>
#include <cstdio>
#include <tuple>

using namespace opd;

std::string DetectorConfig::describe() const {
  std::string Out = modelKindName(Model);
  Out += std::string(" ") + twPolicyName(Window.TWPolicy);
  Out += " cw=" + std::to_string(Window.CWSize);
  Out += " tw=" + std::to_string(Window.TWSize);
  Out += " skip=" + std::to_string(Window.SkipFactor);
  if (Window.TWPolicy == TWPolicyKind::Adaptive)
    Out += std::string(" ") + anchorKindName(Window.Anchor) + "/" +
           resizeKindName(Window.Resize);
  Out += std::string(" ") + analyzerKindName(TheAnalyzer) + " " +
         formatDouble(AnalyzerParam, 2);
  return Out;
}

std::string opd::validateConfig(const DetectorConfig &Config,
                                const ConfigLimits &Limits) {
  const WindowConfig &W = Config.Window;
  for (auto [Field, Value, Max] :
       {std::tuple{"current-window size", W.CWSize, Limits.MaxWindow},
        std::tuple{"trailing-window size", W.TWSize, Limits.MaxWindow},
        std::tuple{"skip factor", W.SkipFactor, Limits.MaxSkip}})
    if (Value == 0 || Value > Max)
      return std::string(Field) + " " + std::to_string(Value) +
             " outside [1, " + std::to_string(Max) + "]";
  double P = Config.AnalyzerParam;
  bool Finite = std::isfinite(P);
  if (Finite && (Config.TheAnalyzer != AnalyzerKind::Hysteresis || P >= 0.0))
    return "";
  char Text[32];
  std::snprintf(Text, sizeof(Text), "%g", P);
  if (!Finite)
    return std::string("analyzer parameter ") + Text + " is not finite";
  return std::string("hysteresis enter threshold ") + Text + " is negative";
}

std::unique_ptr<PhaseDetector> opd::makeDetector(const DetectorConfig &Config,
                                                 SiteIndex NumSites) {
  return std::make_unique<PhaseDetector>(
      Config.Window, Config.Model,
      makeAnalyzer(Config.TheAnalyzer, Config.AnalyzerParam), NumSites);
}

std::unique_ptr<PhaseDetector>
opd::makeCheckedDetector(const DetectorConfig &Config, SiteIndex NumSites,
                         KernelValueProbe &Probe) {
  return std::make_unique<PhaseDetector>(
      Config.Window, Config.Model,
      makeAnalyzer(Config.TheAnalyzer, Config.AnalyzerParam), NumSites,
      &Probe);
}
