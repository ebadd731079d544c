//===- core/Analyzer.cpp - Similarity analyzers ------------------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"

#include "support/Format.h"

using namespace opd;

const char *opd::analyzerKindName(AnalyzerKind Kind) {
  switch (Kind) {
  case AnalyzerKind::Threshold:
    return "threshold";
  case AnalyzerKind::Average:
    return "average";
  case AnalyzerKind::Hysteresis:
    return "hysteresis";
  }
  return "unknown";
}

bool opd::parseAnalyzerKind(std::string_view Text, AnalyzerKind &Kind) {
  return parseName(Text,
                   {AnalyzerKind::Threshold, AnalyzerKind::Average,
                    AnalyzerKind::Hysteresis},
                   analyzerKindName, Kind);
}

Analyzer::~Analyzer() = default;

std::string ThresholdAnalyzer::describe() const {
  return std::string("threshold ") + formatDouble(Threshold, 2);
}

std::string AverageAnalyzer::describe() const {
  return std::string("average d=") + formatDouble(Delta, 2);
}

std::string HysteresisAnalyzer::describe() const {
  return std::string("hysteresis ") + formatDouble(EnterThreshold, 2) +
         "/" + formatDouble(ExitThreshold, 2);
}

std::unique_ptr<Analyzer> opd::makeAnalyzer(AnalyzerKind Kind,
                                            double Param) {
  switch (Kind) {
  case AnalyzerKind::Threshold:
    return std::make_unique<ThresholdAnalyzer>(Param);
  case AnalyzerKind::Average:
    return std::make_unique<AverageAnalyzer>(Param);
  case AnalyzerKind::Hysteresis:
    return std::make_unique<HysteresisAnalyzer>(
        Param, hysteresisExitThreshold(Param));
  }
  return nullptr;
}
