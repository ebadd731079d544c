//===- core/Analyzer.h - Similarity analyzers -------------------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The similarity analyzer (Figure 1) decides whether a similarity value
/// signifies P or T. The paper's two analyzer policies:
///
///  * ThresholdAnalyzer — P iff value >= fixed threshold (the policy used
///    by most prior work; thresholds 0.5-0.8 in the evaluation).
///  * AverageAnalyzer — P iff value >= runningAverage - delta, where the
///    running average covers the similarity values of the current phase
///    (reset at each phase start per Figure 3's resetStats; deltas
///    0.01-0.4 in the evaluation). With no accumulated values the
///    analyzer optimistically reports P; an optional entry threshold
///    (an extension, off by default) gates phase entry instead.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_CORE_ANALYZER_H
#define OPD_CORE_ANALYZER_H

#include "support/Statistics.h"
#include "trace/StateSequence.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace opd {

/// The analyzer policies available to the framework.
enum class AnalyzerKind : uint8_t {
  Threshold,  ///< Fixed-threshold analyzer.
  Average,    ///< Running-average-minus-delta analyzer.
  Hysteresis, ///< Dual-threshold analyzer (extension; see below).
};

/// Short mnemonic for tables.
const char *analyzerKindName(AnalyzerKind Kind);

/// Inverse of analyzerKindName, ignoring case; false on an unknown name.
bool parseAnalyzerKind(std::string_view Text, AnalyzerKind &Kind);

/// Abstract analyzer, driven by the PhaseDetector exactly as in Figure 3:
/// processValue() at every evaluation, resetStats() when a phase starts,
/// updateStats() while it continues.
class Analyzer {
public:
  virtual ~Analyzer();

  /// Decides P/T for one similarity value.
  virtual PhaseState processValue(double Similarity) = 0;

  /// Called when a new phase starts (Figure 3).
  virtual void resetStats() {}

  /// Called with each similarity value while the phase continues.
  virtual void updateStats(double Similarity) { (void)Similarity; }

  /// Full reset for reuse on a fresh stream.
  virtual void reset() {}

  /// Confidence in the most recent processValue() decision, in [0, 1]
  /// (the framework's optional "level of confidence in the current
  /// state", Section 2). The default is maximal confidence; analyzers
  /// with a decision threshold report the normalized margin between the
  /// value and the threshold.
  virtual double confidence() const { return 1.0; }

  /// One-line description for result tables, e.g. "threshold 0.60".
  virtual std::string describe() const = 0;

protected:
  /// Maps the margin between a similarity value and a decision threshold
  /// to a confidence in [0, 1] (saturating at MarginScale).
  static double marginConfidence(double Value, double Threshold) {
    constexpr double MarginScale = 0.2;
    double Margin = Value > Threshold ? Value - Threshold
                                      : Threshold - Value;
    return Margin >= MarginScale ? 1.0 : Margin / MarginScale;
  }
};

/// P iff the similarity value meets a fixed threshold.
class ThresholdAnalyzer final : public Analyzer {
  double Threshold;
  double LastConfidence = 0.0;

public:
  explicit ThresholdAnalyzer(double Threshold) : Threshold(Threshold) {}

  PhaseState processValue(double Similarity) override {
    LastConfidence = marginConfidence(Similarity, Threshold);
    return Similarity >= Threshold ? PhaseState::InPhase
                                   : PhaseState::Transition;
  }

  double confidence() const override { return LastConfidence; }

  void reset() override { LastConfidence = 0.0; }

  std::string describe() const override;

  double threshold() const { return Threshold; }
};

/// P iff the similarity value is within Delta below the running average
/// of the current phase's similarity values.
class AverageAnalyzer final : public Analyzer {
  double Delta;
  /// Extension (disabled when < 0): when no phase statistics exist yet,
  /// require the value to meet this fixed threshold to start a phase
  /// instead of entering optimistically.
  double EntryThreshold;
  RunningStats Stats;
  double LastConfidence = 0.0;

public:
  explicit AverageAnalyzer(double Delta, double EntryThreshold = -1.0)
      : Delta(Delta), EntryThreshold(EntryThreshold) {}

  PhaseState processValue(double Similarity) override {
    if (Stats.empty()) {
      if (EntryThreshold >= 0.0 && Similarity < EntryThreshold) {
        LastConfidence = marginConfidence(Similarity, EntryThreshold);
        return PhaseState::Transition;
      }
      // Optimistic entry: no phase statistics to judge against yet.
      LastConfidence = 0.0;
      return PhaseState::InPhase;
    }
    double Threshold = Stats.mean() - Delta;
    LastConfidence = marginConfidence(Similarity, Threshold);
    return Similarity >= Threshold ? PhaseState::InPhase
                                   : PhaseState::Transition;
  }

  double confidence() const override { return LastConfidence; }

  void resetStats() override { Stats.reset(); }

  void updateStats(double Similarity) override { Stats.push(Similarity); }

  void reset() override {
    Stats.reset();
    LastConfidence = 0.0;
  }

  std::string describe() const override;

  double delta() const { return Delta; }
};

/// Extension: dual-threshold (hysteresis) analyzer. A phase starts only
/// when the similarity reaches EnterThreshold and ends only when it
/// drops below ExitThreshold (< EnterThreshold); the dead band between
/// the thresholds suppresses flapping around a single threshold.
class HysteresisAnalyzer final : public Analyzer {
  double EnterThreshold;
  double ExitThreshold;
  PhaseState State = PhaseState::Transition;
  double LastConfidence = 0.0;

public:
  HysteresisAnalyzer(double EnterThreshold, double ExitThreshold)
      : EnterThreshold(EnterThreshold), ExitThreshold(ExitThreshold) {
    assert(ExitThreshold <= EnterThreshold &&
           "exit threshold must not exceed the enter threshold");
  }

  PhaseState processValue(double Similarity) override {
    double Threshold = State == PhaseState::InPhase ? ExitThreshold
                                                    : EnterThreshold;
    LastConfidence = marginConfidence(Similarity, Threshold);
    State = Similarity >= Threshold ? PhaseState::InPhase
                                    : PhaseState::Transition;
    return State;
  }

  double confidence() const override { return LastConfidence; }

  void reset() override {
    State = PhaseState::Transition;
    LastConfidence = 0.0;
  }

  std::string describe() const override;
};

/// The hysteresis exit threshold derived from the enter threshold: 0.15
/// below it, clamped at 0. Every hysteresis decision (makeAnalyzer's
/// analyzer, and the fast detector and shared-scan cursors, which call
/// decideHysteresis in core/FastKernels.h) uses this one.
inline double hysteresisExitThreshold(double EnterThreshold) {
  return EnterThreshold >= 0.15 ? EnterThreshold - 0.15 : 0.0;
}

/// Creates an analyzer by kind: Threshold takes the threshold, Average
/// the delta, and Hysteresis the enter threshold (the exit threshold is
/// hysteresisExitThreshold(Param)).
std::unique_ptr<Analyzer> makeAnalyzer(AnalyzerKind Kind, double Param);

} // namespace opd

#endif // OPD_CORE_ANALYZER_H
