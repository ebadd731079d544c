//===- trace/StateSequence.h - Run-length P/T state sequences ---*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framework outputs one PhaseState per profile element. For traces of
/// hundreds of thousands of elements across thousands of detector runs a
/// byte-per-element representation is wasteful, so StateSequence stores the
/// output run-length encoded. Phase boundaries (the T->P and P->T flips the
/// scoring metric matches against) fall out of the runs directly.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_TRACE_STATESEQUENCE_H
#define OPD_TRACE_STATESEQUENCE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace opd {

/// The two framework output states (Section 2).
enum class PhaseState : uint8_t {
  Transition, ///< T: between phases (or windows still filling).
  InPhase,    ///< P: stable, repeating behavior.
};

/// A maximal run of identical states covering trace offsets
/// [Begin, Begin+Length).
struct StateRun {
  uint64_t Begin;
  uint64_t Length;
  PhaseState State;
};

/// One phase interval [Begin, End) in trace offsets.
struct PhaseInterval {
  uint64_t Begin;
  uint64_t End;

  uint64_t length() const { return End - Begin; }

  friend bool operator==(const PhaseInterval &A, const PhaseInterval &B) {
    return A.Begin == B.Begin && A.End == B.End;
  }
};

/// Run-length encoded sequence of per-element states.
class StateSequence {
  std::vector<StateRun> Runs;
  uint64_t Total = 0;

public:
  /// Appends \p Count elements in state \p S (merges with the last run).
  void append(PhaseState S, uint64_t Count = 1) {
    if (Count == 0)
      return;
    if (!Runs.empty() && Runs.back().State == S) {
      Runs.back().Length += Count;
    } else {
      Runs.push_back({Total, Count, S});
    }
    Total += Count;
  }

  /// Total number of per-element states.
  uint64_t size() const { return Total; }

  /// True if no states were appended.
  bool empty() const { return Total == 0; }

  /// Forgets all states but keeps the run storage, so a reused sequence
  /// (sweep arenas) reaches steady state without reallocating.
  void clear() {
    Runs.clear();
    Total = 0;
  }

  /// The maximal runs in offset order.
  const std::vector<StateRun> &runs() const { return Runs; }

  /// State of element \p I (binary search over runs; prefer iterating
  /// runs() in bulk code).
  PhaseState at(uint64_t I) const;

  /// Returns the InPhase intervals, i.e. the detected/identified phases.
  /// Boundaries are exactly the interval endpoints: Begin is a T->P flip
  /// (or sequence start in P) and End a P->T flip (or sequence end).
  std::vector<PhaseInterval> phases() const;

  /// As phases(), but clears and fills \p Out so a reused vector keeps
  /// its capacity across runs.
  void phasesInto(std::vector<PhaseInterval> &Out) const;

  /// Number of elements in state InPhase.
  uint64_t numInPhase() const;

  /// Builds a sequence of length \p Total that is InPhase exactly on the
  /// given disjoint, sorted \p Phases.
  static StateSequence fromPhases(const std::vector<PhaseInterval> &Phases,
                                  uint64_t Total);
};

/// Number of elements on which \p A and \p B agree; both must have equal
/// size. This is the numerator of the paper's correlation component
/// (bothInPhase + bothInTransition).
uint64_t countAgreement(const StateSequence &A, const StateSequence &B);

} // namespace opd

#endif // OPD_TRACE_STATESEQUENCE_H
