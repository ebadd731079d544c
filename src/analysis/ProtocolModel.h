//===- analysis/ProtocolModel.h - Serve-protocol state machine --*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A first-class declarative model of the serve-session wire protocol
/// (docs/SERVING.md, serve/Session.h): the session lifecycle states, the
/// classified input events (well-formed and malformed frames, framing
/// corruption, worker pumps, idle eviction, graceful drain), and an
/// explicit transition table with occupancy guards and per-transition
/// buffer-occupancy effects.
///
/// The model is the single source of truth three conformance directions
/// are checked against (analysis/ProtocolCheck.h and
/// analysis/ProtocolConformance.h):
///
///   * the explicit-state model checker exhaustively explores the
///     product of protocol state, buffer occupancy, and the
///     backpressure read-pause flag, and proves the protocol invariants;
///   * the implementation conformance driver walks a real ServeSession
///     along every model edge and diffs observed behavior;
///   * the documentation diff parses docs/SERVING.md's normative tables
///     and compares them with the model's catalogue.
///
/// Abstractions the model makes (deliberate, documented):
///
///   * Input is *classified*: instead of raw bytes, an event says which
///     validation class a frame falls into (e.g. ElementsOutOfRange).
///     The conformance layer owns the byte-level encodings for each
///     class, so the classification itself is checked against reality.
///   * One ElementsOk event models one ingested Elements frame of
///     1..MaxFrameElements elements — the largest ingest between two
///     saturation checks (the server checks ingressSaturated() after
///     each feed).
///   * Transition and Progress frames are data-dependent (they depend
///     on the detector's decisions), so rules only record that they
///     *may* be emitted; mandatory frames (HelloAck, Finished, Error)
///     are modeled exactly.
///   * Connection-level concerns that never reach ServeSession (the
///     overload reject at the session cap, abandonment by client EOF
///     before Finish) are out of scope; the error-code catalogue still
///     lists `overload` as server-level so the doc diff covers it.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_ANALYSIS_PROTOCOLMODEL_H
#define OPD_ANALYSIS_PROTOCOLMODEL_H

#include "serve/Protocol.h"

#include <cstdint>
#include <vector>

namespace opd {

/// Session lifecycle states, mirroring ServeSession::State one-to-one.
enum class ProtoState : uint8_t {
  AwaitHello, ///< Waiting for the handshake frame.
  Streaming,  ///< Handshake accepted; accepting Elements/Finish.
  Draining,   ///< Finish received; tail not yet decided by a pump.
  Done,       ///< Finished summary emitted; terminal.
  Failed,     ///< Error frame emitted; terminal.
};
constexpr unsigned NumProtoStates = 5;

/// Classified input events: every frame a client can send (partitioned
/// by its validation outcome), framing-level corruption, and the
/// server-side control events that drive a session.
enum class ProtoEvent : uint8_t {
  // Hello frames by validation class.
  HelloOk,         ///< Well-formed handshake passing ServeLimits.
  HelloBadMagic,   ///< Payload intact but wrong magic.
  HelloBadVersion, ///< Right magic, unsupported version.
  HelloBadConfig,  ///< Parses but its config fails validateConfig.
  HelloMalformed,  ///< Structural: short/long payload or bad enum byte.
  // Elements frames by validation class.
  ElementsOk,         ///< Well-formed, all elements inside the site space.
  ElementsMalformed,  ///< Count/length mismatch or zero count.
  ElementsOutOfRange, ///< Some element >= NumSites.
  // Finish frames.
  FinishOk,      ///< Empty payload, as specified.
  FinishPayload, ///< Finish carrying a payload.
  // Frame kinds that are never legal from a client.
  ServerKindFrame,  ///< A server-to-client kind (16..20) from the client.
  UnknownKindFrame, ///< A kind outside the defined numbering.
  // Framing-level corruption (sticky; no frame can follow).
  CorruptZeroLen,   ///< Length prefix of zero.
  CorruptOversized, ///< Length prefix above MaxFrameLen.
  // Server-side control events.
  PumpOne, ///< Worker pump with a one-element budget: at most one batch.
  PumpAll, ///< Worker pump with an unbounded budget.
  Evict,   ///< Idle-eviction timer fired.
  Drain,   ///< Graceful server shutdown reached this session.
};
constexpr unsigned NumProtoEvents = 18;

/// Occupancy guard of one transition rule, relative to the batch size.
enum class OccGuard : uint8_t {
  Any,     ///< Applies at every occupancy.
  GeBatch, ///< Applies when occupancy >= Batch.
  LtBatch, ///< Applies when occupancy < Batch.
};

/// Effect of one transition on the pending-element buffer occupancy.
enum class OccEffect : uint8_t {
  None,       ///< Occupancy unchanged.
  Ingest,     ///< Occupancy += the event's element count.
  DecideOne,  ///< One full batch decided: occupancy -= Batch.
  DecideFull, ///< Every full batch decided: occupancy %= Batch.
  DrainTail,  ///< Full batches and the sub-batch tail decided: -> 0.
  Clear,      ///< Buffer dropped undecided (terminal error): -> 0.
  /// Every full batch decided, then the undecidable remainder dropped
  /// (eviction/drain from Streaming: the tail may only be flushed by the
  /// client's Finish).
  DecideFullThenClear,
};

/// One row of the protocol transition table.
struct TransitionRule {
  ProtoState From;
  ProtoEvent Event;
  OccGuard Guard = OccGuard::Any;
  ProtoState To;
  /// Error code of the Error frame this transition emits
  /// (ServeError::None when it emits none). Non-None exactly on
  /// transitions entering Failed from a live state.
  ServeError Err = ServeError::None;
  OccEffect Occ = OccEffect::None;
  /// Mandatory frame emissions (exact).
  bool EmitHelloAck = false;
  bool EmitFinished = false;
  /// Data-dependent frame emissions (upper bounds).
  bool MayEmitTransitions = false;
  bool MayEmitProgress = false;
  /// Human-readable rationale, usable in diagnostics.
  const char *Note = "";
};

/// Numeric parameters the model instance is explored under. Small values
/// keep the product space tiny while exercising every guard boundary.
struct ProtocolParams {
  /// Decision batch size (the config's skip factor).
  uint32_t Batch = 3;
  /// Ingress high watermark (ServeLimits::MaxPendingElements). Reads
  /// pause at or above it and resume below half of it.
  uint32_t HighWatermark = 8;
  /// Largest element count one ingest event may carry.
  uint32_t MaxFrameElements = 5;
};

/// One configuration of the product state space the checker explores.
struct ProtoConfigState {
  ProtoState St = ProtoState::AwaitHello;
  /// Buffered elements not yet decided.
  uint32_t Occupancy = 0;
  /// Backpressure: the server has stopped reading this session's socket
  /// (sticky, with hysteresis: set at Occupancy >= HighWatermark, cleared
  /// by a pump leaving Occupancy < HighWatermark / 2).
  bool ReadPaused = false;
  /// Terminal error code (None unless St == Failed).
  ServeError Err = ServeError::None;

  bool operator==(const ProtoConfigState &O) const {
    return St == O.St && Occupancy == O.Occupancy &&
           ReadPaused == O.ReadPaused && Err == O.Err;
  }
};

/// The declarative protocol model: a transition table plus the frame-kind
/// and error-code catalogues the documentation is diffed against.
class ProtocolModel {
public:
  explicit ProtocolModel(ProtocolParams Params = ProtocolParams());

  const ProtocolParams &params() const { return Params; }

  /// The transition table. Mutable on purpose: the checker's negative
  /// tests remove, duplicate, and retarget rules to prove the invariants
  /// have teeth.
  std::vector<TransitionRule> &rules() { return Rules; }
  const std::vector<TransitionRule> &rules() const { return Rules; }

  /// Result of applying one event to one configuration.
  struct StepResult {
    /// The rule that fired; null when no rule matched.
    const TransitionRule *Rule = nullptr;
    /// True when more than one rule matched (the table is ambiguous);
    /// Rule then points at the first match.
    bool Ambiguous = false;
    ProtoConfigState Next;
    /// Elements decided (streamed through the detector) by this step.
    uint32_t Decided = 0;
  };

  /// Applies \p Event (carrying \p Count elements if it is ElementsOk)
  /// to \p S under the table: matches the unique applicable rule,
  /// applies its occupancy effect, and computes the read-pause
  /// hysteresis.
  StepResult step(const ProtoConfigState &S, ProtoEvent Event,
                  uint32_t Count = 0) const;

  /// True when \p Event can occur in configuration \p S under the
  /// serving I/O discipline: client frames only arrive while the server
  /// is reading (not ReadPaused); control events are always possible.
  bool offered(const ProtoConfigState &S, ProtoEvent Event) const;

  static bool isTerminal(ProtoState St) {
    return St == ProtoState::Done || St == ProtoState::Failed;
  }

  /// True for events that arrive as client frames (gated by ReadPaused),
  /// including framing corruption; false for control events.
  static bool isClientFrameEvent(ProtoEvent Event) {
    return Event < ProtoEvent::PumpOne;
  }

  /// Stable display names.
  static const char *stateName(ProtoState St);
  static const char *eventName(ProtoEvent Event);

  /// Catalogue row: one wire frame kind.
  struct KindInfo {
    const char *Name;
    uint8_t Value;
    bool ClientToServer;
  };
  /// Every frame kind with its wire value and direction, in wire-value
  /// order (the doc's frame-kind table must match exactly).
  static std::vector<KindInfo> frameKinds();

  /// Catalogue row: one error code.
  struct ErrorInfo {
    const char *Name;
    uint16_t Value;
    /// True for codes a session itself can terminate with; false for
    /// codes only the surrounding server emits (overload), which the
    /// session-level reachability check must not demand.
    bool SessionLevel;
  };
  /// Every error code with its wire value (the doc's error table must
  /// match exactly).
  static std::vector<ErrorInfo> errorCodes();

  /// The model's verdict for a *well-formed* frame of the given client
  /// kind in the given state: either an acceptance (Err == None, To is
  /// the resulting state) or a rejection code. Used by the doc diff
  /// against the frame-legality table.
  struct Legality {
    ProtoState To;
    ServeError Err; // None => accepted.
  };
  Legality legality(ProtoState St, MsgKind Kind) const;

private:
  ProtocolParams Params;
  std::vector<TransitionRule> Rules;
};

} // namespace opd

#endif // OPD_ANALYSIS_PROTOCOLMODEL_H
