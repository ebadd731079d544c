//===- analysis/ProtocolModel.cpp - Serve-protocol state machine ------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/ProtocolModel.h"

using namespace opd;

namespace {

/// Shorthand for a transition into Failed: emits Error \p Code and drops
/// the backlog (ServeSession::fail clears Pending so a flush-then-close
/// connection pins no element memory).
TransitionRule failRule(ProtoState From, ProtoEvent Ev, ServeError Code,
                        const char *Note) {
  TransitionRule R;
  R.From = From;
  R.Event = Ev;
  R.To = ProtoState::Failed;
  R.Err = Code;
  R.Occ = OccEffect::Clear;
  R.Note = Note;
  return R;
}

/// Shorthand for a self-loop that changes nothing (terminal absorption,
/// no-op pumps).
TransitionRule noopRule(ProtoState St, ProtoEvent Ev, const char *Note) {
  TransitionRule R;
  R.From = St;
  R.Event = Ev;
  R.To = St;
  R.Note = Note;
  return R;
}

} // namespace

ProtocolModel::ProtocolModel(ProtocolParams P) : Params(P) {
  const ProtoState AH = ProtoState::AwaitHello;
  const ProtoState SG = ProtoState::Streaming;
  const ProtoState DR = ProtoState::Draining;

  //===--------------------------------------------------------------------===//
  // AwaitHello: only Hello is legal. ServeSession::handleFrame checks the
  // state before it parses a payload, so a malformed Elements frame here
  // is still bad-state, not bad-frame.
  //===--------------------------------------------------------------------===//
  {
    TransitionRule R;
    R.From = AH;
    R.Event = ProtoEvent::HelloOk;
    R.To = SG;
    R.EmitHelloAck = true;
    R.Note = "handshake accepted: HelloAck, detector acquired";
    Rules.push_back(R);
  }
  Rules.push_back(failRule(AH, ProtoEvent::HelloBadMagic,
                           ServeError::BadMagic, "wrong handshake magic"));
  Rules.push_back(failRule(AH, ProtoEvent::HelloBadVersion,
                           ServeError::BadVersion,
                           "unsupported protocol version"));
  Rules.push_back(failRule(AH, ProtoEvent::HelloBadConfig,
                           ServeError::BadConfig,
                           "config rejected by validateConfig"));
  Rules.push_back(failRule(AH, ProtoEvent::HelloMalformed,
                           ServeError::BadFrame,
                           "structurally malformed handshake payload"));
  for (ProtoEvent Ev :
       {ProtoEvent::ElementsOk, ProtoEvent::ElementsMalformed,
        ProtoEvent::ElementsOutOfRange})
    Rules.push_back(failRule(AH, Ev, ServeError::BadState,
                             "elements before handshake (state checked "
                             "before payload)"));
  for (ProtoEvent Ev : {ProtoEvent::FinishOk, ProtoEvent::FinishPayload})
    Rules.push_back(
        failRule(AH, Ev, ServeError::BadState, "finish before handshake"));

  //===--------------------------------------------------------------------===//
  // Streaming: Elements buffer, Finish transitions to Draining, a second
  // Hello is bad-state.
  //===--------------------------------------------------------------------===//
  for (ProtoEvent Ev :
       {ProtoEvent::HelloOk, ProtoEvent::HelloBadMagic,
        ProtoEvent::HelloBadVersion, ProtoEvent::HelloBadConfig,
        ProtoEvent::HelloMalformed})
    Rules.push_back(failRule(SG, Ev, ServeError::BadState,
                             "duplicate handshake (state checked before "
                             "payload)"));
  {
    TransitionRule R;
    R.From = SG;
    R.Event = ProtoEvent::ElementsOk;
    R.To = SG;
    R.Occ = OccEffect::Ingest;
    R.Note = "elements buffered; decisions wait for a pump";
    Rules.push_back(R);
  }
  Rules.push_back(failRule(SG, ProtoEvent::ElementsMalformed,
                           ServeError::BadFrame,
                           "elements payload fails its parser"));
  Rules.push_back(failRule(SG, ProtoEvent::ElementsOutOfRange,
                           ServeError::SiteRange,
                           "element outside the declared site space"));
  {
    TransitionRule R;
    R.From = SG;
    R.Event = ProtoEvent::FinishOk;
    R.To = DR;
    R.Note = "end of stream declared; tail decided on a later pump";
    Rules.push_back(R);
  }
  Rules.push_back(failRule(SG, ProtoEvent::FinishPayload,
                           ServeError::BadFrame,
                           "finish frame carries a payload"));

  //===--------------------------------------------------------------------===//
  // Draining: every further client frame is a protocol error; pumps
  // decide the backlog and finally the sub-batch tail.
  //===--------------------------------------------------------------------===//
  for (ProtoEvent Ev :
       {ProtoEvent::HelloOk, ProtoEvent::HelloBadMagic,
        ProtoEvent::HelloBadVersion, ProtoEvent::HelloBadConfig,
        ProtoEvent::HelloMalformed})
    Rules.push_back(
        failRule(DR, Ev, ServeError::BadState, "handshake after finish"));
  for (ProtoEvent Ev :
       {ProtoEvent::ElementsOk, ProtoEvent::ElementsMalformed,
        ProtoEvent::ElementsOutOfRange})
    Rules.push_back(
        failRule(DR, Ev, ServeError::BadState, "elements after finish"));
  for (ProtoEvent Ev : {ProtoEvent::FinishOk, ProtoEvent::FinishPayload})
    Rules.push_back(
        failRule(DR, Ev, ServeError::BadState, "duplicate finish"));

  //===--------------------------------------------------------------------===//
  // Illegal kinds and framing corruption: identical outcome in every
  // live state.
  //===--------------------------------------------------------------------===//
  for (ProtoState St : {AH, SG, DR}) {
    Rules.push_back(failRule(St, ProtoEvent::ServerKindFrame,
                             ServeError::BadFrame,
                             "server-to-client kind from client"));
    Rules.push_back(failRule(St, ProtoEvent::UnknownKindFrame,
                             ServeError::BadFrame, "unknown frame kind"));
    Rules.push_back(failRule(St, ProtoEvent::CorruptZeroLen,
                             ServeError::BadFrame,
                             "zero-length frame (sticky corruption)"));
    Rules.push_back(failRule(St, ProtoEvent::CorruptOversized,
                             ServeError::Oversized,
                             "length prefix above MaxFrameLen"));
  }

  //===--------------------------------------------------------------------===//
  // Pumps. AwaitHello has nothing to decide. Streaming decides full
  // batches only. Draining additionally decides the sub-batch tail and
  // completes once the backlog holds less than one batch.
  //===--------------------------------------------------------------------===//
  Rules.push_back(noopRule(AH, ProtoEvent::PumpOne, "nothing to decide"));
  Rules.push_back(noopRule(AH, ProtoEvent::PumpAll, "nothing to decide"));
  {
    TransitionRule R;
    R.From = SG;
    R.Event = ProtoEvent::PumpOne;
    R.Guard = OccGuard::GeBatch;
    R.To = SG;
    R.Occ = OccEffect::DecideOne;
    R.MayEmitTransitions = true;
    R.MayEmitProgress = true;
    R.Note = "one full batch decided (budget-limited pump)";
    Rules.push_back(R);
  }
  {
    TransitionRule R = noopRule(SG, ProtoEvent::PumpOne,
                                "sub-batch backlog: nothing decidable");
    R.Guard = OccGuard::LtBatch;
    R.MayEmitProgress = true;
    Rules.push_back(R);
  }
  {
    TransitionRule R;
    R.From = SG;
    R.Event = ProtoEvent::PumpAll;
    R.To = SG;
    R.Occ = OccEffect::DecideFull;
    R.MayEmitTransitions = true;
    R.MayEmitProgress = true;
    R.Note = "every full batch decided; tail awaits Finish";
    Rules.push_back(R);
  }
  {
    TransitionRule R;
    R.From = DR;
    R.Event = ProtoEvent::PumpOne;
    R.Guard = OccGuard::GeBatch;
    R.To = DR;
    R.Occ = OccEffect::DecideOne;
    R.MayEmitTransitions = true;
    R.MayEmitProgress = true;
    R.Note = "budget exhausted before the tail; completion needs another "
             "pump";
    Rules.push_back(R);
  }
  {
    TransitionRule R;
    R.From = DR;
    R.Event = ProtoEvent::PumpOne;
    R.Guard = OccGuard::LtBatch;
    R.To = ProtoState::Done;
    R.Occ = OccEffect::DrainTail;
    R.EmitFinished = true;
    R.MayEmitTransitions = true;
    R.MayEmitProgress = true;
    R.Note = "tail decided exactly once (consumeTrace's short batch), "
             "then Finished";
    Rules.push_back(R);
  }
  {
    TransitionRule R;
    R.From = DR;
    R.Event = ProtoEvent::PumpAll;
    R.To = ProtoState::Done;
    R.Occ = OccEffect::DrainTail;
    R.EmitFinished = true;
    R.MayEmitTransitions = true;
    R.MayEmitProgress = true;
    R.Note = "backlog and tail decided, Finished emitted";
    Rules.push_back(R);
  }

  //===--------------------------------------------------------------------===//
  // Idle eviction and graceful drain. From Streaming every *full* batch
  // is decided first so all decidable transitions are delivered; the
  // sub-batch tail is never decided (only the client's Finish may flush
  // it — deciding it early would diverge from the offline detector).
  // From Draining the client already finished, so the session completes
  // normally instead of being cut.
  //===--------------------------------------------------------------------===//
  for (ProtoEvent Ev : {ProtoEvent::Evict, ProtoEvent::Drain}) {
    ServeError Code =
        Ev == ProtoEvent::Evict ? ServeError::Evicted : ServeError::Shutdown;
    {
      TransitionRule R = failRule(AH, Ev, Code,
                                  "session closed before handshake");
      Rules.push_back(R);
    }
    {
      TransitionRule R;
      R.From = SG;
      R.Event = Ev;
      R.To = ProtoState::Failed;
      R.Err = Code;
      R.Occ = OccEffect::DecideFullThenClear;
      R.MayEmitTransitions = true;
      R.MayEmitProgress = true;
      R.Note = "decidable transitions delivered, tail dropped undecided";
      Rules.push_back(R);
    }
    {
      TransitionRule R;
      R.From = DR;
      R.Event = Ev;
      R.To = ProtoState::Done;
      R.Occ = OccEffect::DrainTail;
      R.EmitFinished = true;
      R.MayEmitTransitions = true;
      R.MayEmitProgress = true;
      R.Note = "client already finished; completing beats cutting off";
      Rules.push_back(R);
    }
  }

  //===--------------------------------------------------------------------===//
  // Terminal absorption: Done and Failed ignore everything. (The
  // conformance driver proves ServeSession really does ignore
  // post-terminal input instead of, say, emitting an Error after
  // Finished.)
  //===--------------------------------------------------------------------===//
  for (ProtoState St : {ProtoState::Done, ProtoState::Failed})
    for (unsigned E = 0; E != NumProtoEvents; ++E)
      Rules.push_back(noopRule(St, static_cast<ProtoEvent>(E),
                               "terminal state absorbs all input"));
}

ProtocolModel::StepResult ProtocolModel::step(const ProtoConfigState &S,
                                              ProtoEvent Event,
                                              uint32_t Count) const {
  StepResult Res;
  for (const TransitionRule &R : Rules) {
    if (R.From != S.St || R.Event != Event)
      continue;
    bool GuardOk = R.Guard == OccGuard::Any ||
                   (R.Guard == OccGuard::GeBatch
                        ? S.Occupancy >= Params.Batch
                        : S.Occupancy < Params.Batch);
    if (!GuardOk)
      continue;
    if (Res.Rule) {
      Res.Ambiguous = true;
      return Res;
    }
    Res.Rule = &R;
  }
  if (!Res.Rule)
    return Res;

  const TransitionRule &R = *Res.Rule;
  ProtoConfigState Next = S;
  Next.St = R.To;
  switch (R.Occ) {
  case OccEffect::None:
    break;
  case OccEffect::Ingest:
    Next.Occupancy = S.Occupancy + Count;
    break;
  case OccEffect::DecideOne:
    Res.Decided = Params.Batch;
    Next.Occupancy = S.Occupancy - Params.Batch;
    break;
  case OccEffect::DecideFull:
    Res.Decided = S.Occupancy - S.Occupancy % Params.Batch;
    Next.Occupancy = S.Occupancy % Params.Batch;
    break;
  case OccEffect::DrainTail:
    Res.Decided = S.Occupancy;
    Next.Occupancy = 0;
    break;
  case OccEffect::Clear:
    Next.Occupancy = 0;
    break;
  case OccEffect::DecideFullThenClear:
    Res.Decided = S.Occupancy - S.Occupancy % Params.Batch;
    Next.Occupancy = 0;
    break;
  }

  // Backpressure hysteresis, exactly the server's read-pause discipline:
  // pause when an ingest leaves the buffer at or above the high
  // watermark; unpause when a pump leaves it below half.
  if (R.Occ == OccEffect::Ingest) {
    if (Next.Occupancy >= Params.HighWatermark)
      Next.ReadPaused = true;
  } else if (R.Occ == OccEffect::DecideOne || R.Occ == OccEffect::DecideFull ||
             R.Occ == OccEffect::DrainTail) {
    if (Next.ReadPaused && Next.Occupancy < Params.HighWatermark / 2)
      Next.ReadPaused = false;
  }

  if (isTerminal(Next.St))
    Next.ReadPaused = false;
  Next.Err = Next.St == ProtoState::Failed
                 ? (S.St == ProtoState::Failed ? S.Err : R.Err)
                 : ServeError::None;
  Res.Next = Next;
  return Res;
}

bool ProtocolModel::offered(const ProtoConfigState &S,
                            ProtoEvent Event) const {
  if (isClientFrameEvent(Event))
    return !S.ReadPaused; // The server is not reading a saturated socket.
  return true;
}

const char *ProtocolModel::stateName(ProtoState St) {
  switch (St) {
  case ProtoState::AwaitHello:
    return "AwaitHello";
  case ProtoState::Streaming:
    return "Streaming";
  case ProtoState::Draining:
    return "Draining";
  case ProtoState::Done:
    return "Done";
  case ProtoState::Failed:
    return "Failed";
  }
  return "unknown";
}

const char *ProtocolModel::eventName(ProtoEvent Event) {
  switch (Event) {
  case ProtoEvent::HelloOk:
    return "hello-ok";
  case ProtoEvent::HelloBadMagic:
    return "hello-bad-magic";
  case ProtoEvent::HelloBadVersion:
    return "hello-bad-version";
  case ProtoEvent::HelloBadConfig:
    return "hello-bad-config";
  case ProtoEvent::HelloMalformed:
    return "hello-malformed";
  case ProtoEvent::ElementsOk:
    return "elements-ok";
  case ProtoEvent::ElementsMalformed:
    return "elements-malformed";
  case ProtoEvent::ElementsOutOfRange:
    return "elements-out-of-range";
  case ProtoEvent::FinishOk:
    return "finish-ok";
  case ProtoEvent::FinishPayload:
    return "finish-payload";
  case ProtoEvent::ServerKindFrame:
    return "server-kind-frame";
  case ProtoEvent::UnknownKindFrame:
    return "unknown-kind-frame";
  case ProtoEvent::CorruptZeroLen:
    return "corrupt-zero-length";
  case ProtoEvent::CorruptOversized:
    return "corrupt-oversized";
  case ProtoEvent::PumpOne:
    return "pump-one";
  case ProtoEvent::PumpAll:
    return "pump-all";
  case ProtoEvent::Evict:
    return "evict";
  case ProtoEvent::Drain:
    return "drain";
  }
  return "unknown";
}

std::vector<ProtocolModel::KindInfo> ProtocolModel::frameKinds() {
  return {
      {"Hello", uint8_t(MsgKind::Hello), true},
      {"Elements", uint8_t(MsgKind::Elements), true},
      {"Finish", uint8_t(MsgKind::Finish), true},
      {"HelloAck", uint8_t(MsgKind::HelloAck), false},
      {"Transition", uint8_t(MsgKind::Transition), false},
      {"Progress", uint8_t(MsgKind::Progress), false},
      {"Finished", uint8_t(MsgKind::Finished), false},
      {"Error", uint8_t(MsgKind::Error), false},
  };
}

std::vector<ProtocolModel::ErrorInfo> ProtocolModel::errorCodes() {
  return {
      {"bad-magic", uint16_t(ServeError::BadMagic), true},
      {"bad-version", uint16_t(ServeError::BadVersion), true},
      {"bad-config", uint16_t(ServeError::BadConfig), true},
      {"bad-frame", uint16_t(ServeError::BadFrame), true},
      {"oversized", uint16_t(ServeError::Oversized), true},
      {"site-range", uint16_t(ServeError::SiteRange), true},
      {"bad-state", uint16_t(ServeError::BadState), true},
      {"evicted", uint16_t(ServeError::Evicted), true},
      {"shutdown", uint16_t(ServeError::Shutdown), true},
      // Emitted by the server at the session cap, before a ServeSession
      // exists; unreachable inside the session state machine by design.
      {"overload", uint16_t(ServeError::Overload), false},
  };
}

ProtocolModel::Legality ProtocolModel::legality(ProtoState St,
                                                MsgKind Kind) const {
  ProtoEvent Ev;
  switch (Kind) {
  case MsgKind::Hello:
    Ev = ProtoEvent::HelloOk;
    break;
  case MsgKind::Elements:
    Ev = ProtoEvent::ElementsOk;
    break;
  case MsgKind::Finish:
    Ev = ProtoEvent::FinishOk;
    break;
  default:
    Ev = ProtoEvent::ServerKindFrame;
    break;
  }
  ProtoConfigState S;
  S.St = St;
  StepResult Res = step(S, Ev, /*Count=*/1);
  Legality L;
  if (!Res.Rule) {
    L.To = St;
    L.Err = ServeError::BadFrame; // Unmatched: surfaced by the checker.
    return L;
  }
  L.To = Res.Rule->To;
  L.Err = Res.Rule->Err;
  return L;
}
