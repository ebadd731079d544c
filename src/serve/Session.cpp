//===- serve/Session.cpp - One client session's state machine ---------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "serve/Session.h"

#include <cmath>
#include <cstring>

using namespace opd;

ServeSession::ServeSession(uint64_t Id, const ServeLimits &Limits,
                           DetectorCache &Cache)
    : Id(Id), Limits(Limits), Cache(Cache) {}

// NOLINTNEXTLINE(bugprone-exception-escape): release path only moves a
// pooled detector back to the cache; nothing on it can throw.
ServeSession::~ServeSession() { releaseDetector(); }

void ServeSession::releaseDetector() {
  if (Detector)
    Cache.release(Config, std::move(Detector));
}

void ServeSession::takeOutput(std::vector<uint8_t> &Sink) {
  Sink.insert(Sink.end(), Out.begin(), Out.end());
  Out.clear();
}

void ServeSession::fail(ServeError Code, const std::string &Message) {
  appendError(Out, Code, Message);
  St = State::Failed;
  Err = Code;
  releaseDetector();
  // The backlog can never be decided now; drop it so the buffer does not
  // pin memory for the connection's remaining (flush-then-close) life.
  Pending.clear();
  PendingHead = 0;
}

bool ServeSession::feed(const uint8_t *Data, size_t N) {
  // Terminal states ignore further input instead of parsing it: a Done
  // session must never regress to Failed (the protocol model's
  // conformance replay pins this — trailing client bytes after Finished
  // previously turned Done into Failed with a spurious BadState Error
  // *after* the Finished summary).
  if (St == State::Failed || St == State::Done)
    return false;
  Reader.feed(Data, N);
  return decodeFrames();
}

bool ServeSession::commit(size_t N) {
  // Same terminal rule as feed(): the bytes are dropped unparsed.
  if (St == State::Failed || St == State::Done)
    return false;
  Reader.commit(N);
  return decodeFrames();
}

bool ServeSession::decodeFrames() {
  Frame F;
  while (true) {
    switch (Reader.next(F)) {
    case FrameReader::Status::NeedMore:
      return true;
    case FrameReader::Status::Corrupt:
      fail(Reader.corruptOversized() ? ServeError::Oversized
                                     : ServeError::BadFrame,
           Reader.corruptReason());
      return false;
    case FrameReader::Status::Frame:
      if (!handleFrame(F))
        return false;
      break;
    }
  }
}

bool ServeSession::handleFrame(const Frame &F) {
  switch (F.Kind) {
  case MsgKind::Hello:
    if (St != State::AwaitHello) {
      fail(ServeError::BadState, "duplicate handshake");
      return false;
    }
    return handleHello(F);

  case MsgKind::Elements: {
    if (St != State::Streaming) {
      fail(ServeError::BadState, St == State::AwaitHello
                                     ? "elements before handshake"
                                     : "elements after finish");
      return false;
    }
    ElementsView View;
    if (!parseElements(F, View)) {
      fail(ServeError::BadFrame, "malformed elements frame");
      return false;
    }
    return handleElements(View);
  }

  case MsgKind::Finish:
    if (St != State::Streaming) {
      fail(ServeError::BadState, St == State::AwaitHello
                                     ? "finish before handshake"
                                     : "duplicate finish");
      return false;
    }
    if (F.Len != 0) {
      fail(ServeError::BadFrame, "finish frame carries a payload");
      return false;
    }
    St = State::Draining;
    return true;

  case MsgKind::HelloAck:
  case MsgKind::Transition:
  case MsgKind::Progress:
  case MsgKind::Finished:
  case MsgKind::Error:
    fail(ServeError::BadFrame, "server-to-client frame kind from client");
    return false;
  }
  fail(ServeError::BadFrame,
       "unknown frame kind " + std::to_string(unsigned(F.Kind)));
  return false;
}

bool ServeSession::handleElements(const ElementsView &View) {
  // One branch-free pass decides whether the whole frame is in range;
  // only a failing frame is scanned again, for the first offender the
  // error names.
  uint32_t Bad = 0;
  for (uint32_t I = 0; I != View.Count; ++I)
    Bad |= View.element(I) >= NumSites;
  if (Bad) {
    uint32_t I = 0;
    while (View.element(I) < NumSites)
      ++I;
    fail(ServeError::SiteRange, "element " + std::to_string(View.element(I)) +
                                    " outside site space " +
                                    std::to_string(NumSites));
    return false;
  }
  // resize() grows the capacity geometrically, so a backlog built from
  // many frames is copied O(log n) times, not once per frame. One memcpy
  // moves the payload: its words may be unaligned, so they are never
  // read through a SiteIndex pointer.
  size_t At = Pending.size();
  Pending.resize(At + View.Count);
  std::memcpy(Pending.data() + At, View.Data, size_t(View.Count) * 4);
  Ingested += View.Count;
  return true;
}

bool ServeSession::validateHello(const HelloMsg &M, std::string &Why) const {
  const WindowConfig &W = M.Config.Window;
  if (M.NumSites == 0 || M.NumSites > Limits.MaxSites) {
    Why = "site-space size " + std::to_string(M.NumSites) +
          " outside (0, " + std::to_string(Limits.MaxSites) + "]";
    return false;
  }
  if (W.CWSize == 0 || W.CWSize > Limits.MaxWindow) {
    Why = "current-window size " + std::to_string(W.CWSize) +
          " outside (0, " + std::to_string(Limits.MaxWindow) + "]";
    return false;
  }
  if (W.TWSize == 0 || W.TWSize > Limits.MaxWindow) {
    Why = "trailing-window size " + std::to_string(W.TWSize) +
          " outside (0, " + std::to_string(Limits.MaxWindow) + "]";
    return false;
  }
  if (W.SkipFactor == 0 || W.SkipFactor > Limits.MaxSkip) {
    Why = "skip factor " + std::to_string(W.SkipFactor) + " outside (0, " +
          std::to_string(Limits.MaxSkip) + "]";
    return false;
  }
  if (!std::isfinite(M.Config.AnalyzerParam)) {
    Why = "non-finite analyzer parameter";
    return false;
  }
  return true;
}

bool ServeSession::handleHello(const Frame &F) {
  HelloMsg M;
  ServeError Parse = parseHello(F, M);
  if (Parse != ServeError::None) {
    fail(Parse, std::string("handshake rejected: ") + serveErrorName(Parse));
    return false;
  }
  std::string Why;
  if (!validateHello(M, Why)) {
    fail(ServeError::BadConfig, Why);
    return false;
  }
  Config = M.Config;
  NumSites = M.NumSites;
  Flags = M.Flags;
  Detector = Cache.acquire(Config, NumSites);

  HelloAckMsg Ack;
  Ack.SessionId = Id;
  Ack.BatchSize = Config.Window.SkipFactor;
  Ack.MaxBatch = MaxElementsPerFrame;
  appendHelloAck(Out, Ack);
  St = State::Streaming;
  return true;
}

void ServeSession::decideBatch(const SiteIndex *Elements, size_t N) {
  PhaseState S = Detector->processBatch(Elements, N);
  if (S != Last) {
    TransitionMsg T;
    T.Offset = Consumed;
    T.NewState = S;
    if (S == PhaseState::InPhase && (Flags & HelloWantAnchors)) {
      T.HasAnchor = true;
      T.Anchor = Detector->lastPhaseStartEstimate();
    }
    appendTransition(Out, T);
    Transitions += 1;
    Last = S;
  }
  Consumed += N;
}

void ServeSession::compactPending() {
  if (PendingHead == Pending.size()) {
    Pending.clear();
    PendingHead = 0;
    return;
  }
  // Same policy as the windowed model's element buffer: compact only
  // once the dead prefix is big and outweighs the live suffix.
  if (PendingHead > (64u << 10) && PendingHead * 2 > Pending.size()) {
    Pending.erase(Pending.begin(), Pending.begin() +
                                       static_cast<ptrdiff_t>(PendingHead));
    PendingHead = 0;
  }
}

bool ServeSession::pump(size_t MaxElements) {
  if (St != State::Streaming && St != State::Draining)
    return false;

  size_t Batch = Config.Window.SkipFactor;
  size_t Processed = 0;
  while (pendingElements() >= Batch && Processed < MaxElements) {
    decideBatch(Pending.data() + PendingHead, Batch);
    PendingHead += Batch;
    Processed += Batch;
  }

  if (St == State::Draining && pendingElements() < Batch &&
      Processed < MaxElements) {
    // The client declared end-of-stream: decide the sub-batch tail as
    // one short batch (exactly consumeTrace()'s trailing batch), then
    // summarize.
    size_t Tail = pendingElements();
    if (Tail > 0) {
      decideBatch(Pending.data() + PendingHead, Tail);
      PendingHead += Tail;
    }
    FinishedMsg Fin;
    Fin.Elements = Consumed;
    Fin.Transitions = Transitions;
    Fin.FinalState = Last;
    // Progress before Finished so a client's flow-control window fully
    // opens before it sees the summary.
    if ((Flags & HelloWantProgress) && Ingested > AckedIngest) {
      ProgressMsg P;
      P.Ingested = Ingested;
      appendProgress(Out, P);
      AckedIngest = Ingested;
    }
    appendFinished(Out, Fin);
    St = State::Done;
    releaseDetector();
    Pending.clear();
    PendingHead = 0;
    return false;
  }

  compactPending();
  if ((Flags & HelloWantProgress) && Ingested > AckedIngest) {
    ProgressMsg P;
    P.Ingested = Ingested;
    appendProgress(Out, P);
    AckedIngest = Ingested;
  }
  return pendingElements() >= Batch ||
         (St == State::Draining && pendingElements() > 0);
}

void ServeSession::shutdown(ServeError Code) {
  switch (St) {
  case State::Done:
  case State::Failed:
    return;
  case State::Draining:
    // The client already finished its stream; completing it beats
    // cutting it off one pump short.
    pump();
    return;
  case State::AwaitHello:
    fail(Code, "session closed before handshake");
    return;
  case State::Streaming:
    // Deliver every decidable transition (all full batches), then
    // report the cut. The sub-batch tail stays undecided: only the
    // client's Finish may flush it, or replays would diverge from
    // offline runs.
    pump();
    fail(Code, Code == ServeError::Evicted ? "idle session evicted"
                                           : "server shutting down");
    return;
  }
}
