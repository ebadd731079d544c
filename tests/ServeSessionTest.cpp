//===- tests/ServeSessionTest.cpp - Session state-machine tests -------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ServeSession is driven here entirely with byte buffers — no sockets —
/// which is the point of its design: the handshake validation, the
/// lifecycle state machine, backpressure watermarks, eviction/drain
/// semantics, and above all the equivalence contract (a session's
/// streamed transitions rebuilt into a DetectorRun must equal offline
/// runDetector() on the same elements, for any wire chunking and any
/// pump interleaving) are all provable without I/O.
///
//===----------------------------------------------------------------------===//

#include "core/DetectorRunner.h"
#include "serve/Client.h"
#include "serve/Session.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace opd;

namespace {

/// A small phase-structured trace shared by the equivalence tests.
const SyntheticTrace &testTrace() {
  static const SyntheticTrace T = [] {
    SyntheticSpec Spec;
    Spec.NumPhases = 6;
    Spec.PhaseLength = 4000;
    Spec.TransitionLength = 600;
    Spec.Seed = 7;
    return generateSynthetic(Spec);
  }();
  return T;
}

DetectorConfig baseConfig() {
  DetectorConfig C;
  C.Window.CWSize = 200;
  C.Window.TWSize = 200;
  C.Window.SkipFactor = 1;
  return C;
}

std::vector<uint8_t> helloBytes(const DetectorConfig &C, SiteIndex NumSites,
                                uint16_t Flags = HelloWantAnchors) {
  HelloMsg M;
  M.Flags = Flags;
  M.NumSites = NumSites;
  M.Config = C;
  std::vector<uint8_t> Bytes;
  appendHello(Bytes, M);
  return Bytes;
}

/// Decodes a session's output bytes into a StreamedRun (events only).
void collectEvents(const std::vector<uint8_t> &Bytes, StreamedRun &Run) {
  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  while (Reader.next(F) == FrameReader::Status::Frame) {
    switch (F.Kind) {
    case MsgKind::HelloAck:
      ASSERT_TRUE(parseHelloAck(F, Run.Ack));
      break;
    case MsgKind::Transition: {
      TransitionMsg T;
      ASSERT_TRUE(parseTransition(F, T));
      Run.Transitions.push_back(T);
      break;
    }
    case MsgKind::Progress: {
      ProgressMsg P;
      ASSERT_TRUE(parseProgress(F, P));
      EXPECT_GE(P.Ingested, Run.LastProgress);
      Run.LastProgress = P.Ingested;
      break;
    }
    case MsgKind::Finished:
      ASSERT_TRUE(parseFinished(F, Run.Summary));
      Run.GotFinished = true;
      break;
    case MsgKind::Error:
      ASSERT_TRUE(parseError(F, Run.Err));
      Run.GotError = true;
      break;
    default:
      FAIL() << "unexpected frame kind " << unsigned(F.Kind);
    }
  }
  EXPECT_EQ(Reader.buffered(), 0u);
}

void expectRunsEqual(const DetectorRun &Reference, const DetectorRun &Streamed,
                     const std::string &What) {
  ASSERT_EQ(Reference.States.size(), Streamed.States.size()) << What;
  const std::vector<StateRun> &RR = Reference.States.runs();
  const std::vector<StateRun> &SR = Streamed.States.runs();
  ASSERT_EQ(RR.size(), SR.size()) << What;
  for (size_t I = 0; I != RR.size(); ++I) {
    ASSERT_EQ(RR[I].Begin, SR[I].Begin) << What << " run " << I;
    ASSERT_EQ(RR[I].Length, SR[I].Length) << What << " run " << I;
    ASSERT_EQ(RR[I].State, SR[I].State) << What << " run " << I;
  }
  EXPECT_EQ(Reference.DetectedPhases, Streamed.DetectedPhases) << What;
  EXPECT_EQ(Reference.AnchoredPhases, Streamed.AnchoredPhases) << What;
}

/// Streams the test trace through a session with the given wire chunking
/// and pump budget, then requires the rebuilt run to equal runDetector.
void runEquivalence(const DetectorConfig &Config, size_t ElementsPerFrame,
                    size_t FeedBytes, size_t PumpBudget,
                    const std::string &What) {
  const BranchTrace &Trace = testTrace().Trace;
  DetectorCache Cache;
  ServeSession Sess(/*Id=*/1, ServeLimits(), Cache);

  // Encode the whole client side of the conversation...
  std::vector<uint8_t> Wire =
      helloBytes(Config, Trace.numSites(), HelloWantAnchors);
  const std::vector<SiteIndex> &E = Trace.elements();
  for (size_t Pos = 0; Pos < E.size(); Pos += ElementsPerFrame)
    appendElements(Wire, E.data() + Pos,
                   std::min(ElementsPerFrame, E.size() - Pos));
  appendFinish(Wire);

  // ...then deliver it in FeedBytes-sized chunks with pumps interleaved.
  std::vector<uint8_t> Out;
  for (size_t Pos = 0; Pos < Wire.size(); Pos += FeedBytes) {
    ASSERT_TRUE(
        Sess.feed(Wire.data() + Pos, std::min(FeedBytes, Wire.size() - Pos)))
        << What;
    while (Sess.pump(PumpBudget)) {
    }
    if (Sess.hasOutput())
      Sess.takeOutput(Out);
  }
  while (Sess.pump(PumpBudget)) {
  }
  Sess.takeOutput(Out);
  EXPECT_TRUE(Sess.done()) << What;

  StreamedRun Run;
  collectEvents(Out, Run);
  ASSERT_TRUE(Run.GotFinished) << What;
  EXPECT_FALSE(Run.GotError) << What;
  EXPECT_EQ(Run.Summary.Elements, E.size()) << What;
  EXPECT_EQ(Run.Ack.BatchSize, Config.Window.SkipFactor) << What;

  std::unique_ptr<PhaseDetector> Ref = makeDetector(Config, Trace.numSites());
  DetectorRun Reference = runDetector(*Ref, Trace);
  DetectorRun Streamed = streamedToDetectorRun(Run);
  expectRunsEqual(Reference, Streamed, What);
  EXPECT_EQ(Run.Summary.Transitions, Run.Transitions.size()) << What;
}

TEST(ServeSession, EquivalenceSkipOne) {
  runEquivalence(baseConfig(), 4096, 1u << 14, SIZE_MAX, "skip=1");
}

TEST(ServeSession, EquivalenceSkipHundredSmallFrames) {
  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 100;
  // 37-element frames never align with the 100-element batch, and the
  // 1 KiB feed splits frames across feed() calls.
  runEquivalence(C, 37, 1u << 10, SIZE_MAX, "skip=100 frames=37");
}

TEST(ServeSession, EquivalenceSkipLargerThanTraceTail) {
  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 7000; // Forces a short trailing batch at Finish.
  runEquivalence(C, 4096, 1u << 14, SIZE_MAX, "skip=7000");
}

TEST(ServeSession, EquivalenceAdaptiveWeightedBoundedPumps) {
  DetectorConfig C = baseConfig();
  C.Window.TWPolicy = TWPolicyKind::Adaptive;
  C.Model = ModelKind::WeightedSet;
  C.TheAnalyzer = AnalyzerKind::Average;
  C.AnalyzerParam = 0.05;
  C.Window.SkipFactor = 13;
  // A tiny pump budget forces many partial pumps per feed.
  runEquivalence(C, 501, 1u << 12, 64, "adaptive weighted pump=64");
}

TEST(ServeSession, HandshakeRejectsInvalidConfigs) {
  DetectorCache Cache;
  const SiteIndex Sites = 100;

  struct Case {
    const char *Name;
    DetectorConfig Config;
    SiteIndex NumSites;
    ServeError Expect;
  };
  DetectorConfig ZeroCW = baseConfig();
  ZeroCW.Window.CWSize = 0;
  DetectorConfig ZeroSkip = baseConfig();
  ZeroSkip.Window.SkipFactor = 0;
  DetectorConfig HugeTW = baseConfig();
  HugeTW.Window.TWSize = (1u << 20) + 1;
  DetectorConfig NanParam = baseConfig();
  NanParam.AnalyzerParam = std::numeric_limits<double>::quiet_NaN();
  // A negative hysteresis enter threshold must stop at the handshake:
  // past it, the analyzer's constructor asserts and ends the process.
  DetectorConfig NegHysteresis = baseConfig();
  NegHysteresis.TheAnalyzer = AnalyzerKind::Hysteresis;
  NegHysteresis.AnalyzerParam = -0.5;
  DetectorConfig NanHysteresis = NegHysteresis;
  NanHysteresis.AnalyzerParam = std::numeric_limits<double>::quiet_NaN();
  DetectorConfig InfThreshold = baseConfig();
  InfThreshold.AnalyzerParam = std::numeric_limits<double>::infinity();

  const Case Cases[] = {
      {"zero cw", ZeroCW, Sites, ServeError::BadConfig},
      {"zero skip", ZeroSkip, Sites, ServeError::BadConfig},
      {"huge tw", HugeTW, Sites, ServeError::BadConfig},
      {"nan param", NanParam, Sites, ServeError::BadConfig},
      {"negative hysteresis", NegHysteresis, Sites, ServeError::BadConfig},
      {"nan hysteresis", NanHysteresis, Sites, ServeError::BadConfig},
      {"inf threshold", InfThreshold, Sites, ServeError::BadConfig},
      {"zero sites", baseConfig(), 0, ServeError::BadConfig},
  };
  uint64_t Id = 10;
  for (const Case &C : Cases) {
    ServeSession Sess(Id++, ServeLimits(), Cache);
    std::vector<uint8_t> Hello = helloBytes(C.Config, C.NumSites);
    EXPECT_FALSE(Sess.feed(Hello.data(), Hello.size())) << C.Name;
    EXPECT_TRUE(Sess.failed()) << C.Name;
    EXPECT_EQ(Sess.error(), C.Expect) << C.Name;

    StreamedRun Run;
    std::vector<uint8_t> Out;
    Sess.takeOutput(Out);
    collectEvents(Out, Run);
    ASSERT_TRUE(Run.GotError) << C.Name;
    EXPECT_EQ(Run.Err.Code, C.Expect) << C.Name;
    EXPECT_FALSE(Run.Err.Message.empty()) << C.Name;
  }
  // Rejected handshakes never touched the detector cache.
  EXPECT_EQ(Cache.stats().Misses, 0u);
  EXPECT_EQ(Cache.stats().Hits, 0u);
}

TEST(ServeSession, ElementsBeforeHandshakeFails) {
  DetectorCache Cache;
  ServeSession Sess(1, ServeLimits(), Cache);
  SiteIndex E[] = {1, 2, 3};
  std::vector<uint8_t> Wire;
  appendElements(Wire, E, 3);
  EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
  EXPECT_EQ(Sess.error(), ServeError::BadState);
}

TEST(ServeSession, OutOfRangeElementFails) {
  DetectorCache Cache;
  ServeSession Sess(1, ServeLimits(), Cache);
  std::vector<uint8_t> Wire = helloBytes(baseConfig(), /*NumSites=*/10);
  SiteIndex E[] = {1, 2, 10}; // 10 is outside [0, 10).
  appendElements(Wire, E, 3);
  EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
  EXPECT_EQ(Sess.error(), ServeError::SiteRange);
}

TEST(ServeSession, OutOfRangeElementInLaterFrameNamesFirstOffender) {
  DetectorCache Cache;
  ServeSession Sess(1, ServeLimits(), Cache);
  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 1; // Any pump would decide (and flip) at once.
  std::vector<uint8_t> Wire = helloBytes(C, /*NumSites=*/10);
  SiteIndex Good[] = {1, 2, 3, 4, 5, 6};
  appendElements(Wire, Good, 6);
  // The third element is the first offender; a later one is larger.
  SiteIndex Bad[] = {7, 8, 12, 9, 4000000000u, 11};
  appendElements(Wire, Bad, 6);
  EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
  EXPECT_EQ(Sess.error(), ServeError::SiteRange);
  // The valid frame before it was buffered, then dropped with the
  // session: nothing was decided and nothing stays pending.
  EXPECT_EQ(Sess.elementsProcessed(), 0u);
  EXPECT_EQ(Sess.pendingElements(), 0u);

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  FrameReader Reader;
  Reader.feed(Out.data(), Out.size());
  Frame F;
  std::vector<MsgKind> Kinds;
  ErrorMsg Err;
  while (Reader.next(F) == FrameReader::Status::Frame) {
    Kinds.push_back(F.Kind);
    if (F.Kind == MsgKind::Error) {
      ASSERT_TRUE(parseError(F, Err));
    }
  }
  // HelloAck, then the Error: no Transition came first.
  ASSERT_EQ(Kinds.size(), 2u);
  EXPECT_EQ(Kinds[0], MsgKind::HelloAck);
  EXPECT_EQ(Kinds[1], MsgKind::Error);
  EXPECT_EQ(Err.Code, ServeError::SiteRange);
  EXPECT_EQ(Err.Message, "element 12 outside site space 10");
}

TEST(ServeSession, FeedAndPrepareCommitAgree) {
  const BranchTrace &Trace = testTrace().Trace;
  const std::vector<SiteIndex> &E = Trace.elements();
  DetectorConfig C = baseConfig();
  // Larger than a frame, so every batch straddles many frames.
  C.Window.SkipFactor = 5000;
  std::vector<uint8_t> Wire = helloBytes(
      C, Trace.numSites(), HelloWantAnchors | HelloWantProgress);
  // 37-element frames put every payload at an odd offset in the stream.
  for (size_t Pos = 0; Pos < E.size(); Pos += 37)
    appendElements(Wire, E.data() + Pos, std::min<size_t>(37, E.size() - Pos));
  appendFinish(Wire);

  std::unique_ptr<PhaseDetector> Ref = makeDetector(C, Trace.numSites());
  DetectorRun Reference = runDetector(*Ref, Trace);

  // The server's read size: prepare() always asks for this much room,
  // and a read fills only part of it.
  constexpr size_t Room = 64u << 10;
  for (size_t Chunk : {size_t(1), size_t(3), size_t(4097), size_t(65536)}) {
    std::string What = "chunk " + std::to_string(Chunk);
    DetectorCache Cache;
    ServeSession Fed(1, ServeLimits(), Cache);
    ServeSession Committed(1, ServeLimits(), Cache);
    std::vector<uint8_t> FedOut, CommittedOut;
    for (size_t Pos = 0; Pos < Wire.size(); Pos += Chunk) {
      size_t N = std::min(Chunk, Wire.size() - Pos);
      ASSERT_TRUE(Fed.feed(Wire.data() + Pos, N)) << What;
      uint8_t *Into = Committed.prepare(Room);
      // Bytes past the commit must never be parsed (0xFF... would read
      // as an oversized length prefix).
      std::memset(Into, 0xFF, std::min(Room, N + 16));
      std::memcpy(Into, Wire.data() + Pos, N);
      ASSERT_TRUE(Committed.commit(N)) << What;
      while (Fed.pump()) {
      }
      while (Committed.pump()) {
      }
      Fed.takeOutput(FedOut);
      Committed.takeOutput(CommittedOut);
    }
    ASSERT_TRUE(Fed.done()) << What;
    ASSERT_TRUE(Committed.done()) << What;
    // A finished session ignores further input on both paths.
    EXPECT_FALSE(Fed.feed(Wire.data(), 5)) << What;
    std::memcpy(Committed.prepare(5), Wire.data(), 5);
    EXPECT_FALSE(Committed.commit(5)) << What;
    EXPECT_FALSE(Fed.hasOutput()) << What;
    EXPECT_FALSE(Committed.hasOutput()) << What;
    EXPECT_EQ(FedOut, CommittedOut) << What;

    StreamedRun Run;
    collectEvents(CommittedOut, Run);
    ASSERT_TRUE(Run.GotFinished) << What;
    EXPECT_EQ(Run.Summary.Elements, E.size()) << What;
    EXPECT_EQ(Run.LastProgress, E.size()) << What;
    expectRunsEqual(Reference, streamedToDetectorRun(Run), What);
  }
}

TEST(ServeSession, DuplicateHelloAndFinishFail) {
  DetectorCache Cache;
  {
    ServeSession Sess(1, ServeLimits(), Cache);
    std::vector<uint8_t> Wire = helloBytes(baseConfig(), 10);
    ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));
    EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
    EXPECT_EQ(Sess.error(), ServeError::BadState);
  }
  {
    ServeSession Sess(2, ServeLimits(), Cache);
    std::vector<uint8_t> Wire = helloBytes(baseConfig(), 10);
    appendFinish(Wire);
    appendFinish(Wire);
    EXPECT_FALSE(Sess.feed(Wire.data(), Wire.size()));
    EXPECT_EQ(Sess.error(), ServeError::BadState);
  }
}

TEST(ServeSession, BackpressureWatermarks) {
  DetectorCache Cache;
  ServeLimits Limits;
  Limits.MaxPendingElements = 1000;
  ServeSession Sess(1, Limits, Cache);

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 10;
  std::vector<uint8_t> Wire = helloBytes(C, /*NumSites=*/4);
  std::vector<SiteIndex> E(1200, 1);
  appendElements(Wire, E.data(), E.size());
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));

  EXPECT_GE(Sess.pendingElements(), Limits.MaxPendingElements);
  EXPECT_TRUE(Sess.ingressSaturated());
  EXPECT_FALSE(Sess.ingressRelieved());

  while (Sess.pump(100))
    if (Sess.ingressRelieved())
      break;
  EXPECT_TRUE(Sess.ingressRelieved());
  EXPECT_FALSE(Sess.ingressSaturated());
}

TEST(ServeSession, EvictionDeliversDecidableTransitionsOnly) {
  const BranchTrace &Trace = testTrace().Trace;
  DetectorCache Cache;
  ServeSession Sess(1, ServeLimits(), Cache);

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 100;
  std::vector<uint8_t> Wire = helloBytes(C, Trace.numSites());
  // 10 full batches plus a 50-element tail the eviction must NOT decide.
  size_t N = 1050;
  appendElements(Wire, Trace.elements().data(), N);
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));

  Sess.shutdown(ServeError::Evicted);
  EXPECT_TRUE(Sess.failed());
  EXPECT_EQ(Sess.error(), ServeError::Evicted);
  // All full batches were decided; the sub-batch tail was not.
  EXPECT_EQ(Sess.elementsProcessed(), 1000u);

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  EXPECT_TRUE(Run.GotError);
  EXPECT_EQ(Run.Err.Code, ServeError::Evicted);
  EXPECT_FALSE(Run.GotFinished);
}

TEST(ServeSession, ShutdownDrainsPendingTransitions) {
  const BranchTrace &Trace = testTrace().Trace;
  DetectorCache Cache;
  ServeSession Sess(1, ServeLimits(), Cache);

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 1; // Decisions (and flips) at every element.
  size_t N = 3000;
  std::vector<uint8_t> Wire = helloBytes(C, Trace.numSites());
  appendElements(Wire, Trace.elements().data(), N);
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));
  // No pump ran yet: every transition is still pending in the backlog.
  EXPECT_EQ(Sess.pendingElements(), N);

  Sess.shutdown(ServeError::Shutdown);
  EXPECT_TRUE(Sess.failed());
  EXPECT_EQ(Sess.elementsProcessed(), N);

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  EXPECT_EQ(Run.Err.Code, ServeError::Shutdown);

  // The delivered transitions match the offline detector on the same
  // prefix (same states at the same offsets — the drain guarantee).
  std::unique_ptr<PhaseDetector> Ref = makeDetector(C, Trace.numSites());
  StateSequence States;
  std::vector<uint64_t> Anchors;
  Ref->reset();
  Ref->consumeTrace(Trace.elements().data(), N, States, Anchors);
  StreamedRun Full = Run;
  Full.Summary.Elements = N; // Rebuild over the drained prefix length.
  DetectorRun Streamed = streamedToDetectorRun(Full);
  ASSERT_EQ(States.size(), Streamed.States.size());
  const std::vector<StateRun> &RR = States.runs();
  const std::vector<StateRun> &SR = Streamed.States.runs();
  ASSERT_EQ(RR.size(), SR.size());
  for (size_t I = 0; I != RR.size(); ++I) {
    EXPECT_EQ(RR[I].Begin, SR[I].Begin) << I;
    EXPECT_EQ(RR[I].Length, SR[I].Length) << I;
    EXPECT_EQ(RR[I].State, SR[I].State) << I;
  }
}

TEST(ServeSession, ShutdownCompletesDrainingSession) {
  const BranchTrace &Trace = testTrace().Trace;
  DetectorCache Cache;
  ServeSession Sess(1, ServeLimits(), Cache);

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 100;
  std::vector<uint8_t> Wire = helloBytes(C, Trace.numSites());
  appendElements(Wire, Trace.elements().data(), 250);
  appendFinish(Wire);
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));

  // The client already finished; a server drain completes the session
  // normally (Finished, not Error).
  Sess.shutdown(ServeError::Shutdown);
  EXPECT_TRUE(Sess.done());
  EXPECT_EQ(Sess.elementsProcessed(), 250u);

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  EXPECT_TRUE(Run.GotFinished);
  EXPECT_FALSE(Run.GotError);
  EXPECT_EQ(Run.Summary.Elements, 250u);
}

TEST(ServeSession, ProgressTracksIngestNotDecisions) {
  DetectorCache Cache;
  ServeSession Sess(1, ServeLimits(), Cache);

  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 1000; // Far larger than what we send.
  std::vector<uint8_t> Wire =
      helloBytes(C, /*NumSites=*/4, HelloWantProgress);
  std::vector<SiteIndex> E(300, 2);
  appendElements(Wire, E.data(), E.size());
  ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));
  while (Sess.pump()) {
  }

  std::vector<uint8_t> Out;
  Sess.takeOutput(Out);
  StreamedRun Run;
  collectEvents(Out, Run);
  // Nothing was decidable (300 < 1000), but the ingest ack still moved:
  // that is what keeps window-based clients from deadlocking when the
  // skip factor exceeds their frame size.
  EXPECT_EQ(Run.LastProgress, 300u);
  EXPECT_EQ(Sess.elementsProcessed(), 0u);
}

TEST(ServeSession, DetectorCacheReusesAcrossSessions) {
  const BranchTrace &Trace = testTrace().Trace;
  DetectorCache Cache;
  DetectorConfig C = baseConfig();
  C.Window.SkipFactor = 50;

  DetectorRun Reference;
  {
    std::unique_ptr<PhaseDetector> Ref = makeDetector(C, Trace.numSites());
    Reference = runDetector(*Ref, Trace);
  }

  for (int Round = 0; Round != 3; ++Round) {
    ServeSession Sess(uint64_t(Round + 1), ServeLimits(), Cache);
    std::vector<uint8_t> Wire =
        helloBytes(C, Trace.numSites(), HelloWantAnchors);
    appendElements(Wire, Trace.elements().data(), Trace.size());
    appendFinish(Wire);
    ASSERT_TRUE(Sess.feed(Wire.data(), Wire.size()));
    while (Sess.pump()) {
    }
    ASSERT_TRUE(Sess.done());

    std::vector<uint8_t> Out;
    Sess.takeOutput(Out);
    StreamedRun Run;
    collectEvents(Out, Run);
    ASSERT_TRUE(Run.GotFinished);
    DetectorRun Streamed = streamedToDetectorRun(Run);
    expectRunsEqual(Reference, Streamed,
                    "cache round " + std::to_string(Round));
  }
  // Round 1 built the detector; rounds 2 and 3 reconfigured it.
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Hits, 2u);
  EXPECT_EQ(Cache.stats().Releases, 3u);
}

} // namespace
