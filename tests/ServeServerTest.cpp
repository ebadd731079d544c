//===- tests/ServeServerTest.cpp - End-to-end server tests ------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PhaseServer over real TCP on an ephemeral port: handshake, streamed
/// equivalence vs offline runDetector, concurrent sessions, idle
/// eviction, graceful drain on stop(), and the at-capacity Overload
/// reject. These are the paths ServeSessionTest cannot reach: shard
/// threads racing to accept on one listener, and each shard reading,
/// pumping, pausing and resuming many sessions on its own thread.
///
//===----------------------------------------------------------------------===//

#include "core/DetectorRunner.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "workloads/Synthetic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace opd;

namespace {

const SyntheticTrace &testTrace() {
  static const SyntheticTrace T = [] {
    SyntheticSpec Spec;
    Spec.NumPhases = 5;
    Spec.PhaseLength = 3000;
    Spec.TransitionLength = 500;
    Spec.Seed = 11;
    return generateSynthetic(Spec);
  }();
  return T;
}

HelloMsg baseHello(const BranchTrace &Trace) {
  HelloMsg M;
  M.Flags = HelloWantAnchors;
  M.NumSites = Trace.numSites();
  M.Config.Window.CWSize = 150;
  M.Config.Window.TWSize = 150;
  M.Config.Window.SkipFactor = 25;
  return M;
}

void expectRunsEqual(const DetectorRun &Reference, const DetectorRun &Streamed,
                     const std::string &What) {
  ASSERT_EQ(Reference.States.size(), Streamed.States.size()) << What;
  ASSERT_EQ(Reference.States.runs().size(), Streamed.States.runs().size())
      << What;
  for (size_t I = 0; I != Reference.States.runs().size(); ++I) {
    const StateRun &R = Reference.States.runs()[I];
    const StateRun &S = Streamed.States.runs()[I];
    ASSERT_TRUE(R.Begin == S.Begin && R.Length == S.Length &&
                R.State == S.State)
        << What << " run " << I;
  }
  EXPECT_EQ(Reference.DetectedPhases, Streamed.DetectedPhases) << What;
  EXPECT_EQ(Reference.AnchoredPhases, Streamed.AnchoredPhases) << What;
}

TEST(ServeServer, StreamedSessionMatchesOffline) {
  const BranchTrace &Trace = testTrace().Trace;
  ServerOptions Options;
  Options.Shards = 2;
  PhaseServer Server(Options);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;

  HelloMsg Hello = baseHello(Trace);
  DetectorRun Reference;
  {
    std::unique_ptr<PhaseDetector> Ref =
        makeDetector(Hello.Config, Trace.numSites());
    Reference = runDetector(*Ref, Trace);
  }

  // Three wire chunkings, including one that never aligns with batches.
  for (size_t Chunk : {size_t(1u << 16), size_t(997), size_t(64)}) {
    StreamedRun Run;
    ASSERT_TRUE(streamSession(Server.port(), Hello, Trace.elements().data(),
                              Trace.size(), Chunk, Run, Error))
        << Error;
    ASSERT_FALSE(Run.GotError)
        << serveErrorName(Run.Err.Code) << ": " << Run.Err.Message;
    ASSERT_TRUE(Run.GotFinished);
    EXPECT_EQ(Run.Summary.Elements, Trace.size());
    EXPECT_EQ(Run.Ack.BatchSize, Hello.Config.Window.SkipFactor);
    DetectorRun Streamed = streamedToDetectorRun(Run);
    expectRunsEqual(Reference, Streamed,
                    "chunk=" + std::to_string(Chunk));
  }

  Server.stop();
  ServerStats Stats = Server.stats();
  EXPECT_EQ(Stats.Accepted, 3u);
  EXPECT_EQ(Stats.Completed, 3u);
  EXPECT_EQ(Stats.Elements, 3 * Trace.size());
  EXPECT_GT(Stats.BytesIn, 0u);
  EXPECT_GT(Stats.BytesOut, 0u);
}

TEST(ServeServer, ConcurrentSessionsAllVerify) {
  const BranchTrace &Trace = testTrace().Trace;
  HelloMsg Hello = baseHello(Trace);
  DetectorRun Reference;
  {
    std::unique_ptr<PhaseDetector> Ref =
        makeDetector(Hello.Config, Trace.numSites());
    Reference = runDetector(*Ref, Trace);
  }

  // One shard owning every session, and two racing to accept. A 64-
  // element watermark (skip factor 25) pauses reading after nearly every
  // recv, so each session goes through pause, pump and resume many times
  // on the thread that also reads it.
  for (unsigned Shards : {1u, 2u})
    for (size_t MaxPending : {ServeLimits().MaxPendingElements, size_t(64)}) {
      SCOPED_TRACE("shards=" + std::to_string(Shards) +
                   " max_pending=" + std::to_string(MaxPending));
      ServerOptions Options;
      Options.Shards = Shards;
      Options.Limits.MaxPendingElements = MaxPending;
      PhaseServer Server(Options);
      std::string Error;
      ASSERT_TRUE(Server.start(Error)) << Error;

      constexpr unsigned NumClients = 16;
      std::atomic<unsigned> Failures{0};
      std::vector<std::thread> Clients;
      for (unsigned I = 0; I != NumClients; ++I)
        Clients.emplace_back([&, I] {
          StreamedRun Run;
          std::string Err;
          // Vary the chunking per client so sessions interleave unevenly.
          size_t Chunk = 128 + I * 97;
          if (!streamSession(Server.port(), Hello, Trace.elements().data(),
                             Trace.size(), Chunk, Run, Err) ||
              Run.GotError || !Run.GotFinished) {
            Failures.fetch_add(1);
            return;
          }
          DetectorRun Streamed = streamedToDetectorRun(Run);
          bool Same = Streamed.States.runs().size() ==
                          Reference.States.runs().size() &&
                      Streamed.AnchoredPhases == Reference.AnchoredPhases;
          for (size_t J = 0; Same && J != Reference.States.runs().size();
               ++J) {
            const StateRun &A = Reference.States.runs()[J];
            const StateRun &B = Streamed.States.runs()[J];
            Same = A.Begin == B.Begin && A.Length == B.Length &&
                   A.State == B.State;
          }
          if (!Same)
            Failures.fetch_add(1);
        });
      for (std::thread &T : Clients)
        T.join();
      EXPECT_EQ(Failures.load(), 0u);

      Server.stop();
      ServerStats Stats = Server.stats();
      EXPECT_EQ(Stats.Completed, NumClients);
      EXPECT_EQ(Stats.Elements, uint64_t(NumClients) * Trace.size());
      // Every session returned its detector to the pool, and every
      // acquisition was served (hit or build). How many were hits
      // depends on how many sessions were live at once, so only the
      // totals are exact.
      EXPECT_EQ(Stats.Cache.Releases, uint64_t(NumClients));
      EXPECT_EQ(Stats.Cache.Hits + Stats.Cache.Misses, uint64_t(NumClients));
    }
}

TEST(ServeServer, HandshakeRejectOverTcp) {
  ServerOptions Options;
  PhaseServer Server(Options);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;

  HelloMsg Bad;
  Bad.NumSites = 0; // Invalid: empty site space.
  Bad.Config.Window.CWSize = 100;
  Bad.Config.Window.TWSize = 100;
  Bad.Config.Window.SkipFactor = 1;

  StreamedRun Run;
  ASSERT_TRUE(streamSession(Server.port(), Bad, nullptr, 0, 1, Run, Error))
      << Error;
  EXPECT_TRUE(Run.GotError);
  EXPECT_EQ(Run.Err.Code, ServeError::BadConfig);
  EXPECT_FALSE(Run.GotFinished);

  Server.stop();
  EXPECT_EQ(Server.stats().ProtocolErrors, 1u);
}

TEST(ServeServer, IdleSessionsAreEvicted) {
  ServerOptions Options;
  Options.IdleTimeoutSeconds = 0.05;
  PhaseServer Server(Options);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connect(Server.port(), Error)) << Error;
  HelloMsg Hello;
  Hello.NumSites = 10;
  Hello.Config.Window.CWSize = 50;
  Hello.Config.Window.TWSize = 50;
  Hello.Config.Window.SkipFactor = 5;
  ASSERT_TRUE(Client.sendHello(Hello, Error)) << Error;

  // Handshake succeeds, then the client goes silent: the sweep must
  // evict it and deliver Error(Evicted) before the socket closes.
  ServeClient::Event Ev;
  ASSERT_TRUE(Client.recvEvent(Ev, Error)) << Error;
  ASSERT_EQ(Ev.K, ServeClient::Event::Kind::HelloAck);
  ASSERT_TRUE(Client.recvEvent(Ev, Error)) << Error;
  ASSERT_EQ(Ev.K, ServeClient::Event::Kind::Error);
  EXPECT_EQ(Ev.Err.Code, ServeError::Evicted);
  Client.close();

  Server.stop();
  EXPECT_EQ(Server.stats().Evicted, 1u);
}

TEST(ServeServer, StopDrainsPendingTransitions) {
  const BranchTrace &Trace = testTrace().Trace;
  ServerOptions Options;
  Options.Shards = 1;
  PhaseServer Server(Options);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connect(Server.port(), Error)) << Error;
  HelloMsg Hello = baseHello(Trace);
  ASSERT_TRUE(Client.sendHello(Hello, Error)) << Error;
  // Stream a prefix without Finish: the elements sit decided-or-
  // decidable server-side when stop() begins.
  size_t N = 2000;
  ASSERT_TRUE(Client.sendElements(Trace.elements().data(), N, Error)) << Error;

  ServeClient::Event Ev;
  ASSERT_TRUE(Client.recvEvent(Ev, Error)) << Error;
  ASSERT_EQ(Ev.K, ServeClient::Event::Kind::HelloAck);

  // Give the shard a moment to pump the backlog, then drain the server
  // while the client is NOT sending (so the Error frame survives; see
  // docs/SERVING.md on close semantics).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread Stopper([&] { Server.stop(); });

  std::vector<TransitionMsg> Transitions;
  bool SawShutdown = false;
  while (Client.recvEvent(Ev, Error)) {
    if (Ev.K == ServeClient::Event::Kind::Transition)
      Transitions.push_back(Ev.Transition);
    else if (Ev.K == ServeClient::Event::Kind::Error) {
      EXPECT_EQ(Ev.Err.Code, ServeError::Shutdown);
      SawShutdown = true;
    }
  }
  Stopper.join();
  Client.close();
  EXPECT_TRUE(SawShutdown);

  // Every transition the offline detector finds in the first N elements
  // (all batches are full: N % skip == 0) was delivered before close.
  std::unique_ptr<PhaseDetector> Ref =
      makeDetector(Hello.Config, Trace.numSites());
  StateSequence States;
  std::vector<uint64_t> Anchors;
  Ref->reset();
  Ref->consumeTrace(Trace.elements().data(), N, States, Anchors);
  std::vector<uint64_t> ExpectOffsets;
  for (const StateRun &R : States.runs())
    if (R.Begin != 0 || R.State == PhaseState::InPhase)
      ExpectOffsets.push_back(R.Begin);
  ASSERT_EQ(Transitions.size(), ExpectOffsets.size());
  for (size_t I = 0; I != Transitions.size(); ++I)
    EXPECT_EQ(Transitions[I].Offset, ExpectOffsets[I]) << I;

  EXPECT_EQ(Server.stats().DrainClosed, 1u);
  EXPECT_EQ(Server.stats().Elements, N);
}

TEST(ServeServer, OverloadRejectAtSessionCap) {
  ServerOptions Options;
  Options.MaxSessions = 1;
  PhaseServer Server(Options);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;

  // First connection holds the only slot.
  ServeClient First;
  ASSERT_TRUE(First.connect(Server.port(), Error)) << Error;
  HelloMsg Hello;
  Hello.NumSites = 10;
  Hello.Config.Window.CWSize = 50;
  Hello.Config.Window.TWSize = 50;
  Hello.Config.Window.SkipFactor = 5;
  ASSERT_TRUE(First.sendHello(Hello, Error)) << Error;
  ServeClient::Event Ev;
  ASSERT_TRUE(First.recvEvent(Ev, Error)) << Error;
  ASSERT_EQ(Ev.K, ServeClient::Event::Kind::HelloAck);

  // The second is turned away with Overload.
  ServeClient Second;
  ASSERT_TRUE(Second.connect(Server.port(), Error)) << Error;
  ASSERT_TRUE(Second.recvEvent(Ev, Error)) << Error;
  ASSERT_EQ(Ev.K, ServeClient::Event::Kind::Error);
  EXPECT_EQ(Ev.Err.Code, ServeError::Overload);
  Second.close();

  // Releasing the slot lets a third session in.
  First.close();
  for (int Attempt = 0;; ++Attempt) {
    ServeClient Third;
    ASSERT_TRUE(Third.connect(Server.port(), Error)) << Error;
    ASSERT_TRUE(Third.sendHello(Hello, Error)) << Error;
    ASSERT_TRUE(Third.recvEvent(Ev, Error)) << Error;
    if (Ev.K == ServeClient::Event::Kind::HelloAck)
      break;
    // The shard owning the first session may not have retired it yet.
    ASSERT_EQ(Ev.Err.Code, ServeError::Overload);
    ASSERT_LT(Attempt, 100) << "session slot never freed";
    Third.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  Server.stop();
}

TEST(ServeServer, StartStopIsIdempotentAndRestartable) {
  ServerOptions Options;
  PhaseServer Server(Options);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;
  EXPECT_TRUE(Server.running());
  uint16_t FirstPort = Server.port();
  EXPECT_NE(FirstPort, 0u);
  Server.stop();
  Server.stop(); // Idempotent.
  EXPECT_FALSE(Server.running());
}

} // namespace
