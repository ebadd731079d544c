//===- examples/opd_loadgen.cpp - Serving load generator --------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Load generator and latency harness for opd_serve: replays a bundled
// workload's branch trace over N concurrent sessions (poll-multiplexed
// in one thread, so a thousand sessions need no thousand threads) and
// reports batch-acknowledgement latency percentiles, per-session
// completion-time percentiles, and aggregate served elements/sec. With
// --verify every session's streamed transition events are rebuilt into a
// DetectorRun and compared, state run by state run, against offline
// runDetector() on the same trace — the serving equivalence contract.
//
// The serving_vs_offline_ratio it reports (served elements/sec divided
// by one offline fast-detector thread's elements/sec, measured in the
// same process) is what scripts/check_perf.py tracks: a machine-relative
// measure of protocol + scheduling overhead.
//
//===----------------------------------------------------------------------===//

#include "ToolCommon.h"
#include "core/FastDetector.h"
#include "serve/Client.h"
#include "support/ArgParser.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace opd;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// One multiplexed client session driven by the poll loop.
struct LoadSession {
  enum class Phase : uint8_t { Connecting, Running, Done, Failed, Drained };
  Phase Ph = Phase::Connecting;
  int Fd = -1;

  size_t NextElem = 0;     ///< Next trace offset to frame.
  bool FinishQueued = false;
  std::vector<uint8_t> OutBuf;
  size_t OutPos = 0;
  /// Ingest total the currently-draining chunk completes; becomes an
  /// InFlight entry the moment its last byte hits the socket.
  uint64_t PendingTarget = 0;
  /// (ingest target, send-completion time) awaiting a Progress ack.
  std::deque<std::pair<uint64_t, Clock::time_point>> InFlight;

  FrameReader Reader;
  StreamedRun Run;
  Clock::time_point Start, End;
  std::string Error;
};

struct Options {
  uint16_t Port = 0;
  size_t Concurrent = 8;
  size_t Total = 8;
  std::string WorkloadName = "db";
  double Scale = 1.0;
  size_t Chunk = 4096;
  DetectorConfig Config;
  bool Verify = false;
  bool TolerateShutdown = false;
  bool Json = false;
  int OfflineReps = 3;
};

double percentile(std::vector<double> &Samples, double P) {
  if (Samples.empty())
    return 0.0;
  size_t I = size_t(double(Samples.size() - 1) * P + 0.5);
  std::nth_element(Samples.begin(), Samples.begin() + ptrdiff_t(I),
                   Samples.end());
  return Samples[I];
}

/// State-run-exact comparison: the serving equivalence contract.
bool sameRun(const DetectorRun &A, const DetectorRun &B) {
  const std::vector<StateRun> &RA = A.States.runs();
  const std::vector<StateRun> &RB = B.States.runs();
  if (A.States.size() != B.States.size() || RA.size() != RB.size())
    return false;
  for (size_t I = 0; I != RA.size(); ++I)
    if (RA[I].Begin != RB[I].Begin || RA[I].Length != RB[I].Length ||
        RA[I].State != RB[I].State)
      return false;
  return A.DetectedPhases == B.DetectedPhases &&
         A.AnchoredPhases == B.AnchoredPhases;
}

/// The whole load run's mutable state.
struct Harness {
  const Options &Opts;
  const std::vector<SiteIndex> &Elements;
  SiteIndex NumSites;
  uint16_t HelloFlags;

  std::vector<std::unique_ptr<LoadSession>> Active;
  size_t Launched = 0;
  size_t Completed = 0;
  size_t Failed = 0;
  size_t Drained = 0;
  size_t Mismatches = 0;
  uint64_t ServedElements = 0;

  std::vector<double> BatchUs;
  std::vector<double> SessionMs;
  const DetectorRun *Reference = nullptr;

  Harness(const Options &Opts, const std::vector<SiteIndex> &Elements,
          SiteIndex NumSites)
      : Opts(Opts), Elements(Elements), NumSites(NumSites),
        HelloFlags(uint16_t(HelloWantProgress |
                            (Opts.Verify ? HelloWantAnchors : 0))) {}

  bool launchOne(std::string &Error);
  bool prefixMatches(const StreamedRun &Run) const;
  void refillOut(LoadSession &S, Clock::time_point Now);
  bool flushOut(LoadSession &S, Clock::time_point Now);
  void finish(LoadSession &S, LoadSession::Phase Ph);
  void handleEvents(LoadSession &S, Clock::time_point Now);
  void handleRead(LoadSession &S, Clock::time_point Now);
  bool run(std::string &Error);
};

bool Harness::launchOne(std::string &Error) {
  auto S = std::make_unique<LoadSession>();
  S->Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (S->Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(S->Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Opts.Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(S->Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 &&
      errno != EINPROGRESS) {
    Error = std::string("connect: ") + std::strerror(errno);
    ::close(S->Fd);
    return false;
  }
  S->Start = Clock::now();
  HelloMsg Hello;
  Hello.Flags = HelloFlags;
  Hello.NumSites = NumSites;
  Hello.Config = Opts.Config;
  appendHello(S->OutBuf, Hello);
  Launched += 1;
  Active.push_back(std::move(S));
  return true;
}

void Harness::refillOut(LoadSession &S, Clock::time_point Now) {
  if (S.OutPos < S.OutBuf.size())
    return;
  if (S.PendingTarget) {
    S.InFlight.push_back({S.PendingTarget, Now});
    S.PendingTarget = 0;
  }
  S.OutBuf.clear();
  S.OutPos = 0;
  if (S.NextElem < Elements.size()) {
    size_t Take = std::min(Opts.Chunk, Elements.size() - S.NextElem);
    appendElements(S.OutBuf, Elements.data() + S.NextElem, Take);
    S.NextElem += Take;
    S.PendingTarget = S.NextElem;
  } else if (!S.FinishQueued) {
    appendFinish(S.OutBuf);
    S.FinishQueued = true;
  }
}

/// Writes queued bytes until EAGAIN or the stream is fully sent. Returns
/// false when the session died.
bool Harness::flushOut(LoadSession &S, Clock::time_point Now) {
  while (true) {
    refillOut(S, Now);
    if (S.OutPos >= S.OutBuf.size())
      return true; // Nothing left to send (for now or at all).
    ssize_t W = ::send(S.Fd, S.OutBuf.data() + S.OutPos,
                       S.OutBuf.size() - S.OutPos, MSG_NOSIGNAL);
    if (W > 0) {
      S.OutPos += size_t(W);
      continue;
    }
    if (W < 0 && errno == EINTR)
      continue;
    if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    // A reset here usually means a server-side terminal Error; keep
    // reading so the Error event (if any) decides how the session ends.
    S.OutBuf.clear();
    S.OutPos = 0;
    S.NextElem = Elements.size();
    S.FinishQueued = true;
    return true;
  }
}

/// Drain-cut equivalence: a session cut mid-stream must have received a
/// clean prefix of the offline reference's transition sequence — the
/// server decides whole batches before cutting, never a partial or
/// reordered one.
bool Harness::prefixMatches(const StreamedRun &Run) const {
  const std::vector<StateRun> &Runs = Reference->States.runs();
  for (size_t J = 0; J != Run.Transitions.size(); ++J) {
    const TransitionMsg &T = Run.Transitions[J];
    if (J + 1 >= Runs.size() || T.Offset != Runs[J + 1].Begin ||
        T.NewState != Runs[J + 1].State)
      return false;
  }
  return true;
}

void Harness::finish(LoadSession &S, LoadSession::Phase Ph) {
  S.Ph = Ph;
  S.End = Clock::now();
  if (S.Fd != -1) {
    ::close(S.Fd);
    S.Fd = -1;
  }
  if (Ph == LoadSession::Phase::Done) {
    Completed += 1;
    ServedElements += S.Run.Summary.Elements;
    SessionMs.push_back(secondsBetween(S.Start, S.End) * 1e3);
    if (Opts.Verify && Reference) {
      DetectorRun Streamed = streamedToDetectorRun(S.Run);
      if (!sameRun(Streamed, *Reference))
        Mismatches += 1;
    }
  } else if (Ph == LoadSession::Phase::Drained) {
    Drained += 1;
    if (Opts.Verify && Reference && !prefixMatches(S.Run))
      Mismatches += 1;
  } else {
    Failed += 1;
  }
}

void Harness::handleEvents(LoadSession &S, Clock::time_point Now) {
  Frame F;
  while (S.Ph == LoadSession::Phase::Running) {
    FrameReader::Status St = S.Reader.next(F);
    if (St == FrameReader::Status::NeedMore)
      return;
    if (St == FrameReader::Status::Corrupt) {
      S.Error = "protocol corruption: " + S.Reader.corruptReason();
      finish(S, LoadSession::Phase::Failed);
      return;
    }
    switch (F.Kind) {
    case MsgKind::HelloAck:
      if (!parseHelloAck(F, S.Run.Ack)) {
        S.Error = "malformed HelloAck";
        finish(S, LoadSession::Phase::Failed);
      }
      break;
    case MsgKind::Transition: {
      TransitionMsg T;
      if (!parseTransition(F, T)) {
        S.Error = "malformed Transition";
        finish(S, LoadSession::Phase::Failed);
        break;
      }
      S.Run.Transitions.push_back(T);
      break;
    }
    case MsgKind::Progress: {
      ProgressMsg P;
      if (!parseProgress(F, P)) {
        S.Error = "malformed Progress";
        finish(S, LoadSession::Phase::Failed);
        break;
      }
      S.Run.LastProgress = P.Ingested;
      while (!S.InFlight.empty() && S.InFlight.front().first <= P.Ingested) {
        BatchUs.push_back(secondsBetween(S.InFlight.front().second, Now) *
                          1e6);
        S.InFlight.pop_front();
      }
      break;
    }
    case MsgKind::Finished:
      if (!parseFinished(F, S.Run.Summary)) {
        S.Error = "malformed Finished";
        finish(S, LoadSession::Phase::Failed);
        break;
      }
      S.Run.GotFinished = true;
      finish(S, LoadSession::Phase::Done);
      break;
    case MsgKind::Error: {
      S.Run.GotError = true;
      parseError(F, S.Run.Err);
      if (Opts.TolerateShutdown &&
          (S.Run.Err.Code == ServeError::Shutdown ||
           S.Run.Err.Code == ServeError::Evicted)) {
        finish(S, LoadSession::Phase::Drained);
        break;
      }
      S.Error = std::string("server error: ") +
                serveErrorName(S.Run.Err.Code) + ": " + S.Run.Err.Message;
      finish(S, LoadSession::Phase::Failed);
      break;
    }
    default:
      S.Error = "unexpected frame kind " + std::to_string(unsigned(F.Kind));
      finish(S, LoadSession::Phase::Failed);
      break;
    }
  }
}

void Harness::handleRead(LoadSession &S, Clock::time_point Now) {
  uint8_t Buf[64 << 10];
  while (S.Ph == LoadSession::Phase::Running) {
    ssize_t N = ::recv(S.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      S.Reader.feed(Buf, size_t(N));
      handleEvents(S, Now);
      if (size_t(N) < sizeof(Buf))
        return;
      continue;
    }
    if (N == 0) {
      // Under --tolerate-shutdown a close that races the drain's Error
      // frame is still a drain cut, not a failure.
      if (Opts.TolerateShutdown) {
        finish(S, LoadSession::Phase::Drained);
        return;
      }
      S.Error = "connection closed by server";
      finish(S, LoadSession::Phase::Failed);
      return;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return;
    S.Error = std::string("recv: ") + std::strerror(errno);
    finish(S, LoadSession::Phase::Failed);
    return;
  }
}

bool Harness::run(std::string &Error) {
  while (Launched < std::min(Opts.Concurrent, Opts.Total))
    if (!launchOne(Error))
      return false;

  std::vector<pollfd> Pfds;
  while (!Active.empty()) {
    Pfds.clear();
    for (auto &S : Active) {
      short Ev = POLLIN;
      if (S->Ph == LoadSession::Phase::Connecting ||
          S->OutPos < S->OutBuf.size() || S->NextElem < Elements.size() ||
          !S->FinishQueued)
        Ev |= POLLOUT;
      Pfds.push_back({S->Fd, Ev, 0});
    }
    int NReady = ::poll(Pfds.data(), nfds_t(Pfds.size()), 10000);
    if (NReady < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    Clock::time_point Now = Clock::now();
    for (size_t I = 0; I != Active.size(); ++I) {
      LoadSession &S = *Active[I];
      short Re = Pfds[I].revents;
      if (!Re)
        continue;
      if (S.Ph == LoadSession::Phase::Connecting) {
        if (Re & (POLLOUT | POLLERR | POLLHUP)) {
          int Err = 0;
          socklen_t Len = sizeof(Err);
          ::getsockopt(S.Fd, SOL_SOCKET, SO_ERROR, &Err, &Len);
          if (Err != 0) {
            S.Error = std::string("connect: ") + std::strerror(Err);
            finish(S, LoadSession::Phase::Failed);
            continue;
          }
          S.Ph = LoadSession::Phase::Running;
        }
      }
      if (S.Ph != LoadSession::Phase::Running)
        continue;
      if (Re & POLLIN)
        handleRead(S, Now);
      if (S.Ph == LoadSession::Phase::Running && (Re & POLLOUT))
        flushOut(S, Now);
      if (S.Ph == LoadSession::Phase::Running &&
          (Re & (POLLERR | POLLHUP)) && !(Re & POLLIN)) {
        if (Opts.TolerateShutdown) {
          finish(S, LoadSession::Phase::Drained);
          continue;
        }
        S.Error = "connection reset";
        finish(S, LoadSession::Phase::Failed);
      }
    }
    // Retire finished sessions and backfill to the concurrency target.
    for (size_t I = 0; I != Active.size();) {
      if (Active[I]->Ph != LoadSession::Phase::Connecting &&
          Active[I]->Ph != LoadSession::Phase::Running) {
        if (!Active[I]->Error.empty() && Failed <= 5)
          std::fprintf(stderr, "opd_loadgen: session failed: %s\n",
                       Active[I]->Error.c_str());
        Active.erase(Active.begin() + ptrdiff_t(I));
      } else {
        ++I;
      }
    }
    while (Active.size() < Opts.Concurrent && Launched < Opts.Total)
      if (!launchOne(Error))
        return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("opd_loadgen",
                 "Replays a bundled workload trace over many concurrent "
                 "sessions against opd_serve and reports latency "
                 "percentiles, served elements/sec, and (with --verify) "
                 "streamed-vs-offline equivalence.");
  Args.addOption("port", "server port (required)", "0");
  Args.addOption("sessions", "concurrent sessions", "8");
  Args.addOption("total", "total sessions to run (default: --sessions)", "0");
  Args.addOption("workload", "bundled workload name", "db");
  Args.addOption("scale", "workload scale factor", "1.0");
  Args.addOption("chunk", "elements per Elements frame", "4096");
  Args.addOption("cw", "current-window size", "1000");
  Args.addOption("tw", "trailing-window size (empty: = cw)", "1000");
  Args.addOption("skip", "skip factor (decision batch size)", "100");
  Args.addOption("policy", "constant|adaptive", "constant");
  Args.addOption("model", "unweighted|weighted|manhattan", "unweighted");
  Args.addOption("analyzer", "threshold|average|hysteresis", "threshold");
  Args.addOption("param", "analyzer parameter", "0.5");
  Args.addOption("offline-reps", "offline baseline repetitions", "3");
  Args.addFlag("verify", "check streamed output against offline runDetector");
  Args.addFlag("tolerate-shutdown",
               "treat drain/eviction cuts as drained, not failed; with "
               "--verify their transitions must prefix-match the offline "
               "reference");
  Args.addFlag("json", "emit one JSON result object on stdout");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 1;

  Options Opts;
  Opts.Port = uint16_t(Args.getInt("port", 0));
  if (Opts.Port == 0) {
    std::fprintf(stderr, "opd_loadgen: --port is required\n");
    return 1;
  }
  Opts.Concurrent = size_t(std::max(1L, Args.getInt("sessions", 8)));
  Opts.Total = size_t(Args.getInt("total", 0));
  if (Opts.Total == 0)
    Opts.Total = Opts.Concurrent;
  Opts.WorkloadName = Args.getOption("workload");
  if (!Args.getPositiveDouble("scale", Opts.Scale))
    return 1;
  Opts.Chunk = size_t(std::max(1L, Args.getInt("chunk", 4096)));
  Opts.Verify = Args.getFlag("verify");
  Opts.TolerateShutdown = Args.getFlag("tolerate-shutdown");
  Opts.Json = Args.getFlag("json");
  Opts.OfflineReps = int(std::max(1L, Args.getInt("offline-reps", 3)));
  std::string Error;
  if (!readDetectorConfig(Args, Opts.Config, Error)) {
    std::fprintf(stderr, "opd_loadgen: %s\n", Error.c_str());
    return 1;
  }

  const Workload *W = findWorkload(Opts.WorkloadName);
  if (!W) {
    std::fprintf(stderr, "opd_loadgen: unknown workload '%s'\n",
                 Opts.WorkloadName.c_str());
    return 1;
  }
  ExecutionResult Exec = executeWorkload(*W, Opts.Scale);
  const BranchTrace &Trace = Exec.Branches;
  if (Trace.empty()) {
    std::fprintf(stderr, "opd_loadgen: workload produced an empty trace\n");
    return 1;
  }

  // Offline baseline: one fast-detector thread on the same trace — the
  // denominator of serving_vs_offline_ratio.
  std::unique_ptr<FastDetectorBase> Offline =
      makeFastDetector(Opts.Config, Trace.numSites());
  DetectorRun Reference;
  double OfflineEps = 0.0;
  for (int R = 0; R != Opts.OfflineReps; ++R) {
    Clock::time_point T0 = Clock::now();
    runDetector(*Offline, Trace, Reference);
    double Secs = secondsBetween(T0, Clock::now());
    if (Secs > 0)
      OfflineEps = std::max(OfflineEps, double(Trace.size()) / Secs);
  }

  Harness H(Opts, Trace.elements(), Trace.numSites());
  if (Opts.Verify)
    H.Reference = &Reference;

  Clock::time_point T0 = Clock::now();
  if (!H.run(Error)) {
    std::fprintf(stderr, "opd_loadgen: %s\n", Error.c_str());
    return 1;
  }
  double Seconds = secondsBetween(T0, Clock::now());
  double Eps = Seconds > 0 ? double(H.ServedElements) / Seconds : 0.0;
  double Ratio = OfflineEps > 0 ? Eps / OfflineEps : 0.0;

  double BatchP50 = percentile(H.BatchUs, 0.50);
  double BatchP95 = percentile(H.BatchUs, 0.95);
  double BatchP99 = percentile(H.BatchUs, 0.99);
  double SessP50 = percentile(H.SessionMs, 0.50);
  double SessP95 = percentile(H.SessionMs, 0.95);
  double SessP99 = percentile(H.SessionMs, 0.99);

  if (Opts.Json) {
    std::printf(
        "{\"workload\": \"%s\", \"sessions\": %zu, \"total_sessions\": %zu, "
        "\"completed\": %zu, \"failed\": %zu, \"drained\": %zu, "
        "\"elements\": %llu, "
        "\"seconds\": %.3f, \"eps\": %.0f, "
        "\"batch_us\": {\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f}, "
        "\"session_ms\": {\"p50\": %.1f, \"p95\": %.1f, \"p99\": %.1f}, "
        "\"offline_eps\": %.0f, \"serving_vs_offline_ratio\": %.4f, "
        "\"verified\": %s, \"mismatches\": %zu}\n",
        Opts.WorkloadName.c_str(), Opts.Concurrent, Opts.Total, H.Completed,
        H.Failed, H.Drained, (unsigned long long)H.ServedElements, Seconds,
        Eps, BatchP50,
        BatchP95, BatchP99, SessP50, SessP95, SessP99, OfflineEps, Ratio,
        Opts.Verify ? "true" : "false", H.Mismatches);
  } else {
    std::printf("workload %s: %zu/%zu sessions completed, %zu failed, "
                "%zu drained\n",
                Opts.WorkloadName.c_str(), H.Completed, Opts.Total, H.Failed,
                H.Drained);
    std::printf("served %llu elements in %.3f s (%.0f elements/s)\n",
                (unsigned long long)H.ServedElements, Seconds, Eps);
    std::printf("batch ack latency us: p50 %.1f  p95 %.1f  p99 %.1f\n",
                BatchP50, BatchP95, BatchP99);
    std::printf("session latency ms:   p50 %.1f  p95 %.1f  p99 %.1f\n",
                SessP50, SessP95, SessP99);
    std::printf("offline baseline %.0f elements/s; serving/offline %.4f\n",
                OfflineEps, Ratio);
    if (Opts.Verify)
      std::printf("verify: %zu mismatches over %zu completed + %zu drained "
                  "sessions\n",
                  H.Mismatches, H.Completed, H.Drained);
  }

  return (H.Failed == 0 && H.Mismatches == 0) ? 0 : 1;
}
