//===- perfbench/Serve.cpp - The two serving workloads --------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Both serving workloads run opd_serve in its own process and load it from
// this one thread, with at most nproc connections; the server gets
// nproc - 2 shards so its I/O thread, its shards and this generator fit
// in nproc cores. The generator is pinned to one CPU and the server to the
// others, so that neither waits in the scheduler for the other's core.
//
// serve_bulk: closed loop. Each connection streams one long seeded db
// trace in 4096-element frames (opd_loadgen's default config), with at
// most 8 frames unacknowledged, and starts its next session as soon as
// the last one finished.
//
// serve_stream: open loop. Each connection runs a sequence of short
// sessions over seeded javac trace slices, sending 256-element frames on
// a fixed schedule far below bulk capacity while the detector config
// rotates through both TW policies and both set models at skip 10. Each
// frame is timed from when it was due to the Progress ack that covers it.
// The generator busy-polls its own CPU rather than sleeping, so a frame's
// send and its ack's receipt do not wait for that CPU to wake up.
//
// The load runs in segments, each against a fresh server. Every session
// is checked against offline runDetector through streamedToDetectorRun,
// after the measured loop.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/FastDetector.h"
#include "serve/Client.h"
#include "serve/Session.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sched.h>
#include <spawn.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace opd;
using namespace perfbench;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

//===----------------------------------------------------------------------===//
// CPU placement
//===----------------------------------------------------------------------===//

/// Where the generator and the server run: the generator on the highest
/// CPU this process may use, the server on the others. With fewer than two
/// CPUs nothing is pinned.
struct Placement {
  bool Pinned = false;
  unsigned Cpus = 1;
  cpu_set_t Generator;
  cpu_set_t Server;
};

Placement placement() {
  Placement P;
  cpu_set_t Allowed;
  CPU_ZERO(&P.Generator);
  CPU_ZERO(&P.Server);
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0) {
    P.Cpus = unsigned(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    return P;
  }
  P.Cpus = unsigned(CPU_COUNT(&Allowed));
  if (P.Cpus < 2)
    return P;
  int Last = -1;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Last = C;
  P.Server = Allowed;
  CPU_CLR(Last, &P.Server);
  CPU_SET(Last, &P.Generator);
  P.Pinned = true;
  return P;
}

//===----------------------------------------------------------------------===//
// The server process
//===----------------------------------------------------------------------===//

/// One opd_serve child process. The destructor kills and reaps it if
/// stop() was not called.
class ServerProc {
public:
  ServerProc() = default;
  ~ServerProc() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    closeFd(OutFd);
    closeFd(ErrFd);
  }
  ServerProc(const ServerProc &) = delete;
  ServerProc &operator=(const ServerProc &) = delete;

  /// Starts the daemon on \p Where's server CPUs; this thread is left on
  /// the generator's.
  bool start(const std::string &Bin, unsigned Shards, const Placement &Where,
             std::string &Error) {
    int OutPipe[2], ErrPipe[2];
    if (::pipe2(OutPipe, O_CLOEXEC) != 0 || ::pipe2(ErrPipe, O_CLOEXEC) != 0) {
      Error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, OutPipe[1], 1);
    posix_spawn_file_actions_adddup2(&Actions, ErrPipe[1], 2);
    std::string ShardArg = std::to_string(Shards);
    const char *Argv[] = {Bin.c_str(), "--port", "0", "--shards",
                          ShardArg.c_str(), "--idle-timeout", "0", nullptr};
    // The child inherits the affinity of the thread that spawns it.
    if (Where.Pinned)
      ::sched_setaffinity(0, sizeof(cpu_set_t), &Where.Server);
    int Rc = posix_spawn(&Pid, Bin.c_str(), &Actions, nullptr,
                         const_cast<char **>(Argv), environ);
    if (Where.Pinned)
      ::sched_setaffinity(0, sizeof(cpu_set_t), &Where.Generator);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(OutPipe[1]);
    ::close(ErrPipe[1]);
    OutFd = OutPipe[0];
    ErrFd = ErrPipe[0];
    if (Rc != 0) {
      Pid = -1;
      Error = "cannot start " + Bin + ": " + std::strerror(Rc);
      return false;
    }
    // The first stdout line names the ephemeral port.
    std::string Line;
    while (Line.find('\n') == std::string::npos) {
      pollfd P{OutFd, POLLIN, 0};
      if (::poll(&P, 1, 10000) <= 0) {
        Error = "opd_serve did not report its port";
        return false;
      }
      char Buf[256];
      ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
      if (N <= 0) {
        Error = "opd_serve exited before listening";
        return false;
      }
      Line.append(Buf, size_t(N));
    }
    unsigned P = 0;
    if (std::sscanf(Line.c_str(), "listening on port %u", &P) != 1 || !P) {
      Error = "unexpected opd_serve banner: " + Line;
      return false;
    }
    Port = uint16_t(P);
    return true;
  }

  uint16_t port() const { return Port; }
  int pid() const { return Pid; }

  /// SIGTERM, reap, and return the final stats line the daemon prints.
  bool stop(std::string &StatsLine) {
    if (Pid <= 0)
      return false;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
    std::string Err;
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(ErrFd, Buf, sizeof(Buf))) > 0)
      Err.append(Buf, size_t(N));
    size_t At = Err.rfind("opd_serve: accepted=");
    if (At != std::string::npos)
      StatsLine = Err.substr(At, Err.find('\n', At) - At);
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  static void closeFd(int &Fd) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
  pid_t Pid = -1;
  int OutFd = -1;
  int ErrFd = -1;
  uint16_t Port = 0;
};

/// Reads counter \p Key ("elements=", "hit=", ...) from a stats line.
double statsField(const std::string &Line, const char *Key) {
  size_t At = Line.find(Key);
  return At == std::string::npos
             ? 0.0
             : std::strtod(Line.c_str() + At + std::strlen(Key), nullptr);
}

//===----------------------------------------------------------------------===//
// Session plans: everything a session sends, encoded before the clock
// starts, plus the offline reference it must reproduce.
//===----------------------------------------------------------------------===//

struct SessionPlan {
  HelloMsg Hello;
  /// Encoded Hello frame.
  std::vector<uint8_t> HelloBytes;
  /// Encoded Elements frames, sent one by one (open loop) or back to back.
  std::vector<std::vector<uint8_t>> Frames;
  /// Elements streamed up to and including frame I.
  std::vector<uint64_t> FrameEnds;
  std::vector<uint8_t> FinishBytes;
  DetectorRun Reference;
  uint64_t Elements = 0;
};

SessionPlan makePlan(const DetectorConfig &Config, SiteIndex NumSites,
                     const SiteIndex *Elements, size_t N, size_t Chunk) {
  SessionPlan P;
  P.Hello.Flags = HelloWantProgress | HelloWantAnchors;
  P.Hello.NumSites = NumSites;
  P.Hello.Config = Config;
  appendHello(P.HelloBytes, P.Hello);
  for (size_t At = 0; At < N; At += Chunk) {
    size_t Take = std::min(Chunk, N - At);
    P.Frames.emplace_back();
    appendElements(P.Frames.back(), Elements + At, Take);
    P.FrameEnds.push_back(At + Take);
  }
  appendFinish(P.FinishBytes);
  P.Elements = N;
  return P;
}

/// The offline reference: the fast detector over elements [At, At + N)
/// of \p Full. Returns the detector's single-thread seconds.
double referenceRun(SessionPlan &P, const BranchTrace &Full, size_t At,
                    size_t N, Tracer *T) {
  BranchTrace Slice;
  for (SiteIndex I = 0; I != Full.numSites(); ++I)
    Slice.internSite(Full.sites().element(I));
  for (size_t I = At; I != At + N; ++I)
    Slice.appendIndex(Full[I]);
  Clock::time_point T0 = Clock::now();
  Span S(T, "core", "runDetector");
  std::unique_ptr<FastDetectorBase> D =
      makeFastDetector(P.Hello.Config, P.Hello.NumSites);
  runDetector(*D, Slice, P.Reference);
  S.close();
  return secondsSince(T0);
}

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

/// The serving workloads' parameters.
struct ServeSpec {
  bool Open = false;
  unsigned Connections = 4;
  unsigned Shards = 2;
  const char *TraceWorkload = "db";
  double TraceScale = 2.0;
  size_t Chunk = 4096;
  /// Closed loop: frames a session may have sent but not had acked, so
  /// that the server buffers a bounded amount of each stream.
  size_t WindowFrames = 8;
  /// Open loop: elements per session and frames per second per
  /// connection.
  size_t SessionElements = 0;
  double FramesPerSecond = 0.0;
  /// Open loop: poll without sleeping (only on a CPU of its own).
  bool Spin = false;
};

ServeSpec serveSpec(const Options &O, const Placement &Where) {
  ServeSpec S;
  S.Connections = std::min(Where.Cpus, 4u);
  S.Shards = Where.Cpus > 2 ? Where.Cpus - 2 : 1;
  if (O.Workload == "serve_stream") {
    S.Open = true;
    S.Spin = Where.Pinned;
    S.TraceWorkload = "javac";
    S.TraceScale = O.Smoke ? 0.2 : 1.0;
    S.Chunk = 256;
    S.SessionElements = O.Smoke ? 2560 : 20480;
    S.FramesPerSecond = 2000.0;
  } else if (O.Smoke) {
    S.TraceScale = 0.1;
  }
  return S;
}

/// The open loop's config rotation: both TW policies, both set models,
/// a small skip.
DetectorConfig streamConfig(size_t Session) {
  DetectorConfig C;
  C.Window.CWSize = 200;
  C.Window.TWSize = 200;
  C.Window.SkipFactor = 10;
  C.Window.TWPolicy =
      Session % 2 ? TWPolicyKind::Adaptive : TWPolicyKind::Constant;
  C.Model = (Session / 2) % 2 ? ModelKind::WeightedSet
                              : ModelKind::UnweightedSet;
  C.TheAnalyzer = AnalyzerKind::Threshold;
  C.AnalyzerParam = 0.5;
  return C;
}

/// Everything set-up produces.
struct ServeInput {
  std::vector<SessionPlan> Plans;
  /// Closed loop: single-thread offline detector seconds over the trace.
  std::vector<double> ReferenceSeconds;
  uint64_t Branches = 0;
  uint64_t Events = 0;
};

ServeInput prepareServe(const Options &O, const ServeSpec &S, Tracer *T) {
  ServeInput In;
  ExecutionResult Exec =
      generateTrace(seededWorkload(S.TraceWorkload, O.Seed), S.TraceScale, T);
  In.Branches = Exec.Branches.size();
  In.Events = Exec.CallLoop.size();
  const std::vector<SiteIndex> &E = Exec.Branches.elements();
  SiteIndex Sites = Exec.Branches.numSites();
  if (!S.Open) {
    In.Plans.push_back(makePlan(fixedDetectorConfig(), Sites, E.data(), E.size(),
                                S.Chunk));
    for (int Rep = 0; Rep != 3; ++Rep)
      In.ReferenceSeconds.push_back(
          referenceRun(In.Plans[0], Exec.Branches, 0, E.size(), T));
    return In;
  }
  // A pool of seeded slices the schedule's sessions cycle through.
  constexpr size_t DistinctSessions = 64;
  std::mt19937_64 Rng(O.Seed * 104729 + 3);
  size_t Span = E.size() - S.SessionElements;
  for (size_t J = 0; J != DistinctSessions; ++J) {
    size_t At = size_t(Rng() % Span);
    In.Plans.push_back(makePlan(streamConfig(J + J / S.Connections), Sites,
                                E.data() + At, S.SessionElements, S.Chunk));
    referenceRun(In.Plans.back(), Exec.Branches, At, S.SessionElements, T);
  }
  return In;
}

//===----------------------------------------------------------------------===//
// The load generator
//===----------------------------------------------------------------------===//

/// One connection slot of the generator.
struct Slot {
  enum class Phase : uint8_t { Idle, Running };
  Phase Ph = Phase::Idle;
  int Fd = -1;
  size_t Plan = 0;
  size_t Session = 0;
  /// Open loop: the slot's next frame in its whole schedule.
  size_t ScheduleFrame = 0;
  /// Next frame of the current session to queue.
  size_t NextFrame = 0;
  /// Closed loop: (end offset in Out, element target) of queued frames
  /// whose last byte is not yet written.
  std::deque<std::pair<size_t, uint64_t>> Unsent;
  /// Frames of the current session a Progress or Finished has covered.
  size_t AckedFrames = 0;
  std::vector<uint8_t> Out;
  size_t OutPos = 0;
  FrameReader Reader;
  StreamedRun Run;
  Clock::time_point Start, HelloSent;
  bool HelloOut = false;
  /// (element target, due time) of frames awaiting a Progress ack. A
  /// closed-loop frame is due when its last byte is written.
  std::deque<std::pair<uint64_t, Clock::time_point>> InFlight;
  int SpanIndex = -1;
};

/// A finished session as the verifier needs it.
struct Outcome {
  size_t Plan = 0;
  bool Done = false;
  StreamedRun Run;
};

struct LoadResult {
  std::vector<double> SessionMs;
  std::vector<double> SetupUs;
  std::vector<double> AckUs;
  std::vector<double> LagUs;
  std::vector<Outcome> Outcomes;
  uint64_t Elements = 0;
  double Seconds = 0.0;
  /// Mean in-flight frames over the last quarter of the schedule minus
  /// that over the first quarter.
  double BacklogGrowth = 0.0;

  /// Adds the samples and counts of a later segment of the same load.
  void append(LoadResult &&L) {
    for (auto [Into, From] :
         {std::pair{&SessionMs, &L.SessionMs}, {&SetupUs, &L.SetupUs},
          {&AckUs, &L.AckUs}, {&LagUs, &L.LagUs}})
      Into->insert(Into->end(), From->begin(), From->end());
    for (Outcome &Oc : L.Outcomes)
      Outcomes.push_back(std::move(Oc));
    Elements += L.Elements;
    Seconds += L.Seconds;
    BacklogGrowth = std::max(BacklogGrowth, L.BacklogGrowth);
  }
};

class LoadGen {
public:
  LoadGen(const ServeSpec &S, const ServeInput &In, uint16_t Port,
          double Seconds, Tracer *T)
      : S(S), In(In), Port(Port), Seconds(Seconds), T(T),
        Slots(S.Connections) {}

  bool run(LoadResult &Out, std::string &Error);

private:
  bool launch(Slot &Sl, size_t Plan, Clock::time_point Now,
              std::string &Error);
  void finish(Slot &Sl, bool Done, Clock::time_point Now);
  void queueFrames(Slot &Sl, Clock::time_point Now);
  void flush(Slot &Sl, Clock::time_point Now);
  void read(Slot &Sl, Clock::time_point Now);
  void handleFrames(Slot &Sl, Clock::time_point Now);
  void ack(Slot &Sl, Clock::time_point Due, Clock::time_point Now);
  Clock::time_point due(size_t SlotIndex, size_t Frame) const;
  size_t framesPerSession() const { return In.Plans[0].Frames.size(); }
  /// Open loop: the sessions each slot runs in this generator's time.
  size_t sessionsPerSlot() const {
    double Sessions = Seconds * S.FramesPerSecond / double(framesPerSession());
    return std::max<size_t>(size_t(Sessions), 1);
  }

  const ServeSpec &S;
  const ServeInput &In;
  uint16_t Port;
  double Seconds;
  Tracer *T;
  std::vector<Slot> Slots;
  Clock::time_point T0, Deadline;
  LoadResult *R = nullptr;
  uint64_t NextGroup = 1;
};

Clock::time_point LoadGen::due(size_t SlotIndex, size_t Frame) const {
  double Period = 1.0 / S.FramesPerSecond;
  double Offset = Period * double(SlotIndex) / double(Slots.size());
  return T0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Offset + Period * double(Frame)));
}

bool LoadGen::launch(Slot &Sl, size_t Plan, Clock::time_point Now,
                     std::string &Error) {
  Sl.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Sl.Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(Sl.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Sl.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 &&
      errno != EINPROGRESS) {
    Error = std::string("connect: ") + std::strerror(errno);
    ::close(Sl.Fd);
    Sl.Fd = -1;
    return false;
  }
  const SessionPlan &P = In.Plans[Plan];
  Sl.Ph = Slot::Phase::Running;
  Sl.Plan = Plan;
  Sl.NextFrame = 0;
  Sl.Unsent.clear();
  Sl.AckedFrames = 0;
  Sl.Reader = FrameReader();
  Sl.Run = StreamedRun();
  Sl.HelloOut = false;
  Sl.InFlight.clear();
  Sl.Start = Sl.HelloSent = Now;
  Sl.Out = P.HelloBytes;
  Sl.OutPos = 0;
  Sl.SpanIndex = T ? T->begin("serve", "session", NextGroup++) : -1;
  return true;
}

void LoadGen::finish(Slot &Sl, bool Done, Clock::time_point Now) {
  const SessionPlan &P = In.Plans[Sl.Plan];
  if (Sl.SpanIndex >= 0)
    T->end(Sl.SpanIndex);
  Sl.SpanIndex = -1;
  ::close(Sl.Fd);
  Sl.Fd = -1;
  Sl.Ph = Slot::Phase::Idle;
  if (Done) {
    R->SessionMs.push_back(std::chrono::duration<double, std::milli>(
                               Now - Sl.Start)
                               .count());
    R->Elements += P.Elements;
    // Frames the Finished summary covers without a separate Progress.
    for (auto &[Target, Due] : Sl.InFlight)
      ack(Sl, Due, Now);
  } else {
    // A failed session's frames, sent or not, miss every limit.
    R->AckUs.insert(R->AckUs.end(), P.Frames.size() - Sl.AckedFrames, Inf);
    if (S.Open)
      Sl.ScheduleFrame += P.Frames.size() - Sl.NextFrame;
  }
  Sl.InFlight.clear();
  R->Outcomes.push_back({Sl.Plan, Done, std::move(Sl.Run)});
  Sl.Session += 1;
}

void LoadGen::queueFrames(Slot &Sl, Clock::time_point Now) {
  if (Sl.Ph != Slot::Phase::Running)
    return;
  const SessionPlan &P = In.Plans[Sl.Plan];
  size_t Index = size_t(&Sl - Slots.data());
  while (Sl.NextFrame < P.Frames.size()) {
    const std::vector<uint8_t> &F = P.Frames[Sl.NextFrame];
    if (S.Open) {
      Clock::time_point Due = due(Index, Sl.ScheduleFrame);
      if (Due > Now)
        return;
      R->LagUs.push_back(
          std::chrono::duration<double, std::micro>(Now - Due).count());
      Sl.InFlight.push_back({P.FrameEnds[Sl.NextFrame], Due});
      Sl.ScheduleFrame += 1;
    } else {
      if (Sl.NextFrame - Sl.AckedFrames >= S.WindowFrames)
        return;
      Sl.Unsent.push_back({Sl.Out.size() + F.size(), P.FrameEnds[Sl.NextFrame]});
    }
    Sl.Out.insert(Sl.Out.end(), F.begin(), F.end());
    Sl.NextFrame += 1;
    if (Sl.NextFrame == P.Frames.size())
      Sl.Out.insert(Sl.Out.end(), P.FinishBytes.begin(), P.FinishBytes.end());
  }
}

void LoadGen::flush(Slot &Sl, Clock::time_point Now) {
  while (Sl.Ph == Slot::Phase::Running && Sl.OutPos < Sl.Out.size()) {
    ssize_t W = ::send(Sl.Fd, Sl.Out.data() + Sl.OutPos,
                       Sl.Out.size() - Sl.OutPos, MSG_NOSIGNAL);
    if (W > 0) {
      Sl.OutPos += size_t(W);
      while (!Sl.Unsent.empty() && Sl.Unsent.front().first <= Sl.OutPos) {
        Sl.InFlight.push_back({Sl.Unsent.front().second, Now});
        Sl.Unsent.pop_front();
      }
      if (!Sl.HelloOut && Sl.OutPos >= In.Plans[Sl.Plan].HelloBytes.size()) {
        Sl.HelloOut = true;
        Sl.HelloSent = Now;
      }
      continue;
    }
    if (W < 0 && errno == EINTR)
      continue;
    if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN))
      return;
    finish(Sl, false, Now);
    return;
  }
  if (Sl.OutPos == Sl.Out.size()) {
    Sl.Out.clear();
    Sl.OutPos = 0;
  }
}

void LoadGen::handleFrames(Slot &Sl, Clock::time_point Now) {
  Frame F;
  while (Sl.Ph == Slot::Phase::Running) {
    FrameReader::Status St = Sl.Reader.next(F);
    if (St == FrameReader::Status::NeedMore)
      return;
    bool Ok = St == FrameReader::Status::Frame;
    if (Ok && F.Kind == MsgKind::HelloAck) {
      Ok = parseHelloAck(F, Sl.Run.Ack);
      R->SetupUs.push_back(
          std::chrono::duration<double, std::micro>(Now - Sl.HelloSent)
              .count());
    } else if (Ok && F.Kind == MsgKind::Transition) {
      TransitionMsg M;
      Ok = parseTransition(F, M);
      Sl.Run.Transitions.push_back(M);
    } else if (Ok && F.Kind == MsgKind::Progress) {
      ProgressMsg M;
      Ok = parseProgress(F, M);
      Sl.Run.LastProgress = M.Ingested;
      while (!Sl.InFlight.empty() && Sl.InFlight.front().first <= M.Ingested) {
        ack(Sl, Sl.InFlight.front().second, Now);
        Sl.InFlight.pop_front();
      }
    } else if (Ok && F.Kind == MsgKind::Finished) {
      Ok = parseFinished(F, Sl.Run.Summary);
      Sl.Run.GotFinished = Ok;
      if (Ok) {
        finish(Sl, true, Now);
        return;
      }
    } else if (Ok && F.Kind == MsgKind::Error) {
      Sl.Run.GotError = true;
      parseError(F, Sl.Run.Err);
      Ok = false;
    } else {
      Ok = false;
    }
    if (!Ok) {
      finish(Sl, false, Now);
      return;
    }
  }
}

void LoadGen::ack(Slot &Sl, Clock::time_point Due, Clock::time_point Now) {
  R->AckUs.push_back(std::chrono::duration<double, std::micro>(Now - Due).count());
  ++Sl.AckedFrames;
}

void LoadGen::read(Slot &Sl, Clock::time_point Now) {
  uint8_t Buf[64 << 10];
  while (Sl.Ph == Slot::Phase::Running) {
    ssize_t N = ::recv(Sl.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      Sl.Reader.feed(Buf, size_t(N));
      handleFrames(Sl, Now);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    finish(Sl, false, Now);
    return;
  }
}

bool LoadGen::run(LoadResult &Out, std::string &Error) {
  R = &Out;
  // The open loop's sleeps end at frame due times; the default 50 us
  // timer slack would make every frame late.
  if (S.Open && !S.Spin)
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  T0 = Clock::now();
  Deadline = T0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Seconds));
  std::vector<std::pair<double, size_t>> Backlog; // (time, in flight)
  std::vector<pollfd> Pfds;
  Clock::time_point LastDone = T0;
  while (true) {
    Clock::time_point Now = Clock::now();
    // Start sessions: closed loop until the deadline, open loop along
    // each slot's planned sequence.
    for (size_t I = 0; I != Slots.size(); ++I) {
      Slot &Sl = Slots[I];
      if (Sl.Ph != Slot::Phase::Idle)
        continue;
      size_t Plan;
      if (S.Open) {
        if (Sl.Session >= sessionsPerSlot())
          continue;
        Plan = (Sl.Session * Slots.size() + I) % In.Plans.size();
      } else {
        if (Now >= Deadline)
          continue;
        Plan = 0;
      }
      if (!launch(Sl, Plan, Now, Error))
        return false;
    }
    size_t Live = 0, InFlight = 0;
    for (Slot &Sl : Slots) {
      queueFrames(Sl, Now);
      if (Sl.Ph == Slot::Phase::Running) {
        ++Live;
        InFlight += Sl.InFlight.size();
      }
    }
    // Sampled when it changes: a polling generator loops far more often
    // than frames are sent or acked.
    if (S.Open && (Backlog.empty() || Backlog.back().second != InFlight))
      Backlog.push_back({std::chrono::duration<double>(Now - T0).count(),
                         InFlight});
    if (!Live)
      break;

    Pfds.clear();
    for (Slot &Sl : Slots)
      if (Sl.Ph == Slot::Phase::Running)
        Pfds.push_back({Sl.Fd,
                        short(POLLIN | (Sl.OutPos < Sl.Out.size() ? POLLOUT
                                                                  : 0)),
                        0});
    // Sleep until the next frame is due (open loop) or an event; a
    // spinning generator only polls.
    timespec Timeout{0, 50'000'000};
    if (S.Spin) {
      Timeout = {0, 0};
    } else if (S.Open) {
      Clock::duration Wait = std::chrono::milliseconds(50);
      for (size_t I = 0; I != Slots.size(); ++I)
        if (Slots[I].Ph == Slot::Phase::Running &&
            Slots[I].NextFrame < In.Plans[Slots[I].Plan].Frames.size())
          Wait = std::min(Wait, due(I, Slots[I].ScheduleFrame) - Now);
      if (Wait < Clock::duration::zero())
        Wait = Clock::duration::zero();
      auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Wait);
      Timeout = {time_t(Ns.count() / 1'000'000'000),
                 long(Ns.count() % 1'000'000'000)};
    }
    int NReady = ::ppoll(Pfds.data(), nfds_t(Pfds.size()), &Timeout, nullptr);
    if (NReady < 0 && errno != EINTR) {
      Error = std::string("ppoll: ") + std::strerror(errno);
      return false;
    }
    Now = Clock::now();
    size_t P = 0;
    for (Slot &Sl : Slots) {
      if (Sl.Ph != Slot::Phase::Running)
        continue;
      short Re = NReady > 0 ? Pfds[P].revents : 0;
      ++P;
      if (Re & (POLLIN | POLLERR | POLLHUP))
        read(Sl, Now);
      queueFrames(Sl, Now);
      flush(Sl, Now);
      if (Sl.Ph == Slot::Phase::Idle)
        LastDone = Now;
    }
  }
  Out.Seconds = std::chrono::duration<double>(LastDone - T0).count();

  // Backlog trend over the open-loop schedule: the time-weighted mean in
  // flight (each sample holds until the next) over the last quarter minus
  // that over the first.
  if (Backlog.size() > 1) {
    double End = Backlog.back().first;
    double SumA = 0, SumB = 0, LenA = 0, LenB = 0;
    for (size_t I = 0; I + 1 != Backlog.size(); ++I) {
      double From = Backlog[I].first, To = Backlog[I + 1].first;
      double N = double(Backlog[I].second);
      double InA = std::max(0.0, std::min(To, End / 4) - From);
      double InB = std::max(0.0, To - std::max(From, End * 3 / 4));
      SumA += N * InA;
      LenA += InA;
      SumB += N * InB;
      LenB += InB;
    }
    Out.BacklogGrowth =
        (LenB > 0 ? SumB / LenB : 0.0) - (LenA > 0 ? SumA / LenA : 0.0);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// In-process replay through ServeSession
//===----------------------------------------------------------------------===//

struct ReplayCost {
  double FeedSeconds = 0.0;
  double PumpSeconds = 0.0;
  double TakeSeconds = 0.0;
  uint64_t OutputBytes = 0;
  uint64_t Elements = 0;
  uint64_t Frames = 0;
  double seconds() const { return FeedSeconds + PumpSeconds + TakeSeconds; }
};

/// Replays \p P's byte stream frame by frame through a ServeSession:
/// feed, pump, takeOutput, as the server does per read.
void replay(const SessionPlan &P, DetectorCache &Cache, uint64_t Id,
            Tracer *T, ReplayCost &C) {
  ServeLimits Limits;
  ServeSession Session(Id, Limits, Cache);
  std::vector<uint8_t> Sink;
  auto Step = [&](const std::vector<uint8_t> &Bytes) {
    Clock::time_point T0 = Clock::now();
    {
      Span S(T, "serve", "ServeSession::feed", Id);
      Session.feed(Bytes.data(), Bytes.size());
    }
    Clock::time_point T1 = Clock::now();
    {
      Span S(T, "serve", "ServeSession::pump", Id);
      Session.pump();
    }
    Clock::time_point T2 = Clock::now();
    {
      Span S(T, "serve", "ServeSession::takeOutput", Id);
      Sink.clear();
      Session.takeOutput(Sink);
    }
    Clock::time_point T3 = Clock::now();
    C.FeedSeconds += std::chrono::duration<double>(T1 - T0).count();
    C.PumpSeconds += std::chrono::duration<double>(T2 - T1).count();
    C.TakeSeconds += std::chrono::duration<double>(T3 - T2).count();
    C.OutputBytes += Sink.size();
  };
  Step(P.HelloBytes);
  for (const std::vector<uint8_t> &F : P.Frames)
    Step(F);
  Step(P.FinishBytes);
  C.Elements += P.Elements;
  C.Frames += P.Frames.size();
}

} // namespace

bool perfbench::runServeWorkload(const Options &O, Record &R) {
  if (O.ServerBin.empty()) {
    std::fprintf(stderr, "perfbench: --server-bin is required for %s\n",
                 O.Workload.c_str());
    return false;
  }
  Placement Where = placement();
  if (Where.Pinned)
    ::sched_setaffinity(0, sizeof(cpu_set_t), &Where.Generator);
  ServeSpec S = serveSpec(O, Where);
  R.info("connections", double(S.Connections));
  R.info("server_shards", double(S.Shards));
  R.info("loop", S.Open ? "open" : "closed");
  R.info("pinned", Where.Pinned ? "true" : "false");
  R.info("generator_spins", S.Spin ? "true" : "false");

  // The measured load runs in segments, each against a fresh server, so
  // that peak RSS is a median over server lifetimes rather than one
  // allocator history. With tracing on, the second half of the segments
  // is traced.
  constexpr size_t Segments = 4;
  // Set-up (trace, encoded sessions, reference runs, server start) is
  // repeated before each segment, and its median reported; the last
  // server of each round serves the segment. Spreading the repetitions
  // over the run keeps one slow spell of a shared host, which lasts a
  // second or more, from moving them all.
  constexpr size_t SetupRepsPerSegment = 5;
  Tracer SetupSpans;
  std::vector<double> SetupTimes;
  ServeInput In;
  std::unique_ptr<ServerProc> Server;
  std::string Error, Ignored;
  Tracer T;
  LoadResult Plain, Traced;
  std::vector<double> PeakRss;
  std::map<std::string, double> ServerStats;
  for (size_t Seg = 0; Seg != Segments; ++Seg) {
    for (size_t Rep = 0; Rep != SetupRepsPerSegment; ++Rep) {
      if (Server)
        Server->stop(Ignored);
      Clock::time_point T0 = Clock::now();
      // The same seed gives the same plans, so sessions of every segment
      // are checked against the same references.
      In = prepareServe(O, S, O.Trace ? &SetupSpans : nullptr);
      Server = std::make_unique<ServerProc>();
      if (!Server->start(O.ServerBin, S.Shards, Where, Error)) {
        std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
        return false;
      }
      SetupTimes.push_back(secondsSince(T0));
    }
    bool WithSpans = O.Trace && Seg >= Segments / 2;
    LoadResult Part;
    LoadGen Gen(S, In, Server->port(), O.Seconds / Segments,
                WithSpans ? &T : nullptr);
    if (!Gen.run(Part, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return false;
    }
    PeakRss.push_back(peakRssMb(Server->pid()));
    R.info("server_peak_rss_mb_" + std::to_string(Seg), PeakRss.back());
    R.info("ack_us_tail_" + std::to_string(Seg),
           summarize(Part.AckUs, FrameChunk).Tail);
    std::string StatsLine;
    if (!Server->stop(StatsLine) || StatsLine.empty()) {
      std::fprintf(stderr, "perfbench: opd_serve did not stop cleanly\n");
      return false;
    }
    Server.reset();
    for (const char *Key : {"accepted=", "completed=", "errors=", "elements=",
                            "transitions=", "in=", "out=", "hit=", "miss="})
      ServerStats[Key] += statsField(StatsLine, Key);
    (WithSpans ? Traced : Plain).append(std::move(Part));
  }
  R.info("distinct_sessions", double(In.Plans.size()));
  R.info("session_elements", double(In.Plans[0].Elements));
  if (S.Open)
    R.info("offered_frames_per_s", S.FramesPerSecond * S.Connections);

  // Verification, off the clock: every session against its reference.
  size_t Sessions = 0, Failures = 0;
  bool Injected = !O.InjectMismatch;
  for (LoadResult *L : {&Plain, &Traced})
    for (Outcome &Oc : L->Outcomes) {
      ++Sessions;
      if (!Injected && Oc.Done && !Oc.Run.Transitions.empty()) {
        Oc.Run.Transitions[0].Offset += 1;
        Injected = true;
      }
      if (!Oc.Done ||
          !sameRun(streamedToDetectorRun(Oc.Run), In.Plans[Oc.Plan].Reference))
        ++Failures;
    }
  R.Attempted += Sessions;
  R.Failed += Failures;
  R.info("sessions", double(Sessions));
  for (const auto &[Key, Value] : ServerStats)
    R.info("server_" + Key.substr(0, Key.size() - 1), Value);

  Summary Session = summarize(Plain.SessionMs, SessionChunk);
  Summary Ack = summarize(Plain.AckUs, FrameChunk);
  Summary Lag = summarize(Plain.LagUs, FrameChunk);
  double Meps = Plain.Seconds > 0 ? double(Plain.Elements) / Plain.Seconds / 1e6
                                  : 0.0;
  double Growth = Plain.BacklogGrowth;
  if (S.Open) {
    // The open loop is only valid while the generator keeps its
    // schedule and the backlog stays flat.
    double PeriodUs = 1e6 / S.FramesPerSecond;
    bool Valid = Lag.Tail < PeriodUs / 2 && Growth < 1.0;
    R.info("loadgen_valid", Valid ? "true" : "false");
    if (!Valid)
      std::fprintf(stderr,
                   "perfbench: serve_stream run flagged: lag tail %.0f us, "
                   "backlog growth %.2f frames\n",
                   Lag.Tail, Growth);
  }

  if (!O.Trace) {
    R.endToEnd(summarize(SetupTimes).Median, Session.Median / 1e3, Meps,
               Session, Ack, summarize(PeakRss).Median);
    return true;
  }

  R.traceGeneration(SetupSpans, SetupTimes.size(), In.Branches, In.Events);

  // Replay the same byte streams in-process for the serve layer's costs.
  DetectorCache Cache;
  ReplayCost Cost;
  std::vector<double> ReplayMs;
  std::vector<double> FrameReplayUs;
  size_t Replays = S.Open ? In.Plans.size() : 5;
  for (size_t I = 0; I != Replays; ++I) {
    const SessionPlan &P = In.Plans[S.Open ? I : 0];
    ReplayCost One;
    replay(P, Cache, I + 1, &T, One);
    ReplayMs.push_back(One.seconds() * 1e3);
    FrameReplayUs.push_back(One.seconds() * 1e6 / double(One.Frames));
    Cost.FeedSeconds += One.FeedSeconds;
    Cost.PumpSeconds += One.PumpSeconds;
    Cost.TakeSeconds += One.TakeSeconds;
    Cost.OutputBytes += One.OutputBytes;
    Cost.Elements += One.Elements;
  }
  double E = double(Cost.Elements);
  R.metric("serve.feed_ns_per_elem", Cost.FeedSeconds * 1e9 / E, "ns");
  R.metric("serve.pump_ns_per_elem", Cost.PumpSeconds * 1e9 / E, "ns");
  R.metric("serve.output_bytes_per_elem", double(Cost.OutputBytes) / E, "B");
  R.metric("serve.session_setup_us", summarize(Plain.SetupUs).Median, "us");
  double Hits = ServerStats["hit="];
  double Misses = ServerStats["miss="];
  R.metric("serve.cache_hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
           "ratio");
  R.metric("serve.io_overhead_ratio",
           S.Open ? Ack.Median / summarize(FrameReplayUs).Median
                  : Session.Median / summarize(ReplayMs).Median,
           "ratio");
  R.metric("serve.bytes_in", ServerStats["in="], "B");
  R.metric("serve.bytes_out", ServerStats["out="], "B");
  R.metric("serve.transitions", ServerStats["transitions="], "count");
  if (S.Open) {
    R.metric("loadgen.lag_us_tail", Lag.Tail, "us");
    R.metric("loadgen.backlog_growth", Growth, "count");
  } else {
    double FastSeconds = summarize(In.ReferenceSeconds).Median;
    R.metric("core.fast_detect_s", FastSeconds, "s");
    R.metric("core.fast_meps", double(In.Plans[0].Elements) / FastSeconds / 1e6,
             "Melem/s");
  }
  double Untraced = S.Open ? Ack.Median : Session.Median;
  double WithSpans = S.Open ? summarize(Traced.AckUs).Median
                            : summarize(Traced.SessionMs).Median;
  R.metric("trace.overhead_ratio", WithSpans / Untraced, "ratio");
  R.metric("trace.spans", double(T.size()), "count");
  T.dump(O.OutDir + "/spans_" + O.Workload + ".jsonl");
  return true;
}
