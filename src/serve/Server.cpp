//===- serve/Server.cpp - Multi-tenant phase-detection server --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes (the design rationale lives in Server.h and
// docs/SERVING.md):
//
//  * Every shard thread runs the same poll() loop over the stop pipe,
//    the shared listener and the connections it accepted. A connection
//    never leaves the shard that accepted it, so its socket, its write
//    buffer and its ServeSession are touched by one thread only and need
//    no locking.
//  * The only state the shards share is the listener (nonblocking
//    accept4: the losers of an accept race get EAGAIN), the session-id
//    counter, the live-session count behind MaxSessions, the lifetime
//    counters and the DetectorCache.
//  * stop() writes one byte into the stop pipe and nobody reads it, so
//    the level-triggered POLLIN wakes every shard until it has noticed
//    the drain.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace opd;

namespace {

/// Elements one pump decides before the shard rotates to its next
/// session, so one heavy session cannot starve its shard peers.
constexpr size_t PumpChunk = 64u << 10;

/// Socket read chunk, received straight into the session's frame
/// buffer.
constexpr size_t ReadChunk = 64u << 10;

/// poll() timeout while no session has pump work left, in milliseconds.
constexpr int IdlePollMs = 250;

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

} // namespace

struct PhaseServer::Impl {
  explicit Impl(const ServerOptions &O) : Opts(O), Cache(O.CacheFreePerShape) {}

  ServerOptions Opts;
  DetectorCache Cache;

  std::atomic<bool> Running{false};
  std::atomic<bool> StopRequested{false};
  /// Serializes start()/stop() against each other.
  std::mutex LifecycleM;

  int ListenFd = -1;
  int StopRd = -1;
  int StopWr = -1;
  uint16_t BoundPort = 0;

  /// One client connection: the socket-facing shell around a
  /// ServeSession, confined to the shard that accepted it.
  struct Conn {
    Conn(uint64_t Id, int Fd, const ServeLimits &Limits, DetectorCache &Cache,
         Clock::time_point Now)
        : Fd(Fd), Sess(Id, Limits, Cache), LastActivity(Now) {}

    int Fd;
    ServeSession Sess;
    bool ReadPaused = false; ///< Backpressure: stop POLLIN until relieved.
    bool ReadEof = false;    ///< Client half-closed its send direction.
    bool Closing = false;    ///< Terminal: close once WriteBuf drains.
    Clock::time_point LastActivity;
    std::vector<uint8_t> WriteBuf;
    size_t WritePos = 0;
  };
  using ConnList = std::vector<std::unique_ptr<Conn>>;

  std::atomic<uint64_t> NextSessionId{1};
  /// Open connections across all shards (the MaxSessions cap).
  std::atomic<size_t> LiveSessions{0};

  // Lifetime counters (see ServerStats).
  std::atomic<uint64_t> NAccepted{0}, NCompleted{0}, NEvicted{0},
      NProtocolErrors{0}, NDrainClosed{0}, NElements{0}, NTransitions{0},
      NBytesIn{0}, NBytesOut{0};

  /// Declared after everything the shard threads use.
  std::vector<std::thread> Shards;

  bool start(std::string &Error);
  void stop();
  ServerStats stats() const;

  void shardLoop();

  void acceptOne(ConnList &Conns, Clock::time_point Now);
  bool pumpOnce(Conn &C);
  void handleRead(Conn &C, Clock::time_point Now);
  void handleEof(Conn &C);
  void takeOutput(Conn &C);
  void tryWrite(Conn &C, Clock::time_point Now);
  void closeConn(Conn &C);
  void idleSweep(ConnList &Conns, Clock::time_point Now);
  void beginDrain(ConnList &Conns, Clock::time_point Now);
  static void reapClosed(ConnList &Conns);
  static void closeFd(int &Fd);
};

void PhaseServer::Impl::closeFd(int &Fd) {
  if (Fd != -1) {
    ::close(Fd);
    Fd = -1;
  }
}

bool PhaseServer::Impl::start(std::string &Error) {
  std::lock_guard<std::mutex> L(LifecycleM);
  if (Running.load(std::memory_order_acquire)) {
    Error = "server already running";
    return false;
  }

  unsigned NumShards = Opts.Shards ? Opts.Shards : hardwareParallelism();

  int P[2];
  if (::pipe2(P, O_NONBLOCK | O_CLOEXEC) != 0) {
    Error = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }
  StopRd = P[0];
  StopWr = P[1];

  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    closeFd(StopRd);
    closeFd(StopWr);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Opts.Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 ||
      ::listen(ListenFd, 1024) != 0) {
    Error = std::string("bind/listen: ") + std::strerror(errno);
    closeFd(ListenFd);
    closeFd(StopRd);
    closeFd(StopWr);
    return false;
  }
  socklen_t AddrLen = sizeof(Addr);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                    &AddrLen) != 0) {
    Error = std::string("getsockname: ") + std::strerror(errno);
    closeFd(ListenFd);
    closeFd(StopRd);
    closeFd(StopWr);
    return false;
  }
  BoundPort = ntohs(Addr.sin_port);

  StopRequested.store(false, std::memory_order_release);
  Shards.clear();
  for (unsigned I = 0; I != NumShards; ++I)
    Shards.emplace_back([this] { shardLoop(); });
  Running.store(true, std::memory_order_release);
  return true;
}

void PhaseServer::Impl::stop() {
  std::lock_guard<std::mutex> L(LifecycleM);
  if (!Running.load(std::memory_order_acquire))
    return;

  StopRequested.store(true, std::memory_order_release);
  uint8_t B = 1;
  (void)!::write(StopWr, &B, 1);
  for (std::thread &T : Shards)
    T.join();
  Shards.clear();

  closeFd(ListenFd);
  closeFd(StopRd);
  closeFd(StopWr);
  Running.store(false, std::memory_order_release);
}

ServerStats PhaseServer::Impl::stats() const {
  ServerStats S;
  S.Accepted = NAccepted.load(std::memory_order_relaxed);
  S.Completed = NCompleted.load(std::memory_order_relaxed);
  S.Evicted = NEvicted.load(std::memory_order_relaxed);
  S.ProtocolErrors = NProtocolErrors.load(std::memory_order_relaxed);
  S.DrainClosed = NDrainClosed.load(std::memory_order_relaxed);
  S.Elements = NElements.load(std::memory_order_relaxed);
  S.Transitions = NTransitions.load(std::memory_order_relaxed);
  S.BytesIn = NBytesIn.load(std::memory_order_relaxed);
  S.BytesOut = NBytesOut.load(std::memory_order_relaxed);
  S.Cache = Cache.stats();
  return S;
}

void PhaseServer::Impl::acceptOne(ConnList &Conns, Clock::time_point Now) {
  int Fd = -1;
  do {
    // Re-checked here so a shard that has not yet noticed a drain does
    // not take a connection another shard would already refuse.
    if (StopRequested.load(std::memory_order_acquire))
      return;
    Fd = ::accept4(ListenFd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  } while (Fd < 0 && errno == EINTR);
  if (Fd < 0)
    return; // EAGAIN (another shard won the race) or a transient failure.
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));

  if (LiveSessions.fetch_add(1) >= Opts.MaxSessions) {
    LiveSessions.fetch_sub(1);
    std::vector<uint8_t> Err;
    appendError(Err, ServeError::Overload, "server at session capacity");
    (void)!::send(Fd, Err.data(), Err.size(), MSG_NOSIGNAL);
    ::close(Fd);
    return;
  }

  uint64_t Id = NextSessionId.fetch_add(1);
  Conns.push_back(std::make_unique<Conn>(Id, Fd, Opts.Limits, Cache, Now));
  NAccepted.fetch_add(1, std::memory_order_relaxed);
}

void PhaseServer::Impl::closeConn(Conn &C) {
  if (C.Fd == -1)
    return;
  const ServeSession &S = C.Sess;
  NElements.fetch_add(S.elementsProcessed(), std::memory_order_relaxed);
  NTransitions.fetch_add(S.transitions(), std::memory_order_relaxed);
  if (S.done()) {
    NCompleted.fetch_add(1, std::memory_order_relaxed);
  } else if (S.failed()) {
    switch (S.error()) {
    case ServeError::Evicted:
      NEvicted.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeError::Shutdown:
      NDrainClosed.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      NProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  closeFd(C.Fd);
  LiveSessions.fetch_sub(1);
}

void PhaseServer::Impl::reapClosed(ConnList &Conns) {
  // Destroying a Conn destroys its session, which returns the detector
  // to the cache.
  Conns.erase(std::remove_if(Conns.begin(), Conns.end(),
                             [](const std::unique_ptr<Conn> &C) {
                               return C->Fd == -1;
                             }),
              Conns.end());
}

void PhaseServer::Impl::tryWrite(Conn &C, Clock::time_point Now) {
  while (C.WritePos < C.WriteBuf.size()) {
    ssize_t N = ::send(C.Fd, C.WriteBuf.data() + C.WritePos,
                       C.WriteBuf.size() - C.WritePos, MSG_NOSIGNAL);
    if (N > 0) {
      C.WritePos += size_t(N);
      C.LastActivity = Now;
      NBytesOut.fetch_add(uint64_t(N), std::memory_order_relaxed);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    closeConn(C);
    return;
  }
  if (C.WritePos == C.WriteBuf.size()) {
    C.WriteBuf.clear();
    C.WritePos = 0;
  } else if (C.WritePos > (256u << 10) && C.WritePos * 2 > C.WriteBuf.size()) {
    C.WriteBuf.erase(C.WriteBuf.begin(),
                     C.WriteBuf.begin() + ptrdiff_t(C.WritePos));
    C.WritePos = 0;
  }
}

void PhaseServer::Impl::takeOutput(Conn &C) {
  if (C.Sess.hasOutput())
    C.Sess.takeOutput(C.WriteBuf);
  if (C.Sess.done() || C.Sess.failed())
    C.Closing = true;
}

bool PhaseServer::Impl::pumpOnce(Conn &C) {
  if (C.Sess.pendingElements() == 0 &&
      C.Sess.state() != ServeSession::State::Draining)
    return false;
  bool More = C.Sess.pump(PumpChunk);
  takeOutput(C);
  // Even an output-free pump may have drained the backlog below the
  // backpressure low watermark.
  if (C.ReadPaused && !C.ReadEof && C.Sess.ingressRelieved())
    C.ReadPaused = false;
  return More;
}

void PhaseServer::Impl::handleRead(Conn &C, Clock::time_point Now) {
  while (true) {
    ssize_t N = ::recv(C.Fd, C.Sess.prepare(ReadChunk), ReadChunk, 0);
    if (N > 0) {
      NBytesIn.fetch_add(uint64_t(N), std::memory_order_relaxed);
      C.LastActivity = Now;
      bool Ok = C.Sess.commit(size_t(N));
      takeOutput(C);
      if (!Ok) {
        // Terminal: the Error frame (or Finished summary) is in WriteBuf;
        // flush it and close.
        tryWrite(C, Now);
        if (C.WriteBuf.empty())
          closeConn(C);
        return;
      }
      if (!C.WriteBuf.empty())
        tryWrite(C, Now); // Handshake ack fast path.
      if (C.Fd == -1)
        return;
      if (C.Sess.ingressSaturated()) {
        C.ReadPaused = true;
        return;
      }
      if (size_t(N) < ReadChunk)
        return; // Socket drained.
      continue;
    }
    if (N == 0) {
      handleEof(C);
      return;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return;
    closeConn(C);
    return;
  }
}

void PhaseServer::Impl::handleEof(Conn &C) {
  C.ReadEof = true;
  ServeSession::State St = C.Sess.state();
  // A client may half-close after Finish and read the remaining event
  // stream (the pump pass finishes a Draining session); anything earlier
  // is abandonment.
  if (St != ServeSession::State::Draining && St != ServeSession::State::Done)
    closeConn(C);
}

void PhaseServer::Impl::idleSweep(ConnList &Conns, Clock::time_point Now) {
  if (Opts.IdleTimeoutSeconds <= 0)
    return;
  for (auto &CP : Conns) {
    Conn &C = *CP;
    if (C.Fd == -1 ||
        secondsBetween(C.LastActivity, Now) < Opts.IdleTimeoutSeconds)
      continue;
    if (C.Closing) {
      // Already terminal and the peer will not drain our flush; cut it.
      closeConn(C);
      continue;
    }
    if (C.Sess.pendingElements() > 0 ||
        C.Sess.state() == ServeSession::State::Draining) {
      C.LastActivity = Now; // Pump work remains; not idle.
      continue;
    }
    C.Sess.shutdown(ServeError::Evicted);
    takeOutput(C);
    tryWrite(C, Now);
  }
}

void PhaseServer::Impl::beginDrain(ConnList &Conns, Clock::time_point Now) {
  for (auto &CP : Conns) {
    Conn &C = *CP;
    if (C.Fd == -1)
      continue;
    // Delivers every decidable transition, completes Draining sessions,
    // and fails the rest with ServeError::Shutdown.
    C.Sess.shutdown(ServeError::Shutdown);
    takeOutput(C);
    C.ReadPaused = true;
    C.Closing = true;
    tryWrite(C, Now);
  }
}

void PhaseServer::Impl::shardLoop() {
  ConnList Conns;
  std::vector<pollfd> Pfds;
  bool Draining = false;
  Clock::time_point DrainDeadline{};

  while (true) {
    Clock::time_point Now = Clock::now();
    if (!Draining && StopRequested.load(std::memory_order_acquire)) {
      Draining = true;
      DrainDeadline =
          Now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Opts.DrainTimeoutSeconds));
      beginDrain(Conns, Now);
    }

    // Pump pass: one chunk per session with buffered work, round robin;
    // then flush output and retire drained terminal connections.
    bool More = false;
    for (auto &CP : Conns) {
      Conn &C = *CP;
      if (C.Fd == -1)
        continue;
      More |= pumpOnce(C);
      if (!C.WriteBuf.empty())
        tryWrite(C, Now);
      if (C.Closing && C.WriteBuf.empty())
        closeConn(C);
    }
    reapClosed(Conns);

    if (Draining) {
      if (Conns.empty())
        break;
      if (Now >= DrainDeadline) {
        for (auto &C : Conns)
          closeConn(*C);
        break;
      }
    }

    // Poll set: the stop pipe and the listener (until the drain begins),
    // then every connection. At the session cap the listener stays in
    // the set so new arrivals still get a clean Overload error.
    Pfds.clear();
    size_t First = 0;
    if (!Draining) {
      Pfds.push_back({StopRd, POLLIN, 0});
      Pfds.push_back({ListenFd, POLLIN, 0});
      First = 2;
    }
    for (auto &CP : Conns) {
      const Conn &C = *CP;
      short Ev = 0;
      if (!C.ReadPaused && !C.ReadEof && !C.Closing)
        Ev |= POLLIN;
      if (!C.WriteBuf.empty())
        Ev |= POLLOUT;
      // Included even with no requested events: POLLERR/POLLHUP are
      // always reported, which is how paused connections notice a dead
      // peer.
      Pfds.push_back({C.Fd, Ev, 0});
    }

    int TimeoutMs = More ? 0 : IdlePollMs;
    if (Draining) {
      double Left = secondsBetween(Now, DrainDeadline);
      TimeoutMs = std::min(TimeoutMs, int(std::max(0.0, Left) * 1000.0) + 1);
    }
    int NReady = ::poll(Pfds.data(), nfds_t(Pfds.size()), TimeoutMs);
    if (NReady < 0 && errno != EINTR) {
      // Unrecoverable poll failure: drop this shard's connections.
      for (auto &C : Conns)
        closeConn(*C);
      break;
    }
    Now = Clock::now();

    if (NReady > 0) {
      // Pfds[First + I] is Conns[I].
      for (size_t I = First; I < Pfds.size(); ++I) {
        Conn &C = *Conns[I - First];
        short Re = Pfds[I].revents;
        if (Re & POLLOUT)
          tryWrite(C, Now);
        if (C.Fd == -1)
          continue;
        if (Re & POLLIN) {
          handleRead(C, Now);
          continue;
        }
        if (Re & (POLLERR | POLLHUP)) {
          if (!C.WriteBuf.empty() || C.Closing) {
            // Peer gone while we were flushing; nothing left to deliver.
            closeConn(C);
          } else {
            handleEof(C);
          }
        }
      }
      if (!Draining && (Pfds[1].revents & POLLIN))
        acceptOne(Conns, Now);
      reapClosed(Conns);
    }

    if (!Draining)
      idleSweep(Conns, Now);
  }
}

PhaseServer::PhaseServer(const ServerOptions &Options)
    : I(std::make_unique<Impl>(Options)) {}

// NOLINTNEXTLINE(bugprone-exception-escape): stop() joins threads and
// closes fds; a throwing join here means the process is already lost.
PhaseServer::~PhaseServer() { stop(); }

bool PhaseServer::start(std::string &Error) { return I->start(Error); }

uint16_t PhaseServer::port() const { return I->BoundPort; }

void PhaseServer::stop() { I->stop(); }

bool PhaseServer::running() const {
  return I->Running.load(std::memory_order_acquire);
}

ServerStats PhaseServer::stats() const { return I->stats(); }
