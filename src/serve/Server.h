//===- serve/Server.h - Multi-tenant phase-detection server -----*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PhaseServer turns the paper's strictly-online detector into a
/// service: a TCP daemon accepting many concurrent sessions, each
/// streaming profile elements under the wire protocol of
/// serve/Protocol.h and receiving P/T transitions as they are decided.
///
/// Threading model (docs/SERVING.md has the full picture):
///
///  * N shard threads each run a poll() loop over the one listener and
///    the connections they accepted. The shard that accepts a
///    connection owns it for life: it reads frames into the
///    ServeSession, pumps it, and flushes its response bytes. Nothing
///    about a connection is shared, so nothing about it is locked.
///  * Within a shard, sessions with buffered work get one bounded
///    ServeSession::pump() each per loop iteration, round robin.
///  * Detectors come from a shared DetectorCache, so session churn
///    reconfigures pooled FastPhaseDetectors instead of reallocating
///    kernel arrays.
///
/// Backpressure: a session whose ingress backlog reaches the
/// ServeLimits watermark stops being read (its TCP window closes, the
/// client's sends stall) until its shard pumps it below half. Idle
/// sessions are evicted after IdleTimeoutSeconds. stop() drains
/// gracefully: every buffered element whose batch is full is decided
/// and its transitions delivered before connections close.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_SERVE_SERVER_H
#define OPD_SERVE_SERVER_H

#include "serve/DetectorCache.h"
#include "serve/Session.h"

#include <memory>
#include <string>

namespace opd {

/// Everything configurable about one PhaseServer.
struct ServerOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// with port()).
  uint16_t Port = 0;
  /// Event-loop threads, each owning the connections it accepts; 0
  /// means hardwareParallelism().
  unsigned Shards = 0;
  /// Concurrent-session cap across all shards: a connection arriving
  /// at the cap is sent ServeError::Overload and closed.
  size_t MaxSessions = 8192;
  /// Sessions that sent no bytes for this long are evicted with
  /// ServeError::Evicted; 0 disables eviction.
  double IdleTimeoutSeconds = 60.0;
  /// On stop(), connections that cannot be drained and flushed within
  /// this budget are closed anyway.
  double DrainTimeoutSeconds = 10.0;
  /// Per-session validation bounds and backpressure watermark.
  ServeLimits Limits;
  /// Free-detector pool bound per shape (DetectorCache).
  size_t CacheFreePerShape = 256;
};

/// Monotonic counters describing a server's lifetime (all totals).
struct ServerStats {
  /// Connections accepted.
  uint64_t Accepted = 0;
  /// Sessions that completed normally (Finished emitted).
  uint64_t Completed = 0;
  /// Sessions evicted by the idle timer.
  uint64_t Evicted = 0;
  /// Sessions terminated by a protocol error.
  uint64_t ProtocolErrors = 0;
  /// Sessions cut by graceful drain.
  uint64_t DrainClosed = 0;
  /// Profile elements decided across all sessions.
  uint64_t Elements = 0;
  /// Transition events emitted across all sessions.
  uint64_t Transitions = 0;
  /// Raw bytes received / sent.
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  /// Detector-pool effectiveness.
  DetectorCache::Stats Cache;
};

/// The serving daemon. start() spawns the shard threads; stop() drains
/// gracefully and joins them. Thread-safe: start/stop/stats may be
/// called from any thread.
class PhaseServer {
public:
  explicit PhaseServer(const ServerOptions &Options);
  ~PhaseServer();

  PhaseServer(const PhaseServer &) = delete;
  PhaseServer &operator=(const PhaseServer &) = delete;

  /// Binds, listens, and spawns the serving threads. Returns false with
  /// a diagnostic in \p Error on failure (port in use, out of fds).
  bool start(std::string &Error);

  /// The bound port (valid after a successful start()).
  uint16_t port() const;

  /// Graceful shutdown: stop accepting, drain every live session
  /// (deliver all decidable transitions, then ServeError::Shutdown),
  /// flush, close, and join all threads. Idempotent; also run by the
  /// destructor.
  void stop();

  /// True between a successful start() and the end of stop().
  bool running() const;

  /// Snapshot of the lifetime counters.
  ServerStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace opd

#endif // OPD_SERVE_SERVER_H
