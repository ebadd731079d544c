//===- examples/opd_serve.cpp - Phase-detection serving daemon --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The serving daemon: binds a PhaseServer on 127.0.0.1 and runs until
// SIGINT/SIGTERM, then drains gracefully (docs/SERVING.md). The first
// stdout line is "listening on port N" so harnesses binding port 0 can
// discover the ephemeral port.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "support/ArgParser.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

using namespace opd;

namespace {

/// The most shards --shards takes. Each shard is one OS thread, started
/// before the first connection.
constexpr unsigned MaxShards = 1024;

std::atomic<bool> StopFlag{false};

void onSignal(int) { StopFlag.store(true, std::memory_order_release); }

void printStats(const ServerStats &S) {
  std::fprintf(stderr,
               "opd_serve: accepted=%llu completed=%llu evicted=%llu "
               "errors=%llu drained=%llu elements=%llu transitions=%llu "
               "in=%llu out=%llu cache[hit=%llu miss=%llu]\n",
               (unsigned long long)S.Accepted, (unsigned long long)S.Completed,
               (unsigned long long)S.Evicted,
               (unsigned long long)S.ProtocolErrors,
               (unsigned long long)S.DrainClosed,
               (unsigned long long)S.Elements,
               (unsigned long long)S.Transitions, (unsigned long long)S.BytesIn,
               (unsigned long long)S.BytesOut, (unsigned long long)S.Cache.Hits,
               (unsigned long long)S.Cache.Misses);
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("opd_serve",
                 "Phase-detection-as-a-service daemon: accepts concurrent "
                 "client sessions on 127.0.0.1 and streams P/T transitions "
                 "(protocol spec in docs/SERVING.md).");
  Args.addOption("port", "TCP port to bind (0 picks an ephemeral port)", "0");
  Args.addOption("shards",
                 "event-loop threads, each owning its connections "
                 "(0 = one per hardware thread; at most 1024)",
                 "0");
  Args.addOption("max-sessions", "concurrent session cap", "8192");
  Args.addOption("idle-timeout",
                 "seconds of silence before eviction (0 disables)", "60");
  Args.addOption("drain-timeout", "graceful-shutdown flush budget, seconds",
                 "10");
  Args.addOption("stats-interval",
                 "seconds between stats lines on stderr (0 disables)", "0");
  Args.addOption("max-pending",
                 "per-session ingress watermark in buffered elements "
                 "(0 = default; tiny values force backpressure)",
                 "0");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 1;

  ServerOptions Opts;
  size_t MaxPending = 0;
  std::string Error;
  if (!Args.getSize("port", Opts.Port, Error, 0) ||
      !Args.getSize("shards", Opts.Shards, Error, 0, MaxShards) ||
      !Args.getSize("max-sessions", Opts.MaxSessions, Error) ||
      !Args.getSize("max-pending", MaxPending, Error, 0)) {
    std::fprintf(stderr, "opd_serve: %s\n", Error.c_str());
    return 1;
  }
  Opts.IdleTimeoutSeconds = Args.getDouble("idle-timeout", 60.0);
  Opts.DrainTimeoutSeconds = Args.getDouble("drain-timeout", 10.0);
  if (MaxPending != 0)
    Opts.Limits.MaxPendingElements = MaxPending;

  PhaseServer Server(Opts);
  if (!Server.start(Error)) {
    std::fprintf(stderr, "opd_serve: %s\n", Error.c_str());
    return 1;
  }
  std::printf("listening on port %u\n", unsigned(Server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  double StatsEvery = Args.getDouble("stats-interval", 0.0);
  auto LastStats = std::chrono::steady_clock::now();
  while (!StopFlag.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (StatsEvery > 0) {
      auto Now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(Now - LastStats).count() >=
          StatsEvery) {
        printStats(Server.stats());
        LastStats = Now;
      }
    }
  }

  std::fprintf(stderr, "opd_serve: draining\n");
  Server.stop();
  printStats(Server.stats());
  return 0;
}
