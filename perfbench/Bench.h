//===- perfbench/Bench.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the options, sample summaries
/// (median plus the highest percentile with at least ten samples beyond
/// it), the in-memory span tracer, and the result record printed as one
/// JSON line.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_PERFBENCH_BENCH_H
#define OPD_PERFBENCH_BENCH_H

#include "core/DetectorConfig.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

/// Command-line options of one perfbench invocation.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// "" for a whole run; "single" runs only the single-thread sweep
  /// decomposition (the caller sets OPD_THREADS=1 for it).
  std::string Part;
  /// Tiny inputs for the self-test.
  bool Smoke = false;
  /// Corrupts one checked output so the self-test can see fail_ratio move.
  bool InjectMismatch = false;
  /// Path of the opd_serve executable (serve workloads).
  std::string ServerBin;
  /// Directory the span dump is written to.
  std::string OutDir = ".";
};

/// A copy of the bundled workload \p Name whose interpreter seed is
/// derived from the benchmark seed, so the system under test only ever
/// sees generated inputs.
opd::Workload seededWorkload(const std::string &Name, uint64_t Seed);

class Tracer;

/// Compiles and interprets \p W at \p Scale with its own seed, with a
/// lang span around compileWorkload and a vm span around runProgram.
opd::ExecutionResult generateTrace(const opd::Workload &W, double Scale,
                                   Tracer *T, uint64_t Group = 0);

/// The fast-path config of serve_bulk and of trace_oracle's detector runs
/// (opd_loadgen's defaults): CW=TW=1000, skip 100, constant TW,
/// unweighted set, threshold 0.5.
opd::DetectorConfig fixedDetectorConfig();

/// Order statistics of one set of timings.
struct Summary {
  size_t Count = 0;
  double Median = 0.0;
  /// The highest of p50..p99.9 with at least ten samples beyond it; the
  /// maximum when fewer than eleven samples exist.
  double Tail = 0.0;
  /// The percentile Tail was taken at (100 for the maximum).
  double TailPct = 0.0;
};
/// Summarizes \p Samples. With \p Chunk > 0 and at least two chunks of
/// samples, Tail is the median over consecutive \p Chunk-sample chunks
/// (in recording order) of each chunk's tail, so that one stall of the
/// shared host moves one chunk rather than the whole figure.
Summary summarize(std::vector<double> Samples, size_t Chunk = 0);

/// Samples per chunk of a latency series: frames come in chunks of 1,000
/// (a chunk's tail is p99), sessions in chunks of 200 (p95), and offline
/// passes, which are few, in chunks of 2 (the maximum).
constexpr size_t FrameChunk = 1000;
constexpr size_t SessionChunk = 200;
constexpr size_t PassChunk = 2;

/// One recorded span: a call into a layer, timed from the benchmark.
struct SpanRec {
  const char *Layer;
  const char *Name;
  int64_t StartNs;
  int64_t EndNs;
  int Parent;
  uint64_t Group;
};

/// In-memory span recorder. Spans nest on one thread; the dump is
/// written once, at exit.
class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}

  int begin(const char *Layer, const char *Name, uint64_t Group);
  void end(int Index);

  /// Self time per layer: each span's duration minus the time its child
  /// spans cover.
  std::map<std::string, double> selfSeconds() const;
  /// Total duration of the spans named \p Name.
  double totalSeconds(const char *Name) const;
  size_t size() const { return Spans.size(); }

  /// Writes every span as one JSON object per line.
  bool dump(const std::string &Path) const;

private:
  Clock::time_point Origin;
  std::vector<SpanRec> Spans;
  std::vector<int> Open;
};

/// RAII span; a null tracer records nothing.
class Span {
public:
  Span(Tracer *T, const char *Layer, const char *Name, uint64_t Group = 0)
      : T(T), Index(T ? T->begin(Layer, Name, Group) : -1) {}
  ~Span() { close(); }
  void close() {
    if (T && Index >= 0)
      T->end(Index);
    Index = -1;
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  int Index;
};

/// The result of one invocation: metrics with units, free-form facts
/// (provenance, input sizes, validity flags), and the operation counts.
struct Record {
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::map<std::string, std::string> Info;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void info(const std::string &Key, const std::string &Value) {
    Info[Key] = Value;
  }
  void info(const std::string &Key, double Value);
  /// Records the latency summary \p S of \p Name in \p Unit as
  /// <Name>_p50, <Name>_tail, and the sample count.
  void latency(const std::string &Name, const Summary &S, const char *Unit);
  /// Records the end-to-end metrics every workload reports (see
  /// README.md for what a session and an ack are on each workload).
  void endToEnd(double SetupS, double JobS, double Meps,
                const Summary &SessionMs, const Summary &AckUs, double RssMb);
  /// Records the lang and vm per-layer metrics of \p Passes trace
  /// generations whose spans \p T holds, as per-pass means.
  void traceGeneration(const Tracer &T, size_t Passes, uint64_t Branches,
                       uint64_t Events);

  std::string json() const;
};

/// Peak resident set size of process \p Pid (0 = this process), in MB.
double peakRssMb(int Pid = 0);

/// FNV-1a over raw bytes, chained through \p Hash.
uint64_t fnv1a(const void *Data, size_t N, uint64_t Hash = 1469598103934665603ULL);

/// Workload entry points; each fills \p R and returns false on a setup
/// error (a mismatch is counted in R.Failed instead).
bool runSweepWorkload(const Options &O, Record &R);
bool runTraceOracleWorkload(const Options &O, Record &R);
bool runServeWorkload(const Options &O, Record &R);

} // namespace perfbench

#endif // OPD_PERFBENCH_BENCH_H
