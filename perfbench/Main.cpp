//===- perfbench/Main.cpp - Benchmark program entry point -----------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// perfbench runs one workload of the end-to-end benchmark and prints its
// result record as the last line of stdout (run.py turns it into the
// benchmark's result line):
//
//   perfbench --workload sweep|trace_oracle|serve_bulk|serve_stream
//             --seed N --seconds S --trace 0|1 [--server-bin PATH]
//             [--out-dir DIR] [--part single] [--smoke] [--inject-mismatch]
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/BatchKernel.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace perfbench;
using opd::ExecutionResult;

opd::Workload perfbench::seededWorkload(const std::string &Name,
                                        uint64_t Seed) {
  const opd::Workload *W = opd::findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown bundled workload '%s'\n",
                 Name.c_str());
    std::exit(2);
  }
  opd::Workload Copy = *W;
  // splitmix64 of (bundled seed, benchmark seed): distinct seeds give
  // unrelated interpreter streams.
  uint64_t Z = Copy.Seed + Seed * 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  Copy.Seed = Z ^ (Z >> 31);
  return Copy;
}

ExecutionResult perfbench::generateTrace(const opd::Workload &W, double Scale,
                                        Tracer *T, uint64_t Group) {
  std::unique_ptr<opd::Program> Prog;
  {
    Span S(T, "lang", "compileWorkload", Group);
    Prog = opd::compileWorkload(W, Scale);
  }
  Span S(T, "vm", "runProgram", Group);
  opd::InterpreterOptions IO;
  IO.Seed = W.Seed;
  return opd::runProgram(*Prog, IO);
}

opd::DetectorConfig perfbench::fixedDetectorConfig() {
  opd::DetectorConfig C;
  C.Window.CWSize = 1000;
  C.Window.TWSize = 1000;
  C.Window.SkipFactor = 100;
  C.Window.TWPolicy = opd::TWPolicyKind::Constant;
  C.Model = opd::ModelKind::UnweightedSet;
  C.TheAnalyzer = opd::AnalyzerKind::Threshold;
  C.AnalyzerParam = 0.5;
  return C;
}

Summary perfbench::summarize(std::vector<double> Samples, size_t Chunk) {
  Summary S;
  S.Count = Samples.size();
  if (Samples.empty())
    return S;
  std::vector<double> ChunkTails;
  if (Chunk)
    for (size_t At = 0; At + Chunk <= Samples.size() && Samples.size() >= 2 * Chunk;
         At += Chunk) {
      Summary C = summarize(std::vector<double>(Samples.begin() + At,
                                                Samples.begin() + At + Chunk));
      ChunkTails.push_back(C.Tail);
      S.TailPct = C.TailPct;
    }
  std::sort(Samples.begin(), Samples.end());
  auto At = [&](double P) {
    size_t I = size_t(std::ceil(P / 100.0 * double(Samples.size()))) - 1;
    return Samples[std::min(I, Samples.size() - 1)];
  };
  S.Median = At(50.0);
  if (!ChunkTails.empty()) {
    S.Tail = summarize(std::move(ChunkTails)).Median;
    return S;
  }
  S.Tail = Samples.back();
  S.TailPct = 100.0;
  for (double P : {99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    double Beyond = std::floor(double(Samples.size()) * (100.0 - P) / 100.0);
    if (Beyond >= 10.0) {
      S.Tail = At(P);
      S.TailPct = P;
      break;
    }
  }
  return S;
}

int Tracer::begin(const char *Layer, const char *Name, uint64_t Group) {
  int Parent = Open.empty() ? -1 : Open.back();
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Origin)
                    .count();
  Spans.push_back({Layer, Name, Now, Now, Parent, Group});
  Open.push_back(int(Spans.size() - 1));
  return Open.back();
}

void Tracer::end(int Index) {
  Spans[size_t(Index)].EndNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Origin)
          .count();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

std::map<std::string, double> Tracer::selfSeconds() const {
  // Children of one span run one after another on one thread, so the
  // time they cover is the sum of their durations.
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[Spans[I].Layer] +=
        double(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) * 1e-9;
  return Self;
}

double Tracer::totalSeconds(const char *Name) const {
  int64_t Ns = 0;
  for (const SpanRec &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Ns += S.EndNs - S.StartNs;
  return double(Ns) * 1e-9;
}

bool Tracer::dump(const std::string &Path) const {
  std::ofstream Out(Path);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    Out << "{\"id\": " << I << ", \"layer\": \"" << S.Layer
        << "\", \"name\": \"" << S.Name << "\", \"start_ns\": " << S.StartNs
        << ", \"end_ns\": " << S.EndNs << ", \"parent\": " << S.Parent
        << ", \"group\": " << S.Group << "}\n";
  }
  return bool(Out);
}

void Record::info(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Info[Key] = Buf;
}

void Record::latency(const std::string &Name, const Summary &S,
                     const char *Unit) {
  metric(Name + "_p50", S.Median, Unit);
  metric(Name + "_tail", S.Tail, Unit);
  info(Name + "_samples", double(S.Count));
  info(Name + "_tail_pct", S.TailPct);
}

void Record::endToEnd(double SetupS, double JobS, double Meps,
                      const Summary &SessionMs, const Summary &AckUs,
                      double RssMb) {
  metric("setup_s", SetupS, "s");
  metric("job_s", JobS, "s");
  metric("served_meps", Meps, "Melem/s");
  latency("session_ms", SessionMs, "ms");
  latency("ack_us", AckUs, "us");
  metric("peak_rss_mb", RssMb, "MB");
}

void Record::traceGeneration(const Tracer &T, size_t Passes,
                             uint64_t Branches, uint64_t Events) {
  double N = double(std::max<size_t>(Passes, 1));
  metric("lang.compile_s", T.totalSeconds("compileWorkload") / N, "s");
  metric("vm.interpret_s", T.totalSeconds("runProgram") / N, "s");
  metric("vm.branches", double(Branches), "count");
  metric("vm.call_loop_events", double(Events), "count");
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return V > 0 ? "1e308" : "-1e308";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::string Record::json() const {
  std::ostringstream Out;
  Out << "{\"attempted\": " << Attempted << ", \"failed\": " << Failed
      << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, VU] : Metrics) {
    Out << (First ? "" : ", ") << '"' << Name << "\": {\"value\": "
        << jsonNumber(VU.first) << ", \"unit\": \"" << VU.second << "\"}";
    First = false;
  }
  Out << "}, \"info\": {";
  First = true;
  for (const auto &[Key, Value] : Info) {
    Out << (First ? "" : ", ") << '"' << Key << "\": \"" << jsonEscape(Value)
        << '"';
    First = false;
  }
  Out << "}}";
  return Out.str();
}

double perfbench::peakRssMb(int Pid) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

uint64_t perfbench::fnv1a(const void *Data, size_t N, uint64_t Hash) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != N; ++I)
    Hash = (Hash ^ P[I]) * 1099511628211ULL;
  return Hash;
}

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

void recordProvenance(const Options &O, Record &R) {
  R.info("workload", O.Workload);
  R.info("seed", std::to_string(O.Seed));
  R.info("nproc", double(sysconf(_SC_NPROCESSORS_ONLN)));
  R.info("cpu_model", cpuModel());
  R.info("compiler", PERFBENCH_COMPILER);
  R.info("build_type", PERFBENCH_BUILD_TYPE);
  R.info("batch_backend", opd::batchBackendName(opd::activeBatchBackend()));
  R.info("sweep_threads", double(opd::hardwareParallelism()));
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep|trace_oracle|serve_bulk|"
               "serve_stream --seed N --seconds S --trace 0|1 "
               "[--server-bin PATH] [--out-dir DIR] [--part single] "
               "[--smoke] [--inject-mismatch]\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc) {
        usage();
        std::exit(2);
      }
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Value() == "1";
    else if (A == "--part")
      O.Part = Value();
    else if (A == "--server-bin")
      O.ServerBin = Value();
    else if (A == "--out-dir")
      O.OutDir = Value();
    else if (A == "--smoke")
      O.Smoke = true;
    else if (A == "--inject-mismatch")
      O.InjectMismatch = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }
  if (!(O.Seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  Record R;
  recordProvenance(O, R);
  bool Ok;
  if (O.Workload == "sweep")
    Ok = runSweepWorkload(O, R);
  else if (O.Workload == "trace_oracle")
    Ok = runTraceOracleWorkload(O, R);
  else if (O.Workload == "serve_bulk" || O.Workload == "serve_stream")
    Ok = runServeWorkload(O, R);
  else {
    usage();
    return 2;
  }
  if (!Ok)
    return 1;
  std::printf("%s\n", R.json().c_str());
  return 0;
}
