//===- examples/trace_tool.cpp - Trace inspection and conversion --------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Utility for working with trace files — the interchange point between
/// this library and external instrumentation (a Pin/DynamoRIO tool or a
/// JVM agent can emit the text format and be analyzed here).
///
///   trace_tool generate --workload db --out db            # writes .branch/.callloop
///   trace_tool convert db.branch.bin db.branch.txt        # binary <-> text
///   trace_tool stats db.branch.bin                        # summary statistics
///   trace_tool dump-source --workload jess                # print the JP source
///
//===----------------------------------------------------------------------===//

#include "lang/Printer.h"
#include "support/ArgParser.h"
#include "support/Format.h"
#include "support/Table.h"
#include "trace/TraceIO.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

using namespace opd;

namespace {

bool hasSuffix(const std::string &S, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

int cmdGenerate(const ArgParser &Args) {
  const std::string &Name = Args.getOption("workload");
  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Name.c_str());
    return 1;
  }
  double Scale = 1.0;
  if (!Args.getPositiveDouble("scale", Scale))
    return 1;
  std::string Out = Args.getOption("out");
  if (Out.empty())
    Out = Name;
  ExecutionResult Exec = executeWorkload(*W, Scale);
  std::string BranchPath = Out + ".branch.bin";
  std::string CallLoopPath = Out + ".callloop.bin";
  if (IOStatus S = writeBranchTraceBinary(Exec.Branches, BranchPath); !S) {
    std::fprintf(stderr, "error: %s\n", S.Message.c_str());
    return 1;
  }
  if (IOStatus S = writeCallLoopTraceBinary(Exec.CallLoop, CallLoopPath);
      !S) {
    std::fprintf(stderr, "error: %s\n", S.Message.c_str());
    return 1;
  }
  std::printf("wrote %s (%s elements) and %s (%zu events)\n",
              BranchPath.c_str(), formatCount(Exec.Branches.size()).c_str(),
              CallLoopPath.c_str(), Exec.CallLoop.size());
  return 0;
}

int cmdDumpSource(const ArgParser &Args) {
  const std::string &Name = Args.getOption("workload");
  const Workload *W = findWorkload(Name);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Name.c_str());
    return 1;
  }
  double Scale = 1.0;
  if (!Args.getPositiveDouble("scale", Scale))
    return 1;
  // Print the canonical (parsed and pretty-printed) form.
  std::unique_ptr<Program> Prog = compileWorkload(*W, Scale);
  std::fputs(printProgram(*Prog).c_str(), stdout);
  return 0;
}

int cmdConvert(const std::string &From, const std::string &To) {
  BranchTrace Trace;
  IOStatus S = hasSuffix(From, ".txt") ? readBranchTraceText(From, Trace)
                                       : readBranchTraceBinary(From, Trace);
  if (!S) {
    std::fprintf(stderr, "error: %s\n", S.Message.c_str());
    return 1;
  }
  S = hasSuffix(To, ".txt") ? writeBranchTraceText(Trace, To)
                            : writeBranchTraceBinary(Trace, To);
  if (!S) {
    std::fprintf(stderr, "error: %s\n", S.Message.c_str());
    return 1;
  }
  std::printf("converted %s -> %s (%s elements)\n", From.c_str(),
              To.c_str(), formatCount(Trace.size()).c_str());
  return 0;
}

int cmdStats(const std::string &Path) {
  BranchTrace Trace;
  IOStatus S = hasSuffix(Path, ".txt") ? readBranchTraceText(Path, Trace)
                                       : readBranchTraceBinary(Path, Trace);
  if (!S) {
    std::fprintf(stderr, "error: %s\n", S.Message.c_str());
    return 1;
  }
  // Per-site frequency distribution.
  std::vector<uint64_t> Counts(Trace.numSites(), 0);
  for (uint64_t I = 0; I != Trace.size(); ++I)
    ++Counts[Trace[I]];
  std::vector<std::pair<uint64_t, SiteIndex>> Ranked;
  for (SiteIndex Site = 0; Site != Trace.numSites(); ++Site)
    Ranked.push_back({Counts[Site], Site});
  std::sort(Ranked.rbegin(), Ranked.rend());

  std::printf("%s: %s elements, %u distinct sites\n", Path.c_str(),
              formatCount(Trace.size()).c_str(), Trace.numSites());
  Table T("Hottest branch sites");
  T.setHeader({"method", "offset", "taken", "count", "share"});
  for (size_t I = 0; I != std::min<size_t>(10, Ranked.size()); ++I) {
    ProfileElement E = Trace.sites().element(Ranked[I].second);
    T.addRow({std::to_string(E.methodId()),
              std::to_string(E.bytecodeOffset()), E.taken() ? "T" : "NT",
              formatCount(Ranked[I].first),
              formatPercent(static_cast<double>(Ranked[I].first) /
                            static_cast<double>(Trace.size())) +
                  "%"});
  }
  std::fputs(T.render().c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("trace_tool",
                 "Generate, convert, and inspect OPD trace files.\n"
                 "commands (first positional): generate | convert <from> "
                 "<to> | stats <file> | dump-source");
  Args.addOption("workload", "workload for 'generate'", "db");
  Args.addOption("scale", "workload scale for 'generate'", "1.0");
  Args.addOption("out", "output basename for 'generate'", "");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 1;

  const std::vector<std::string> &Pos = Args.positional();
  if (Pos.empty()) {
    std::fputs(Args.usage().c_str(), stderr);
    return 1;
  }
  const std::string &Cmd = Pos[0];
  if (Cmd == "generate")
    return cmdGenerate(Args);
  if (Cmd == "dump-source")
    return cmdDumpSource(Args);
  if (Cmd == "convert" && Pos.size() == 3)
    return cmdConvert(Pos[1], Pos[2]);
  if (Cmd == "stats" && Pos.size() == 2)
    return cmdStats(Pos[1]);
  std::fprintf(stderr, "error: bad command line; try --help\n");
  return 1;
}
