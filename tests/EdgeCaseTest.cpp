//===- tests/EdgeCaseTest.cpp - Edge-case and robustness tests -----------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "baseline/BaselineSolution.h"
#include "core/DetectorConfig.h"
#include "core/DetectorRunner.h"
#include "harness/Sweep.h"
#include "metrics/Scoring.h"
#include "support/ArgParser.h"
#include "trace/TraceIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

using namespace opd;

//===----------------------------------------------------------------------===//
// Detector edge cases
//===----------------------------------------------------------------------===//

namespace {

BranchTrace uniformTrace(uint64_t Len) {
  BranchTrace Trace;
  for (uint64_t I = 0; I != Len; ++I)
    Trace.append(ProfileElement(0, 0, true));
  return Trace;
}

DetectorConfig smallConfig(TWPolicyKind Policy) {
  DetectorConfig C;
  C.Window.CWSize = 10;
  C.Window.TWSize = 10;
  C.Window.TWPolicy = Policy;
  return C;
}

} // namespace

TEST(DetectorEdgeTest, EmptyTrace) {
  BranchTrace Empty;
  Empty.internSite(ProfileElement(0, 0, true));
  std::unique_ptr<PhaseDetector> D =
      makeDetector(smallConfig(TWPolicyKind::Adaptive), 1);
  DetectorRun Run = runDetector(*D, Empty);
  EXPECT_EQ(Run.States.size(), 0u);
  EXPECT_TRUE(Run.DetectedPhases.empty());
  EXPECT_TRUE(Run.AnchoredPhases.empty());
}

TEST(DetectorEdgeTest, TraceShorterThanWindows) {
  BranchTrace Trace = uniformTrace(5); // windows need 20
  for (TWPolicyKind Policy :
       {TWPolicyKind::Constant, TWPolicyKind::Adaptive}) {
    std::unique_ptr<PhaseDetector> D = makeDetector(smallConfig(Policy), 1);
    DetectorRun Run = runDetector(*D, Trace);
    EXPECT_EQ(Run.States.size(), 5u);
    EXPECT_EQ(Run.States.numInPhase(), 0u);
  }
}

TEST(DetectorEdgeTest, TraceExactlyWindowSize) {
  BranchTrace Trace = uniformTrace(20);
  std::unique_ptr<PhaseDetector> D =
      makeDetector(smallConfig(TWPolicyKind::Constant), 1);
  DetectorRun Run = runDetector(*D, Trace);
  // The 20th element fills the TW; the state computed for it is P.
  EXPECT_EQ(Run.States.size(), 20u);
  EXPECT_EQ(Run.States.numInPhase(), 1u);
}

TEST(DetectorEdgeTest, SkipLargerThanTrace) {
  BranchTrace Trace = uniformTrace(50);
  DetectorConfig C = smallConfig(TWPolicyKind::Constant);
  C.Window.SkipFactor = 1000;
  std::unique_ptr<PhaseDetector> D = makeDetector(C, 1);
  DetectorRun Run = runDetector(*D, Trace);
  EXPECT_EQ(Run.States.size(), 50u);
  EXPECT_EQ(Run.States.runs().size(), 1u); // one batch, one state
}

TEST(DetectorEdgeTest, SingleSiteVocabulary) {
  // Degenerate vocabulary: everything is maximally similar forever.
  BranchTrace Trace = uniformTrace(500);
  for (ModelKind Model :
       {ModelKind::UnweightedSet, ModelKind::WeightedSet,
        ModelKind::ManhattanBBV}) {
    DetectorConfig C = smallConfig(TWPolicyKind::Adaptive);
    C.Model = Model;
    std::unique_ptr<PhaseDetector> D = makeDetector(C, 1);
    DetectorRun Run = runDetector(*D, Trace);
    // One long phase once the windows fill.
    ASSERT_EQ(Run.DetectedPhases.size(), 1u) << modelKindName(Model);
    EXPECT_EQ(Run.DetectedPhases[0].End, 500u);
  }
}

TEST(DetectorEdgeTest, AdaptiveSurvivesManyFlushCycles) {
  // Alternate tiny vocab blocks to force frequent phase start/end churn.
  BranchTrace Trace;
  for (SiteIndex S = 0; S != 2; ++S)
    Trace.internSite(ProfileElement(0, S, true));
  for (int Block = 0; Block != 100; ++Block)
    for (int I = 0; I != 37; ++I)
      Trace.appendIndex(Block % 2);
  std::unique_ptr<PhaseDetector> D =
      makeDetector(smallConfig(TWPolicyKind::Adaptive), 2);
  DetectorRun Run = runDetector(*D, Trace);
  EXPECT_EQ(Run.States.size(), Trace.size());
  // Phases and anchors stay well-formed under churn.
  uint64_t PrevEnd = 0;
  for (const PhaseInterval &P : Run.AnchoredPhases) {
    EXPECT_LE(PrevEnd, P.Begin);
    PrevEnd = P.End;
  }
}

//===----------------------------------------------------------------------===//
// Sweep enumeration details
//===----------------------------------------------------------------------===//

TEST(SweepEdgeTest, SkipFactorsMultiplyNonFixedPolicies) {
  SweepSpec Spec;
  Spec.CWSizes = {100};
  Spec.SkipFactors = {1, 10};
  Spec.Models = {ModelKind::UnweightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.5}};
  Spec.TWPolicies = {TWPolicyKind::Constant};
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  EXPECT_EQ(Configs.size(), 2u);
  EXPECT_EQ(Configs[0].Window.SkipFactor, 1u);
  EXPECT_EQ(Configs[1].Window.SkipFactor, 10u);
}

TEST(SweepEdgeTest, TWFactorsScaleTrailingWindow) {
  SweepSpec Spec;
  Spec.CWSizes = {100};
  Spec.TWFactors = {1, 3};
  Spec.Models = {ModelKind::UnweightedSet};
  Spec.Analyzers = {{AnalyzerKind::Threshold, 0.5}};
  Spec.TWPolicies = {TWPolicyKind::Constant};
  std::vector<DetectorConfig> Configs = enumerateCrossProduct(Spec);
  ASSERT_EQ(Configs.size(), 2u);
  EXPECT_EQ(Configs[0].Window.TWSize, 100u);
  EXPECT_EQ(Configs[1].Window.TWSize, 300u);
}

TEST(SweepEdgeTest, EmptyAnalyzerListYieldsNoConfigs) {
  SweepSpec Spec;
  Spec.CWSizes = {100};
  Spec.Analyzers = {};
  EXPECT_TRUE(enumerateCrossProduct(Spec).empty());
}

//===----------------------------------------------------------------------===//
// TraceIO robustness
//===----------------------------------------------------------------------===//

namespace {

class TempFile {
  std::string Path;

public:
  explicit TempFile(const std::string &Suffix) {
    Path = testing::TempDir() + "opd_edge_" + std::to_string(::getpid()) +
           "_" + Suffix;
  }
  ~TempFile() { std::remove(Path.c_str()); }
  const std::string &path() const { return Path; }
};

} // namespace

TEST(TraceIOEdgeTest, TruncatedBinaryBodyFails) {
  TempFile F("trunc.bin");
  BranchTrace Trace;
  for (int I = 0; I != 100; ++I)
    Trace.append(ProfileElement(1, static_cast<uint32_t>(I), true));
  ASSERT_TRUE(writeBranchTraceBinary(Trace, F.path()));
  // Chop the file in half.
  std::FILE *Raw = std::fopen(F.path().c_str(), "rb+");
  ASSERT_NE(Raw, nullptr);
  ASSERT_EQ(::ftruncate(fileno(Raw), 100), 0);
  std::fclose(Raw);
  BranchTrace Loaded;
  IOStatus S = readBranchTraceBinary(F.path(), Loaded);
  EXPECT_FALSE(S);
  EXPECT_NE(S.Message.find("truncated"), std::string::npos);
}

TEST(TraceIOEdgeTest, EmptyTraceRoundTrips) {
  TempFile F("empty.bin");
  BranchTrace Empty;
  ASSERT_TRUE(writeBranchTraceBinary(Empty, F.path()));
  BranchTrace Loaded;
  Loaded.append(ProfileElement(9, 9, true)); // must be replaced
  ASSERT_TRUE(readBranchTraceBinary(F.path(), Loaded));
  EXPECT_EQ(Loaded.size(), 0u);
}

TEST(TraceIOEdgeTest, InvalidEventKindRejected) {
  TempFile F("badkind.bin");
  CallLoopTrace Trace;
  Trace.append(CallLoopEventKind::MethodEnter, 0, 0);
  ASSERT_TRUE(writeCallLoopTraceBinary(Trace, F.path()));
  // Corrupt the kind byte (first byte after the 16-byte header).
  std::FILE *Raw = std::fopen(F.path().c_str(), "rb+");
  ASSERT_NE(Raw, nullptr);
  std::fseek(Raw, 16, SEEK_SET);
  std::fputc(0x7f, Raw);
  std::fclose(Raw);
  CallLoopTrace Loaded;
  IOStatus S = readCallLoopTraceBinary(F.path(), Loaded);
  EXPECT_FALSE(S);
  EXPECT_NE(S.Message.find("invalid event kind"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ArgParser odds and ends
//===----------------------------------------------------------------------===//

TEST(ArgParserEdgeTest, UsageListsEverything) {
  ArgParser P("tool", "does things");
  P.addFlag("verbose", "be chatty");
  P.addOption("scale", "workload scale", "1.0");
  std::string Usage = P.usage();
  EXPECT_NE(Usage.find("--verbose"), std::string::npos);
  EXPECT_NE(Usage.find("--scale=<value>"), std::string::npos);
  EXPECT_NE(Usage.find("default: 1.0"), std::string::npos);
  EXPECT_NE(Usage.find("does things"), std::string::npos);
}

TEST(ArgParserEdgeTest, BoolFlagRejectsValue) {
  ArgParser P("tool", "t");
  P.addFlag("verbose", "v");
  const char *Argv[] = {"tool", "--verbose=yes"};
  EXPECT_FALSE(P.parse(2, Argv));
}

TEST(ArgParserEdgeTest, GetIntFallbackOnGarbage) {
  ArgParser P("tool", "t");
  P.addOption("n", "a number", "notanumber");
  const char *Argv[] = {"tool"};
  ASSERT_TRUE(P.parse(1, Argv));
  EXPECT_EQ(P.getInt("n", -7), -7);
}

//===----------------------------------------------------------------------===//
// Baseline oddities
//===----------------------------------------------------------------------===//

TEST(BaselineEdgeTest, ZeroLengthInstanceIgnored) {
  // A loop that executes zero iterations spans zero elements and can
  // never be a phase.
  CallLoopTrace Trace;
  Trace.append(CallLoopEventKind::MethodEnter, 0, 0);
  Trace.append(CallLoopEventKind::LoopEnter, 1, 5);
  Trace.append(CallLoopEventKind::LoopExit, 1, 5);
  Trace.append(CallLoopEventKind::MethodExit, 0, 10);
  InstanceTree Tree = InstanceTree::build(Trace, 10);
  BaselineSolution Sol = computeBaseline(Tree, 1);
  EXPECT_EQ(Sol.numPhases(), 0u);
}

TEST(BaselineEdgeTest, MPLOfOneSelectsEverySeparatedLoop) {
  CallLoopTrace Trace;
  Trace.append(CallLoopEventKind::MethodEnter, 0, 0);
  for (uint32_t I = 0; I != 3; ++I) {
    Trace.append(CallLoopEventKind::LoopEnter, I, I * 10);
    Trace.append(CallLoopEventKind::LoopExit, I, I * 10 + 5);
  }
  Trace.append(CallLoopEventKind::MethodExit, 0, 30);
  InstanceTree Tree = InstanceTree::build(Trace, 30);
  BaselineSolution Sol = computeBaseline(Tree, 1);
  EXPECT_EQ(Sol.numPhases(), 3u);
}

TEST(DetectorEdgeTest, SkipBetweenCWAndSpanRecoversAfterFlush) {
  // Regression: with CW < skip < CW+TW, the post-flush CW seed must be
  // clamped to the CW capacity or the windows never refill and the
  // detector stays in T forever.
  BranchTrace Trace;
  for (SiteIndex S = 0; S != 2; ++S)
    Trace.internSite(ProfileElement(0, S, true));
  // Block A, block B, block A again: two phase ends and re-entries.
  for (int I = 0; I != 400; ++I)
    Trace.appendIndex(0);
  for (int I = 0; I != 400; ++I)
    Trace.appendIndex(1);
  for (int I = 0; I != 400; ++I)
    Trace.appendIndex(0);

  DetectorConfig C = smallConfig(TWPolicyKind::Constant);
  C.Window.CWSize = 10;
  C.Window.TWSize = 10;
  C.Window.SkipFactor = 15; // between CW and CW+TW
  std::unique_ptr<PhaseDetector> D = makeDetector(C, 2);
  DetectorRun Run = runDetector(*D, Trace);
  // The detector must re-enter P inside the final uniform block.
  ASSERT_FALSE(Run.DetectedPhases.empty());
  EXPECT_GT(Run.DetectedPhases.back().End, 850u);
}
