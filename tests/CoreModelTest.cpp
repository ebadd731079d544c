//===- tests/CoreModelTest.cpp - WindowedModel mechanics tests ----------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/WindowedModel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cctype>
#include <initializer_list>
#include <iterator>
#include <string>

using namespace opd;

namespace {

WindowConfig makeConfig(uint32_t CW, uint32_t TW,
                        TWPolicyKind Policy = TWPolicyKind::Constant,
                        AnchorKind Anchor = AnchorKind::RightmostNoisy,
                        ResizeKind Resize = ResizeKind::Slide,
                        uint32_t Skip = 1) {
  WindowConfig C;
  C.CWSize = CW;
  C.TWSize = TW;
  C.SkipFactor = Skip;
  C.TWPolicy = Policy;
  C.Anchor = Anchor;
  C.Resize = Resize;
  return C;
}

void consumeAll(WindowedModel &M, std::initializer_list<SiteIndex> Elems) {
  for (SiteIndex S : Elems)
    M.consume(S);
}

void consumeN(WindowedModel &M, SiteIndex S, unsigned N) {
  for (unsigned I = 0; I != N; ++I)
    M.consume(S);
}

} // namespace

//===----------------------------------------------------------------------===//
// Filling
//===----------------------------------------------------------------------===//

TEST(WindowedModelTest, WindowsFillCWFirstThenTW) {
  WindowedModel M(makeConfig(3, 4), ModelKind::UnweightedSet, 2);
  for (unsigned I = 0; I != 3; ++I) {
    EXPECT_FALSE(M.windowsFull());
    M.consume(0);
  }
  EXPECT_EQ(M.cwLength(), 3u);
  EXPECT_EQ(M.twLength(), 0u);
  for (unsigned I = 0; I != 4; ++I) {
    EXPECT_FALSE(M.windowsFull());
    M.consume(0);
  }
  EXPECT_TRUE(M.windowsFull());
  EXPECT_EQ(M.cwLength(), 3u);
  EXPECT_EQ(M.twLength(), 4u);
}

TEST(WindowedModelTest, ConstantTWHoldsSizesInSteadyState) {
  WindowedModel M(makeConfig(4, 4), ModelKind::UnweightedSet, 3);
  Xoshiro256 Rng(5);
  for (unsigned I = 0; I != 500; ++I)
    M.consume(static_cast<SiteIndex>(Rng.nextBelow(3)));
  EXPECT_EQ(M.cwLength(), 4u);
  EXPECT_EQ(M.twLength(), 4u);
  EXPECT_EQ(M.kernel().cwTotal(), 4u);
  EXPECT_EQ(M.kernel().twTotal(), 4u);
}

TEST(WindowedModelTest, WindowContentsAreTheRecentElements) {
  // CW=2, TW=2: after consuming a,b,c,d the TW is {a,b} and CW {c,d}.
  WindowedModel M(makeConfig(2, 2), ModelKind::UnweightedSet, 4);
  consumeAll(M, {0, 1, 2, 3});
  EXPECT_TRUE(M.windowsFull());
  // CW contains exactly sites 2 and 3.
  EXPECT_TRUE(M.kernel().inCW(2));
  EXPECT_TRUE(M.kernel().inCW(3));
  EXPECT_FALSE(M.kernel().inCW(0));
  EXPECT_FALSE(M.kernel().inCW(1));
  // Disjoint windows: unweighted similarity 0.
  EXPECT_DOUBLE_EQ(M.similarity(), 0.0);
}

TEST(WindowedModelTest, UniformStreamSimilarityIsOne) {
  WindowedModel M(makeConfig(10, 10), ModelKind::UnweightedSet, 1);
  consumeN(M, 0, 200);
  EXPECT_TRUE(M.windowsFull());
  EXPECT_DOUBLE_EQ(M.similarity(), 1.0);
}

//===----------------------------------------------------------------------===//
// Phase end (flush)
//===----------------------------------------------------------------------===//

TEST(WindowedModelTest, EndPhaseKeepsSkipFactorSeed) {
  WindowConfig C = makeConfig(5, 5);
  C.SkipFactor = 2;
  WindowedModel M(C, ModelKind::UnweightedSet, 3);
  consumeN(M, 1, 20);
  M.startPhase();
  M.endPhase();
  EXPECT_EQ(M.cwLength(), 2u); // skipFactor elements survive as CW seed
  EXPECT_EQ(M.twLength(), 0u);
  EXPECT_FALSE(M.windowsFull());
  EXPECT_EQ(M.kernel().cwTotal(), 2u);
  EXPECT_EQ(M.kernel().twTotal(), 0u);
}

TEST(WindowedModelTest, RefillsAfterFlush) {
  WindowedModel M(makeConfig(3, 3), ModelKind::UnweightedSet, 2);
  consumeN(M, 0, 10);
  M.startPhase();
  M.endPhase();
  // Needs CW (2 more after the seed of 1) + TW (3) elements to refill.
  unsigned Steps = 0;
  while (!M.windowsFull()) {
    M.consume(1);
    ++Steps;
  }
  EXPECT_EQ(Steps, 5u);
}

//===----------------------------------------------------------------------===//
// Anchoring (paper example: TW = {a,b,c}, CW = {a,a,c}; b is noisy)
//===----------------------------------------------------------------------===//

TEST(WindowedModelTest, AnchorRightmostNoisy) {
  WindowedModel M(makeConfig(3, 3, TWPolicyKind::Adaptive,
                             AnchorKind::RightmostNoisy),
                  ModelKind::UnweightedSet, 3);
  // Feed a,b,c then a,a,c: TW = [a,b,c], CW = [a,a,c].
  consumeAll(M, {0, 1, 2, 0, 0, 2});
  // b (index 1) is the rightmost noisy element; RN anchors one right of
  // it: TW index 2, global offset 2.
  EXPECT_EQ(M.computeAnchorOffset(), 2u);
}

TEST(WindowedModelTest, AnchorLeftmostNonNoisy) {
  WindowedModel M(makeConfig(3, 3, TWPolicyKind::Adaptive,
                             AnchorKind::LeftmostNonNoisy),
                  ModelKind::UnweightedSet, 3);
  consumeAll(M, {0, 1, 2, 0, 0, 2});
  // a (TW index 0) is the leftmost element present in the CW.
  EXPECT_EQ(M.computeAnchorOffset(), 0u);
}

TEST(WindowedModelTest, AnchorRNWithNoNoiseIsTWStart) {
  WindowedModel M(makeConfig(2, 2, TWPolicyKind::Adaptive,
                             AnchorKind::RightmostNoisy),
                  ModelKind::UnweightedSet, 2);
  consumeAll(M, {0, 1, 0, 1}); // TW = [a,b], CW = [a,b]: nothing noisy
  EXPECT_EQ(M.computeAnchorOffset(), 0u);
}

TEST(WindowedModelTest, AnchorLNNAllNoisyIsTWEnd) {
  WindowedModel M(makeConfig(2, 2, TWPolicyKind::Adaptive,
                             AnchorKind::LeftmostNonNoisy),
                  ModelKind::UnweightedSet, 4);
  consumeAll(M, {0, 1, 2, 3}); // TW = [0,1] disjoint from CW = [2,3]
  EXPECT_EQ(M.computeAnchorOffset(), 2u); // offset of the CW start
}

//===----------------------------------------------------------------------===//
// Resize policies
//===----------------------------------------------------------------------===//

TEST(WindowedModelTest, SlideResizeKeepsTWLengthAndShrinksCW) {
  WindowedModel M(makeConfig(3, 3, TWPolicyKind::Adaptive,
                             AnchorKind::RightmostNoisy, ResizeKind::Slide),
                  ModelKind::UnweightedSet, 3);
  consumeAll(M, {0, 1, 2, 0, 0, 2}); // anchor at TW index 2
  M.startPhase();
  // Slide: TW drops [a,b], takes 2 elements from the CW: TW = [c,a,a],
  // CW = [c].
  EXPECT_EQ(M.twLength(), 3u);
  EXPECT_EQ(M.cwLength(), 1u);
  // Comparisons continue while the CW refills.
  EXPECT_TRUE(M.windowsFull());
}

TEST(WindowedModelTest, MoveResizeShrinksTWAndKeepsCW) {
  WindowedModel M(makeConfig(3, 3, TWPolicyKind::Adaptive,
                             AnchorKind::RightmostNoisy, ResizeKind::Move),
                  ModelKind::UnweightedSet, 3);
  consumeAll(M, {0, 1, 2, 0, 0, 2});
  M.startPhase();
  EXPECT_EQ(M.twLength(), 1u); // [c]
  EXPECT_EQ(M.cwLength(), 3u); // untouched
}

TEST(WindowedModelTest, AdaptiveTWGrowsWhileInPhase) {
  WindowedModel M(makeConfig(3, 3, TWPolicyKind::Adaptive),
                  ModelKind::UnweightedSet, 2);
  consumeN(M, 0, 6);
  M.startPhase();
  uint64_t TWBefore = M.twLength();
  consumeN(M, 0, 10);
  EXPECT_EQ(M.twLength(), TWBefore + 10);
  EXPECT_EQ(M.cwLength(), 3u);
}

TEST(WindowedModelTest, ConstantTWDoesNotGrowInPhase) {
  WindowedModel M(makeConfig(3, 3, TWPolicyKind::Constant),
                  ModelKind::UnweightedSet, 2);
  consumeN(M, 0, 6);
  M.startPhase();
  consumeN(M, 0, 10);
  EXPECT_EQ(M.twLength(), 3u);
  EXPECT_EQ(M.cwLength(), 3u);
}

TEST(WindowedModelTest, AdaptiveTWResetsAfterPhaseEnd) {
  WindowedModel M(makeConfig(3, 3, TWPolicyKind::Adaptive),
                  ModelKind::UnweightedSet, 2);
  consumeN(M, 0, 6);
  M.startPhase();
  consumeN(M, 0, 50);
  M.endPhase();
  consumeN(M, 1, 20);
  // TW back to its configured size.
  EXPECT_EQ(M.twLength(), 3u);
  EXPECT_EQ(M.cwLength(), 3u);
}

//===----------------------------------------------------------------------===//
// Invariants under random streams
//===----------------------------------------------------------------------===//

class ModelInvariantTest
    : public testing::TestWithParam<std::tuple<TWPolicyKind, ModelKind>> {};

TEST_P(ModelInvariantTest, BookkeepingStaysConsistent) {
  auto [Policy, Model] = GetParam();
  WindowedModel M(makeConfig(8, 8, Policy), Model, 6);
  Xoshiro256 Rng(42);
  bool InPhase = false;
  for (int I = 0; I < 5000; ++I) {
    M.consume(static_cast<SiteIndex>(Rng.nextBelow(6)));
    // Kernel totals always match the window lengths.
    ASSERT_EQ(M.kernel().cwTotal(), M.cwLength());
    ASSERT_EQ(M.kernel().twTotal(), M.twLength());
    ASSERT_LE(M.cwLength(), 8u);
    if (M.windowsFull()) {
      double Sim = M.similarity();
      ASSERT_GE(Sim, 0.0);
      ASSERT_LE(Sim, 1.0);
    }
    // Occasionally toggle phases the way a detector would.
    if (M.windowsFull() && !InPhase && Rng.nextBool(0.01)) {
      M.startPhase();
      InPhase = true;
    } else if (InPhase && Rng.nextBool(0.01)) {
      M.endPhase();
      InPhase = false;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ModelInvariantTest,
    testing::Combine(testing::Values(TWPolicyKind::Constant,
                                     TWPolicyKind::Adaptive),
                     testing::Values(ModelKind::UnweightedSet,
                                     ModelKind::WeightedSet)));

TEST(WindowedModelTest, ResetRestoresInitialState) {
  WindowedModel M(makeConfig(4, 4, TWPolicyKind::Adaptive),
                  ModelKind::WeightedSet, 3);
  consumeN(M, 1, 30);
  M.startPhase();
  consumeN(M, 2, 30);
  M.reset();
  EXPECT_EQ(M.consumed(), 0u);
  EXPECT_EQ(M.cwLength(), 0u);
  EXPECT_EQ(M.twLength(), 0u);
  EXPECT_FALSE(M.windowsFull());
}

TEST(WindowedModelTest, ConsumedCountsEverything) {
  WindowedModel M(makeConfig(2, 2), ModelKind::UnweightedSet, 2);
  consumeN(M, 0, 123);
  EXPECT_EQ(M.consumed(), 123u);
}

TEST(WindowedModelTest, NamesAreStable) {
  EXPECT_STREQ(twPolicyName(TWPolicyKind::Adaptive), "adaptive");
  EXPECT_STREQ(anchorKindName(AnchorKind::RightmostNoisy), "RN");
  EXPECT_STREQ(resizeKindName(ResizeKind::Move), "move");
}

//===----------------------------------------------------------------------===//
// Config-name parsers: each parse*Kind inverts its *Name function
//===----------------------------------------------------------------------===//

namespace {

/// Checks that \p Parse maps every enumerator's name (as spelled, and
/// upper-cased) back to it, and leaves its output alone on failure.
template <typename Enum>
void expectInverse(std::initializer_list<Enum> Values,
                   const char *(*Name)(Enum),
                   bool (*Parse)(std::string_view, Enum &)) {
  for (Enum K : Values) {
    std::string Upper = Name(K);
    for (char &C : Upper)
      C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
    for (const std::string &Text : {std::string(Name(K)), Upper}) {
      // Start from another enumerator so a parse that writes nothing
      // cannot pass.
      Enum Parsed =
          K == *Values.begin() ? *std::prev(Values.end()) : *Values.begin();
      ASSERT_TRUE(Parse(Text, Parsed)) << Text;
      EXPECT_EQ(Parsed, K) << Text;
    }
  }
  Enum Untouched = *Values.begin();
  EXPECT_FALSE(Parse("", Untouched));
  EXPECT_FALSE(Parse("unknown", Untouched));
  EXPECT_EQ(Untouched, *Values.begin());
}

} // namespace

TEST(ConfigNameTest, ParseModelKind) {
  expectInverse({ModelKind::UnweightedSet, ModelKind::WeightedSet,
                 ModelKind::ManhattanBBV},
                modelKindName, parseModelKind);
  ModelKind M;
  EXPECT_FALSE(parseModelKind("bbv", M));
}

TEST(ConfigNameTest, ParseTWPolicy) {
  expectInverse({TWPolicyKind::Constant, TWPolicyKind::Adaptive},
                twPolicyName, parseTWPolicy);
  // "fixed" is a sweep dimension, not a TW policy.
  TWPolicyKind P;
  EXPECT_FALSE(parseTWPolicy("fixed", P));
}

TEST(ConfigNameTest, ParseAnchorKind) {
  expectInverse({AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy},
                anchorKindName, parseAnchorKind);
  // The trace formats spell anchors "RN"/"LNN", the CLIs "rn"/"lnn".
  AnchorKind A = AnchorKind::LeftmostNonNoisy;
  ASSERT_TRUE(parseAnchorKind("rn", A));
  EXPECT_EQ(A, AnchorKind::RightmostNoisy);
  ASSERT_TRUE(parseAnchorKind("lnn", A));
  EXPECT_EQ(A, AnchorKind::LeftmostNonNoisy);
  EXPECT_FALSE(parseAnchorKind("rnx", A));
}

TEST(ConfigNameTest, ParseResizeKind) {
  expectInverse({ResizeKind::Slide, ResizeKind::Move}, resizeKindName,
                parseResizeKind);
}

TEST(ConfigNameTest, ParseAnalyzerKind) {
  expectInverse({AnalyzerKind::Threshold, AnalyzerKind::Average,
                 AnalyzerKind::Hysteresis},
                analyzerKindName, parseAnalyzerKind);
  // The sweep tools' "t0.6" analyzer specs are not analyzer names.
  AnalyzerKind A;
  EXPECT_FALSE(parseAnalyzerKind("t0.6", A));
}

//===----------------------------------------------------------------------===//
// Buffer compaction
//===----------------------------------------------------------------------===//

// The dead-prefix erase in compactBuffer() fires once the prefix crosses
// WindowedModel::CompactionThreshold; this drives a constant-TW model
// across that boundary and cross-checks the kernel against a brute-force
// shadow of the window contents on both sides of it, so an off-by-one in
// the Head rebase would misalign the windows and fail loudly.
TEST(WindowedModelTest, CompactionBoundaryPreservesWindowContents) {
  constexpr uint32_t CW = 8, TW = 8;
  constexpr SiteIndex NumSites = 13;
  WindowedModel M(makeConfig(CW, TW), ModelKind::WeightedSet, NumSites);

  // Steady-state sliding advances Head by one per element, so the
  // boundary falls a fixed distance past the threshold.
  const uint64_t Boundary = WindowedModel::CompactionThreshold + CW + TW;
  const uint64_t Total = Boundary + 64;

  std::vector<SiteIndex> History;
  History.reserve(Total);
  SplitMix64 Rng(7);
  for (uint64_t I = 0; I != Total; ++I) {
    SiteIndex S = static_cast<SiteIndex>(Rng.next() % NumSites);
    History.push_back(S);
    M.consume(S);

    if (I + 1 < Boundary - 2 || !M.windowsFull())
      continue;
    // Brute-force weighted similarity over the last TW+CW elements.
    uint64_t CWC[NumSites] = {0}, TWC[NumSites] = {0};
    for (uint64_t J = History.size() - CW; J != History.size(); ++J)
      ++CWC[History[J]];
    for (uint64_t J = History.size() - CW - TW;
         J != History.size() - CW; ++J)
      ++TWC[History[J]];
    uint64_t MinSum = 0;
    for (SiteIndex S2 = 0; S2 != NumSites; ++S2)
      MinSum += std::min(CWC[S2] * static_cast<uint64_t>(TW),
                         TWC[S2] * static_cast<uint64_t>(CW));
    double Expected = static_cast<double>(MinSum) /
                      (static_cast<double>(CW) * static_cast<double>(TW));
    ASSERT_EQ(M.similarity(), Expected) << "element " << I;
    ASSERT_EQ(M.cwLength(), CW);
    ASSERT_EQ(M.twLength(), TW);
  }
  EXPECT_EQ(M.consumed(), Total);
}
