//===- tests/SupportTest.cpp - Unit tests for src/support --------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "support/ArgParser.h"
#include "support/Casting.h"
#include "support/Format.h"
#include "support/Parallel.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

using namespace opd;

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(SplitMix64Test, Deterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 10; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(Xoshiro256Test, Deterministic) {
  Xoshiro256 A(7), B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Xoshiro256Test, NextBelowStaysInRange) {
  Xoshiro256 Rng(123);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 30})
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(Rng.nextBelow(Bound), Bound);
}

TEST(Xoshiro256Test, NextDoubleInUnitInterval) {
  Xoshiro256 Rng(99);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Xoshiro256Test, NextBoolExtremes) {
  Xoshiro256 Rng(5);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(Rng.nextBool(0.0));
    EXPECT_TRUE(Rng.nextBool(1.0));
  }
}

TEST(Xoshiro256Test, NextBoolApproximatesProbability) {
  Xoshiro256 Rng(2024);
  int Hits = 0;
  const int Trials = 20000;
  for (int I = 0; I < Trials; ++I)
    Hits += Rng.nextBool(0.3);
  double Rate = static_cast<double>(Hits) / Trials;
  EXPECT_NEAR(Rate, 0.3, 0.02);
}

TEST(Xoshiro256Test, NextBelowRoughlyUniform) {
  Xoshiro256 Rng(31337);
  std::vector<int> Buckets(10, 0);
  const int Trials = 50000;
  for (int I = 0; I < Trials; ++I)
    ++Buckets[Rng.nextBelow(10)];
  for (int Count : Buckets)
    EXPECT_NEAR(Count, Trials / 10, Trials / 50);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.count(), 0u);
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats S;
  S.push(4.5);
  EXPECT_DOUBLE_EQ(S.mean(), 4.5);
  EXPECT_DOUBLE_EQ(S.variance(), 0.0);
  EXPECT_DOUBLE_EQ(S.min(), 4.5);
  EXPECT_DOUBLE_EQ(S.max(), 4.5);
}

TEST(RunningStatsTest, MatchesBruteForce) {
  Xoshiro256 Rng(77);
  std::vector<double> Values;
  RunningStats S;
  for (int I = 0; I < 500; ++I) {
    double V = Rng.nextDouble() * 10.0 - 5.0;
    Values.push_back(V);
    S.push(V);
  }
  double Mean =
      std::accumulate(Values.begin(), Values.end(), 0.0) / Values.size();
  double Var = 0;
  for (double V : Values)
    Var += (V - Mean) * (V - Mean);
  Var /= Values.size();
  EXPECT_NEAR(S.mean(), Mean, 1e-9);
  EXPECT_NEAR(S.variance(), Var, 1e-9);
  EXPECT_NEAR(S.stddev(), std::sqrt(Var), 1e-9);
  EXPECT_DOUBLE_EQ(S.min(), *std::min_element(Values.begin(), Values.end()));
  EXPECT_DOUBLE_EQ(S.max(), *std::max_element(Values.begin(), Values.end()));
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats S;
  S.push(1.0);
  S.push(2.0);
  S.reset();
  EXPECT_TRUE(S.empty());
  EXPECT_DOUBLE_EQ(S.mean(), 0.0);
}

TEST(RunningPearsonTest, PerfectPositiveCorrelation) {
  RunningPearson P;
  for (int I = 0; I < 50; ++I)
    P.push(I, 2.0 * I + 3.0);
  EXPECT_NEAR(P.correlation(), 1.0, 1e-9);
}

TEST(RunningPearsonTest, PerfectNegativeCorrelation) {
  RunningPearson P;
  for (int I = 0; I < 50; ++I)
    P.push(I, -3.0 * I + 7.0);
  EXPECT_NEAR(P.correlation(), -1.0, 1e-9);
}

TEST(RunningPearsonTest, ZeroVarianceIsZero) {
  RunningPearson P;
  for (int I = 0; I < 10; ++I)
    P.push(5.0, I);
  EXPECT_DOUBLE_EQ(P.correlation(), 0.0);
}

TEST(RunningPearsonTest, UncorrelatedNearZero) {
  Xoshiro256 Rng(1);
  RunningPearson P;
  for (int I = 0; I < 20000; ++I)
    P.push(Rng.nextDouble(), Rng.nextDouble());
  EXPECT_NEAR(P.correlation(), 0.0, 0.05);
}

//===----------------------------------------------------------------------===//
// Format
//===----------------------------------------------------------------------===//

TEST(FormatTest, FormatCount) {
  EXPECT_EQ(formatCount(0), "0");
  EXPECT_EQ(formatCount(7), "7");
  EXPECT_EQ(formatCount(999), "999");
  EXPECT_EQ(formatCount(1000), "1,000");
  EXPECT_EQ(formatCount(62808794), "62,808,794");
  EXPECT_EQ(formatCount(1234567890123ULL), "1,234,567,890,123");
}

TEST(FormatTest, FormatDouble) {
  EXPECT_EQ(formatDouble(0.5, 2), "0.50");
  EXPECT_EQ(formatDouble(33.875, 2), "33.88");
  EXPECT_EQ(formatDouble(-1.5, 1), "-1.5");
}

TEST(FormatTest, FormatPercent) {
  EXPECT_EQ(formatPercent(0.3388), "33.88");
  EXPECT_EQ(formatPercent(1.0), "100.00");
}

TEST(FormatTest, FormatAbbrev) {
  EXPECT_EQ(formatAbbrev(500), "500");
  EXPECT_EQ(formatAbbrev(1000), "1K");
  EXPECT_EQ(formatAbbrev(25000), "25K");
  EXPECT_EQ(formatAbbrev(100000), "100K");
  EXPECT_EQ(formatAbbrev(1500), "1.5K");
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, RendersHeaderAndRows) {
  Table T("My Table");
  T.setHeader({"Benchmark", "Score"});
  T.addRow({"compress", "0.65"});
  T.addRow({"jess", "0.70"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("My Table"), std::string::npos);
  EXPECT_NE(Out.find("Benchmark"), std::string::npos);
  EXPECT_NE(Out.find("compress"), std::string::npos);
  EXPECT_NE(Out.find("0.70"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TableTest, AlignmentPadsCells) {
  Table T;
  T.setHeader({"name", "value"});
  T.addRow({"a", "1"});
  std::string Out = T.render();
  // Right-aligned "1" under "value" has leading spaces.
  EXPECT_NE(Out.find("    1"), std::string::npos);
}

TEST(TableTest, CSVEscapesSpecials) {
  Table T;
  T.setHeader({"a", "b"});
  T.addRow({"x,y", "he said \"hi\""});
  std::string CSV = T.renderCSV();
  EXPECT_NE(CSV.find("\"x,y\""), std::string::npos);
  EXPECT_NE(CSV.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, SeparatorsSkippedInCSV) {
  Table T;
  T.setHeader({"a"});
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"2"});
  EXPECT_EQ(T.renderCSV(), "a\n1\n2\n");
  EXPECT_EQ(T.numRows(), 2u);
}

//===----------------------------------------------------------------------===//
// ArgParser
//===----------------------------------------------------------------------===//

TEST(ArgParserTest, ParsesFlagsAndOptions) {
  ArgParser P("tool", "test tool");
  P.addFlag("verbose", "be chatty");
  P.addOption("scale", "workload scale", "1.0");
  P.addOption("mpl", "minimum phase length", "10K");
  const char *Argv[] = {"tool", "--verbose", "--scale=0.5", "--mpl", "25K",
                        "input.jp"};
  ASSERT_TRUE(P.parse(6, Argv));
  EXPECT_TRUE(P.getFlag("verbose"));
  EXPECT_DOUBLE_EQ(P.getDouble("scale"), 0.5);
  EXPECT_EQ(P.getInt("mpl"), 25000);
  ASSERT_EQ(P.positional().size(), 1u);
  EXPECT_EQ(P.positional()[0], "input.jp");
}

TEST(ArgParserTest, DefaultsApply) {
  ArgParser P("tool", "test tool");
  P.addOption("scale", "workload scale", "2.5");
  const char *Argv[] = {"tool"};
  ASSERT_TRUE(P.parse(1, Argv));
  EXPECT_DOUBLE_EQ(P.getDouble("scale"), 2.5);
}

TEST(ArgParserTest, UnknownFlagFails) {
  ArgParser P("tool", "test tool");
  const char *Argv[] = {"tool", "--nope"};
  EXPECT_FALSE(P.parse(2, Argv));
}

TEST(ArgParserTest, MissingValueFails) {
  ArgParser P("tool", "test tool");
  P.addOption("scale", "workload scale", "1");
  const char *Argv[] = {"tool", "--scale"};
  EXPECT_FALSE(P.parse(2, Argv));
}

TEST(ArgParserTest, PositiveDoubleTakesOnlyOneFiniteNumberAboveZero) {
  for (const char *Good : {"0.25", "1", "8", "1e-3", " 2"}) {
    ArgParser P("tool", "test tool");
    P.addOption("scale", "workload scale", "1.0");
    const char *Argv[] = {"tool", "--scale", Good};
    ASSERT_TRUE(P.parse(3, Argv));
    double Scale = 0.0;
    EXPECT_TRUE(P.getPositiveDouble("scale", Scale)) << Good;
    EXPECT_DOUBLE_EQ(Scale, std::strtod(Good, nullptr)) << Good;
  }
  for (const char *Bad : {"0", "-0", "-1", "abc", "", "1x", "inf", "-inf",
                          "nan", "1e400"}) {
    ArgParser P("tool", "test tool");
    P.addOption("scale", "workload scale", "1.0");
    const char *Argv[] = {"tool", "--scale", Bad};
    ASSERT_TRUE(P.parse(3, Argv));
    double Scale = 7.0;
    EXPECT_FALSE(P.getPositiveDouble("scale", Scale)) << Bad;
    EXPECT_EQ(Scale, 7.0) << Bad;
  }
}

TEST(ArgParserTest, SizeTakesDigitsWithOneSuffixWithinItsRange) {
  const uint64_t Top = std::numeric_limits<uint64_t>::max();
  const std::pair<const char *, uint64_t> Good[] = {
      {"0", 0},
      {"7", 7},
      {"10K", 10000},
      {"3k", 3000},
      {"62M", 62000000},
      {"2m", 2000000},
      {"18446744073709551615", Top},
      {"18446744073709551K", 18446744073709551000u}};
  for (const auto &[Text, Want] : Good) {
    uint64_t Value = 1;
    EXPECT_TRUE(readSize(Text, 0, Top, Value)) << Text;
    EXPECT_EQ(Value, Want) << Text;
  }
  // Signs, blanks, other suffixes, doubled suffixes and anything that
  // wraps 64 bits are not sizes.
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "abc", "1G", "1KK",
                          "1.5K", "K", "18446744073709551616",
                          "18446744073709552K", "18446744073710M"}) {
    uint64_t Value = 1;
    EXPECT_FALSE(readSize(Bad, 0, Top, Value)) << Bad;
    EXPECT_EQ(Value, 1u) << Bad;
  }
  uint64_t Value = 0;
  EXPECT_FALSE(readSize("0", 1, Top, Value));
  EXPECT_TRUE(readSize("1K", 1, 1000, Value));
  EXPECT_FALSE(readSize("1001", 1, 1000, Value));

  // getSize names the flag, what it wanted and the text; past the
  // ceiling it states the ceiling.
  auto Read = [](const char *Text, uint64_t Min, uint16_t &Out) {
    ArgParser P("tool", "test tool");
    P.addOption("port", "port", "0");
    const char *Argv[] = {"tool", "--port", Text};
    EXPECT_TRUE(P.parse(3, Argv));
    std::string Error;
    return P.getSize("port", Out, Error, Min) ? std::string() : Error;
  };
  uint16_t Port = 9;
  EXPECT_EQ(Read("65535", 0, Port), "");
  EXPECT_EQ(Port, 65535u);
  EXPECT_EQ(Read("70000", 0, Port),
            "--port must be at most 65535, got '70000'");
  EXPECT_EQ(Read("-1", 0, Port),
            "--port must be a non-negative integer, got '-1'");
  EXPECT_EQ(Read("0", 1, Port), "--port must be a positive integer, got '0'");
  EXPECT_EQ(Port, 65535u);
}

TEST(ArgParserTest, KSuffixInGetInt) {
  ArgParser P("tool", "test tool");
  P.addOption("mpl", "mpl", "100K");
  const char *Argv[] = {"tool"};
  ASSERT_TRUE(P.parse(1, Argv));
  EXPECT_EQ(P.getInt("mpl"), 100000);
}

//===----------------------------------------------------------------------===//
// Parallel
//===----------------------------------------------------------------------===//

TEST(ParallelTest, VisitsEveryIndexExactlyOnce) {
  const size_t N = 1000;
  std::vector<std::atomic<int>> Visits(N);
  parallelFor(N, [&](size_t I) { Visits[I].fetch_add(1); });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Visits[I].load(), 1);
}

TEST(ParallelTest, ZeroItemsIsANoop) {
  bool Called = false;
  parallelFor(0, [&](size_t) { Called = true; });
  EXPECT_FALSE(Called);
}

TEST(ParallelTest, HardwareParallelismPositive) {
  EXPECT_GE(hardwareParallelism(), 1u);
}

TEST(ParallelTest, ChunkedOverloadVisitsEveryIndexExactlyOnce) {
  // Grains that do and do not divide the item count, including one
  // larger than it.
  for (size_t Grain : {1, 7, 64, 5000}) {
    const size_t N = 1000;
    std::vector<std::atomic<int>> Visits(N);
    parallelFor(
        N,
        [&](size_t I, unsigned Worker) {
          EXPECT_LT(Worker, hardwareParallelism());
          Visits[I].fetch_add(1);
        },
        Grain);
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Visits[I].load(), 1) << "grain " << Grain;
  }
}

TEST(ParallelTest, ChunkedOverloadZeroGrainIsTreatedAsOne) {
  const size_t N = 100;
  std::vector<std::atomic<int>> Visits(N);
  parallelFor(
      N, [&](size_t I, unsigned) { Visits[I].fetch_add(1); }, 0);
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Visits[I].load(), 1);
}

TEST(ParallelTest, WorkerIdsAreStableWithinAChunk) {
  // Items of one chunk run on one worker: record the worker per item and
  // check each aligned Grain-sized chunk saw a single id.
  const size_t N = 256;
  const size_t Grain = 16;
  std::vector<unsigned> Worker(N, ~0u);
  parallelFor(
      N, [&](size_t I, unsigned W) { Worker[I] = W; }, Grain);
  for (size_t Base = 0; Base < N; Base += Grain)
    for (size_t I = Base; I != Base + Grain; ++I)
      EXPECT_EQ(Worker[I], Worker[Base]) << "item " << I;
}
