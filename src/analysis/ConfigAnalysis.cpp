//===- analysis/ConfigAnalysis.cpp - Config-space static analyzer -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "analysis/ConfigAnalysis.h"

#include "analysis/KernelBounds.h"
#include "core/SharedScan.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>

using namespace opd;

namespace {

/// All merge rules, in enum order (for rule-count tables).
constexpr MergeRule AllRules[] = {
    MergeRule::IdenticalConfig,
    MergeRule::DeadResizeConstantTW,
    MergeRule::DeadAnchorUnanchored,
    MergeRule::SaturatedAnalyzerAlwaysP,
    MergeRule::DeadModelSaturated,
    MergeRule::DeadPolicySaturated,
    MergeRule::DeadWindowSplitSaturated,
    MergeRule::UnsatisfiableAnalyzerAlwaysT,
    MergeRule::DeadConfigUnsatisfiable,
};
constexpr size_t NumRules = sizeof(AllRules) / sizeof(AllRules[0]);

/// Spec-level diagnostics have no source text to point at.
constexpr SourceLoc SpecLoc{0, 0};

std::string formatParam(double Param) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", Param);
  return Buf;
}

/// Reports validateConfig's verdict on \p Probe as error \p Code, its
/// message prefixed with \p Where; true when \p Probe is legal.
bool lintLegal(const DetectorConfig &Probe, const char *Code,
               const std::string &Where, DiagnosticEngine &Diags) {
  std::string Why = validateConfig(Probe);
  if (!Why.empty())
    Diags.report(DiagSeverity::Error, SpecLoc, Code, Where + Why);
  return Why.empty();
}

/// The analyzer-dimension checks shared by lintConfig and lintSweepSpec.
/// A parameter validateConfig rejects gets its error and nothing else.
void lintAnalyzer(AnalyzerKind Kind, double Param, DiagnosticEngine &Diags) {
  if (!lintLegal({.Window = {}, .TheAnalyzer = Kind, .AnalyzerParam = Param},
                 "invalid-analyzer-param", "", Diags))
    return;
  std::string Desc =
      std::string(analyzerKindName(Kind)) + " " + formatParam(Param);
  switch (classifyAnalyzer(Kind, Param)) {
  case AnalyzerRange::AlwaysInPhase:
    Diags.report(DiagSeverity::Warning, SpecLoc, "analyzer-always-inphase",
                 "analyzer '" + Desc +
                     "' reports P for every similarity value; the detector "
                     "degenerates to one unbounded phase");
    return;
  case AnalyzerRange::AlwaysTransition:
    Diags.report(DiagSeverity::Warning, SpecLoc, "analyzer-always-transition",
                 "analyzer '" + Desc +
                     "' reports T for every similarity value; no phase can "
                     "ever start");
    return;
  case AnalyzerRange::Normal:
    break;
  }
  if (Kind == AnalyzerKind::Threshold && Param == 1.0)
    Diags.report(DiagSeverity::Note, SpecLoc, "threshold-knife-edge",
                 "threshold 1 accepts only exact window equality; any noise "
                 "keeps the detector in T");
  if (Kind == AnalyzerKind::Average && Param <= 0.0)
    Diags.report(DiagSeverity::Note, SpecLoc, "average-nonpositive-delta",
                 "average delta " + formatParam(Param) +
                     " demands at-or-above-average similarity; phases end on "
                     "any dip");
  // hysteresisExitThreshold() clamps the exit to 0 for enter <= 0.15.
  if (Kind == AnalyzerKind::Hysteresis && Param > 0.0 && Param <= 0.15)
    Diags.report(DiagSeverity::Warning, SpecLoc, "hysteresis-no-exit",
                 "hysteresis enter threshold " + formatParam(Param) +
                     " derives an exit threshold of 0; a phase, once "
                     "entered, never ends");
}

/// The KernelBounds-backed checks shared by lintConfig and
/// lintSweepSpec: provable count/product wraparound (errors) and
/// products within a few bits of the 64-bit cliff (warning). The
/// kernel-unbounded-tw finding is filtered out here — an adaptive TW
/// with no known trace length proves nothing either way, and
/// kernel_check owns that conversation.
void lintKernelBounds(const DetectorConfig &Config, uint64_t TraceLen,
                      DiagnosticEngine &Diags) {
  TraceBounds Stats;
  Stats.TraceLen = TraceLen;
  DiagnosticEngine Local;
  lintCertificate(certifyKernel(Config, Stats), Local);
  for (const Diagnostic &D : Local.diagnostics())
    if (D.Code != "kernel-unbounded-tw")
      Diags.report(D.Severity, D.Loc, D.Code, D.Message);
}

} // namespace

void opd::lintConfig(const DetectorConfig &Config,
                     const ConfigLintOptions &Options,
                     DiagnosticEngine &Diags) {
  const WindowConfig &W = Config.Window;
  lintLegal({.Window = W}, "empty-window", "", Diags);
  lintAnalyzer(Config.TheAnalyzer, Config.AnalyzerParam, Diags);

  if (W.SkipFactor > W.CWSize && W.CWSize > 0)
    Diags.report(DiagSeverity::Warning, SpecLoc, "skip-exceeds-cw",
                 "skip factor " + std::to_string(W.SkipFactor) +
                     " exceeds the CW size " + std::to_string(W.CWSize) +
                     "; whole windows pass between evaluations");

  if (Options.TraceLen > 0) {
    uint64_t Need = static_cast<uint64_t>(W.CWSize) + W.TWSize;
    if (Need > Options.TraceLen)
      Diags.report(DiagSeverity::Warning, SpecLoc, "window-exceeds-trace",
                   "CW+TW (" + std::to_string(Need) +
                       ") exceeds the trace length (" +
                       std::to_string(Options.TraceLen) +
                       "); the windows never fill and the output is all-T");
    if (W.SkipFactor > Options.TraceLen)
      Diags.report(DiagSeverity::Warning, SpecLoc, "skip-exceeds-trace",
                   "skip factor " + std::to_string(W.SkipFactor) +
                       " exceeds the trace length (" +
                       std::to_string(Options.TraceLen) +
                       "); the detector never evaluates");
  }

  lintKernelBounds(Config, Options.TraceLen, Diags);
}

void opd::lintSweepSpec(const SweepSpec &Spec, const ConfigLintOptions &Options,
                        DiagnosticEngine &Diags) {
  // Dimension-level checks first, in declaration order.
  auto checkEmpty = [&](bool Empty, const char *Name) {
    if (Empty)
      Diags.report(DiagSeverity::Error, SpecLoc, "empty-dimension",
                   std::string("dimension '") + Name +
                       "' is empty; the cross product enumerates no "
                       "configurations");
  };
  checkEmpty(Spec.CWSizes.empty(), "CWSizes");
  checkEmpty(Spec.TWFactors.empty(), "TWFactors");
  checkEmpty(Spec.SkipFactors.empty(), "SkipFactors");
  if (Spec.TWPolicies.empty()) {
    if (Spec.IncludeFixedInterval)
      Diags.report(DiagSeverity::Warning, SpecLoc, "empty-dimension",
                   "dimension 'TWPolicies' is empty; only the Fixed-Interval "
                   "points will be enumerated");
    else
      checkEmpty(true, "TWPolicies");
  }
  checkEmpty(Spec.Models.empty(), "Models");
  checkEmpty(Spec.Analyzers.empty(), "Analyzers");
  checkEmpty(Spec.Anchors.empty(), "Anchors");
  checkEmpty(Spec.Resizes.empty(), "Resizes");

  // One probe per value. A TW factor probes as a TW size: with CW >= 1
  // the TW it derives is empty exactly when the factor is 0.
  for (uint32_t V : Spec.CWSizes)
    lintLegal({.Window = {.CWSize = V}}, "empty-window", "CWSizes: ", Diags);
  for (uint32_t V : Spec.TWFactors)
    lintLegal({.Window = {.TWSize = V}}, "empty-window", "TWFactors: ", Diags);
  for (uint32_t V : Spec.SkipFactors)
    lintLegal({.Window = {.SkipFactor = V}}, "empty-window", "SkipFactors: ",
              Diags);

  auto checkDuplicates = [&](const std::vector<uint32_t> &Values,
                             const char *Name) {
    std::set<uint32_t> Seen, Reported;
    for (uint32_t V : Values)
      if (!Seen.insert(V).second && Reported.insert(V).second)
        Diags.report(DiagSeverity::Warning, SpecLoc,
                     "duplicate-dimension-value",
                     std::string("dimension '") + Name + "' lists " +
                         std::to_string(V) +
                         " more than once; duplicate points inflate the "
                         "sweep");
  };
  checkDuplicates(Spec.CWSizes, "CWSizes");
  checkDuplicates(Spec.TWFactors, "TWFactors");
  checkDuplicates(Spec.SkipFactors, "SkipFactors");
  {
    std::set<std::pair<uint8_t, uint64_t>> Seen, Reported;
    for (const AnalyzerSpec &A : Spec.Analyzers) {
      uint64_t Bits = 0;
      std::memcpy(&Bits, &A.Param, sizeof(Bits));
      std::pair<uint8_t, uint64_t> Key{static_cast<uint8_t>(A.Kind), Bits};
      if (!Seen.insert(Key).second && Reported.insert(Key).second)
        Diags.report(DiagSeverity::Warning, SpecLoc,
                     "duplicate-dimension-value",
                     std::string("dimension 'Analyzers' lists ") +
                         analyzerKindName(A.Kind) + " " +
                         formatParam(A.Param) +
                         " more than once; duplicate points inflate the "
                         "sweep");
    }
  }

  // Per-value checks, once per offending value.
  for (const AnalyzerSpec &A : Spec.Analyzers)
    lintAnalyzer(A.Kind, A.Param, Diags);

  uint32_t MinCW = 0;
  for (uint32_t CW : Spec.CWSizes)
    if (CW > 0 && (MinCW == 0 || CW < MinCW))
      MinCW = CW;
  if (MinCW > 0)
    for (uint32_t Skip : Spec.SkipFactors)
      if (Skip > MinCW)
        Diags.report(DiagSeverity::Warning, SpecLoc, "skip-exceeds-cw",
                     "skip factor " + std::to_string(Skip) +
                         " exceeds the smallest CW size " +
                         std::to_string(MinCW) +
                         "; whole windows pass between evaluations");

  if (Options.TraceLen > 0) {
    for (uint32_t CW : Spec.CWSizes)
      for (uint32_t Factor : Spec.TWFactors) {
        uint64_t Need = static_cast<uint64_t>(CW) +
                        static_cast<uint64_t>(CW) * Factor;
        if (Need > Options.TraceLen)
          Diags.report(DiagSeverity::Warning, SpecLoc, "window-exceeds-trace",
                       "CW " + std::to_string(CW) + " with TW factor " +
                           std::to_string(Factor) + " needs " +
                           std::to_string(Need) +
                           " elements but the trace has " +
                           std::to_string(Options.TraceLen) +
                           "; the windows never fill");
      }
    for (uint32_t Skip : Spec.SkipFactors)
      if (Skip > Options.TraceLen)
        Diags.report(DiagSeverity::Warning, SpecLoc, "skip-exceeds-trace",
                     "skip factor " + std::to_string(Skip) +
                         " exceeds the trace length (" +
                         std::to_string(Options.TraceLen) +
                         "); the detector never evaluates");
  }

  // Kernel value-range checks, once per (CW, factor, policy) cell: the
  // bounds are analyzer- and skip-independent, and the weighted model
  // dominates the others (it alone forms the cross products), so one
  // weighted probe per cell covers the whole cell.
  {
    ModelKind Probe = std::find(Spec.Models.begin(), Spec.Models.end(),
                                ModelKind::WeightedSet) != Spec.Models.end()
                          ? ModelKind::WeightedSet
                          : (Spec.Models.empty() ? ModelKind::UnweightedSet
                                                 : Spec.Models.front());
    std::vector<TWPolicyKind> Policies = Spec.TWPolicies;
    if (Spec.IncludeFixedInterval &&
        std::find(Policies.begin(), Policies.end(), TWPolicyKind::Constant) ==
            Policies.end())
      Policies.push_back(TWPolicyKind::Constant);
    for (uint32_t CW : Spec.CWSizes)
      for (uint32_t Factor : Spec.TWFactors) {
        if (CW == 0 || Factor == 0)
          continue;
        for (TWPolicyKind Policy : Policies) {
          DetectorConfig C;
          C.Window.CWSize = CW;
          C.Window.TWSize = static_cast<uint32_t>(std::min<uint64_t>(
              static_cast<uint64_t>(CW) * Factor,
              std::numeric_limits<uint32_t>::max()));
          C.Window.TWPolicy = Policy;
          C.Model = Probe;
          lintKernelBounds(C, Options.TraceLen, Diags);
        }
      }
  }

  if (Spec.IncludeFixedInterval &&
      std::find(Spec.TWPolicies.begin(), Spec.TWPolicies.end(),
                TWPolicyKind::Constant) != Spec.TWPolicies.end())
    for (uint32_t CW : Spec.CWSizes)
      if (std::find(Spec.SkipFactors.begin(), Spec.SkipFactors.end(), CW) !=
          Spec.SkipFactors.end())
        Diags.report(DiagSeverity::Note, SpecLoc, "fixed-interval-overlap",
                     "the Fixed-Interval point at CW " + std::to_string(CW) +
                         " duplicates the enumerated Constant point with "
                         "skip factor " +
                         std::to_string(CW));
}

ConfigPartition
opd::partitionConfigs(const std::vector<DetectorConfig> &Configs,
                      const ConfigCanonOptions &Options) {
  ConfigPartition Partition;
  Partition.ClassOf.resize(Configs.size());

  std::map<std::string, size_t> ClassIndex;
  for (size_t I = 0; I < Configs.size(); ++I) {
    CanonResult Canon = canonicalizeConfig(Configs[I], Options);
    std::string Key = configKey(Canon.Canonical);
    auto [It, Inserted] =
        ClassIndex.emplace(std::move(Key), Partition.Classes.size());
    if (Inserted) {
      ConfigClass Class;
      Class.Representative = I;
      Class.Canonical = Canon.Canonical;
      Partition.Classes.push_back(std::move(Class));
    }
    ConfigClass &Class = Partition.Classes[It->second];
    Class.Members.push_back(I);
    for (MergeRule Rule : Canon.Applied)
      if (std::find(Class.Rules.begin(), Class.Rules.end(), Rule) ==
          Class.Rules.end())
        Class.Rules.push_back(Rule);
    Partition.ClassOf[I] = It->second;
  }

  for (ConfigClass &Class : Partition.Classes)
    if (Class.Members.size() > 1 && Class.Rules.empty())
      Class.Rules.push_back(MergeRule::IdenticalConfig);
  return Partition;
}

SweepAnalysis opd::analyzeSweep(const SweepSpec &Spec,
                                const ConfigCanonOptions &Options) {
  SweepAnalysis Analysis;
  Analysis.Configs = enumerateCrossProduct(Spec);
  Analysis.Partition = partitionConfigs(Analysis.Configs, Options);
  Analysis.NumConfigs = Analysis.Configs.size();
  Analysis.NumClasses = Analysis.Partition.Classes.size();
  Analysis.RunsPruned = Analysis.NumConfigs - Analysis.NumClasses;
  Analysis.ClassesByRule.assign(NumRules, 0);
  for (const ConfigClass &Class : Analysis.Partition.Classes)
    for (MergeRule Rule : Class.Rules)
      Analysis.ClassesByRule[static_cast<size_t>(Rule)] += 1;
  // The shared-scan plan covers what a pruned sweep actually runs: one
  // representative per class.
  std::vector<DetectorConfig> Representatives;
  Representatives.reserve(Analysis.Partition.Classes.size());
  for (const ConfigClass &Class : Analysis.Partition.Classes)
    Representatives.push_back(Analysis.Configs[Class.Representative]);
  SharedScanPlan Plan = planSharedScan(Representatives);
  Analysis.NumSharedGroups = Plan.Groups.size();
  Analysis.LargestSharedGroup = Plan.largestGroup();
  return Analysis;
}

Table opd::sweepPlanTable(const SweepAnalysis &Analysis,
                          const std::string &Title) {
  Table T(Title);
  T.setHeader({"rule", "classes", "justification"});
  T.setAlign(2, Table::AlignKind::Left);
  for (size_t R = 0; R < NumRules; ++R) {
    size_t Count = R < Analysis.ClassesByRule.size()
                       ? Analysis.ClassesByRule[R]
                       : 0;
    if (Count == 0)
      continue;
    T.addRow({mergeRuleName(AllRules[R]), std::to_string(Count),
              mergeRuleJustification(AllRules[R])});
  }
  T.addSeparator();
  double Pct = Analysis.NumConfigs > 0
                   ? 100.0 * static_cast<double>(Analysis.RunsPruned) /
                         static_cast<double>(Analysis.NumConfigs)
                   : 0.0;
  char Summary[64];
  std::snprintf(Summary, sizeof(Summary), "%zu of %zu runs (%.1f%%)",
                Analysis.RunsPruned, Analysis.NumConfigs, Pct);
  T.addRow({"pruned", Summary, ""});
  std::snprintf(Summary, sizeof(Summary), "%zu passes (largest %zu)",
                Analysis.NumSharedGroups, Analysis.LargestSharedGroup);
  T.addRow({"shared-scan groups", Summary,
            "one trace pass per window-kernel shape"});
  return T;
}

std::string opd::renderSweepAnalysisJSON(const SweepAnalysis &Analysis,
                                         const std::string &SpecName) {
  std::string Out = "{\n";
  Out += "  \"spec\": \"" + SpecName + "\",\n";
  Out += "  \"configs\": " + std::to_string(Analysis.NumConfigs) + ",\n";
  Out += "  \"classes\": " + std::to_string(Analysis.NumClasses) + ",\n";
  Out += "  \"pruned\": " + std::to_string(Analysis.RunsPruned) + ",\n";
  double Pct = Analysis.NumConfigs > 0
                   ? 100.0 * static_cast<double>(Analysis.RunsPruned) /
                         static_cast<double>(Analysis.NumConfigs)
                   : 0.0;
  char PctBuf[16];
  std::snprintf(PctBuf, sizeof(PctBuf), "%.1f", Pct);
  Out += std::string("  \"pruned_pct\": ") + PctBuf + ",\n";
  Out += "  \"shared_groups\": " + std::to_string(Analysis.NumSharedGroups) +
         ",\n";
  Out += "  \"largest_shared_group\": " +
         std::to_string(Analysis.LargestSharedGroup) + ",\n";
  Out += "  \"rules\": [";
  bool First = true;
  for (size_t R = 0; R < NumRules; ++R) {
    size_t Count = R < Analysis.ClassesByRule.size()
                       ? Analysis.ClassesByRule[R]
                       : 0;
    if (Count == 0)
      continue;
    if (!First)
      Out += ",";
    First = false;
    Out += "\n    {\"rule\": \"";
    Out += mergeRuleName(AllRules[R]);
    Out += "\", \"classes\": " + std::to_string(Count) +
           ", \"justification\": \"";
    Out += mergeRuleJustification(AllRules[R]);
    Out += "\"}";
  }
  Out += First ? "]\n" : "\n  ]\n";
  Out += "}\n";
  return Out;
}
