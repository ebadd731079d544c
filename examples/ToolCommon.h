//===- examples/ToolCommon.h - Shared sweep-tool plumbing -------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag parsing shared by the tools. sweep_tool, config_check and
/// kernel_check build a SweepSpec from the same --cw/--models/
/// --analyzers/... vocabulary or from a --preset name, so a spec linted by
/// config_check is exactly the spec sweep_tool runs. inspect_tool,
/// phase_explorer and opd_loadgen read one DetectorConfig through
/// readDetectorConfig. Every policy name goes through the core's
/// parse*Kind functions, the inverses of its *Name functions.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_EXAMPLES_TOOLCOMMON_H
#define OPD_EXAMPLES_TOOLCOMMON_H

#include "core/SweepSpec.h"
#include "support/ArgParser.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace opd {

/// Splits a comma-separated list.
inline std::vector<std::string> splitList(const std::string &Text) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t Comma = Text.find(',', Start);
    if (Comma == std::string::npos) {
      if (Start < Text.size())
        Out.push_back(Text.substr(Start));
      break;
    }
    if (Comma > Start)
      Out.push_back(Text.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

/// Parses "10K" / "2500" style sizes.
inline uint64_t parseSize(const std::string &Text) {
  char *End = nullptr;
  uint64_t Value = std::strtoull(Text.c_str(), &End, 10);
  if (End && (*End == 'K' || *End == 'k'))
    Value *= 1000;
  if (End && (*End == 'M' || *End == 'm'))
    Value *= 1000000;
  return Value;
}

/// Parses each of \p Names with \p Parse into \p Out; prints an error
/// naming the \p What dimension on an unknown name.
template <typename Enum>
bool parseNames(const std::vector<std::string> &Names, const char *What,
                bool (*Parse)(std::string_view, Enum &),
                std::vector<Enum> &Out) {
  Out.clear();
  for (const std::string &Name : Names) {
    Enum K;
    if (!Parse(Name, K)) {
      std::fprintf(stderr, "error: unknown %s '%s'\n", What, Name.c_str());
      return false;
    }
    Out.push_back(K);
  }
  return true;
}

/// Registers the sweep-dimension options shared by sweep_tool and
/// config_check.
inline void addSweepSpecOptions(ArgParser &Args) {
  Args.addOption("preset",
                 "named spec: paper (full cross product), table2, fig4, "
                 "fig5, fig6, fig7, fig8, ablation13; overrides the "
                 "dimension flags",
                 "");
  Args.addOption("cw", "comma-separated CW sizes", "500,5000,50000");
  Args.addOption("tw-factors", "comma-separated TW-size factors (TW = CW "
                               "* factor)",
                 "1");
  Args.addOption("skips", "comma-separated skip factors", "1");
  Args.addOption("models",
                 "models: unweighted,weighted,manhattan", "unweighted");
  Args.addOption("analyzers",
                 "analyzers: t<threshold>, a<delta>, h<enter>",
                 "t0.6,a0.05");
  Args.addOption("policies", "policies: constant,adaptive,fixed",
                 "constant,adaptive");
  Args.addOption("anchors", "anchor policies: rn,lnn", "rn");
  Args.addOption("resizes", "TW resize policies: slide,move", "slide");
}

/// Builds the SweepSpec the parsed options describe. \p RawCrossProduct
/// is set when the spec is meant for enumerateCrossProduct() (the
/// "paper" preset). Returns false after printing an error to stderr.
inline bool buildSweepSpec(const ArgParser &Args, SweepSpec &Spec,
                           bool &RawCrossProduct) {
  RawCrossProduct = false;

  std::string Preset = Args.getOption("preset");
  if (!Preset.empty()) {
    if (Preset == "paper") {
      Spec = paperCrossSpec();
      RawCrossProduct = true;
      return true;
    }
    const std::vector<std::string> &Names = benchSweepNames();
    if (std::find(Names.begin(), Names.end(), Preset) == Names.end()) {
      std::fprintf(stderr, "error: unknown preset '%s'\n", Preset.c_str());
      return false;
    }
    Spec = benchSweepSpec(Preset, paperAnalyzers());
    return true;
  }

  Spec = SweepSpec();
  Spec.CWSizes.clear();
  for (const std::string &CW : splitList(Args.getOption("cw")))
    Spec.CWSizes.push_back(static_cast<uint32_t>(parseSize(CW)));
  Spec.TWFactors.clear();
  for (const std::string &F : splitList(Args.getOption("tw-factors")))
    Spec.TWFactors.push_back(static_cast<uint32_t>(parseSize(F)));
  Spec.SkipFactors.clear();
  for (const std::string &S : splitList(Args.getOption("skips")))
    Spec.SkipFactors.push_back(static_cast<uint32_t>(parseSize(S)));

  if (!parseNames(splitList(Args.getOption("models")), "model",
                  parseModelKind, Spec.Models))
    return false;

  Spec.Analyzers.clear();
  for (const std::string &A : splitList(Args.getOption("analyzers"))) {
    if (A.size() < 2) {
      std::fprintf(stderr, "error: bad analyzer spec '%s'\n", A.c_str());
      return false;
    }
    double Param = std::strtod(A.c_str() + 1, nullptr);
    switch (A[0]) {
    case 't':
      Spec.Analyzers.push_back({AnalyzerKind::Threshold, Param});
      break;
    case 'a':
      Spec.Analyzers.push_back({AnalyzerKind::Average, Param});
      break;
    case 'h':
      Spec.Analyzers.push_back({AnalyzerKind::Hysteresis, Param});
      break;
    default:
      std::fprintf(stderr, "error: bad analyzer spec '%s'\n", A.c_str());
      return false;
    }
  }

  // "fixed" is not a TW policy: it adds the fixed-interval configs.
  std::vector<std::string> Policies = splitList(Args.getOption("policies"));
  Spec.IncludeFixedInterval = std::erase(Policies, "fixed") != 0;
  return parseNames(Policies, "policy", parseTWPolicy, Spec.TWPolicies) &&
         parseNames(splitList(Args.getOption("anchors")), "anchor",
                    parseAnchorKind, Spec.Anchors) &&
         parseNames(splitList(Args.getOption("resizes")), "resize",
                    parseResizeKind, Spec.Resizes);
}

/// Reads policy-name option \p Flag with \p Parse; false with a one-line
/// \p Error on an unknown name.
template <typename Enum>
bool readName(const ArgParser &Args, const char *Flag,
              bool (*Parse)(std::string_view, Enum &), Enum &Out,
              std::string &Error) {
  if (Parse(Args.getOption(Flag), Out))
    return true;
  Error = std::string("unknown --") + Flag + " '" + Args.getOption(Flag) + "'";
  return false;
}

/// Reads one detector configuration from --cw --tw --skip --policy
/// --model --analyzer --param, which each tool registers with its own
/// defaults; an empty --tw means TW = CW. The anchor and resize policies
/// keep \p Config's values. Returns false with a one-line \p Error on a
/// zero or non-numeric size, skip or param, or an unknown name.
inline bool readDetectorConfig(const ArgParser &Args, DetectorConfig &Config,
                               std::string &Error) {
  auto ReadCount = [&](const char *Flag, uint32_t &Out) {
    long Value = Args.getInt(Flag, 0);
    if (Value > 0 && Value <= long(std::numeric_limits<uint32_t>::max())) {
      Out = uint32_t(Value);
      return true;
    }
    Error = std::string("--") + Flag + " must be a positive integer, got '" +
            Args.getOption(Flag) + "'";
    return false;
  };
  WindowConfig &W = Config.Window;
  if (!ReadCount("cw", W.CWSize))
    return false;
  if (Args.getOption("tw").empty())
    W.TWSize = W.CWSize;
  else if (!ReadCount("tw", W.TWSize))
    return false;
  if (!ReadCount("skip", W.SkipFactor) ||
      !readName(Args, "policy", parseTWPolicy, W.TWPolicy, Error) ||
      !readName(Args, "model", parseModelKind, Config.Model, Error) ||
      !readName(Args, "analyzer", parseAnalyzerKind, Config.TheAnalyzer,
                Error))
    return false;
  Config.AnalyzerParam =
      Args.getDouble("param", std::numeric_limits<double>::quiet_NaN());
  if (std::isnan(Config.AnalyzerParam)) {
    Error = "--param must be a number, got '" + Args.getOption("param") + "'";
    return false;
  }
  return true;
}

} // namespace opd

#endif // OPD_EXAMPLES_TOOLCOMMON_H
