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
/// These helpers parse text only. Whether a parsed config is legal is
/// decided by validateConfig() (core/DetectorConfig.h): readDetectorConfig
/// and sweep_tool reject what it rejects, and config_check reports its
/// verdict as the empty-window and invalid-analyzer-param errors.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_EXAMPLES_TOOLCOMMON_H
#define OPD_EXAMPLES_TOOLCOMMON_H

#include "core/SweepSpec.h"
#include "support/ArgParser.h"

#include <algorithm>
#include <cctype>
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

/// Reads the comma-separated sizes of option \p Flag ("500,10K") into
/// \p Out with the rule readDetectorConfig applies to one size
/// (readSize in support/ArgParser.h): each item must be a positive
/// integer of at most UINT32_MAX, and there must be one (an empty
/// dimension empties the whole sweep). Prints a one-line error naming
/// the flag and the item otherwise.
inline bool readSizeList(const ArgParser &Args, const char *Flag,
                         std::vector<uint32_t> &Out) {
  Out.clear();
  std::vector<std::string> Items = splitList(Args.getOption(Flag));
  if (Items.empty()) {
    std::fprintf(stderr, "error: --%s must list at least one size\n", Flag);
    return false;
  }
  for (const std::string &Item : Items) {
    uint64_t Value = 0;
    if (!readSize(Item, 1, std::numeric_limits<uint32_t>::max(), Value)) {
      std::fprintf(stderr,
                   "error: --%s item '%s' must be a positive integer of at "
                   "most %u\n",
                   Flag, Item.c_str(), std::numeric_limits<uint32_t>::max());
      return false;
    }
    Out.push_back(static_cast<uint32_t>(Value));
  }
  return true;
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
  Args.addOption("anchors",
                 "anchor policies: rn,lnn (multiply every policy; "
                 "--prune merges the duplicates)",
                 "rn");
  Args.addOption("resizes",
                 "TW resize policies: slide,move (multiply every policy; "
                 "--prune merges the duplicates)",
                 "slide");
}

/// Builds the SweepSpec the parsed options describe, for
/// enumerateCrossProduct(). Returns false after printing an error to
/// stderr.
inline bool buildSweepSpec(const ArgParser &Args, SweepSpec &Spec) {
  std::string Preset = Args.getOption("preset");
  if (!Preset.empty()) {
    const std::vector<std::string> &Names = benchSweepNames();
    if (std::find(Names.begin(), Names.end(), Preset) == Names.end()) {
      std::fprintf(stderr, "error: unknown preset '%s'\n", Preset.c_str());
      return false;
    }
    Spec = benchSweepSpec(Preset, paperAnalyzers());
    return true;
  }

  Spec = SweepSpec();
  if (!readSizeList(Args, "cw", Spec.CWSizes) ||
      !readSizeList(Args, "tw-factors", Spec.TWFactors) ||
      !readSizeList(Args, "skips", Spec.SkipFactors) ||
      !parseNames(splitList(Args.getOption("models")), "model",
                  parseModelKind, Spec.Models))
    return false;
  // Each TW size, CW times a factor, is a window size too.
  for (uint32_t CW : Spec.CWSizes)
    for (uint32_t Factor : Spec.TWFactors)
      if (uint64_t(CW) * Factor > std::numeric_limits<uint32_t>::max()) {
        std::fprintf(stderr,
                     "error: TW size %u * %u = %llu must be at most %u\n",
                     CW, Factor,
                     static_cast<unsigned long long>(uint64_t(CW) * Factor),
                     std::numeric_limits<uint32_t>::max());
        return false;
      }

  Spec.Analyzers.clear();
  for (const std::string &A : splitList(Args.getOption("analyzers"))) {
    // The parameter after the kind letter must be one finite number,
    // with nothing before or after it.
    char *End = nullptr;
    double Param = 0.0;
    if (A.size() >= 2 && !std::isspace(static_cast<unsigned char>(A[1])))
      Param = std::strtod(A.c_str() + 1, &End);
    if (End != A.c_str() + A.size() || !std::isfinite(Param)) {
      std::fprintf(stderr,
                   "error: bad analyzer spec '%s': the parameter must be a "
                   "finite number\n",
                   A.c_str());
      return false;
    }
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
/// zero or non-numeric size or skip, an unknown name, or a config
/// validateConfig() rejects.
inline bool readDetectorConfig(const ArgParser &Args, DetectorConfig &Config,
                               std::string &Error) {
  WindowConfig &W = Config.Window;
  if (!Args.getSize("cw", W.CWSize, Error))
    return false;
  if (Args.getOption("tw").empty())
    W.TWSize = W.CWSize;
  else if (!Args.getSize("tw", W.TWSize, Error))
    return false;
  if (!Args.getSize("skip", W.SkipFactor, Error) ||
      !readName(Args, "policy", parseTWPolicy, W.TWPolicy, Error) ||
      !readName(Args, "model", parseModelKind, Config.Model, Error) ||
      !readName(Args, "analyzer", parseAnalyzerKind, Config.TheAnalyzer,
                Error))
    return false;
  // A non-numeric --param reads as NaN, which validateConfig rejects.
  Config.AnalyzerParam =
      Args.getDouble("param", std::numeric_limits<double>::quiet_NaN());
  Error = validateConfig(Config);
  return Error.empty();
}

} // namespace opd

#endif // OPD_EXAMPLES_TOOLCOMMON_H
