//===- examples/kernel_check.cpp - Kernel value-range certifier CLI -----------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Certifies the kernel arithmetic of every configuration a sweep
/// specification enumerates (analysis/KernelBounds.h): no unsigned
/// wraparound in any count, product, or accumulator; minimal bit-widths
/// per quantity; and where the division-free threshold decision is
/// exact versus needing its fallback. Optional trace statistics
/// (--trace-len, --max-multiplicity, --num-sites) tighten the
/// intervals; without a trace length an adaptive TW is unbounded and
/// certification is refused with kernel-unbounded-tw.
///
///   kernel_check --preset paper --trace-len 62M
///   kernel_check --cw 4000000000 --models weighted --policies adaptive
///       --trace-len 8000M --json
///
/// Each monomorphic fast-path shape the spec enumerates is reported
/// once, from the certificate merged over all its configs; a finding
/// cites the config whose own certificate has the widest quantity.
///
/// Exit codes follow jp_lint: 0 clean (or notes only), 1 warnings,
/// 2 errors.
///
//===----------------------------------------------------------------------===//

#include "ToolCommon.h"
#include "analysis/KernelBounds.h"
#include "analysis/Lint.h"
#include "support/ArgParser.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

using namespace opd;

namespace {

/// How wide \p Cert's widest applicable quantity is, in bits; an
/// unbounded quantity ranks above every bound.
unsigned widestBits(const KernelCertificate &Cert) {
  unsigned Bits = 0;
  for (const QuantityBound &B : Cert.Bounds) {
    if (!B.Applicable)
      continue;
    if (!B.Bounded)
      return std::numeric_limits<unsigned>::max();
    Bits = std::max(Bits, B.Bits);
  }
  return Bits;
}

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("kernel_check",
                 "Certify kernel value ranges for a detector sweep.");
  addSweepSpecOptions(Args);
  Args.addOption("trace-len", "trace length bounding adaptive-TW growth "
                              "and site multiplicity (0 = unknown; K/M "
                              "suffix ok)",
                 "0");
  Args.addOption("max-multiplicity",
                 "maximum occurrences of any one site (0 = unknown)", "0");
  Args.addOption("num-sites", "number of distinct sites (0 = unknown)",
                 "0");
  Args.addFlag("json", "emit structured JSON diagnostics");
  if (!Args.parse(Argc, Argv))
    return Args.helpRequested() ? 0 : 2;

  SweepSpec Spec;
  bool RawCrossProduct = false;
  if (!buildSweepSpec(Args, Spec, RawCrossProduct))
    return 2;

  std::string Preset = Args.getOption("preset");
  std::string SpecName = Preset.empty() ? "custom" : Preset;

  TraceBounds Stats;
  Stats.TraceLen = parseSize(Args.getOption("trace-len"));
  Stats.MaxMultiplicity = parseSize(Args.getOption("max-multiplicity"));
  Stats.NumSites =
      static_cast<SiteIndex>(parseSize(Args.getOption("num-sites")));

  std::vector<DetectorConfig> Configs = RawCrossProduct
                                            ? enumerateCrossProduct(Spec)
                                            : enumerateConfigs(Spec);

  // One certificate per monomorphic fast-path shape, widened over every
  // enumerated config of that shape; diagnostics come from the merged
  // certificates, so each shape reports its worst case once instead of
  // once per sweep point. A merged certificate cites the config whose
  // own certificate is widest (the earliest one on a tie), picked before
  // merging widens the running worst case.
  std::vector<std::optional<KernelCertificate>> Merged(NumFastShapes);
  std::vector<unsigned> CitedBits(NumFastShapes, 0);
  size_t NumShapes = 0;
  for (const DetectorConfig &C : Configs) {
    KernelCertificate Cert = certifyKernel(C, Stats);
    size_t S = Cert.Shape;
    unsigned Bits = widestBits(Cert);
    if (!Merged[S]) {
      Merged[S] = Cert;
      CitedBits[S] = Bits;
      ++NumShapes;
      continue;
    }
    mergeCertificate(*Merged[S], Cert);
    if (Bits > CitedBits[S]) {
      Merged[S]->Config = C;
      CitedBits[S] = Bits;
    }
  }

  DiagnosticEngine Diags;
  for (const std::optional<KernelCertificate> &Cert : Merged)
    if (Cert)
      lintCertificate(*Cert, Diags);

  if (Args.getFlag("json")) {
    std::fputs(renderDiagnosticsJSON(Diags, SpecName).c_str(), stdout);
  } else {
    for (const Diagnostic &D : Diags.diagnostics())
      std::printf("%s:%s\n", SpecName.c_str(), D.render().c_str());
    if (Diags.empty())
      std::printf("%s: clean (%zu configs, %zu shapes certified)\n",
                  SpecName.c_str(), Configs.size(), NumShapes);
  }

  return exitCodeForSeverity(Diags.maxSeverity(), !Diags.empty());
}
