//===- analysis/ConfigAnalysis.h - Config-space static analyzer -*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static analysis over the detector configuration space: partitioning a
/// sweep's cross product into provable equivalence classes (so the sweep
/// harness runs one representative per class, see ConfigCanon.h for the
/// rule catalogue) and linting DetectorConfigs/SweepSpecs for degenerate
/// parameter choices before a sweep wastes hours on them.
///
/// The `config_check` diagnostic catalogue, in the jp_lint style (stable
/// codes, severities; docs/ANALYSIS.md documents it in full):
///
///   code                      severity  meaning
///   ------------------------- --------  ------------------------------
///   empty-window              error     CW, TW, or skip factor is 0
///                                       (validateConfig's window rule)
///   empty-dimension           error     a spec dimension vector is
///                                       empty, annihilating the cross
///                                       product (warning when only the
///                                       TW-policy dimension is empty
///                                       and Fixed Interval is on)
///   analyzer-always-inphase   warning   analyzer provably reports P for
///                                       every similarity value
///   analyzer-always-transition warning  analyzer provably reports T for
///                                       every similarity value
///   hysteresis-no-exit        warning   derived exit threshold is 0: a
///                                       phase, once entered, never ends
///   invalid-analyzer-param    error     non-finite parameter or
///                                       negative hysteresis enter
///                                       threshold (validateConfig's
///                                       analyzer rule)
///   skip-exceeds-cw           warning   skip factor exceeds the CW size
///                                       (whole windows pass unevaluated)
///   duplicate-dimension-value warning   a dimension lists a value twice
///   window-exceeds-trace      warning   CW+TW exceeds the trace length
///                                       (needs --trace-len; the windows
///                                       never fill, the output is all-T)
///   skip-exceeds-trace        warning   skip factor exceeds the trace
///                                       length (needs --trace-len)
///   threshold-knife-edge      note      threshold exactly 1.0: P only
///                                       on exact window equality
///   average-nonpositive-delta note      average delta <= 0 demands
///                                       above-average similarity
///   fixed-interval-overlap    note      the Fixed-Interval point
///                                       duplicates an enumerated
///                                       (Constant, skip == CW) point
///   kernel-count-overflow     error     a window count provably exceeds
///                                       its uint32_t storage (backed by
///                                       the KernelBounds certifier)
///   kernel-product-overflow   error     a kernel product or accumulator
///                                       provably exceeds uint64_t
///   kernel-product-near-64bit warning   a kernel product's bound is
///                                       within 6 bits of the 64-bit
///                                       cliff
///   kernel-unbounded-tw       warning   adaptive TW growth cannot be
///                                       bounded without a trace length
///                                       (emitted by kernel_check only;
///                                       config_check filters it)
///
//===----------------------------------------------------------------------===//

#ifndef OPD_ANALYSIS_CONFIGANALYSIS_H
#define OPD_ANALYSIS_CONFIGANALYSIS_H

#include "analysis/ConfigCanon.h"
#include "core/SweepSpec.h"
#include "lang/Diagnostics.h"
#include "support/Table.h"

#include <cstdint>
#include <string>
#include <vector>

namespace opd {

/// One provable equivalence class of a configuration list.
struct ConfigClass {
  /// Index (into the partitioned list) of the member the harness runs.
  size_t Representative = 0;
  /// Indices of every member, in list order (includes Representative).
  std::vector<size_t> Members;
  /// The shared normal form.
  DetectorConfig Canonical;
  /// Union of the merge rules the members' canonicalizations applied, in
  /// first-seen order; {IdenticalConfig} for a multi-member class whose
  /// members were field-wise equal before any rewrite.
  std::vector<MergeRule> Rules;
};

/// An equivalence partition of a configuration list.
struct ConfigPartition {
  std::vector<ConfigClass> Classes;
  /// ClassOf[I] is the index into Classes of configuration I's class.
  std::vector<size_t> ClassOf;
};

/// Partitions \p Configs by canonical form. Deterministic: classes are
/// ordered by first member, members in list order, the representative is
/// the first member.
ConfigPartition partitionConfigs(const std::vector<DetectorConfig> &Configs,
                                 const ConfigCanonOptions &Options = {});

/// Knobs for the config/spec lint checks.
struct ConfigLintOptions {
  /// Trace length for the *-exceeds-trace checks; 0 (unknown) disables
  /// them.
  uint64_t TraceLen = 0;
};

/// Lints one configuration, recording findings in \p Diags (spec-level
/// location 0:0) in a deterministic order.
void lintConfig(const DetectorConfig &Config, const ConfigLintOptions &Options,
                DiagnosticEngine &Diags);

/// Lints a sweep spec: dimension-level checks (empty/duplicate
/// dimensions, fixed-interval overlap) plus the per-value checks of
/// lintConfig applied once per offending dimension value rather than
/// once per enumerated point.
void lintSweepSpec(const SweepSpec &Spec, const ConfigLintOptions &Options,
                   DiagnosticEngine &Diags);

/// A sweep spec's enumerated space and its equivalence partition.
struct SweepAnalysis {
  std::vector<DetectorConfig> Configs;
  ConfigPartition Partition;
  /// Runs an exhaustive sweep would execute (== Configs.size()).
  size_t NumConfigs = 0;
  /// Runs a pruned sweep executes (== Partition.Classes.size()).
  size_t NumClasses = 0;
  /// Runs pruning avoids (NumConfigs - NumClasses).
  size_t RunsPruned = 0;
  /// Per rule, the number of classes whose Rules contain it, indexed by
  /// static_cast<size_t>(MergeRule). A class citing several rules counts
  /// toward each.
  std::vector<size_t> ClassesByRule;
  /// Shared-scan execution plan over the runs a pruned sweep executes
  /// (the class representatives): trace passes the shared-scan engine
  /// makes (core/SharedScan.h groups by window-kernel shape), and the
  /// member count of the biggest group — the best-case amortization.
  size_t NumSharedGroups = 0;
  size_t LargestSharedGroup = 0;
};

/// Enumerates \p Spec with enumerateCrossProduct() and partitions the
/// result under \p Options.
SweepAnalysis analyzeSweep(const SweepSpec &Spec,
                           const ConfigCanonOptions &Options = {});

/// Renders the partition's rule breakdown as a table: rule, classes
/// citing it, and the one-line justification.
Table sweepPlanTable(const SweepAnalysis &Analysis,
                     const std::string &Title = "Sweep pruning plan");

/// Renders \p Analysis as a JSON object for `config_check --json` /
/// `sweep_tool --plan --json`.
std::string renderSweepAnalysisJSON(const SweepAnalysis &Analysis,
                                    const std::string &SpecName);

} // namespace opd

#endif // OPD_ANALYSIS_CONFIGANALYSIS_H
