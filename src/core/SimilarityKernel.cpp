//===- core/SimilarityKernel.cpp - Window similarity kernels ----------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/SimilarityKernel.h"

#include "support/Format.h"

#include <algorithm>

using namespace opd;

const char *opd::modelKindName(ModelKind Kind) {
  switch (Kind) {
  case ModelKind::UnweightedSet:
    return "unweighted";
  case ModelKind::WeightedSet:
    return "weighted";
  case ModelKind::ManhattanBBV:
    return "manhattan";
  }
  return "unknown";
}

bool opd::parseModelKind(std::string_view Text, ModelKind &Kind) {
  return parseName(Text,
                   {ModelKind::UnweightedSet, ModelKind::WeightedSet,
                    ModelKind::ManhattanBBV},
                   modelKindName, Kind);
}

const char *opd::kernelQuantityName(KernelQuantity Q) {
  switch (Q) {
  case KernelQuantity::CWCount:
    return "cw-count";
  case KernelQuantity::TWCount:
    return "tw-count";
  case KernelQuantity::CWTotal:
    return "cw-total";
  case KernelQuantity::TWTotal:
    return "tw-total";
  case KernelQuantity::CWDistinct:
    return "cw-distinct";
  case KernelQuantity::BothDistinct:
    return "both-distinct";
  case KernelQuantity::ProductCWTW:
    return "product-cw-tw";
  case KernelQuantity::ProductTWCW:
    return "product-tw-cw";
  case KernelQuantity::MinSum:
    return "min-sum";
  }
  return "unknown";
}

SimilarityKernel::~SimilarityKernel() = default;

void SimilarityKernel::reset() {
  // O(distinct sites touched): only sites on the touched list can hold a
  // nonzero count, so zeroing exactly those is a full reset.
  for (SiteIndex S : TouchedSites) {
    CWCounts[S] = 0;
    TWCounts[S] = 0;
    SiteTouched[S] = 0;
  }
  TouchedSites.clear();
  NCW = NTW = 0;
}

void SimilarityKernel::seedCountsForTest(const std::vector<uint32_t> &CW,
                                         const std::vector<uint32_t> &TW) {
  assert(CW.size() == CWCounts.size() && TW.size() == TWCounts.size() &&
         "seed vectors must cover every site");
  reset();
  for (SiteIndex S = 0, E = numSites(); S != E; ++S) {
    CWCounts[S] = CW[S];
    TWCounts[S] = TW[S];
    NCW += CW[S];
    NTW += TW[S];
    if (CW[S] != 0 || TW[S] != 0)
      touch(S);
  }
}

std::unique_ptr<SimilarityKernel> opd::makeKernel(ModelKind Kind,
                                                  SiteIndex NumSites) {
  switch (Kind) {
  case ModelKind::UnweightedSet:
    return std::make_unique<UnweightedSetKernel>(NumSites);
  case ModelKind::WeightedSet:
    return std::make_unique<WeightedSetKernel>(NumSites);
  case ModelKind::ManhattanBBV:
    return std::make_unique<ManhattanKernel>(NumSites);
  }
  return nullptr;
}

std::unique_ptr<SimilarityKernel>
opd::makeCheckedKernel(ModelKind Kind, SiteIndex NumSites,
                       KernelValueProbe &Probe) {
  CheckedKernelArith Arith(Probe);
  switch (Kind) {
  case ModelKind::UnweightedSet:
    return std::make_unique<UnweightedSetKernelT<CheckedKernelArith>>(
        NumSites, Arith);
  case ModelKind::WeightedSet:
    return std::make_unique<WeightedSetKernelT<CheckedKernelArith>>(
        NumSites, Arith);
  case ModelKind::ManhattanBBV:
    return std::make_unique<ManhattanKernelT<CheckedKernelArith>>(NumSites,
                                                                  Arith);
  }
  return nullptr;
}
