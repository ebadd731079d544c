//===- core/WindowedModel.cpp - CW/TW window machinery ----------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/WindowedModel.h"

#include "support/Format.h"

#include <algorithm>

using namespace opd;

const char *opd::twPolicyName(TWPolicyKind Kind) {
  switch (Kind) {
  case TWPolicyKind::Constant:
    return "constant";
  case TWPolicyKind::Adaptive:
    return "adaptive";
  }
  return "unknown";
}

const char *opd::anchorKindName(AnchorKind Kind) {
  switch (Kind) {
  case AnchorKind::RightmostNoisy:
    return "RN";
  case AnchorKind::LeftmostNonNoisy:
    return "LNN";
  }
  return "unknown";
}

const char *opd::resizeKindName(ResizeKind Kind) {
  switch (Kind) {
  case ResizeKind::Slide:
    return "slide";
  case ResizeKind::Move:
    return "move";
  }
  return "unknown";
}

bool opd::parseTWPolicy(std::string_view Text, TWPolicyKind &Kind) {
  return parseName(Text, {TWPolicyKind::Constant, TWPolicyKind::Adaptive},
                   twPolicyName, Kind);
}

bool opd::parseAnchorKind(std::string_view Text, AnchorKind &Kind) {
  return parseName(Text,
                   {AnchorKind::RightmostNoisy, AnchorKind::LeftmostNonNoisy},
                   anchorKindName, Kind);
}

bool opd::parseResizeKind(std::string_view Text, ResizeKind &Kind) {
  return parseName(Text, {ResizeKind::Slide, ResizeKind::Move},
                   resizeKindName, Kind);
}

WindowedModel::WindowedModel(const WindowConfig &Config, ModelKind Model,
                             SiteIndex NumSites, KernelValueProbe *Probe)
    : Config(Config), Model(Model),
      Kernel(Probe ? makeCheckedKernel(Model, NumSites, *Probe)
                   : makeKernel(Model, NumSites)) {
  assert(Config.CWSize > 0 && "current window must be nonempty");
  assert(Config.TWSize > 0 && "trailing window must be nonempty");
  assert(Config.SkipFactor > 0 && "skip factor must be positive");
}

void WindowedModel::consume(SiteIndex S) {
  ++GlobalConsumed;
  Buffer.push_back(S);

  if (CWLen < Config.CWSize) {
    // CW filling: initially, after a flush, or while refilling after a
    // Slide anchor.
    ++CWLen;
    Kernel->cwAdd(S);
    return;
  }

  // CW is full: its oldest element crosses into the TW.
  SiteIndex Y = Buffer[Head + TWLen];
  Kernel->cwReplace(S, Y);
  bool TWGrows = InPhaseGrowth || TWLen < Config.TWSize;
  if (TWGrows) {
    Kernel->twAdd(Y);
    ++TWLen;
  } else {
    SiteIndex Z = Buffer[Head];
    Kernel->twReplace(Y, Z);
    ++Head; // TW keeps its length; both windows shift right by one.
  }
  compactBuffer();
}

bool WindowedModel::windowsFull() const {
  if (PhaseOpen)
    return TWLen > 0 && CWLen > 0;
  return CWLen == Config.CWSize && TWLen >= Config.TWSize;
}

uint64_t WindowedModel::anchorPosition() const {
  assert(Head + TWLen + CWLen == Buffer.size() &&
         "window bookkeeping out of sync");
  if (Config.Anchor == AnchorKind::RightmostNoisy) {
    // One element right of the rightmost TW element absent from the CW;
    // the whole TW is stable when nothing is noisy.
    for (uint64_t I = TWLen; I != 0; --I)
      if (!Kernel->inCW(Buffer[Head + I - 1]))
        return I;
    return 0;
  }
  // LeftmostNonNoisy: the first TW element present in the CW; the phase
  // is empty (anchor at the CW edge) when the whole TW is noisy.
  for (uint64_t I = 0; I != TWLen; ++I)
    if (Kernel->inCW(Buffer[Head + I]))
      return I;
  return TWLen;
}

uint64_t WindowedModel::computeAnchorOffset() const {
  return offsetOfTWIndex(anchorPosition());
}

void WindowedModel::startPhase() {
  if (Config.TWPolicy == TWPolicyKind::Adaptive) {
    uint64_t A = anchorPosition();
    if (Config.Resize == ResizeKind::Slide) {
      uint64_t Take = std::min(A, CWLen);
      dropTWPrefix(A);
      // Extend the TW over the CW's oldest elements to restore its
      // length; the CW keeps being compared while it refills.
      for (uint64_t I = 0; I != Take; ++I) {
        SiteIndex X = Buffer[Head + TWLen];
        Kernel->moveCWToTW(X);
        ++TWLen;
        --CWLen;
      }
    } else {
      dropTWPrefix(A);
    }
    InPhaseGrowth = true;
  }
  PhaseOpen = true;
}

void WindowedModel::endPhase() {
  // Flush both windows; the last skipFactor elements seed the new CW
  // (Figure 2, rows F-G). The seed is clamped to the CW capacity: with a
  // skip factor above the CW size the CW could otherwise exceed its
  // capacity permanently and the windows would never refill.
  uint64_t Keep = std::min<uint64_t>(
      std::min<uint64_t>(Config.SkipFactor, Config.CWSize),
      TWLen + CWLen);
  // Slide the seed to the front in place — no temporary vector, and the
  // buffer keeps its capacity for the refill that follows.
  std::copy(Buffer.end() - static_cast<ptrdiff_t>(Keep), Buffer.end(),
            Buffer.begin());
  Buffer.resize(Keep);
  Head = 0;
  TWLen = 0;
  CWLen = Keep;
  Kernel->reset();
  for (SiteIndex S : Buffer)
    Kernel->cwAdd(S);
  InPhaseGrowth = false;
  PhaseOpen = false;
}

void WindowedModel::reset() {
  Buffer.clear();
  Head = 0;
  TWLen = CWLen = 0;
  InPhaseGrowth = PhaseOpen = false;
  GlobalConsumed = 0;
  Kernel->reset();
}

void WindowedModel::dropTWPrefix(uint64_t N) {
  assert(N <= TWLen && "dropping more than the TW holds");
  for (uint64_t I = 0; I != N; ++I)
    Kernel->twRemove(Buffer[Head + I]);
  Head += N;
  TWLen -= N;
}

void WindowedModel::compactBuffer() {
  if (Head > CompactionThreshold && Head * 2 > Buffer.size()) {
    Buffer.erase(Buffer.begin(),
                 Buffer.begin() + static_cast<ptrdiff_t>(Head));
    Head = 0;
  }
}
