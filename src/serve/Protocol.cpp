//===- serve/Protocol.cpp - Serving wire protocol codec ---------------------===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

using namespace opd;

namespace {

//===----------------------------------------------------------------------===//
// Little-endian primitives
//===----------------------------------------------------------------------===//

void putU16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  putU32(Out, static_cast<uint32_t>(V));
  putU32(Out, static_cast<uint32_t>(V >> 32));
}

uint16_t getU16(const uint8_t *P) {
  return static_cast<uint16_t>(P[0] | (uint16_t(P[1]) << 8));
}

uint32_t getU32(const uint8_t *P) {
  return P[0] | (uint32_t(P[1]) << 8) | (uint32_t(P[2]) << 16) |
         (uint32_t(P[3]) << 24);
}

uint64_t getU64(const uint8_t *P) {
  return getU32(P) | (uint64_t(getU32(P + 4)) << 32);
}

/// A cursor over a frame payload with bounds-checked reads; Ok flips to
/// false on any overrun and stays false.
struct Cursor {
  const uint8_t *P;
  size_t Left;
  bool Ok = true;

  Cursor(const Frame &F) : P(F.Payload), Left(F.Len) {}

  bool take(size_t N) {
    if (!Ok || Left < N) {
      Ok = false;
      return false;
    }
    return true;
  }

  uint8_t u8() {
    if (!take(1))
      return 0;
    uint8_t V = *P;
    P += 1;
    Left -= 1;
    return V;
  }

  uint16_t u16() {
    if (!take(2))
      return 0;
    uint16_t V = getU16(P);
    P += 2;
    Left -= 2;
    return V;
  }

  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = getU32(P);
    P += 4;
    Left -= 4;
    return V;
  }

  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = getU64(P);
    P += 8;
    Left -= 8;
    return V;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  /// True when the payload was consumed exactly.
  bool done() const { return Ok && Left == 0; }
};

/// Opens a frame: appends the length prefix and kind byte, returning the
/// index of the length field so closeFrame can patch it.
size_t openFrame(std::vector<uint8_t> &Out, MsgKind Kind) {
  size_t LenAt = Out.size();
  putU32(Out, 0);
  Out.push_back(static_cast<uint8_t>(Kind));
  return LenAt;
}

/// Patches the length prefix of the frame opened at \p LenAt.
void closeFrame(std::vector<uint8_t> &Out, size_t LenAt) {
  uint32_t Len = static_cast<uint32_t>(Out.size() - LenAt - 4);
  Out[LenAt + 0] = static_cast<uint8_t>(Len);
  Out[LenAt + 1] = static_cast<uint8_t>(Len >> 8);
  Out[LenAt + 2] = static_cast<uint8_t>(Len >> 16);
  Out[LenAt + 3] = static_cast<uint8_t>(Len >> 24);
}

} // namespace

const char *opd::serveErrorName(ServeError E) {
  switch (E) {
  case ServeError::None:
    return "none";
  case ServeError::BadMagic:
    return "bad-magic";
  case ServeError::BadVersion:
    return "bad-version";
  case ServeError::BadConfig:
    return "bad-config";
  case ServeError::BadFrame:
    return "bad-frame";
  case ServeError::Oversized:
    return "oversized";
  case ServeError::SiteRange:
    return "site-range";
  case ServeError::BadState:
    return "bad-state";
  case ServeError::Evicted:
    return "evicted";
  case ServeError::Shutdown:
    return "shutdown";
  case ServeError::Overload:
    return "overload";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Encoders
//===----------------------------------------------------------------------===//

void opd::appendHello(std::vector<uint8_t> &Out, const HelloMsg &M) {
  size_t L = openFrame(Out, MsgKind::Hello);
  putU32(Out, ServeMagic);
  putU16(Out, ServeVersion);
  putU16(Out, M.Flags);
  putU32(Out, M.NumSites);
  const WindowConfig &W = M.Config.Window;
  putU32(Out, W.CWSize);
  putU32(Out, W.TWSize);
  putU32(Out, W.SkipFactor);
  Out.push_back(static_cast<uint8_t>(W.TWPolicy));
  Out.push_back(static_cast<uint8_t>(W.Anchor));
  Out.push_back(static_cast<uint8_t>(W.Resize));
  Out.push_back(static_cast<uint8_t>(M.Config.Model));
  Out.push_back(static_cast<uint8_t>(M.Config.TheAnalyzer));
  putU64(Out, std::bit_cast<uint64_t>(M.Config.AnalyzerParam));
  closeFrame(Out, L);
}

void opd::appendElements(std::vector<uint8_t> &Out, const SiteIndex *Elements,
                         size_t N) {
  assert(N > 0 && N <= MaxElementsPerFrame &&
         "element batch outside frame bounds");
  size_t L = openFrame(Out, MsgKind::Elements);
  putU32(Out, static_cast<uint32_t>(N));
  size_t At = Out.size();
  Out.resize(At + N * 4);
  // SiteIndex is a little-endian u32 on the wire; memcpy matches the
  // in-memory layout on every platform this project targets (the codec
  // reads them back with explicit shifts either way).
  std::memcpy(Out.data() + At, Elements, N * 4);
  closeFrame(Out, L);
}

void opd::appendFinish(std::vector<uint8_t> &Out) {
  size_t L = openFrame(Out, MsgKind::Finish);
  closeFrame(Out, L);
}

void opd::appendHelloAck(std::vector<uint8_t> &Out, const HelloAckMsg &M) {
  size_t L = openFrame(Out, MsgKind::HelloAck);
  putU64(Out, M.SessionId);
  putU32(Out, M.BatchSize);
  putU32(Out, M.MaxBatch);
  closeFrame(Out, L);
}

void opd::appendTransition(std::vector<uint8_t> &Out, const TransitionMsg &M) {
  size_t L = openFrame(Out, MsgKind::Transition);
  putU64(Out, M.Offset);
  Out.push_back(M.NewState == PhaseState::InPhase ? 1 : 0);
  Out.push_back(M.HasAnchor ? 1 : 0);
  putU64(Out, M.Anchor);
  closeFrame(Out, L);
}

void opd::appendProgress(std::vector<uint8_t> &Out, const ProgressMsg &M) {
  size_t L = openFrame(Out, MsgKind::Progress);
  putU64(Out, M.Ingested);
  closeFrame(Out, L);
}

void opd::appendFinished(std::vector<uint8_t> &Out, const FinishedMsg &M) {
  size_t L = openFrame(Out, MsgKind::Finished);
  putU64(Out, M.Elements);
  putU64(Out, M.Transitions);
  Out.push_back(M.FinalState == PhaseState::InPhase ? 1 : 0);
  closeFrame(Out, L);
}

void opd::appendError(std::vector<uint8_t> &Out, ServeError Code,
                      const std::string &Message) {
  size_t L = openFrame(Out, MsgKind::Error);
  putU16(Out, static_cast<uint16_t>(Code));
  putU16(Out, 0); // reserved
  putU32(Out, static_cast<uint32_t>(Message.size()));
  Out.insert(Out.end(), Message.begin(), Message.end());
  closeFrame(Out, L);
}

//===----------------------------------------------------------------------===//
// FrameReader
//===----------------------------------------------------------------------===//

void FrameReader::feed(const uint8_t *Data, size_t N) {
  if (N == 0)
    return;
  std::memcpy(prepare(N), Data, N);
  commit(N);
}

uint8_t *FrameReader::prepare(size_t N) {
  // Drop the consumed prefix when it is free (nothing live) or when the
  // room would not fit behind it: the live part is then at most one
  // partial frame, and the buffer stays at about one read plus one frame.
  if (Pos == End) {
    Pos = End = 0;
  } else if (Pos > 0 && End + N > Buf.size()) {
    std::memmove(Buf.data(), Buf.data() + Pos, End - Pos);
    End -= Pos;
    Pos = 0;
  }
  if (End + N > Buf.size())
    Buf.resize(std::max(End + N, 2 * Buf.size()));
  return Buf.data() + End;
}

void FrameReader::commit(size_t N) {
  assert(End + N <= Buf.size() && "commit past the prepared room");
  End += N;
}

FrameReader::Status FrameReader::next(Frame &Out) {
  if (Corrupted)
    return Status::Corrupt;
  size_t Avail = End - Pos;
  if (Avail < 4)
    return Status::NeedMore;
  uint32_t Len = getU32(Buf.data() + Pos);
  if (Len == 0) {
    Corrupted = true;
    Reason = "zero-length frame";
    return Status::Corrupt;
  }
  if (Len > MaxFrameLen) {
    Corrupted = true;
    OversizedLen = true;
    Reason = "frame length " + std::to_string(Len) + " exceeds limit " +
             std::to_string(MaxFrameLen);
    return Status::Corrupt;
  }
  if (Avail < 4 + size_t(Len))
    return Status::NeedMore;
  Out.Kind = static_cast<MsgKind>(Buf[Pos + 4]);
  Out.Payload = Buf.data() + Pos + 5;
  Out.Len = Len - 1;
  Pos += 4 + size_t(Len);
  return Status::Frame;
}

//===----------------------------------------------------------------------===//
// Parsers
//===----------------------------------------------------------------------===//

ServeError opd::parseHello(const Frame &F, HelloMsg &M) {
  Cursor C(F);
  uint32_t Magic = C.u32();
  uint16_t Version = C.u16();
  M.Flags = C.u16();
  M.NumSites = C.u32();
  WindowConfig &W = M.Config.Window;
  W.CWSize = C.u32();
  W.TWSize = C.u32();
  W.SkipFactor = C.u32();
  uint8_t TWPolicy = C.u8();
  uint8_t Anchor = C.u8();
  uint8_t Resize = C.u8();
  uint8_t Model = C.u8();
  uint8_t Analyzer = C.u8();
  M.Config.AnalyzerParam = C.f64();
  if (!C.done())
    return ServeError::BadFrame;
  if (Magic != ServeMagic)
    return ServeError::BadMagic;
  if (Version != ServeVersion)
    return ServeError::BadVersion;
  if (TWPolicy > 1 || Anchor > 1 || Resize > 1 || Model > 2 || Analyzer > 2)
    return ServeError::BadFrame;
  W.TWPolicy = static_cast<TWPolicyKind>(TWPolicy);
  W.Anchor = static_cast<AnchorKind>(Anchor);
  W.Resize = static_cast<ResizeKind>(Resize);
  M.Config.Model = static_cast<ModelKind>(Model);
  M.Config.TheAnalyzer = static_cast<AnalyzerKind>(Analyzer);
  return ServeError::None;
}

bool opd::parseHelloAck(const Frame &F, HelloAckMsg &M) {
  Cursor C(F);
  M.SessionId = C.u64();
  M.BatchSize = C.u32();
  M.MaxBatch = C.u32();
  return C.done();
}

bool opd::parseTransition(const Frame &F, TransitionMsg &M) {
  Cursor C(F);
  M.Offset = C.u64();
  uint8_t State = C.u8();
  uint8_t HasAnchor = C.u8();
  M.Anchor = C.u64();
  if (!C.done() || State > 1 || HasAnchor > 1)
    return false;
  M.NewState = State ? PhaseState::InPhase : PhaseState::Transition;
  M.HasAnchor = HasAnchor != 0;
  return true;
}

bool opd::parseProgress(const Frame &F, ProgressMsg &M) {
  Cursor C(F);
  M.Ingested = C.u64();
  return C.done();
}

bool opd::parseFinished(const Frame &F, FinishedMsg &M) {
  Cursor C(F);
  M.Elements = C.u64();
  M.Transitions = C.u64();
  uint8_t State = C.u8();
  if (!C.done() || State > 1)
    return false;
  M.FinalState = State ? PhaseState::InPhase : PhaseState::Transition;
  return true;
}

bool opd::parseError(const Frame &F, ErrorMsg &M) {
  Cursor C(F);
  uint16_t Code = C.u16();
  C.u16(); // reserved
  uint32_t MsgLen = C.u32();
  if (!C.Ok || C.Left != MsgLen)
    return false;
  if (Code > static_cast<uint16_t>(ServeError::Overload))
    return false;
  M.Code = static_cast<ServeError>(Code);
  M.Message.assign(reinterpret_cast<const char *>(C.P), MsgLen);
  return true;
}

bool opd::parseElements(const Frame &F, ElementsView &View) {
  if (F.Len < 4)
    return false;
  uint32_t Count = getU32(F.Payload);
  if (Count == 0 || Count > MaxElementsPerFrame)
    return false;
  if (F.Len != 4 + size_t(Count) * 4)
    return false;
  View.Data = F.Payload + 4;
  View.Count = Count;
  return true;
}
