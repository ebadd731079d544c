//===- serve/Protocol.h - Serving wire protocol codec -----------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the phase-detection server (docs/SERVING.md holds
/// the normative specification). Every message travels in one
/// length-prefixed frame:
///
///   u32 Length (little-endian) | u8 Kind | Payload[Length - 1]
///
/// Length counts the kind byte plus the payload, so the smallest legal
/// frame is 5 bytes on the wire. All multi-byte integers are
/// little-endian; doubles are IEEE-754 binary64 transported as u64 bits.
///
/// A session is: client sends Hello (detector configuration + site-space
/// size), server answers HelloAck or Error; client streams Elements
/// frames and finally Finish; server streams Transition events as the
/// detector decides them, optional Progress acknowledgements, and a
/// Finished summary. Errors are terminal: the server sends one Error
/// frame and closes.
///
/// This header is deliberately socket-free: encoders append frames to
/// byte vectors and FrameReader incrementally decodes frames from fed
/// byte chunks, so the codec is testable (and fuzzable) without any I/O.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_SERVE_PROTOCOL_H
#define OPD_SERVE_PROTOCOL_H

#include "core/DetectorConfig.h"
#include "trace/StateSequence.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace opd {

/// Handshake magic ("OPDS" read as a little-endian u32 of the bytes
/// 'S','D','P','O'); a client speaking anything else is rejected before
/// its configuration is even looked at.
constexpr uint32_t ServeMagic = 0x4F504453u;

/// Protocol version carried in the handshake; the server rejects
/// mismatches with ServeError::BadVersion.
constexpr uint16_t ServeVersion = 1;

/// Upper bound on one frame's Length field (kind byte + payload). Frames
/// claiming more are a protocol error (ServeError::Oversized) — the
/// receiver never buffers unbounded data for a corrupt length prefix.
constexpr uint32_t MaxFrameLen = (4u << 20) + 64;

/// Largest element count one Elements frame may carry (fits MaxFrameLen
/// with the count header).
constexpr uint32_t MaxElementsPerFrame = 1u << 20;

/// Frame kinds. Client-to-server kinds are low, server-to-client kinds
/// start at 16; the numbering is part of the wire format.
enum class MsgKind : uint8_t {
  Hello = 1,    ///< Client handshake: config + site-space size + flags.
  Elements = 2, ///< A batch of profile elements (dense site indices).
  Finish = 3,   ///< End of the client's stream; flushes the tail batch.
  HelloAck = 16,   ///< Handshake accepted: session id + batch size.
  Transition = 17, ///< P/T state flip at an element offset.
  Progress = 18,   ///< Flow-control ack: elements ingested so far.
  Finished = 19,   ///< End-of-stream summary; the session is complete.
  Error = 20,      ///< Terminal error; the server closes after sending.
};

/// Error codes carried by MsgKind::Error frames.
enum class ServeError : uint16_t {
  None = 0,       ///< Not an error (never sent).
  BadMagic = 1,   ///< Hello did not start with ServeMagic.
  BadVersion = 2, ///< Hello carried an unsupported protocol version.
  BadConfig = 3,  ///< DetectorConfig or NumSites rejected by validation.
  BadFrame = 4,   ///< Malformed frame (bad length, kind, or payload).
  Oversized = 5,  ///< Frame length exceeded MaxFrameLen.
  SiteRange = 6,  ///< An element index was >= the declared NumSites.
  BadState = 7,   ///< Frame kind illegal in the session's current state.
  Evicted = 8,    ///< Session closed by the idle-eviction timer.
  Shutdown = 9,   ///< Session closed by server drain (graceful stop).
  Overload = 10,  ///< Server at its concurrent-session limit.
};

/// Short stable mnemonic for a ServeError ("bad-config", "evicted", ...).
const char *serveErrorName(ServeError E);

/// Hello flag: include the anchored phase-start estimate in T->P
/// Transition events (lastPhaseStartEstimate(), pre-clamp).
constexpr uint16_t HelloWantAnchors = 1u << 0;

/// Hello flag: emit a Progress frame after every worker drain that
/// ingested elements, carrying the total ingested so far. Clients use it
/// for windowed flow control and latency measurement.
constexpr uint16_t HelloWantProgress = 1u << 1;

/// The client handshake: one detector instantiation request.
struct HelloMsg {
  /// HelloWant* flag bits.
  uint16_t Flags = 0;
  /// Site-space size: every streamed element must be < NumSites.
  SiteIndex NumSites = 0;
  /// The detector configuration to instantiate for this session.
  DetectorConfig Config;
};

/// The server's handshake acceptance.
struct HelloAckMsg {
  /// Server-assigned session id (unique within the server's lifetime).
  uint64_t SessionId = 0;
  /// The detector's decision granularity (the config's skip factor);
  /// state flips only ever happen at multiples of this many elements.
  uint32_t BatchSize = 0;
  /// Largest element count the server accepts per Elements frame.
  uint32_t MaxBatch = 0;
};

/// One P/T state flip. The new state covers element offsets starting at
/// Offset until the next Transition (or the end of the stream).
struct TransitionMsg {
  /// Element offset at which the new state begins.
  uint64_t Offset = 0;
  /// The state entered at Offset.
  PhaseState NewState = PhaseState::Transition;
  /// True when Anchor carries the detector's anchored phase-start
  /// estimate (T->P events under HelloWantAnchors).
  bool HasAnchor = false;
  /// The anchored estimate of where the phase actually began (pre-clamp;
  /// see DetectorRun::AnchoredPhases for the clamping rule).
  uint64_t Anchor = 0;
};

/// Flow-control acknowledgement.
struct ProgressMsg {
  /// Total elements the worker has ingested for this session so far —
  /// decided elements plus the (< batch size) remainder awaiting its
  /// batch to fill.
  uint64_t Ingested = 0;
};

/// End-of-stream summary, sent after the tail batch is decided.
struct FinishedMsg {
  /// Total elements processed (equals the count the client streamed).
  uint64_t Elements = 0;
  /// Number of Transition events emitted.
  uint64_t Transitions = 0;
  /// The detector's final state.
  PhaseState FinalState = PhaseState::Transition;
};

/// Terminal error report.
struct ErrorMsg {
  ServeError Code = ServeError::None;
  /// Human-readable diagnostic (may be empty).
  std::string Message;
};

/// \name Frame encoders
/// Each appends one complete frame to \p Out.
/// @{
void appendHello(std::vector<uint8_t> &Out, const HelloMsg &M);
void appendElements(std::vector<uint8_t> &Out, const SiteIndex *Elements,
                    size_t N);
void appendFinish(std::vector<uint8_t> &Out);
void appendHelloAck(std::vector<uint8_t> &Out, const HelloAckMsg &M);
void appendTransition(std::vector<uint8_t> &Out, const TransitionMsg &M);
void appendProgress(std::vector<uint8_t> &Out, const ProgressMsg &M);
void appendFinished(std::vector<uint8_t> &Out, const FinishedMsg &M);
void appendError(std::vector<uint8_t> &Out, ServeError Code,
                 const std::string &Message);
/// @}

/// One decoded frame, viewing the reader's internal buffer. Valid until
/// the next FrameReader call.
struct Frame {
  MsgKind Kind = MsgKind::Error;
  const uint8_t *Payload = nullptr;
  size_t Len = 0;
};

/// Incremental frame decoder: feed() raw bytes in arbitrary chunks, then
/// drain complete frames with next(). Corruption (zero or oversized
/// length prefix) is sticky — the stream cannot be resynchronized.
///
/// A socket reader can skip feed()'s copy: prepare(N) hands out room for
/// N bytes at the end of the buffer, the caller reads into it, and
/// commit(K) appends the first K of them to the stream.
class FrameReader {
public:
  /// Outcome of one next() call.
  enum class Status : uint8_t {
    Frame,    ///< \p Out holds the next complete frame.
    NeedMore, ///< No complete frame buffered; feed() more bytes.
    Corrupt,  ///< Stream corrupt (see corruptReason()); terminal.
  };

  /// Appends \p N raw bytes to the internal buffer.
  void feed(const uint8_t *Data, size_t N);

  /// Returns writable room for \p N bytes after the buffered ones. It
  /// stays valid until the next call on the reader, and invalidates the
  /// last Frame returned by next().
  uint8_t *prepare(size_t N);

  /// Appends the first \p N bytes of the last prepare() region
  /// (\p N at most the size prepared) to the buffered stream.
  void commit(size_t N);

  /// Decodes the next complete frame into \p Out.
  Status next(Frame &Out);

  /// Bytes buffered but not yet consumed by next().
  size_t buffered() const { return End - Pos; }

  /// Diagnostic for Status::Corrupt.
  const std::string &corruptReason() const { return Reason; }

  /// True when the corruption was an over-limit length prefix (mapped to
  /// ServeError::Oversized rather than BadFrame).
  bool corruptOversized() const { return OversizedLen; }

private:
  /// [Pos, End) is buffered input; [End, Buf.size()) is spare room that
  /// prepare() hands out without clearing it again.
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
  size_t End = 0;
  bool Corrupted = false;
  bool OversizedLen = false;
  std::string Reason;
};

/// \name Payload parsers
/// Each decodes one frame's payload; parsers returning bool yield false
/// on malformed payloads (wrong length, out-of-range enum).
/// @{

/// Decodes a Hello payload. Distinguishes the handshake-specific
/// failures: returns ServeError::None on success, BadMagic/BadVersion
/// for those fields, and BadFrame for any structural problem.
ServeError parseHello(const Frame &F, HelloMsg &M);

bool parseHelloAck(const Frame &F, HelloAckMsg &M);
bool parseTransition(const Frame &F, TransitionMsg &M);
bool parseProgress(const Frame &F, ProgressMsg &M);
bool parseFinished(const Frame &F, FinishedMsg &M);
bool parseError(const Frame &F, ErrorMsg &M);
/// @}

/// Validated view of an Elements payload; element words may be
/// unaligned, so they are read with element().
struct ElementsView {
  const uint8_t *Data = nullptr;
  uint32_t Count = 0;

  /// Element \p I as a dense site index.
  SiteIndex element(uint32_t I) const {
    uint32_t V;
    std::memcpy(&V, Data + size_t(I) * 4, 4);
    return V;
  }
};

/// Validates an Elements payload (count header vs frame length, count
/// bounds) without touching the element words.
bool parseElements(const Frame &F, ElementsView &View);

} // namespace opd

#endif // OPD_SERVE_PROTOCOL_H
