//===- serve/Session.h - One client session's state machine -----*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ServeSession is the socket-free heart of the server: it consumes raw
/// protocol bytes (feed, or prepare/commit to read into its own frame
/// buffer), buffers decoded profile elements, streams them through a
/// pooled FastPhaseDetector in skip-factor batches (pump), and produces
/// the response byte stream (takeOutput). The server wires sockets to
/// these calls; tests drive sessions directly with byte buffers and hold
/// the streamed output equivalent to offline runDetector() on the same
/// element sequence.
///
/// Equivalence contract: for any element sequence E delivered over any
/// chunking of Elements frames followed by Finish, the Transition events
/// (offsets, states, anchors) and Finished summary a session emits are
/// exactly the StateSequence runs and anchored starts runDetector()
/// computes for E with the same DetectorConfig — full batches are
/// decided as they fill, and the sub-batch tail is decided only at
/// Finish, matching consumeTrace()'s trailing short batch.
///
/// The session is not thread-safe: one owning thread calls
/// feed/pump/takeOutput (the server's shard that accepted the
/// connection).
///
//===----------------------------------------------------------------------===//

#ifndef OPD_SERVE_SESSION_H
#define OPD_SERVE_SESSION_H

#include "serve/DetectorCache.h"
#include "serve/Protocol.h"

#include <limits>

namespace opd {

/// Server-side validation bounds for incoming sessions; a Hello outside
/// them is rejected with ServeError::BadConfig before any allocation.
struct ServeLimits {
  /// Largest accepted CW or TW size.
  uint32_t MaxWindow = 1u << 20;
  /// Largest accepted skip factor.
  uint32_t MaxSkip = 1u << 20;
  /// Largest accepted site-space size (kernel arrays are O(NumSites)).
  SiteIndex MaxSites = 1u << 22;
  /// Ingress high watermark in buffered elements: at or above it
  /// ingressSaturated() turns on and the server stops reading the
  /// session's socket until a pump drains below half of it.
  size_t MaxPendingElements = 1u << 20;
};

/// One client session: protocol decoding, element buffering, detector
/// streaming, and response encoding. Externally synchronized (see the
/// file comment).
class ServeSession {
public:
  /// Lifecycle states.
  enum class State : uint8_t {
    AwaitHello, ///< Waiting for the handshake frame.
    Streaming,  ///< Handshake accepted; accepting Elements/Finish.
    Draining,   ///< Finish received; tail not yet decided by pump().
    Done,       ///< Finished summary emitted; session complete.
    Failed,     ///< Terminal error emitted; see error().
  };

  /// Creates session \p Id drawing detectors from \p Cache under
  /// \p Limits. \p Cache must outlive the session.
  ServeSession(uint64_t Id, const ServeLimits &Limits, DetectorCache &Cache);
  ~ServeSession();

  ServeSession(const ServeSession &) = delete;
  ServeSession &operator=(const ServeSession &) = delete;

  /// Consumes \p N raw bytes from the client: decodes frames, performs
  /// the handshake, buffers elements, records Finish. Returns false once
  /// the session is terminal — Failed (the terminal Error frame is
  /// already in the output buffer) or Done (the Finished summary was
  /// emitted) — and further bytes are ignored rather than parsed, so a
  /// completed session never regresses to Failed on trailing input.
  bool feed(const uint8_t *Data, size_t N);

  /// Returns room for \p N raw client bytes inside the session's frame
  /// buffer, so a socket can be read without a staging copy. Valid until
  /// the next call on the session.
  uint8_t *prepare(size_t N) { return Reader.prepare(N); }

  /// Consumes the first \p N bytes written into the last prepare()
  /// region; otherwise exactly feed() of those bytes.
  bool commit(size_t N);

  /// Streams buffered elements through the detector: decides every full
  /// skip-factor batch (at most \p MaxElements per call, rounded up to
  /// whole batches), emits Transition events, and — once Finish was
  /// received and the buffer is exhausted — decides the sub-batch tail
  /// and emits the Finished summary. Emits one Progress frame per call
  /// that ingested elements when the client asked for progress. Returns
  /// true while more buffered work remains.
  bool pump(size_t MaxElements = std::numeric_limits<size_t>::max());

  /// Terminates the session from the server side (idle eviction, drain
  /// on shutdown): decides all buffered full batches so every decidable
  /// transition is delivered, then emits Error \p Code and fails the
  /// session. The sub-batch tail stays undecided — only the client's
  /// Finish may flush it. No-op when the session is already terminal.
  void shutdown(ServeError Code);

  /// Session id assigned at construction.
  uint64_t id() const { return Id; }

  /// Current lifecycle state.
  State state() const { return St; }

  /// True when the session ended in an error.
  bool failed() const { return St == State::Failed; }

  /// True when the session completed normally (Finished emitted).
  bool done() const { return St == State::Done; }

  /// The terminal error code (ServeError::None unless failed()).
  ServeError error() const { return Err; }

  /// Buffered elements not yet streamed through the detector.
  size_t pendingElements() const { return Pending.size() - PendingHead; }

  /// True while the ingress buffer is at or above the high watermark;
  /// the server stops reading this session's socket until pump() drains
  /// below half the watermark (backpressure).
  bool ingressSaturated() const {
    return pendingElements() >= Limits.MaxPendingElements;
  }

  /// True once a pump() drained the backlog below the low watermark;
  /// meaningful for re-enabling reads after ingressSaturated().
  bool ingressRelieved() const {
    return pendingElements() < Limits.MaxPendingElements / 2;
  }

  /// True when response bytes await takeOutput().
  bool hasOutput() const { return !Out.empty(); }

  /// Appends the buffered response bytes to \p Sink and clears them.
  void takeOutput(std::vector<uint8_t> &Sink);

  /// Elements decided by the detector so far.
  uint64_t elementsProcessed() const { return Consumed; }

  /// Transition events emitted so far.
  uint64_t transitions() const { return Transitions; }

  /// The negotiated configuration (valid once Streaming).
  const DetectorConfig &config() const { return Config; }

private:
  /// Decodes and handles every complete buffered frame; feed() and
  /// commit() share it.
  bool decodeFrames();

  /// Handles one decoded frame; returns false when it failed the
  /// session.
  bool handleFrame(const Frame &F);

  /// Range-checks an Elements payload and appends it to Pending.
  bool handleElements(const ElementsView &View);

  /// Accepts or rejects the handshake.
  bool handleHello(const Frame &F);

  /// Validates \p M against Limits; fills \p Why on rejection.
  bool validateHello(const HelloMsg &M, std::string &Why) const;

  /// Emits the terminal Error frame and moves to Failed.
  void fail(ServeError Code, const std::string &Message);

  /// Decides one batch of \p N elements starting at offset Consumed,
  /// emitting a Transition on a state flip.
  void decideBatch(const SiteIndex *Elements, size_t N);

  /// Drops the consumed prefix of the pending buffer when it outweighs
  /// the live remainder.
  void compactPending();

  /// Returns the detector to the cache (idempotent).
  void releaseDetector();

  uint64_t Id;
  ServeLimits Limits;
  DetectorCache &Cache;

  State St = State::AwaitHello;
  ServeError Err = ServeError::None;

  FrameReader Reader;
  DetectorConfig Config;
  SiteIndex NumSites = 0;
  uint16_t Flags = 0;
  std::unique_ptr<FastDetectorBase> Detector;

  /// Ingress element buffer; [PendingHead, Pending.size()) is live.
  std::vector<SiteIndex> Pending;
  size_t PendingHead = 0;
  /// Finish frame received; the tail may be decided.
  bool FinishSeen = false;

  /// Detector streaming state.
  PhaseState Last = PhaseState::Transition;
  uint64_t Consumed = 0;
  uint64_t Ingested = 0;
  uint64_t AckedIngest = 0;
  uint64_t Transitions = 0;

  /// Encoded response bytes awaiting the socket.
  std::vector<uint8_t> Out;
};

} // namespace opd

#endif // OPD_SERVE_SESSION_H
