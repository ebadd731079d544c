//===- serve/DetectorCache.h - Reusable fast-detector pool ------*- C++ -*-===//
//
// Part of the OPD project: a reproduction of "Online Phase Detection
// Algorithms" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A monomorphic fast detector can be reconfigure()d to another config
/// of its shape, keeping its kernels' per-site arrays. Serving uses that
/// reconfigure-don't-reallocate economy across sessions: a session holds
/// its detector for as long as the client streams, and detectors return
/// to the pool when sessions close. DetectorCache is that pool — free
/// lists per (fastShapeIndex, numSites), so a server handling a
/// homogeneous fleet of sessions (the common multi-tenant case: many
/// clients streaming the same workload family) allocates kernel count
/// arrays only for the concurrency high-water mark, not once per
/// session.
///
//===----------------------------------------------------------------------===//

#ifndef OPD_SERVE_DETECTORCACHE_H
#define OPD_SERVE_DETECTORCACHE_H

#include "core/FastDetector.h"
#include "support/Parallel.h"

#include <array>
#include <memory>
#include <vector>

namespace opd {

/// Thread-safe pool of FastDetectorBase instances keyed by shape and
/// site-space size. acquire() prefers reconfiguring a pooled instance;
/// release() returns one for the next session of the same shape.
class DetectorCache {
public:
  /// \p MaxFreePerShape bounds each shape's free list; releases beyond
  /// the bound discard the instance instead of growing without limit.
  explicit DetectorCache(size_t MaxFreePerShape = 256)
      : MaxFreePerShape(MaxFreePerShape) {}

  /// Pool effectiveness counters (monotonic).
  struct Stats {
    /// acquire() calls satisfied by reconfiguring a pooled instance.
    uint64_t Hits = 0;
    /// acquire() calls that had to build a new instance.
    uint64_t Misses = 0;
    /// Instances returned to the pool.
    uint64_t Releases = 0;
    /// Instances discarded because their free list was full.
    uint64_t Discarded = 0;
  };

  /// Returns a detector for \p Config sized for \p NumSites — a pooled
  /// instance of the same shape and site count (reconfigured and reset
  /// for a fresh stream) when available, a new one otherwise.
  std::unique_ptr<FastDetectorBase> acquire(const DetectorConfig &Config,
                                            SiteIndex NumSites);

  /// Returns \p Detector (built for \p Config) to the pool. Passing the
  /// config the detector was last acquired/reconfigured for is required:
  /// it names the shape's free list.
  void release(const DetectorConfig &Config,
               std::unique_ptr<FastDetectorBase> Detector);

  /// Current counters.
  Stats stats() const;

private:
  size_t MaxFreePerShape;
  mutable Mutex M;
  std::array<std::vector<std::unique_ptr<FastDetectorBase>>, NumFastShapes>
      Free OPD_GUARDED_BY(M);
  Stats S OPD_GUARDED_BY(M);
};

} // namespace opd

#endif // OPD_SERVE_DETECTORCACHE_H
