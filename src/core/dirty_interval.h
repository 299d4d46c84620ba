// Dirty x-interval tracking for incremental re-sweeps.
//
// The paper frames heat maps as an interactive exploration tool: a session
// edit (move a client, add a facility, ...) perturbs a handful of
// NN-circles, yet a from-scratch Rebuild re-sweeps everything. Because the
// influence at a point p can only change when p's membership in one of the
// *edited* circles changes, the x-extents of the edited circles' old and
// new footprints bound every pixel whose value may differ. A
// DirtyRegionSet accumulates those footprints' bounding rects across
// edits; the incremental rasterizer (heatmap/incremental.h) then re-sweeps
// only the slabs they cover and splices the recomputed pixels into the
// retained grid.
#ifndef RNNHM_CORE_DIRTY_INTERVAL_H_
#define RNNHM_CORE_DIRTY_INTERVAL_H_

#include <cstddef>
#include <vector>

#include "geom/geometry.h"

namespace rnnhm {

/// Closed interval [lo, hi] of x-coordinates (lo <= hi).
struct DirtyInterval {
  double lo;
  double hi;

  friend bool operator==(const DirtyInterval&,
                         const DirtyInterval&) = default;
};

/// Closed axis-aligned dirty rectangle: the 2D footprint of an edit.
struct DirtyRect {
  DirtyInterval x;
  DirtyInterval y;

  friend bool operator==(const DirtyRect&, const DirtyRect&) = default;
};

/// Accumulates closed dirty rectangles across session edits and exposes
/// them merged: sorted ascending and pairwise disjoint in x, with rects
/// whose x-intervals overlap or touch coalesced into one — x stays the
/// splice's slab axis — and their y-intervals unioned (a conservative
/// bound; see heatmap/incremental.h for why retaining pixels outside the
/// y-union is exact). Rects are merged lazily: Add is O(1) amortized,
/// Merged() is O(b log b) for b pending rects.
class DirtyRegionSet {
 public:
  /// Marks [x_lo, x_hi] x [y_lo, y_hi] dirty. Requires lo <= hi on both
  /// axes (degenerate point footprints are allowed).
  void Add(double x_lo, double x_hi, double y_lo, double y_hi);

  /// Marks a circle footprint's bounding box dirty.
  void AddRect(const Rect& bounds);

  /// True iff nothing has been added since construction / last Clear.
  bool empty() const { return rects_.empty(); }

  /// Number of rects added since the last Clear (before merging).
  size_t num_pending() const { return rects_.size(); }

  /// The merged view: x-sorted, pairwise disjoint in x, y-unioned per
  /// x-group. Idempotent; Add may follow.
  const std::vector<DirtyRect>& Merged() const;

  /// Forgets all accumulated rects (after a rebuild consumed them).
  void Clear();

 private:
  // Mutable so Merged() can normalize in place while staying const to
  // callers that only read the merged view.
  mutable std::vector<DirtyRect> rects_;
  mutable bool merged_ = true;
};

}  // namespace rnnhm

#endif  // RNNHM_CORE_DIRTY_INTERVAL_H_
