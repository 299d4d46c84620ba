// Incremental heat-map maintenance: re-sweep only dirty slabs and splice
// the recomputed pixels into a retained grid.
//
// Exactness rests on the raster sinks' column-center sampling convention:
// a pixel's value depends only on the sweep elements live at its own
// center abscissa, never on where slabs were cut (RasterStripSink paints
// half-open spans, RasterArcSink samples both bounding arcs at each
// column center). A sweep clipped to any slab [lo, hi) therefore paints
// the columns whose centers fall in [lo, hi) bit-identically to a full
// sweep — so recomputing just the slabs covering a session edit's dirty
// x-intervals, after resetting those columns to the background influence,
// reproduces the from-scratch raster exactly.
//
// The 2D dirty-rect splice sharpens this to dirty *area*: each dirty rect
// is the bounding box of an edited circle's footprint, so every pixel
// whose value can differ lies inside some rect — in its x-range AND its
// y-range. Merging rects by x-overlap unions their y-intervals, which
// keeps the invariant: a pixel in a merged rect's x-slab but outside its
// y-union is outside every contributing footprint, hence unchanged, and
// retaining it untouched is exact. The clipped re-sweep still runs over
// full columns (the sweep line is vertical), but reset and repaint are
// both restricted to the dirty row window (the sinks' SetRowWindow), so
// splice cost scales with the dirty rectangle's area, not the column
// height.
//
// Supported for the two column-separable sweeps (kLInf squares, kL2
// disks). kL1 sweeps the pi/4-rotated frame, where a vertical slab of the
// output frame is not a vertical slab; its callers fall back to a full
// rebuild (see HeatmapSession::RasterIncremental).
#ifndef RNNHM_HEATMAP_INCREMENTAL_H_
#define RNNHM_HEATMAP_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "core/crest_parallel.h"
#include "core/dirty_interval.h"
#include "heatmap/heatmap.h"

namespace rnnhm {

/// Counters of one incremental recompute pass.
struct IncrementalRasterStats {
  int dirty_slabs = 0;     ///< merged dirty rects that touched the grid
  int dirty_columns = 0;   ///< pixel columns reset and recomputed
  int total_columns = 0;   ///< grid width (for dirty-fraction reporting)
  int total_rows = 0;      ///< grid height (for dirty-fraction reporting)
  /// Pixels actually reset and repainted (sum of dirty-rect areas in
  /// pixels). A full-height rect makes this dirty_columns * height; a
  /// y-localized edit drives it far lower.
  int64_t dirty_pixels = 0;
  MetricSweepStats sweep;  ///< summed counters of the clipped sweeps run
};

/// Recomputes in place every pixel of `grid` whose center lies in one of
/// `dirty`'s merged rects' pixel-aligned bounding slabs: those pixels are
/// reset to `measure.Evaluate({})` and repainted by sweeps of the
/// *current* `circles` clipped in x to the slab covering each rect, with
/// painting row-windowed to the rect's dirty rows. `metric` must be kLInf
/// or kL2 (the column-separable sweeps) and must match the metric the
/// circles were built under. Rects outside the grid are skipped
/// (off-screen edits change no pixel). Returns the pass counters; the
/// grid is untouched when `dirty` is empty.
IncrementalRasterStats RecomputeDirtyColumns(
    HeatmapGrid* grid, Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure, const DirtyRegionSet& dirty);

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_INCREMENTAL_H_
