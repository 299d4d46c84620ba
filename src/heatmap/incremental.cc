#include "heatmap/incremental.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/label_sink.h"
#include "heatmap/raster_sink.h"

namespace rnnhm {

IncrementalRasterStats RecomputeDirtyColumns(
    HeatmapGrid* grid, Metric metric, const std::vector<NnCircle>& circles,
    const InfluenceMeasure& measure, const DirtyRegionSet& dirty) {
  RNNHM_CHECK(grid != nullptr);
  RNNHM_CHECK_MSG(metric != Metric::kL1,
                  "kL1 sweeps the rotated frame; use a full rebuild");
  IncrementalRasterStats stats;
  stats.total_columns = grid->width();
  stats.total_rows = grid->height();
  if (dirty.empty()) return stats;

  const Rect& domain = grid->domain();
  const double dx = (domain.hi.x - domain.lo.x) / grid->width();
  const double dy = (domain.hi.y - domain.lo.y) / grid->height();
  const double background = measure.Evaluate({});

  // RunCrestSlabMetric derives the L2 event-grouping span from the full
  // input, so each slab groups simultaneous events like an unclipped sweep.
  RasterStripSink strip_raster(grid);
  RasterArcSink arc_raster(grid);
  CrestOptions crest_options;
  crest_options.strip_sink = &strip_raster;
  CrestL2Options l2_options;
  l2_options.arc_sink = &arc_raster;

  for (const DirtyRect& rect : dirty.Merged()) {
    // Columns/rows whose centers lie in the closed dirty rect. Only those
    // pixels can have changed; everything else keeps its retained value.
    // Clamp in double space first: a far-off-domain edit produces ordinals
    // beyond int range, and casting those is undefined behavior.
    const double width = grid->width();
    const double height = grid->height();
    const double lo_col = std::ceil((rect.x.lo - domain.lo.x) / dx - 0.5);
    const double hi_col = std::floor((rect.x.hi - domain.lo.x) / dx - 0.5);
    if (hi_col < 0.0 || lo_col > width - 1.0) continue;  // off-screen
    const int i0 = static_cast<int>(std::max(0.0, lo_col));
    const int i1 = static_cast<int>(std::min(width - 1.0, hi_col));
    if (i0 > i1) continue;  // between two column centers
    const double lo_row = std::ceil((rect.y.lo - domain.lo.y) / dy - 0.5);
    const double hi_row = std::floor((rect.y.hi - domain.lo.y) / dy - 0.5);
    if (hi_row < 0.0 || lo_row > height - 1.0) continue;  // off-screen
    const int j0 = static_cast<int>(std::max(0.0, lo_row));
    const int j1 = static_cast<int>(std::min(height - 1.0, hi_row));
    if (j0 > j1) continue;  // between two row centers

    // Reset the dirty sub-rect to the empty-set influence, then repaint it
    // with a sweep clipped in x to the pixel-aligned slab and row-windowed
    // in y to [j0, j1]. Slab edges sit half a pixel away from every column
    // center, so the half-open paint conventions put exactly the columns
    // i0..i1 inside the slab; the row window clips painting to exactly the
    // rows whose centers lie in the dirty y-interval.
    for (int j = j0; j <= j1; ++j) {
      double* row = grid->Row(j);
      std::fill(row + i0, row + i1 + 1, background);
    }
    strip_raster.SetRowWindow(j0, j1 + 1);
    arc_raster.SetRowWindow(j0, j1 + 1);
    const double clip_lo = domain.lo.x + i0 * dx;
    const double clip_hi = domain.lo.x + (i1 + 1) * dx;
    CountingSink labels;  // only the painted strips are needed
    const MetricSweepStats slab_stats =
        RunCrestSlabMetric(metric, circles, measure, &labels, clip_lo,
                           clip_hi, crest_options, l2_options);
    // Work counters sum over slabs; circle counts describe the whole input.
    stats.sweep.crest += slab_stats.crest;
    stats.sweep.l2 += slab_stats.l2;
    stats.sweep.crest.num_circles = slab_stats.crest.num_circles;
    stats.sweep.crest.num_skipped_circles =
        slab_stats.crest.num_skipped_circles;
    stats.sweep.l2.num_circles = slab_stats.l2.num_circles;
    stats.sweep.l2.num_skipped_circles = slab_stats.l2.num_skipped_circles;
    ++stats.dirty_slabs;
    stats.dirty_columns += i1 - i0 + 1;
    stats.dirty_pixels +=
        static_cast<int64_t>(i1 - i0 + 1) * (j1 - j0 + 1);
  }
  return stats;
}

}  // namespace rnnhm
