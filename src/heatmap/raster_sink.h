// Sink implementations that paint exact heat spans into a HeatmapGrid.
//
// Both sinks precompute their grid's pixel-center tables (SoA layout, see
// heatmap/raster_kernels.h) at construction: a span's pixel range is two
// PixelAxis::LowerBound calls instead of a per-pixel center recomputation
// with break/continue, and the arc sink batch-evaluates both bounding arcs
// over whole column runs through the SIMD ArcYAtColumns kernel. Painted
// pixels are exactly those whose centers fall in the half-open span — the
// same sampling convention as always, so rasters stay independent of how
// strips were cut.
//
// Fragment painting (src/tile/): both sinks also accept explicit GLOBAL
// pixel axes plus a half-open global index window and an origin. Spans are
// converted to indices through the global center tables — the exact tables
// the untiled sink would use — then clamped to the window and stored at
// (i - origin_col, j - origin_row). Because index conversion never sees the
// fragment's own geometry, a fragment raster is bit-identical to the
// corresponding sub-rectangle of the untiled raster by construction.
//
// Both sinks override Samples with the same column-window test their paint
// functions apply, so the sweeps walk the line status only for strips that
// contain a window column center — about one strip per column instead of
// one per event — and the painted grid cannot change.
#ifndef RNNHM_HEATMAP_RASTER_SINK_H_
#define RNNHM_HEATMAP_RASTER_SINK_H_

#include <algorithm>

#include "core/crest_l2.h"
#include "core/label_sink.h"
#include "heatmap/heatmap.h"
#include "heatmap/raster_kernels.h"

namespace rnnhm {

/// The pixel geometry both raster sinks share: the GLOBAL center tables,
/// the half-open global index window painted, and the storage origin.
class RasterWindow {
 public:
  /// Restricts painting to rows [row_lo, row_hi) — the dirty-rect splice's
  /// y-clip (heatmap/incremental.h). Rows outside the window keep their
  /// retained values. Defaults to the construction window (the full grid
  /// for the plain constructor); clamped to it. Set before the sweep runs,
  /// never concurrently with it.
  void SetRowWindow(int row_lo, int row_hi);

 protected:
  explicit RasterWindow(HeatmapGrid* grid);
  RasterWindow(HeatmapGrid* grid, const PixelAxis& cols,
               const PixelAxis& rows, int col_lo, int col_hi, int row_lo,
               int row_hi, int origin_col, int origin_row);

  /// Window columns whose centers lie in [x0, x1) are
  /// [ColumnLo(x0), ColumnHi(x1)); a strip for which that range is empty
  /// paints nothing, which is the whole of both sinks' Samples test.
  int ColumnLo(double x0) const {
    return std::max(cols_.LowerBound(x0), col_lo_);
  }
  int ColumnHi(double x1) const {
    return std::min(cols_.LowerBound(x1), col_hi_);
  }

  HeatmapGrid* grid_;
  PixelAxis cols_;
  PixelAxis rows_;
  int col_lo_;
  int col_hi_;
  int row_lo_;
  int row_hi_;
  int win_row_lo_;  // construction row window; SetRowWindow clamps to it
  int win_row_hi_;
  int origin_col_;
  int origin_row_;
};

/// Paints sweep strips into a grid: a pixel receives a span's influence iff
/// its center lies inside the span (half-open on the high edges so adjacent
/// spans never double-paint).
class RasterStripSink : public StripSink, public RasterWindow {
 public:
  explicit RasterStripSink(HeatmapGrid* grid) : RasterWindow(grid) {}

  /// Fragment-painting constructor: converts spans to pixel indices through
  /// the GLOBAL axes `cols`/`rows` (the untiled grid's center tables),
  /// paints only global indices in [col_lo, col_hi) x [row_lo, row_hi), and
  /// stores global pixel (i, j) at grid cell (i - origin_col,
  /// j - origin_row). `grid` must cover the window: requires
  /// origin_col <= col_lo, col_hi - origin_col <= grid->width() (same for
  /// rows). The plain constructor is the special case window = full grid,
  /// origin = (0, 0).
  RasterStripSink(HeatmapGrid* grid, const PixelAxis& cols,
                  const PixelAxis& rows, int col_lo, int col_hi, int row_lo,
                  int row_hi, int origin_col, int origin_row)
      : RasterWindow(grid, cols, rows, col_lo, col_hi, row_lo, row_hi,
                     origin_col, origin_row) {}

  void OnSpan(double x0, double x1, double y0, double y1,
              double influence) override;

  /// True iff a window column center lies in [x0, x1) — exactly when
  /// OnSpan could paint anything for the strip.
  bool Samples(double x0, double x1) const override {
    return ColumnLo(x0) < ColumnHi(x1);
  }
};

/// Paints the L2 sweep's curved strips into a grid. For every pixel column
/// whose center abscissa lies in the strip, both bounding arcs are sampled
/// at exactly that abscissa and the pixels whose center ordinate falls in
/// [lower, upper) are painted. Because each pixel's value depends only on
/// the arcs live at its own center — never on where the strip was cut —
/// slab-decomposed sweeps paint bit-identical grids, and shards writing
/// through one shared sink touch disjoint columns (strips of different
/// slabs never overlap in x). Arc ordinates are evaluated in fixed-size
/// column batches through ArcYAtColumns; the batch buffers live on the
/// stack, so concurrent shard calls share no mutable sink state.
class RasterArcSink : public ArcStripSink, public RasterWindow {
 public:
  explicit RasterArcSink(HeatmapGrid* grid) : RasterWindow(grid) {}

  /// Fragment-painting constructor; see RasterStripSink. ArcYAtColumns is
  /// pointwise (out[k] depends only on xs[k]), so the shifted batch
  /// boundaries a clamped column range produces cannot change any painted
  /// value.
  RasterArcSink(HeatmapGrid* grid, const PixelAxis& cols,
                const PixelAxis& rows, int col_lo, int col_hi, int row_lo,
                int row_hi, int origin_col, int origin_row)
      : RasterWindow(grid, cols, rows, col_lo, col_hi, row_lo, row_hi,
                     origin_col, origin_row) {}

  void OnArcStrip(double x0, double x1, const ArcGeom& lower,
                  const ArcGeom& upper, double influence) override;

  /// True iff a window column center lies in [x0, x1); see
  /// RasterStripSink::Samples.
  bool Samples(double x0, double x1) const override {
    return ColumnLo(x0) < ColumnHi(x1);
  }
};

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_RASTER_SINK_H_
