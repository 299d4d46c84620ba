#include "heatmap/raster_sink.h"

#include <algorithm>

#include "common/check.h"

namespace rnnhm {

namespace {

// Arc-ordinate batch size: large enough to amortize dispatch and keep the
// widest kernel (8 lanes) busy, small enough to live on each caller's
// stack — parallel shards paint through one shared sink, so OnArcStrip
// must not keep mutable scratch in the sink object.
constexpr int kArcBatch = 64;

PixelAxis MakeCols(const HeatmapGrid& grid) {
  const Rect& d = grid.domain();
  return PixelAxis(d.lo.x, (d.hi.x - d.lo.x) / grid.width(), grid.width());
}

PixelAxis MakeRows(const HeatmapGrid& grid) {
  const Rect& d = grid.domain();
  return PixelAxis(d.lo.y, (d.hi.y - d.lo.y) / grid.height(), grid.height());
}

}  // namespace

RasterWindow::RasterWindow(HeatmapGrid* grid)
    : RasterWindow(grid, MakeCols(*grid), MakeRows(*grid), 0, grid->width(),
                   0, grid->height(), 0, 0) {}

RasterWindow::RasterWindow(HeatmapGrid* grid, const PixelAxis& cols,
                           const PixelAxis& rows, int col_lo, int col_hi,
                           int row_lo, int row_hi, int origin_col,
                           int origin_row)
    : grid_(grid),
      cols_(cols),
      rows_(rows),
      col_lo_(col_lo),
      col_hi_(col_hi),
      row_lo_(row_lo),
      row_hi_(row_hi),
      win_row_lo_(row_lo),
      win_row_hi_(row_hi),
      origin_col_(origin_col),
      origin_row_(origin_row) {
  RNNHM_CHECK(origin_col <= col_lo && origin_row <= row_lo);
  RNNHM_CHECK(col_hi - origin_col <= grid->width());
  RNNHM_CHECK(row_hi - origin_row <= grid->height());
}

void RasterWindow::SetRowWindow(int row_lo, int row_hi) {
  row_lo_ = std::max(win_row_lo_, row_lo);
  row_hi_ = std::min(win_row_hi_, row_hi);
}

void RasterStripSink::OnSpan(double x0, double x1, double y0, double y1,
                             double influence) {
  // A pixel is painted iff its center lies in [x0, x1) x [y0, y1); spans
  // tile strips exactly, so half-open edges avoid double-painting. The
  // center tables are monotone, so the painted set is one index rectangle.
  const int i0 = ColumnLo(x0);
  const int i1 = ColumnHi(x1);
  if (i0 >= i1) return;
  const int j0 = std::max(rows_.LowerBound(y0), row_lo_);
  const int j1 = std::min(rows_.LowerBound(y1), row_hi_);
  for (int j = j0; j < j1; ++j) {
    double* row = grid_->Row(j - origin_row_);
    std::fill(row + (i0 - origin_col_), row + (i1 - origin_col_), influence);
  }
}

void RasterArcSink::OnArcStrip(double x0, double x1, const ArcGeom& lower,
                               const ArcGeom& upper, double influence) {
  const int i0 = ColumnLo(x0);
  const int i1 = ColumnHi(x1);
  const int width = grid_->width();
  double* const base = grid_->data();
  double ylo[kArcBatch];
  double yhi[kArcBatch];
  for (int batch = i0; batch < i1; batch += kArcBatch) {
    const int n = std::min(kArcBatch, i1 - batch);
    const double* centers = cols_.centers() + batch;
    ArcYAtColumns(lower.center, lower.radius, lower.is_upper, centers, ylo, n);
    ArcYAtColumns(upper.center, upper.radius, upper.is_upper, centers, yhi, n);
    for (int k = 0; k < n; ++k) {
      const int j0 = std::max(rows_.LowerBound(ylo[k]), row_lo_);
      const int j1 = std::min(rows_.LowerBound(yhi[k]), row_hi_);
      if (j0 >= j1) continue;
      double* p = base + static_cast<size_t>(j0 - origin_row_) * width +
                  (batch + k - origin_col_);
      for (int j = j0; j < j1; ++j, p += width) *p = influence;
    }
  }
}

}  // namespace rnnhm
