#include "tile/tile_plan.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/crest_l2.h"
#include "heatmap/raster_sink.h"
#include "index/rtree.h"
#include "nn/nn_circle_builder.h"

namespace rnnhm {

namespace {

PixelAxis AxisX(const Rect& domain, int n) {
  return PixelAxis(domain.lo.x, (domain.hi.x - domain.lo.x) / n, n);
}

PixelAxis AxisY(const Rect& domain, int n) {
  return PixelAxis(domain.lo.y, (domain.hi.y - domain.lo.y) / n, n);
}

// Index boundaries of `parts` cuts over one axis: boundary k converts the
// cut coordinate lo + (extent * k) / parts through the same LowerBound the
// span painting uses, endpoints forced to the full range. Monotone by
// construction (the cuts are nondecreasing and LowerBound is monotone);
// checked rather than trusted because the whole stitch invariant rides on
// it.
std::vector<int> AxisBoundaries(const PixelAxis& axis, double lo,
                                double extent, int parts) {
  std::vector<int> bounds(parts + 1);
  for (int k = 0; k <= parts; ++k) {
    bounds[k] = axis.LowerBound(lo + (extent * k) / parts);
  }
  bounds[0] = 0;
  bounds[parts] = axis.size();
  for (int k = 0; k < parts; ++k) {
    RNNHM_CHECK_MSG(bounds[k] <= bounds[k + 1],
                    "tile boundaries must be nondecreasing");
  }
  return bounds;
}

void Accumulate(const CrestStats& s, MetricSweepStats* out) {
  if (out != nullptr) out->crest += s;
}

void Accumulate(const CrestL2Stats& s, MetricSweepStats* out) {
  if (out != nullptr) out->l2 += s;
}

}  // namespace

std::vector<TileWindow> TileWindows(const Rect& domain, int width, int height,
                                    int rows, int cols) {
  RNNHM_CHECK(width > 0 && height > 0 && rows > 0 && cols > 0);
  RNNHM_CHECK_MSG(rows <= kMaxTileGridSide && cols <= kMaxTileGridSide,
                  "tile grid side over kMaxTileGridSide");
  RNNHM_CHECK(domain.lo.x < domain.hi.x && domain.lo.y < domain.hi.y);
  const std::vector<int> col_bounds = AxisBoundaries(
      AxisX(domain, width), domain.lo.x, domain.hi.x - domain.lo.x, cols);
  const std::vector<int> row_bounds = AxisBoundaries(
      AxisY(domain, height), domain.lo.y, domain.hi.y - domain.lo.y, rows);
  std::vector<TileWindow> windows;
  windows.reserve(static_cast<size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      windows.push_back(TileWindow{col_bounds[c], col_bounds[c + 1],
                                   row_bounds[r], row_bounds[r + 1]});
    }
  }
  return windows;
}

TilePlan::TilePlan(Metric metric, std::span<const NnCircle> circles,
                   const Rect& domain, int width, int height,
                   const TilePlanOptions& options)
    : metric_(metric),
      circles_(circles),
      domain_(domain),
      width_(width),
      height_(height),
      rows_(options.rows),
      cols_(options.cols) {
  const std::vector<TileWindow> windows =
      TileWindows(domain, width, height, rows_, cols_);
  tiles_.resize(windows.size());
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      Tile& t = tiles_[r * cols_ + c];
      t.row = r;
      t.col = c;
      t.window = windows[r * cols_ + c];
    }
  }

  const PixelAxis cols_axis = AxisX(domain, width);
  const PixelAxis rows_axis = AxisY(domain, height);

  if (metric == Metric::kL2) {
    std::vector<NnCircle> all(circles.begin(), circles.end());
    l2_event_span_ = DiskEventGroupSpan(all);
  }

  // Assignment frame: the original plane for kLInf/kL2; the pi/4-rotated
  // frame for kL1, where the sweep and its resample reads actually happen.
  if (metric == Metric::kL1) {
    std::vector<NnCircle> originals(circles.begin(), circles.end());
    rot_circles_ = RotateCirclesToLInf(originals);
    // The untiled builder's rotated geometry, expression for expression
    // (ResampleRotatedSweep): bbox of the rotated domain corners, square
    // grid of ceil(max(w, h) * max(1, oversample)) cells.
    const Point corners[4] = {domain.lo,
                              {domain.hi.x, domain.lo.y},
                              {domain.lo.x, domain.hi.y},
                              domain.hi};
    rot_domain_ = EmptyRect();
    for (const Point& c : corners) {
      const Point r = RotateToLInf(c);
      rot_domain_ = rot_domain_.Union(Rect{r, r});
    }
    rot_res_ = static_cast<int>(std::ceil(std::max(width, height) *
                                          std::max(1.0, options.oversample)));
    const PixelAxis rot_cols = AxisX(rot_domain_, rot_res_);
    const PixelAxis rot_rows = AxisY(rot_domain_, rot_res_);
    // Each tile reads rotated cells around the rotated image of its pixel
    // rectangle. The image is a quad whose coordinate extremes are at the
    // corners (linear map, componentwise-monotone float ops), so the
    // corner cells bound the read set; +/-1 covers any residual rounding
    // and the window CHECK in the resample loop backstops it.
    for (Tile& t : tiles_) {
      if (t.window.empty()) continue;
      const Point pc[4] = {
          {cols_axis.centers()[t.window.col_lo],
           rows_axis.centers()[t.window.row_lo]},
          {cols_axis.centers()[t.window.col_hi - 1],
           rows_axis.centers()[t.window.row_lo]},
          {cols_axis.centers()[t.window.col_lo],
           rows_axis.centers()[t.window.row_hi - 1]},
          {cols_axis.centers()[t.window.col_hi - 1],
           rows_axis.centers()[t.window.row_hi - 1]}};
      int si_lo = rot_res_, si_hi = -1, sj_lo = rot_res_, sj_hi = -1;
      for (const Point& p : pc) {
        int si = 0, sj = 0;
        GridCellOf(rot_domain_, rot_res_, rot_res_, RotateToLInf(p), &si,
                   &sj);
        si_lo = std::min(si_lo, si);
        si_hi = std::max(si_hi, si);
        sj_lo = std::min(sj_lo, sj);
        sj_hi = std::max(sj_hi, sj);
      }
      t.rot_window = TileWindow{std::max(0, si_lo - 1),
                                std::min(rot_res_, si_hi + 2),
                                std::max(0, sj_lo - 1),
                                std::min(rot_res_, sj_hi + 2)};
    }
    // Bulk-load rotated circle bounds; query each tile with the closed
    // coordinate extent of the rotated cells its resample may read.
    std::vector<Rect> bounds;
    bounds.reserve(rot_circles_.size());
    for (const NnCircle& c : rot_circles_) bounds.push_back(c.Bounds());
    RTree rtree;
    rtree.BulkLoad(bounds);
    for (Tile& t : tiles_) {
      if (t.window.empty()) continue;
      const Rect query{{rot_cols.centers()[t.rot_window.col_lo],
                        rot_rows.centers()[t.rot_window.row_lo]},
                       {rot_cols.centers()[t.rot_window.col_hi - 1],
                        rot_rows.centers()[t.rot_window.row_hi - 1]}};
      rtree.Query(query, [&t](int32_t id) { t.circles.push_back(id); });
      std::sort(t.circles.begin(), t.circles.end());
    }
  } else {
    std::vector<Rect> bounds;
    bounds.reserve(circles.size());
    for (const NnCircle& c : circles) bounds.push_back(c.Bounds());
    RTree rtree;
    rtree.BulkLoad(bounds);
    for (Tile& t : tiles_) {
      if (t.window.empty()) continue;
      // Closed extent of the tile's pixel centers: any circle containing
      // one of those centers has a bounding box intersecting it.
      const Rect query{{cols_axis.centers()[t.window.col_lo],
                        rows_axis.centers()[t.window.row_lo]},
                       {cols_axis.centers()[t.window.col_hi - 1],
                        rows_axis.centers()[t.window.row_hi - 1]}};
      rtree.Query(query, [&t](int32_t id) { t.circles.push_back(id); });
      std::sort(t.circles.begin(), t.circles.end());
    }
  }
}

std::vector<NnCircle> TilePlan::GatherCircles(const Tile& t) const {
  std::vector<NnCircle> subset;
  subset.reserve(t.circles.size());
  for (const int32_t id : t.circles) subset.push_back(circles_[id]);
  return subset;
}

void TilePlan::SweepWindowed(const Tile& t, const InfluenceMeasure& measure,
                             int num_slabs, HeatmapGrid* target,
                             int origin_col, int origin_row,
                             MetricSweepStats* stats) const {
  const TileWindow& w = t.window;
  if (w.empty() || t.circles.empty()) return;  // background is correct

  const PixelAxis cols_axis = AxisX(domain_, width_);
  const PixelAxis rows_axis = AxisY(domain_, height_);

  switch (metric_) {
    case Metric::kLInf: {
      const std::vector<NnCircle> subset = GatherCircles(t);
      RasterStripSink sink(target, cols_axis, rows_axis, w.col_lo, w.col_hi,
                           w.row_lo, w.row_hi, origin_col, origin_row);
      CrestOptions options;
      options.strip_sink = &sink;
      Accumulate(RunCrestParallelStrips(subset, measure, num_slabs, options),
                 stats);
      break;
    }
    case Metric::kL2: {
      const std::vector<NnCircle> subset = GatherCircles(t);
      RasterArcSink sink(target, cols_axis, rows_axis, w.col_lo, w.col_hi,
                         w.row_lo, w.row_hi, origin_col, origin_row);
      CrestL2Options options;
      options.arc_sink = &sink;
      options.event_group_span = l2_event_span_;
      Accumulate(RunCrestL2ParallelStrips(subset, measure, num_slabs, options),
                 stats);
      break;
    }
    case Metric::kL1: {
      // Sweep the rotated subset into a fragment of the untiled builder's
      // rotated grid (global rotated axes), then resample only this tile's
      // pixels through the exact Sample arithmetic.
      const TileWindow& rw = t.rot_window;
      std::vector<NnCircle> rot_subset;
      rot_subset.reserve(t.circles.size());
      for (const int32_t id : t.circles) {
        rot_subset.push_back(rot_circles_[id]);
      }
      const PixelAxis rot_cols = AxisX(rot_domain_, rot_res_);
      const PixelAxis rot_rows = AxisY(rot_domain_, rot_res_);
      HeatmapGrid rotated(rw.width(), rw.height(), rot_domain_,
                          measure.Evaluate({}));
      RasterStripSink sink(&rotated, rot_cols, rot_rows, rw.col_lo, rw.col_hi,
                           rw.row_lo, rw.row_hi, rw.col_lo, rw.row_lo);
      CrestOptions options;
      options.strip_sink = &sink;
      Accumulate(
          RunCrestParallelStrips(rot_subset, measure, num_slabs, options),
          stats);
      for (int j = w.row_lo; j < w.row_hi; ++j) {
        for (int i = w.col_lo; i < w.col_hi; ++i) {
          const Point q = RotateToLInf(
              Point{cols_axis.centers()[i], rows_axis.centers()[j]});
          int si = 0, sj = 0;
          GridCellOf(rot_domain_, rot_res_, rot_res_, q, &si, &sj);
          RNNHM_CHECK_MSG(si >= rw.col_lo && si < rw.col_hi &&
                              sj >= rw.row_lo && sj < rw.row_hi,
                          "L1 resample read outside the tile's rotated "
                          "window");
          target->At(i - origin_col, j - origin_row) =
              rotated.At(si - rw.col_lo, sj - rw.row_lo);
        }
      }
      break;
    }
  }
}

void TilePlan::SweepTileInto(const Tile& t, const InfluenceMeasure& measure,
                             int num_slabs, HeatmapGrid* out,
                             MetricSweepStats* stats) const {
  RNNHM_CHECK(out->width() == width_ && out->height() == height_);
  SweepWindowed(t, measure, num_slabs, out, /*origin_col=*/0,
                /*origin_row=*/0, stats);
}

HeatmapGrid TilePlan::SweepTileFragment(const Tile& t,
                                        const InfluenceMeasure& measure,
                                        int num_slabs,
                                        MetricSweepStats* stats) const {
  const TileWindow& w = t.window;
  RNNHM_CHECK_MSG(!w.empty(), "empty tiles have no fragment");
  // The fragment's own domain is decorative (painting goes through the
  // global axes); use the tile's coordinate cell when it is representable,
  // else fall back to the full domain.
  const double dx = (domain_.hi.x - domain_.lo.x) / width_;
  const double dy = (domain_.hi.y - domain_.lo.y) / height_;
  Rect frag_domain{{domain_.lo.x + w.col_lo * dx, domain_.lo.y + w.row_lo * dy},
                   {domain_.lo.x + w.col_hi * dx, domain_.lo.y + w.row_hi * dy}};
  if (!(frag_domain.lo.x < frag_domain.hi.x &&
        frag_domain.lo.y < frag_domain.hi.y)) {
    frag_domain = domain_;
  }
  HeatmapGrid fragment(w.width(), w.height(), frag_domain,
                       measure.Evaluate({}));
  SweepWindowed(t, measure, num_slabs, &fragment, w.col_lo, w.row_lo, stats);
  return fragment;
}

void TilePlan::StitchFragment(const TileWindow& window,
                              const HeatmapGrid& fragment, HeatmapGrid* out) {
  RNNHM_CHECK(fragment.width() == window.width() &&
              fragment.height() == window.height());
  RNNHM_CHECK(window.col_hi <= out->width() && window.row_hi <= out->height());
  for (int j = 0; j < fragment.height(); ++j) {
    const double* src = fragment.Row(j);
    double* dst = out->Row(window.row_lo + j) + window.col_lo;
    std::copy(src, src + fragment.width(), dst);
  }
}

HeatmapGrid TilePlan::Run(const InfluenceMeasure& measure, int num_slabs,
                          MetricSweepStats* stats) const {
  HeatmapGrid out(width_, height_, domain_, measure.Evaluate({}));
  for (const Tile& t : tiles_) {
    SweepTileInto(t, measure, num_slabs, &out, stats);
  }
  return out;
}

}  // namespace rnnhm
