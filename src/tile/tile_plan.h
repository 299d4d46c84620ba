// Domain tiling: partition a raster into an R x C grid of tiles, sweep
// every tile independently over just the circles that can influence it, and
// stitch the per-tile rasters into one grid bit-identical to the untiled
// sweep (ROADMAP item 1 — datasets bigger than one sweep).
//
// Why stitching is exact: a pixel's value is the influence of the circles
// whose region contains the pixel's *center*, and the raster sinks paint by
// center sampling through the global PixelAxis tables. A tile sweep over
// any superset of the circles covering the tile's pixel centers therefore
// paints exactly the values the full sweep paints there — extra circles
// contribute empty spans at centers they do not contain, and span-to-index
// conversion goes through the same global center tables the untiled sink
// uses (see the fragment constructors in heatmap/raster_sink.h). Holds for
// influence measures whose value does not depend on RNN-set iteration
// order (SizeInfluence et al.), the same caveat as the slab decomposition.
//
// Tile boundaries come from PixelAxis::LowerBound over the global center
// table — never from independent float math — so tile edges can never
// disagree with the span edges the sweeps emit, and the windows partition
// the pixel space exactly (every output pixel has exactly one owner tile).
//
// Circle-to-tile assignment is a bulk R-tree pass (src/index/rtree.h): one
// STR bulk load of the circle bounding boxes, one window query per tile
// with the tile's closed pixel-center extent — O(n log n + tiles * log n)
// instead of the O(n * tiles) scan. For L1 the sweep runs in the pi/4-
// rotated frame, so assignment happens there too: the R-tree holds rotated
// bounds and each tile queries the rotated cell window its resample reads.
#ifndef RNNHM_TILE_TILE_PLAN_H_
#define RNNHM_TILE_TILE_PLAN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/crest_parallel.h"
#include "geom/geometry.h"
#include "heatmap/heatmap.h"

namespace rnnhm {

/// Ceiling on each side of a tile grid, wherever one is accepted: the wire
/// decoder, the engine, the by-tile router and the CLI. Keeps a hostile or
/// mistyped grid from allocating millions of tile windows, and keeps
/// rows * cols (at most 2^20) far inside int range.
inline constexpr int kMaxTileGridSide = 1024;

/// Half-open global pixel-index window [col_lo, col_hi) x [row_lo, row_hi).
struct TileWindow {
  int col_lo = 0;
  int col_hi = 0;
  int row_lo = 0;
  int row_hi = 0;

  bool empty() const { return col_lo >= col_hi || row_lo >= row_hi; }
  int width() const { return col_hi - col_lo; }
  int height() const { return row_hi - row_lo; }
  friend bool operator==(const TileWindow&, const TileWindow&) = default;
};

/// The R x C tile pixel windows of a width x height raster over `domain`,
/// row-major (tile (r, c) at index r * cols + c). Boundary k of the column
/// cut at coordinate lo.x + (extent * k) / cols is
/// PixelAxis::LowerBound(cut) — the exact conversion the sweeps' span
/// painting uses — with the outer boundaries forced to 0 and width, so the
/// windows partition [0, width) x [0, height) no matter how the cut
/// coordinates round. Shards and routers calling this with equal arguments
/// compute equal windows (no per-process state).
std::vector<TileWindow> TileWindows(const Rect& domain, int width, int height,
                                    int rows, int cols);

/// One tile of a TilePlan.
struct Tile {
  int row = 0;  ///< position in the tile grid
  int col = 0;
  TileWindow window;  ///< global pixel-index window this tile owns
  /// Indices (ascending) into the plan's circle span of every circle whose
  /// influence can reach a pixel center of this tile — a conservative
  /// superset via bounding-box intersection.
  std::vector<int32_t> circles;
  /// kL1 only: the rotated-grid cell window the tile's resample reads.
  TileWindow rot_window;
};

struct TilePlanOptions {
  int rows = 1;
  int cols = 1;
  /// Intermediate-grid scaling of the L1 rotated sweep; must match the
  /// untiled builder's (BuildHeatmapL1Parallel default) for bit-identity.
  double oversample = 1.5;
};

/// An immutable tiling of one (metric, circles, domain, width, height)
/// sweep. Does not own the circles: the span must outlive the plan.
class TilePlan {
 public:
  TilePlan(Metric metric, std::span<const NnCircle> circles,
           const Rect& domain, int width, int height,
           const TilePlanOptions& options = {});

  Metric metric() const { return metric_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int width() const { return width_; }
  int height() const { return height_; }
  const Rect& domain() const { return domain_; }
  const std::vector<Tile>& tiles() const { return tiles_; }
  const Tile& tile(int r, int c) const { return tiles_[r * cols_ + c]; }

  /// Materializes the tile's assigned circles (input order preserved) —
  /// the subset a shard sweeps, and what per-tile cache keys hash.
  std::vector<NnCircle> GatherCircles(const Tile& t) const;

  /// Sweeps one tile into the full-size grid `out` (which must have the
  /// plan's width/height). Only pixels inside the tile's window are
  /// written; they end up bit-identical to the untiled sweep's. `num_slabs`
  /// is the slab parallelism within the tile sweep (any value yields the
  /// same bits). Stats accumulate into `*stats` when non-null.
  void SweepTileInto(const Tile& t, const InfluenceMeasure& measure,
                     int num_slabs, HeatmapGrid* out,
                     MetricSweepStats* stats = nullptr) const;

  /// Sweeps one tile into a window-sized fragment grid — what a by-tile
  /// shard returns over the wire. Fragment cell (i, j) is global pixel
  /// (window.col_lo + i, window.row_lo + j). Requires !t.window.empty().
  HeatmapGrid SweepTileFragment(const Tile& t, const InfluenceMeasure& measure,
                                int num_slabs,
                                MetricSweepStats* stats = nullptr) const;

  /// Copies a window-sized fragment into its place in the full grid.
  static void StitchFragment(const TileWindow& window,
                             const HeatmapGrid& fragment, HeatmapGrid* out);

  /// Sweeps every tile and stitches: the full grid, bit-identical to the
  /// untiled BuildHeatmap*Parallel output for this metric.
  HeatmapGrid Run(const InfluenceMeasure& measure, int num_slabs = 1,
                  MetricSweepStats* stats = nullptr) const;

 private:
  void SweepWindowed(const Tile& t, const InfluenceMeasure& measure,
                     int num_slabs, HeatmapGrid* target, int origin_col,
                     int origin_row, MetricSweepStats* stats) const;

  Metric metric_;
  std::span<const NnCircle> circles_;
  Rect domain_;
  int width_;
  int height_;
  int rows_;
  int cols_;
  std::vector<Tile> tiles_;
  // kL2: the full-set event-grouping span every tile sweep shares (the
  // same contract slab shards follow; see core/crest_l2.h).
  double l2_event_span_ = -1.0;
  // kL1: the exact rotated-sweep geometry of the untiled builder
  // (heatmap.cc's ResampleRotatedSweep), reproduced once here.
  std::vector<NnCircle> rot_circles_;
  Rect rot_domain_ = EmptyRect();
  int rot_res_ = 0;
};

}  // namespace rnnhm

#endif  // RNNHM_TILE_TILE_PLAN_H_
