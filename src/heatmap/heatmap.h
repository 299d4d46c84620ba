// Heat-map grids and end-to-end heat-map construction.
//
// A HeatmapGrid is a dense raster of influence values over a rectangular
// domain. Builders are provided for all three metrics:
//   * L-infinity — exact strip rasterization fed by the CREST sweep;
//   * L1         — CREST in the rotated frame (Section VII-B), resampled
//                  back into the original frame;
//   * any metric — brute-force per-pixel evaluation (reference/showcase).
#ifndef RNNHM_HEATMAP_HEATMAP_H_
#define RNNHM_HEATMAP_HEATMAP_H_

#include <cstdint>
#include <vector>

#include "core/crest.h"
#include "core/influence_measure.h"
#include "geom/geometry.h"

namespace rnnhm {

/// Dense raster of influence values over `domain`. Pixel (i, j) covers the
/// cell [lo.x + i*dx, lo.x + (i+1)*dx] x [lo.y + j*dy, ...]; values are
/// point samples at cell centers.
class HeatmapGrid {
 public:
  HeatmapGrid(int width, int height, const Rect& domain,
              double background = 0.0);

  int width() const { return width_; }
  int height() const { return height_; }
  const Rect& domain() const { return domain_; }

  double& At(int i, int j) { return values_[Index(i, j)]; }
  double At(int i, int j) const { return values_[Index(i, j)]; }

  /// Raw pointer to row j (width() consecutive values) — the unchecked
  /// accessor the raster hot loops use; pixel (i, j) is Row(j)[i].
  double* Row(int j) { return values_.data() + static_cast<size_t>(j) * width_; }
  const double* Row(int j) const {
    return values_.data() + static_cast<size_t>(j) * width_;
  }

  /// Raw pointer to the full row-major value array (height() * width()).
  double* data() { return values_.data(); }
  const double* data() const { return values_.data(); }

  /// Center of pixel (i, j).
  Point PixelCenter(int i, int j) const;

  /// Value of the pixel containing p (clamped to the domain; a NaN
  /// coordinate reads index 0). See GridCellOf.
  double Sample(const Point& p) const;

  /// Maximum stored value.
  double MaxValue() const;

  const std::vector<double>& values() const { return values_; }

 private:
  size_t Index(int i, int j) const {
    return static_cast<size_t>(j) * width_ + i;
  }

  int width_;
  int height_;
  Rect domain_;
  std::vector<double> values_;
};

/// The cell (*i, *j) of a width x height grid over `domain` containing p:
/// the truncated offset in cell units, clamped to the grid in double space
/// before the int cast, so a far-off point reads the nearest edge cell and
/// a NaN coordinate reads index 0 (the same clamp as PixelAxis::LowerBound).
/// HeatmapGrid::Sample's lookup; the tiled L1 resample calls it too, so
/// tiled and untiled L1 read the same rotated cell by construction.
void GridCellOf(const Rect& domain, int width, int height, const Point& p,
                int* i, int* j);

/// Builds the exact heat map of L-infinity NN-circles via the CREST strip
/// rasterizer. Pixels outside every labeled span keep the influence of the
/// empty RNN set.
HeatmapGrid BuildHeatmapLInf(const std::vector<NnCircle>& circles,
                             const InfluenceMeasure& measure,
                             const Rect& domain, int width, int height);

/// As BuildHeatmapLInf with the slab-parallel sweep: `num_slabs` shards
/// paint disjoint strips of the shared grid. Output is bit-identical to
/// the sequential builder for every slab count.
HeatmapGrid BuildHeatmapLInfParallel(const std::vector<NnCircle>& circles,
                                     const InfluenceMeasure& measure,
                                     const Rect& domain, int width,
                                     int height, int num_slabs);

/// Builds the heat map for the L1 metric: rotates clients and facilities
/// into the L-infinity frame, sweeps there, and resamples the rotated grid
/// back into `domain`. `oversample` scales the intermediate grid.
HeatmapGrid BuildHeatmapL1(const std::vector<Point>& clients,
                           const std::vector<Point>& facilities,
                           const InfluenceMeasure& measure,
                           const Rect& domain, int width, int height,
                           double oversample = 1.5);

/// As BuildHeatmapL1 from prebuilt L1 NN-circles (diamond radii): rotates
/// the circles, sweeps the rotated frame with `num_slabs` slab shards, and
/// resamples into `domain`. Output is identical for every slab count.
/// `stats_out`, when non-null, receives the rotated sweep's counters.
/// `sweep_options` forwards sweep tuning; its `strip_sink` must be null
/// (the builder owns the rasterizing sink).
HeatmapGrid BuildHeatmapL1Parallel(const std::vector<NnCircle>& l1_circles,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height,
                                   int num_slabs, double oversample = 1.5,
                                   CrestStats* stats_out = nullptr,
                                   const CrestOptions& sweep_options = {});

/// Builds the exact heat map of L2 NN-circles (disks) via the arc sweep's
/// strip rasterizer: every pixel's value is the influence of the region
/// containing its center. Pixels outside every region keep the influence
/// of the empty RNN set.
HeatmapGrid BuildHeatmapL2(const std::vector<NnCircle>& circles,
                           const InfluenceMeasure& measure,
                           const Rect& domain, int width, int height);

/// As BuildHeatmapL2 with the slab-parallel arc sweep: `num_slabs` shards
/// paint disjoint pixel columns of the shared grid. Output is bit-identical
/// to the sequential builder for every slab count (see
/// core/crest_l2.h::RunCrestL2Parallel for the measure caveat).
HeatmapGrid BuildHeatmapL2Parallel(const std::vector<NnCircle>& circles,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height,
                                   int num_slabs);

/// The sequential from-scratch builder for any metric over prebuilt
/// circles: dispatches to BuildHeatmapLInf / BuildHeatmapL1Parallel
/// (one slab) / BuildHeatmapL2. This is the single reference recipe the
/// session's full-rebuild path and verification tools share, so they can
/// never drift apart.
HeatmapGrid BuildHeatmapForMetric(Metric metric,
                                  const std::vector<NnCircle>& circles,
                                  const InfluenceMeasure& measure,
                                  const Rect& domain, int width, int height);

/// Reference builder: evaluates the RNN set of every pixel center directly.
/// O(width * height * n); use for tests and small showcases only.
HeatmapGrid BuildHeatmapBruteForce(const std::vector<NnCircle>& circles,
                                   Metric metric,
                                   const InfluenceMeasure& measure,
                                   const Rect& domain, int width, int height);

/// Axis-aligned bounding box of a point set, optionally padded by a
/// fraction of the larger extent.
Rect BoundingBox(const std::vector<Point>& points, double pad_fraction = 0.0);

}  // namespace rnnhm

#endif  // RNNHM_HEATMAP_HEATMAP_H_
